import inspect
from collections import Counter

import pytest

from liedim import oracle, verify


def test_check_family_record():
    fam = verify.CheckFamily("demo")
    fam.record(True, "(a)")
    fam.record(False, "(b)")
    fam.record(False, "(c)")
    assert fam.checks == 3
    assert fam.failures == ["(b)", "(c)"]
    assert verify.failure_count([fam]) == 2


def test_conv_chain():
    assert verify.conv_chain(2, 3) == [
        (0, 3),
        (1, 6),
        (2, 12),
        (3, 24),
        (4, 48),
        (5, 96),
        (6, 192),
        (7, 384),
        (8, 768),
        (9, 1536),
        (10, 3072),
    ]
    assert verify.conv_chain(3, 5)[-1] == (6, 3645)


def test_witt_suite_green():
    fams = verify.run_suites("witt")
    names = [fam.name for fam in fams]
    assert names == ["witt/two-sided-bounds", "witt/one-letter-alphabet"]
    assert [fam.checks for fam in fams] == [640, 100]
    assert verify.failure_count(fams) == 0


def test_p_adic_round_trip_checks_every_r(monkeypatch):
    # the family counts its checks per prime, so a wrong split at one r must still show
    real = verify.p_adic_split

    def wrong_at_96(r, p):
        m, k = real(r, p)
        return (m, k * p) if (r, p) == (96, 2) else (m, k)

    monkeypatch.setattr(verify, "p_adic_split", wrong_at_96)
    padic = {fam.name: fam for fam in verify.arith_suite()}["arith/p-adic-round-trip"]
    assert padic.checks == 400_000
    assert padic.failures == ["(p=2, r=96)"]


def test_suite_dispatch_rejects_unknown():
    with pytest.raises(ValueError):
        verify.run_suites("everything")


def test_all_suite_contains_every_family():
    # structural check only; the heavy grids run in the acceptance tests
    assert set(verify.SUITE_NAMES) == {"all", "witt", "b", "c", "oracle"}


def _run_logged(monkeypatch, suite, slow):
    """Run the suites; log each span charge, rank and suite call, in order,
    as (kind, the call's arguments)."""
    log = []

    def logged(kind, fn):
        def wrapper(*args, **kwargs):
            log.append((kind, args))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(oracle, "charge_span", logged("charge", oracle.charge_span))
    for span in (oracle._Rows, oracle._LiePowerSpan):
        monkeypatch.setattr(span, "rank", logged("rank", span.rank))
    for name in ("arith_suite", "witt_suite", "b_suite", "c_suite", "oracle_suite"):
        monkeypatch.setattr(verify, name, logged("suite", getattr(verify, name)))
    return verify.run_suites(suite, slow), log


@pytest.mark.parametrize(
    "suite, slow",
    [
        ("c", False),
        ("oracle", False),
        ("all", False),
        pytest.param("c", True, marks=pytest.mark.slow),
        pytest.param("oracle", True, marks=pytest.mark.slow),
        pytest.param("all", True, marks=pytest.mark.slow),
    ],
)
def test_up_front_charge_matches_the_run(monkeypatch, suite, slow):
    # every distinct span is charged once, before the first suite runs, and
    # ranked once, in the order it was built: under "all" the c and oracle
    # weight-space families share the six Q spans, so 144 rank checks read 138
    families, log = _run_logged(monkeypatch, suite, slow)
    kinds = [kind for kind, _ in log]
    assert "charge" not in kinds[kinds.index("suite") :]
    charged = [args[1] for kind, args in log if kind == "charge"]  # charge_span(task, rows, budget)
    ranked = [args[0] for kind, args in log if kind == "rank"]  # span.rank()
    extra = slow and suite != "c"
    rank_checks = sum(fam.checks for fam in families if fam.name.endswith(("-rank", "/weight-space-oracle")))
    assert rank_checks == {"c": 6, "oracle": 138, "all": 144}[suite] + extra
    assert len(set(map(id, charged))) == len(charged) == {"c": 6, "oracle": 138, "all": 138}[suite] + extra
    assert ranked == charged


def test_each_walk_and_span_is_charged_once(monkeypatch):
    # the aperiodic walks are charged where they run, and each distinct span
    # where it is built, so no work is charged twice
    tasks = Counter()
    monkeypatch.setattr(oracle, "_charge", lambda budget, task, floor, shown, work: tasks.update([task]))
    verify.run_suites("all")
    assert tasks == {
        "aperiodic word enumeration": 30,
        "Lie power span expansion": 54,
        "Lyndon word enumeration": 54,
        "Lyndon bracketing span": 54,
        "multilinear bracket span": 18,
        "weight space span": 12,
    }


def test_bracket_smoke_reads_the_fold_the_rank_oracle_uses(monkeypatch):
    # flip the sign of the v (x) u half in _bracket_columns, the one bracket
    # product, which the fold of lie_power_span's rows calls: [a, b] becomes
    # ab + ba, and the smoke family, which reads the same fold, fails all nine
    # antisymmetry checks
    source = inspect.getsource(oracle._bracket_columns)
    flipped = source.replace("get(key, 0) - x * y", "get(key, 0) + x * y")
    assert flipped != source
    namespace = dict(vars(oracle))
    exec(flipped, namespace)
    monkeypatch.setattr(oracle, "_bracket_columns", namespace["_bracket_columns"])
    smoke = verify.oracle_suite(verify._oracle_spans("oracle", False))[-1]
    assert smoke.name == "oracle/bracket-smoke"
    assert smoke.failures == [f"(antisymmetry a={a}, b={b})" for a in range(3) for b in range(3)]

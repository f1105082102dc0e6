import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from liedim import arith, cli, lie_powers
from liedim import verify as verify_mod
from liedim import witt as witt_mod
from liedim.arith import ExactnessError
from liedim.cli import main
from liedim.lie_modules import dim_lie_bits_lower
from liedim.render import FAST_STR_MIN_BITS, str_to_int
from liedim.report import (
    TEXT_PRICE,
    ConvergenceRow,
    RunConfig,
    build_b_rows,
    build_c_rows,
    rows_from_json,
    to_csv,
    to_json,
)


# stdout digests at the default --float-bits: an odd prime, the m = 0 bound of
# 1, the empty bound column at k = 1 and odd-degree (square-root) b bounds
TABLE_DIGESTS = {
    "b-table --p 3 --n 2 --k 1 --k 2 --k 5 --m-max 4":
        "4f43c80b9849c959e0fd300d6794f93711c959c4b92040704c4d42d1e7df4be2",
    "b-table --p 3 --n 2 --k 1 --k 2 --k 5 --m-max 4 --format json":
        "65caa9c9caa9349680f93d51b383ad5e0bae4004a21c03604a456d12bbfe39b3",
    "c-table --p 3 --k 1 --k 2 --k 4 --m-max 5":
        "462fa3e3b6e7302fb30d01e8911b940b509c7cc2d04a9e6e720e86054369f55b",
    "c-table --p 3 --k 1 --k 2 --k 4 --m-max 5 --format json":
        "14db73b42506c5742de48e5f17cf881f4d50c518f599e07159b8597a609f076f",
}

# stdout digests of tables with integers past FAST_STR_MIN_BITS bits ((3071)!
# ~ 31k bits never reaches that size): the bytes the built-in str() conversion
# printed under a lifted digit limit, which int_to_str must match at any limit
BIG_TABLE_DIGESTS = {
    "c-table --p 2 --k 3 --m-max 11":
        "da3890d51bd91a338734ccc2f69b030d651e56a2c9c2f620e58bd84cce3d5aa2",
    "b-table --p 2 --n 3 --k 5 --m-max 13 --format json":
        "997b2c18858ca5b3869beb31364f3aeb61f61bf500db6865f35c939f257ff96b",
}

# over the default work budget, most by far: each must be refused before its
# integers are built, at any digit limit; the first three ran unbounded under a
# lifted limit while the limit was the only size gate, c-table --m-max 16 is the
# smallest of its chain over the budget, and b-table --m-max 18 (about 4 s) and
# 19 (about 13 s) are the smallest of theirs since a b row is priced eight times
# a c row of the same size
BASELINE_UNBOUNDED = (
    "witt --n 2 --r 100000000",
    "b-table --p 2 --n 2 --k 3 --m-max 40",
    "c-table --p 2 --k 3 --m-max 22",
)
OVERSIZED = (
    *BASELINE_UNBOUNDED,
    "b-table --p 2 --n 2 --k 3 --m-max 22",
    "c-table --p 2 --k 3 --m-max 40",
    "b-table --p 2 --n 2 --k 3 --m-max 20",
    "c-table --p 2 --k 3 --m-max 16",
    "b-table --p 2 --n 2 --k 3 --m-max 18",
    "b-table --p 2 --n 2 --k 3 --m-max 19",
)

# (command, the expected rank, the exact stdout)
RANK_COMMANDS = (
    (["oracle", "lie-power", "--n", "2", "--r", "6", "--field", "f2"], 9, "rank = 9\nwitt = 9\nagree\n"),
    (["oracle", "lie-module", "--r", "5"], 24, "rank = 24\n(r-1)! = 24\nagree\n"),
    (["oracle", "weight-space", "--q", "2", "--k", "2"], 12, "rank = 12\n(qk)!/k = 12\nagree\n"),
)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def set_digit_limit():
    """sys.set_int_max_str_digits, with the process's limit restored afterwards."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def _error_lines(result) -> list[str]:
    return [line for line in result.output.splitlines() if line.startswith("Error:")]


def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up while the file runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_witt_ok(runner):
    result = runner.invoke(main, ["witt", "--n", "2", "--r", "6"])
    assert result.exit_code == 0
    assert "w(2, 6) = 9" in result.output
    assert "bounds OK" in result.output


def test_witt_one_letter(runner):
    result = runner.invoke(main, ["witt", "--n", "1", "--r", "5"])
    assert result.exit_code == 0
    assert "w(1, 5) = 0" in result.output


def test_witt_lower_bound_with_no_excess(runner):
    # n^r = r*w, so the excess 2n^r - 2rw is 0 and the lower bound needs no square
    result = runner.invoke(main, ["witt", "--n", "3", "--r", "1"])
    assert result.exit_code == 0
    assert result.output == (
        "w(3, 1) = 3\n"
        "upper: r*w = 3 <= n^r = 3\n"
        "lower: excess 2n^r - 2rw = 0 <= 0\n"
        "bounds OK\n"
    )


def test_witt_domain_errors(runner):
    result = runner.invoke(main, ["witt", "--n", "2", "--r", "0"])
    assert result.exit_code == 2
    assert "r must be >= 1" in result.output
    result = runner.invoke(main, ["witt", "--n", "0", "--r", "3"])
    assert result.exit_code == 2
    assert "n must be >= 1" in result.output


def test_b_table_matches_library(runner):
    result = runner.invoke(
        main,
        ["b-table", "--p", "2", "--n", "2", "--k", "3", "--k", "5", "--m-max", "3"],
    )
    assert result.exit_code == 0
    cfg = RunConfig(p=2, k_list=(3, 5), m_max=3, n=2)
    assert result.output == to_csv(build_b_rows(cfg))


def test_c_table_matches_library(runner):
    result = runner.invoke(main, ["c-table", "--p", "2", "--k", "3", "--m-max", "2"])
    assert result.exit_code == 0
    cfg = RunConfig(p=2, k_list=(3,), m_max=2)
    assert result.output == to_csv(build_c_rows(cfg))
    # frozen dimensions appear in the expected rows
    lines = result.output.splitlines()
    assert lines[1].startswith("3,2,0,3,2,2,")
    assert lines[2].startswith("6,2,1,3,80,120,")
    assert lines[3].startswith("12,2,2,3,35481600,39916800,")


def test_c_table_single_trivial_row(runner):
    result = runner.invoke(main, ["c-table", "--p", "5", "--k", "2", "--m-max", "0"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("2,5,0,2,1,1,1,1,")


def test_table_json_parses(runner):
    result = runner.invoke(
        main,
        ["b-table", "--p", "3", "--n", "2", "--k", "2", "--m-max", "2", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert [row["r"] for row in payload] == [2, 6, 18]


def test_table_domain_errors(runner):
    result = runner.invoke(main, ["b-table", "--p", "4", "--n", "2", "--k", "3"])
    assert result.exit_code == 2
    assert "p must be prime" in result.output
    result = runner.invoke(main, ["c-table", "--p", "2", "--k", "4"])
    assert result.exit_code == 2
    assert "divisible" in result.output
    result = runner.invoke(main, ["c-table", "--p", "2", "--k", "3", "--m-max", "-1"])
    assert result.exit_code == 2


def test_closed_form_digit_limit(runner, set_digit_limit):
    # integers past the interpreter's int-to-str digit limit print in full at
    # the default limit, the same bytes as under a lifted one
    witt = ["witt", "--n", "10", "--r", "5000"]
    c_table = ["c-table", "--p", "2", "--k", "3", "--m-max", "10"]
    b_table = ["b-table", "--p", "2", "--n", "2", "--k", "3", "--m-max", "13"]
    outputs = {}
    for limit in (sys.int_info.default_max_str_digits, 0):
        set_digit_limit(limit)
        for args in (witt, c_table, b_table):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (limit, args, result.output)
            outputs.setdefault(tuple(args), set()).add(result.stdout)
    assert all(len(texts) == 1 for texts in outputs.values())
    (c_text,) = outputs[tuple(c_table)]
    assert hashlib.sha256(c_text.encode()).hexdigest() == _benchmark_workloads().C_TABLE_M10
    (witt_text,) = outputs[tuple(witt)]
    assert witt_text.startswith("w(10, 5000) = ") and witt_text.endswith("bounds OK\n")
    assert len(witt_text.splitlines()[0]) > sys.int_info.default_max_str_digits


def test_big_tables_byte_identical(runner, set_digit_limit):
    set_digit_limit(0)
    for command, digest in BIG_TABLE_DIGESTS.items():
        result = runner.invoke(main, command.split())
        assert result.exit_code == 0, command
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest, command
        # the largest integer printed took int_to_str's divide-and-conquer path
        assert int(max(re.findall(r"\d+", result.stdout), key=len)).bit_length() >= FAST_STR_MIN_BITS


def test_oversized_runs_refused_up_front(runner, set_digit_limit):
    for limit in (sys.int_info.default_max_str_digits, 0):
        set_digit_limit(limit)
        for command in OVERSIZED:
            start = time.perf_counter()
            result = runner.invoke(main, command.split())
            assert time.perf_counter() - start < 1.0, (limit, command)
            _assert_one_line_refusal(result, (limit, command))
            assert "output needs about" in _error_lines(result)[0], command
            assert "budget is 10000000" in _error_lines(result)[0], command
    # the charge is sound: a c-table past the default digit limit within the budget prints
    set_digit_limit(sys.int_info.default_max_str_digits)
    result = runner.invoke(main, ["c-table", "--p", "2", "--k", "3", "--m-max", "12"])
    assert result.exit_code == 0
    assert len(result.stdout.splitlines()) == 14


def test_baseline_unbounded_runs_refused_in_fresh_processes():
    # a fresh interpreter with the digit limit lifted through the environment;
    # the time includes the interpreter's start-up
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONINTMAXSTRDIGITS": "0"}
    env.pop("LIEDIM_BUDGET", None)
    for command in BASELINE_UNBOUNDED:
        start = time.perf_counter()
        argv = [sys.executable, "-m", "liedim.cli", *command.split()]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
        assert time.perf_counter() - start < 2.0, command
        assert proc.returncode == 2, (command, proc.stderr)
        assert proc.stdout == ""
        assert [line for line in proc.stderr.splitlines() if line.strip()][-1].startswith("Error: "), proc.stderr
        assert "Traceback" not in proc.stderr


def test_one_letter_witt_divisor_walk_charged_in_fresh_processes():
    # w(1, r) prints nothing large, but its divisor walk takes about isqrt(r)
    # steps; that is charged, and r = 10^16 (10^8 steps) is refused at once
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("LIEDIM_BUDGET", None)
    argv = [sys.executable, "-m", "liedim.cli", "witt", "--n", "1", "--r"]
    start = time.perf_counter()
    proc = subprocess.run([*argv, "10000000000000000"], capture_output=True, text=True, timeout=60, env=env)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert [line for line in proc.stderr.splitlines() if line.startswith("Error:")] == [
        "Error: witt divisor walk needs about isqrt(10000000000000000) units of work, budget is 10000000 "
        "(raise it via the budget argument or LIEDIM_BUDGET)"
    ]
    assert "Traceback" not in proc.stderr
    proc = subprocess.run([*argv, "10000000000"], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "w(1, 10000000000) = 0"
    assert proc.stdout.endswith("bounds OK\n")


def _ks(first, last):
    return " ".join(f"--k {k}" for k in range(first, last + 1, 2))


# charged before any work and refused at once: proving a 20-digit p prime takes
# about 5 * 10^9 trial divisions and finding the semiprime 1000000007 *
# 1000000009 composite 5 * 10^8; 1,500 rows of 65,536-bit decimals run 15 s,
# and 2,000 rows of up to 92,000 bits, whose decimal text the b^2 price
# under-charged (3.2 * 10^6 units), 4.5-5.5 s
CHARGED_UP_FRONT = (
    ("b-table --p 99999999999999999989 --n 2 --k 3 --m-max 0", "primality check of p", "isqrt(99999999999999999989)"),
    ("c-table --p 99999999999999999989 --k 3 --m-max 0", "primality check of p", "isqrt(99999999999999999989)"),
    ("c-table --p 1000000016000000063 --k 3 --m-max 0", "primality check of p", "isqrt(1000000016000000063)"),
    (f"b-table --p 2 --n 2 {_ks(3, 3001)} --m-max 0 --float-bits 65536", "b table output", "2^26"),
    (f"c-table --p 2 {_ks(3, 1001)} --m-max 3", "c table output", "22051316"),
)


def test_primality_and_decimal_columns_charged_in_fresh_processes():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("LIEDIM_BUDGET", None)
    for command, task, work in CHARGED_UP_FRONT:
        start = time.perf_counter()
        argv = [sys.executable, "-m", "liedim.cli", *command.split()]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
        assert time.perf_counter() - start < 1.0, command
        assert proc.returncode == 2 and proc.stdout == "", command
        assert [line for line in proc.stderr.splitlines() if line.strip()] == [
            f"Error: {task} needs about {work} units of work, budget is 10000000 "
            "(raise it via the budget argument or LIEDIM_BUDGET)"
        ], command
    # isqrt(p) = 10^7 is the default budget: p is proved once, in about 1 s,
    # not 2 + 3 * 10 times
    start = time.perf_counter()
    argv = [sys.executable, "-m", "liedim.cli", *f"c-table --p 100000000000031 {_ks(3, 21)} --m-max 0".split()]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 11


def test_table_proves_p_once(runner):
    arith.is_prime.cache_clear()
    result = runner.invoke(main, ["b-table", "--p", "101", "--n", "2", *_ks(3, 21).split(), "--m-max", "1"])
    assert result.exit_code == 0
    assert arith.is_prime.cache_info().misses == 1


def test_decimal_columns_priced_by_float_bits(runner, monkeypatch):
    # a row with ratio 0 < c < 1 renders three decimals of f bits, priced
    # 8 * f * (f + 4096) squares each; the m = 0 row renders 1, 1 and 0,
    # priced as one decimal; the rows' integers add their squared bits and
    # their text, TEXT_PRICE per bit
    f = 65536
    work = ((3 + 1) * 8 * f * (f + 4096) + sum((b + TEXT_PRICE) * b for b in map(dim_lie_bits_lower, (3, 6)))) >> 19
    assert work == 278528
    monkeypatch.setenv("LIEDIM_BUDGET", str(work - 1))
    result = runner.invoke(main, ["c-table", "--p", "2", "--k", "3", "--m-max", "1", "--float-bits", str(f)])
    assert _error_lines(result) == [
        f"Error: c table output needs about {work} units of work, budget is {work - 1} "
        "(raise it via the budget argument or LIEDIM_BUDGET)"
    ]
    monkeypatch.setenv("LIEDIM_BUDGET", str(work))
    result = runner.invoke(main, ["c-table", "--p", "2", "--k", "3", "--m-max", "1", "--float-bits", str(f)])
    assert result.exit_code == 0


@pytest.mark.slow
def test_c_table_converges_to_r_98304(runner, set_digit_limit):
    # 16 rows along r = 3 * 2^m, the longest table of this chain that the
    # default budget admits; the exact gap 1 - c_r falls at every step
    set_digit_limit(sys.int_info.default_max_str_digits)
    result = runner.invoke(main, ["c-table", "--p", "2", "--k", "3", "--m-max", "15"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "696c2567b4cc58bdc1b8324ddcbe87706f7324a75029d273350195b2bf4efe98"
    )
    rows = _rows_from_csv(result.stdout)
    assert [row.m for row in rows] == list(range(16))
    assert rows[-1].r == 98304
    gaps = [1 - row.ratio for row in rows]
    assert gaps[0] == 0
    assert all(gap > nxt for gap, nxt in zip(gaps[1:], gaps[2:]))
    assert Fraction(2, 10**5) < gaps[-1] < Fraction(21, 10**6)


def _rows_from_csv(text):
    header, *lines = text.splitlines()
    columns = header.split(",")
    return [
        ConvergenceRow(**{c: v if c.endswith("_float") else str_to_int(v) for c, v in zip(columns, line.split(","))})
        for line in lines
    ]


@given(
    table=st.sampled_from(("b-table", "c-table")),
    p=st.sampled_from((2, 3, 5, 0, 1, 4, -3)),
    n=st.integers(min_value=1, max_value=4),
    ks=st.lists(st.integers(min_value=-2, max_value=12), min_size=1, max_size=2),
    m_max=st.integers(min_value=-1, max_value=4),
)
# about 100 examples of two small tables each; the runs take milliseconds, but
# a per-example deadline would time the host's load
@settings(deadline=None, max_examples=100)
def test_table_commands_sweep(table, p, n, ks, m_max):
    args = [table, "--p", str(p), *(["--n", str(n)] if table == "b-table" else []), "--m-max", str(m_max)]
    args += [arg for k in ks for arg in ("--k", str(k))]
    runner = CliRunner()
    csv_result = runner.invoke(main, args)
    json_result = runner.invoke(main, [*args, "--format", "json"])
    for result in (csv_result, json_result):
        assert result.exit_code in (0, 2), (args, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
        assert "Traceback" not in result.output, args
    assert csv_result.exit_code == json_result.exit_code, args
    if csv_result.exit_code == 2:
        assert csv_result.stdout == "" and len(_error_lines(csv_result)) == 1, (args, csv_result.output)
        return
    rows = _rows_from_csv(csv_result.stdout)
    assert rows == rows_from_json(json_result.stdout), args
    assert to_json(rows) == json_result.stdout, args
    assert len(rows) == len(ks) * (m_max + 1), args
    assert all(0 <= row.ratio <= 1 for row in rows), args


# every oracle subcommand and witt, with small and invalid sizes and fields
_SIZE = st.integers(min_value=-1, max_value=5)
_FIELD = st.sampled_from(("q", "f2", "f3", "f5", "f4", "f7", ""))
_ORACLE_ARGS = st.one_of(
    st.tuples(st.just("witt"), st.just("--n"), _SIZE.map(str), st.just("--r"), _SIZE.map(str)),
    st.tuples(
        st.sampled_from((("oracle", "lyndon"), ("oracle", "aperiodic"))),
        st.just("--n"), _SIZE.map(str), st.just("--r"), _SIZE.map(str),
    ).map(lambda t: (*t[0], *t[1:])),
    st.tuples(
        st.just("oracle"), st.just("lie-power"), st.just("--n"), st.integers(-1, 3).map(str),
        st.just("--r"), _SIZE.map(str), st.just("--field"), _FIELD,
    ),
    st.tuples(st.just("oracle"), st.just("lie-module"), st.just("--r"), st.integers(-1, 6).map(str), st.just("--field"), _FIELD),
    st.tuples(
        st.just("oracle"), st.just("weight-space"), st.just("--q"), st.integers(-1, 3).map(str),
        st.just("--k"), st.integers(-1, 3).map(str), st.just("--field"), _FIELD,
    ),
    st.tuples(
        st.just("oracle"), st.just("expand"), st.text("0123x-", max_size=6),
        st.sampled_from(("--bracketing=standard", "--bracketing=left-normed", "--bracketing=other")),
    ),
)


# about 100 runs of milliseconds each; no per-example deadline, as above
@given(args=_ORACLE_ARGS)
@settings(deadline=None, max_examples=100)
def test_oracle_and_witt_commands_sweep(args):
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code in (0, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
    assert "Traceback" not in result.output, args
    if result.exit_code == 2:
        assert result.stdout == "" and len(_error_lines(result)) == 1, (args, result.output)


def test_table_determinism(runner):
    args = ["b-table", "--p", "2", "--n", "3", "--k", "3", "--m-max", "4"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
    for command, digest in TABLE_DIGESTS.items():
        result = runner.invoke(main, command.split())
        assert result.exit_code == 0, command
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest, command


def test_oracle_lyndon(runner):
    result = runner.invoke(main, ["oracle", "lyndon", "--n", "2", "--r", "6"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "9"
    result = runner.invoke(main, ["oracle", "lyndon", "--n", "2", "--r", "3", "--words"])
    assert result.output.splitlines() == ["2", "0.0.1", "0.1.1"]


def test_oracle_lyndon_counts_by_runs_and_streams_words(runner, monkeypatch):
    # the count never walks the word generator, and --words never builds the word list
    def must_not_run(*args, **kwargs):
        raise AssertionError("built the Lyndon words")

    monkeypatch.setattr(cli.oracle_mod, "lyndon_words", must_not_run)
    with monkeypatch.context() as patch:
        patch.setattr(cli.oracle_mod, "iter_lyndon_words", must_not_run)
        result = runner.invoke(main, ["oracle", "lyndon", "--n", "2", "--r", "6"])
    assert result.exit_code == 0
    assert result.output == "9\n"
    result = runner.invoke(main, ["oracle", "lyndon", "--n", "2", "--r", "4", "--words"])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["3", "0.0.0.1", "0.0.1.1", "0.1.1.1"]


def test_verify_lyndon_count_family_bites(runner, monkeypatch):
    # a counter that is off by one at a single point fails that point and only it
    real = verify_mod.oracle.count_lyndon_words
    monkeypatch.setattr(
        verify_mod.oracle, "count_lyndon_words", lambda n, r: real(n, r) + ((n, r) == (2, 5))
    )
    result = runner.invoke(main, ["verify", "--suite", "oracle"])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    at = lines.index("oracle/lyndon-count: 48 checks, 1 failures")
    assert lines[at + 1] == "  FAIL (n=2, r=5)"
    assert lines[-1].startswith("FAIL: 1 of ")


def _phantom_key(rows, field):
    # block-bracket rows by their (q, k), the other sources by their shape
    if isinstance(rows, verify_mod.oracle._BlockBracketRows):
        return rows.q, rows.k, field
    return rows.shape, field


# one point per rank family of the oracle suite, keyed by _phantom_key; c's
# point (q=1, k=2) has the rows of the oracle suite's Lie module at r = 2, so
# the c suite runs on its own.  "5*12" over F2 is one Lie power block, the
# content (2, 1, 1) at (n=3, r=4), whose phantom counts once for each of the
# 3 contents in its orbit
ORACLE_PHANTOMS = {("5*12", 2), ("2*6*32", 3), (1, 5, None), (2, 3, 2)}
ORACLE_FAIL_LINES = [
    "oracle/lie-power-rank: 54 checks, 1 failures",
    "  FAIL (n=3, r=4, field=2)",
    "oracle/lyndon-basis-rank: 54 checks, 1 failures",
    "  FAIL (n=2, r=5, field=3)",
    "oracle/lie-module-rank: 18 checks, 1 failures",
    "  FAIL (r=5, field=None)",
    "oracle/weight-space-rank: 12 checks, 1 failures",
    "  FAIL (q=2, k=3, field=2)",
]


@pytest.mark.parametrize(
    "suite, slow, phantoms, expected",
    [
        (
            "c", False, {(1, 2, None)},
            ["c/weight-space-oracle: 6 checks, 1 failures", "  FAIL (q=1, k=2)", "FAIL: 1 of 4192 checks failed"],
        ),
        ("oracle", False, ORACLE_PHANTOMS, [*ORACLE_FAIL_LINES, "FAIL: 4 of 287 checks failed"]),
        pytest.param(
            "oracle", True, ORACLE_PHANTOMS | {(1, 7, 2)},
            [
                *ORACLE_FAIL_LINES[:4],
                "oracle/lie-module-rank: 19 checks, 2 failures",
                "  FAIL (r=5, field=None)",
                "  FAIL (r=7, field=2, slow)",
                *ORACLE_FAIL_LINES[6:],
                "FAIL: 5 of 288 checks failed",
            ],
            marks=pytest.mark.slow,
        ),
    ],
)
def test_verify_rank_families_print_their_fail_lines(runner, monkeypatch, suite, slow, phantoms, expected):
    # one phantom pivot at one point per rank family fails that point and only it
    real = verify_mod.oracle._Rows.pivots

    def with_phantom(rows):
        pivots = real(rows)
        return {**pivots, -1: None} if _phantom_key(rows, rows.field) in phantoms else pivots

    monkeypatch.setattr(verify_mod.oracle._Rows, "pivots", with_phantom)
    result = runner.invoke(main, ["verify", "--suite", suite, *(["--slow"] if slow else [])])
    assert result.exit_code == 1
    assert [line for line in result.output.splitlines() if not line.endswith(" 0 failures")] == expected


def test_oracle_expand(runner):
    result = runner.invoke(main, ["oracle", "expand", "001"])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["001:1", "010:-2", "100:1"]
    result = runner.invoke(main, ["oracle", "expand", "01", "--bracketing", "left-normed"])
    assert result.output.splitlines() == ["01:1", "10:-1"]
    result = runner.invoke(main, ["oracle", "expand", "010"])
    assert result.exit_code == 2
    assert "not a Lyndon word" in result.output
    result = runner.invoke(main, ["oracle", "expand", "0a1"])
    assert result.exit_code == 2
    # letters are ASCII digits: Arabic-Indic 12 and a superscript 2 are refused
    for word in ("١٢", "²"):
        result = runner.invoke(main, ["oracle", "expand", word])
        assert result.exit_code == 2, word
        assert "word must be a nonempty string of digits" in result.output, word


def test_oracle_rank_commands(runner):
    for args, _, stdout in RANK_COMMANDS:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, args
        assert result.output == stdout


def test_oracle_rank_disagreement(runner, monkeypatch):
    # each rank command prints the size of its span's one elimination
    for args, rank, _ in RANK_COMMANDS:
        monkeypatch.setattr(cli.oracle_mod._Rows, "pivots", lambda self, wrong=rank + 1: dict.fromkeys(range(wrong)))
        result = runner.invoke(main, args)
        assert result.exit_code == 1, args
        assert result.output.splitlines()[-1] == "DISAGREE"


def test_oracle_budget_exceeded(runner):
    result = runner.invoke(main, ["oracle", "lie-module", "--r", "7"])
    assert result.exit_code == 2
    assert "needs about 25401600 units of work" in result.output

    result = runner.invoke(main, ["oracle", "aperiodic", "--n", "3", "--r", "30"])
    assert result.exit_code == 2
    # n**r far past the int-to-str digit limit is still refused in one line
    result = runner.invoke(main, ["oracle", "aperiodic", "--n", "10", "--r", "5000"])
    assert result.exit_code == 2
    assert "10^5000" in result.output
    # the work of these is past the digit limit too; it is refused unbuilt
    for args in (
        ["oracle", "lie-module", "--r", "2000"],
        ["oracle", "lie-power", "--n", "10", "--r", "5000"],
        ["oracle", "weight-space", "--q", "40", "--k", "50"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert isinstance(result.exception, SystemExit), args
        assert len(_error_lines(result)) == 1
        assert "Traceback" not in result.output


def test_oracle_env_budget(runner, monkeypatch):
    monkeypatch.setenv("LIEDIM_BUDGET", "10")
    result = runner.invoke(main, ["oracle", "aperiodic", "--n", "2", "--r", "8"])
    assert result.exit_code == 2
    monkeypatch.setenv("LIEDIM_BUDGET", "1000000")
    result = runner.invoke(main, ["oracle", "aperiodic", "--n", "2", "--r", "8"])
    assert result.exit_code == 0
    assert result.output.strip() == "240"
    # verify's oracle checks are charged too; a refusal is a usage error, not a failed check
    monkeypatch.setenv("LIEDIM_BUDGET", "1000")
    result = runner.invoke(main, ["verify", "--suite", "c"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert len(_error_lines(result)) == 1


def test_b_rows_priced_eight_c_units(runner, monkeypatch):
    # a b row's Fraction(dim, w) reduction is a quadratic gcd that a c row does
    # not run, so its output is charged 8 times the shared quadratic size, and
    # every row TEXT_PRICE per bit for its decimal text; the exact work is
    # printed under a budget just below it
    for args, task, work in (
        ("b-table --p 2 --n 2 --k 3 --m-max 17", "b table output", 3538812),
        ("b-table --p 2 --n 2 --k 3 --m-max 18", "b table output", 13368722),
        ("c-table --p 2 --k 3 --m-max 15", "c table output", 6776679),
    ):
        budget = str(work - 1)
        monkeypatch.setenv("LIEDIM_BUDGET", budget)
        result = runner.invoke(main, args.split())
        assert result.exit_code == 2, args
        assert _error_lines(result) == [
            f"Error: {task} needs about {work} units of work, budget is {budget} "
            "(raise it via the budget argument or LIEDIM_BUDGET)"
        ]


def test_verify_refuses_over_budget_up_front(runner, monkeypatch):
    # every oracle job of the selected suites is charged before any family runs
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the budget refusal")

    # _Rows.pivots is a span's one elimination, which every rank reads
    monkeypatch.setattr(verify_mod.oracle, "aperiodic_count_bruteforce", must_not_run)
    monkeypatch.setattr(verify_mod.oracle._Rows, "pivots", must_not_run)
    for name in ("arith_suite", "witt_suite", "b_suite", "c_suite", "oracle_suite"):
        monkeypatch.setattr(verify_mod, name, must_not_run)
    # 59048 is one unit under the largest aperiodic walk, 3^10, which the
    # oracle suite charges only when it runs it, so a span is refused first
    for budget, args, task, work in (
        ("10000000", ["verify", "--suite", "oracle", "--slow"], "multilinear bracket span", 12700800),
        ("1000", ["verify", "--suite", "c"], "weight space span", 518400),
        ("59048", ["verify", "--suite", "oracle"], "Lie power span expansion", 60219),
        ("59048", ["verify", "--suite", "all"], "weight space span", 518400),
    ):
        monkeypatch.setenv("LIEDIM_BUDGET", budget)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert isinstance(result.exception, SystemExit), args
        assert _error_lines(result) == [
            f"Error: {task} needs about {work} units of work, budget is {budget} "
            "(raise it via the budget argument or LIEDIM_BUDGET)"
        ]


def test_malformed_env_budget(runner, monkeypatch):
    monkeypatch.setenv("LIEDIM_BUDGET", "abc")
    for args in (["oracle", "lie-module", "--r", "3"], ["verify", "--suite", "oracle"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert isinstance(result.exception, SystemExit), args
        assert _error_lines(result) == ["Error: LIEDIM_BUDGET must be a non-negative integer, got 'abc'"]


def test_malformed_env_budget_only_where_verify_charges(runner, monkeypatch):
    # --slow raises the budget of the oracle suite's r = 7 job only; the witt
    # and b suites charge nothing, so they never read the budget
    monkeypatch.setenv("LIEDIM_BUDGET", "abc")
    for suite in ("witt", "b"):
        result = runner.invoke(main, ["verify", "--suite", suite, "--slow"])
        assert result.exit_code == 0, suite
        assert result.output.splitlines()[-1].startswith("PASS: "), suite
    result = runner.invoke(main, ["verify", "--suite", "c", "--slow"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert _error_lines(result) == ["Error: LIEDIM_BUDGET must be a non-negative integer, got 'abc'"]


def test_oracle_lyndon_budget(runner):
    result = runner.invoke(main, ["oracle", "lyndon", "--n", "10", "--r", "12"])
    assert result.exit_code == 2
    assert "Lyndon word enumeration" in result.output
    result = runner.invoke(main, ["oracle", "lyndon", "--n", "10", "--r", "1000000000", "--words"])
    assert result.exit_code == 2
    assert "10^1000000000" in result.output


def test_one_letter_walks_charged_their_length(runner):
    # one word, but a walk may hold its r letters in r-slot arrays: charged
    # 32*r, so a long walk is refused at once, and r = 10**7 at the default budget
    for command in ("lyndon", "aperiodic"):
        for r in ("100000000", "10000000"):
            args = ["oracle", command, "--n", "1", "--r", r]
            start = time.perf_counter()
            result = runner.invoke(main, args)
            assert time.perf_counter() - start < 1.0, args
            _assert_one_line_refusal(result, args)
            assert f"needs about 32*{r} units of work" in _error_lines(result)[0], args
        assert runner.invoke(main, ["oracle", command, "--n", "1", "--r", "312500"]).output == "0\n"
        assert runner.invoke(main, ["oracle", command, "--n", "1", "--r", "1"]).output == "1\n"
        assert runner.invoke(main, ["oracle", command, "--n", "1", "--r", "5"]).output == "0\n"


def test_one_letter_aperiodic_walk_at_a_prime_fresh_process():
    # the prime r = 312,469 is admitted at 32*r units; its one period's
    # numeral of ones is q = r itself, so the walk is over at once
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-m", "liedim.cli", "oracle", "aperiodic", "--n", "1", "--r", "312469"]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (0, "0\n")


# refused at once by the span charge, planes * count * width: the first two
# were admitted while it priced terms without the row width (n = 600 at
# 720,000 units, for 179,700 rows of 360,000 bits); n = 1 has no rows, so only
# its walk charge refuses it; the factorials are refused by their floor,
# unbuilt; Lie(8) over F3 and Q, (8!)^2 units, stays over the --slow budget,
# and so does L^16 of two letters over F2, whose 9,908 rows' folds are
# charged 9.7 * 10^8 of its 1.09 * 10^9 units
SPAN_REFUSALS = (
    "lie-power --n 600 --r 2 --field f2",
    "lie-power --n 2000 --r 2",
    "lie-power --n 1 --r 100000000",
    "lie-power --n 2 --r 16 --field f2 --slow",
    "lie-module --r 10000000",
    "weight-space --q 3000 --k 3000",
    "lie-module --r 8 --slow --field f3",
    "lie-module --r 8 --slow --field q",
)


def test_span_charges_refuse_at_once(runner, monkeypatch):
    monkeypatch.delenv("LIEDIM_BUDGET", raising=False)
    for command in SPAN_REFUSALS:
        args = ["oracle", *command.split()]
        start = time.perf_counter()
        result = runner.invoke(main, args)
        assert time.perf_counter() - start < 1.0, args
        _assert_one_line_refusal(result, args)


def test_oracle_lyndon_slow_flag(runner):
    args = ["oracle", "lyndon", "--n", "4", "--r", "12"]
    assert runner.invoke(main, args).exit_code == 2
    result = runner.invoke(main, [*args, "--slow"])
    assert result.exit_code == 0
    assert result.output == "1397740\n"


def test_verify_witt_suite(runner):
    result = runner.invoke(main, ["verify", "--suite", "witt"])
    assert result.exit_code == 0
    assert "witt/two-sided-bounds: 640 checks, 0 failures" in result.output
    assert "witt/one-letter-alphabet: 100 checks, 0 failures" in result.output
    assert result.output.strip().endswith("PASS: 740 checks")


def test_verify_shows_at_most_20_failures_per_family(runner, monkeypatch):
    fam = verify_mod.CheckFamily("demo/family", checks=26, failures=[f"(i={i})" for i in range(25)])
    monkeypatch.setattr(verify_mod, "run_suites", lambda suite, slow: [fam])
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "demo/family: 26 checks, 25 failures",
        *(f"  FAIL (i={i})" for i in range(20)),
        "  ... and 5 more",
        "FAIL: 25 of 26 checks failed",
    ]


def test_verify_rejects_unknown_suite(runner):
    result = runner.invoke(main, ["verify", "--suite", "nope"])
    assert result.exit_code == 2
    assert _error_lines(result) == [f"Error: unknown suite 'nope'; choose from {verify_mod.SUITE_NAMES}"]


@pytest.mark.slow
def test_oracle_lie_module_r7_slow_flag(runner):
    result = runner.invoke(main, ["oracle", "lie-module", "--r", "7", "--field", "f2", "--slow"])
    assert result.exit_code == 0
    assert "rank = 720" in result.output


def _assert_one_line_refusal(result, args, exit_code=2):
    assert result.exit_code == exit_code, (args, result.output)
    assert isinstance(result.exception, SystemExit), (args, result.exception)
    assert result.stdout == "", args
    assert len(_error_lines(result)) == 1, (args, result.output)
    assert "Traceback" not in result.output, args


# (LIEDIM_BUDGET or None, arguments): every subcommand, refused with exit 2
BAD_INVOCATIONS = (
    *((None, ["witt", "--n", n, "--r", r]) for n, r in (("2", "0"), ("2", "-1"), ("0", "3"), ("-1", "3"))),
    *(
        (None, [table, "--p", "2", *n, "--k", "3", *extra])
        for table, n in (("b-table", ["--n", "2"]), ("c-table", []))
        for extra in (["--m-max", "-1"], ["--float-bits", "0"], ["--float-bits", "-1"])
    ),
    *(
        (None, [table, "--p", p, *n, "--k", k])
        for table, n in (("b-table", ["--n", "2"]), ("c-table", []))
        for p, k in (("4", "3"), ("2", "4"), ("3", "6"), ("2", "0"), ("2", "-1"))
    ),
    (None, ["b-table", "--p", "2", "--n", "0", "--k", "3"]),
    (None, ["b-table", "--p", "2", "--n", "-1", "--k", "3"]),
    *(
        (None, ["oracle", cmd, f"--{a}", x, f"--{b}", y])
        for cmd, a, b in (
            ("lyndon", "n", "r"), ("aperiodic", "n", "r"), ("lie-power", "n", "r"), ("weight-space", "q", "k")
        )
        for x, y in (("0", "3"), ("-1", "3"), ("2", "0"), ("2", "-1"))
    ),
    (None, ["oracle", "lyndon", "--n", "0", "--r", "3", "--words"]),
    (None, ["oracle", "lie-module", "--r", "0"]),
    (None, ["oracle", "lie-module", "--r", "-1"]),
    *((None, ["oracle", "expand", word]) for word in ("0a1", "-1", "", " 01", "010", "10", "0010", "١٢", "²")),
    (None, ["oracle", "expand", "10", "--bracketing", "standard"]),
    # a malformed budget, on every command that reads it
    *(
        ("abc", args)
        for args in (
            ["oracle", "lyndon", "--n", "2", "--r", "3"],
            ["oracle", "aperiodic", "--n", "2", "--r", "3"],
            ["oracle", "lie-power", "--n", "2", "--r", "3"],
            ["oracle", "lie-module", "--r", "3"],
            ["oracle", "weight-space", "--q", "1", "--k", "2"],
            ["oracle", "expand", "001"],
            ["verify", "--suite", "oracle"],
            ["witt", "--n", "2", "--r", "6"],
            ["b-table", "--p", "2", "--n", "2", "--k", "3"],
            ["c-table", "--p", "2", "--k", "3"],
        )
    ),
    ("-5", ["oracle", "lie-module", "--r", "3"]),
    # one oversized job per oracle command, and verify over a small budget
    (None, ["oracle", "lyndon", "--n", "10", "--r", "100"]),
    (None, ["oracle", "aperiodic", "--n", "10", "--r", "100"]),
    (None, ["oracle", "lie-power", "--n", "10", "--r", "100"]),
    (None, ["oracle", "lie-module", "--r", "100"]),
    (None, ["oracle", "weight-space", "--q", "10", "--k", "10"]),
    (None, ["oracle", "expand", "0" + "1" * 99]),
    ("1000", ["verify", "--suite", "c"]),
)


def test_bad_invocations_fail_in_one_line(runner, monkeypatch):
    for budget, args in BAD_INVOCATIONS:
        if budget is None:
            monkeypatch.delenv("LIEDIM_BUDGET", raising=False)
        else:
            monkeypatch.setenv("LIEDIM_BUDGET", budget)
        _assert_one_line_refusal(runner.invoke(main, args), (budget, args))
    # the budget is checked only by the commands that read it
    monkeypatch.setenv("LIEDIM_BUDGET", "abc")
    result = runner.invoke(main, ["verify", "--suite", "witt"])
    assert result.exit_code == 0
    assert result.stdout.startswith("witt/two-sided-bounds: 640 checks")


def test_oracle_lie_power_refuses_an_empty_alphabet(runner):
    # the word enumeration's charge is the one check of n and r
    args = ["oracle", "lie-power", "--n", "0", "--r", "3"]
    result = runner.invoke(main, args)
    _assert_one_line_refusal(result, args)
    assert _error_lines(result) == ["Error: Lie power word enumeration needs n >= 1 and r >= 1"]


def test_failed_exact_identity_exits_1(runner, monkeypatch):
    def inexact(a, b):
        raise ExactnessError(f"{a} is not divisible by {b}")

    for module, args in (
        (lie_powers, ["b-table", "--p", "2", "--n", "2", "--k", "3", "--m-max", "2"]),
        (witt_mod, ["witt", "--n", "2", "--r", "6"]),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(module, "exact_div", inexact)
            result = runner.invoke(main, args)
        _assert_one_line_refusal(result, args, exit_code=1)
        assert "is not divisible by" in _error_lines(result)[0]


def test_failed_exact_identity_past_the_digit_limit_exits_1(runner, monkeypatch, set_digit_limit):
    # w(10, 5000) has 4997 digits, past the default limit; its failed division exits 1
    set_digit_limit(sys.int_info.default_max_str_digits)
    args = ["witt", "--n", "10", "--r", "5000"]
    monkeypatch.setattr(witt_mod, "exact_div", lambda a, b: arith.exact_div(a * b + 1, b))
    result = runner.invoke(main, args)
    _assert_one_line_refusal(result, args, exit_code=1)
    assert _error_lines(result)[0].endswith("is not divisible by 5000")


def test_float_bits_past_the_digit_limit(runner, set_digit_limit):
    # 6020 decimal places, past the default digit limit, print at any limit
    args = ["c-table", "--p", "2", "--k", "3", "--m-max", "1", "--float-bits", "20000"]
    outputs = []
    for limit in (sys.int_info.default_max_str_digits, 0):
        set_digit_limit(limit)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (limit, result.output)
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    ratio_float = outputs[0].splitlines()[2].split(",")[8]
    assert len(ratio_float.split(".")[1]) == 6020


def test_float_bits_cap_refuses_at_once(runner):
    args = ["c-table", "--p", "2", "--k", "3", "--m-max", "1", "--float-bits", "10000000"]
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    _assert_one_line_refusal(result, args)
    assert _error_lines(result) == ["Error: float_bits must be <= 65536, got 10000000"]


def test_oracle_expand_is_charged(runner):
    args = ["oracle", "expand", "012345678901234567890123456789", "--bracketing", "left-normed"]
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    _assert_one_line_refusal(result, args)
    assert "bracket expansion needs about 30*2^29 units of work" in _error_lines(result)[0]
    # an 18-letter word, 2^17 terms, is inside the default budget and prints as before
    result = runner.invoke(main, ["oracle", "expand", "012345678901234567", "--bracketing", "left-normed"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "72c7c3fd4d43125d21eaa978e404ad291e8b6f573818d5750a75fddbec853c67"
    )

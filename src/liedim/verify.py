"""Self-check suites: every exact identity, bound and oracle agreement on fixed grids.

Each suite walks a deterministic grid and records one check per point, so two
runs produce identical reports; a failure carries its point in the family's
coordinates, such as (p, n, m, k) or (q, k, field).  Each distinct oracle
span is built and charged once, before any family runs, and eliminated once.
Redundant with the unit tests by intent, the suites re-certify an installation.
Under 'all' the arith grids run in a forked child (worker._in_worker) once
every span is charged, so each refusal comes before a second process exists.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product

from . import oracle
from .arith import ExactnessError, divisors, mobius, p_adic_split
from .budget import work_budget
from .lie_modules import (
    LieModuleContext,
    check_a_prime_ratio_identity,
    dim_lie,
    lower_bound_c,
    phi_count,
    weight_space_dim_formula,
)
from .lie_powers import LiePowerContext
from .witt import aperiodic_word_count, check_witt_bounds, witt_dim
from .worker import _in_worker

SUITE_NAMES = ("all", "witt", "b", "c", "oracle")

GAP_EPS = Fraction(1, 100)
GAP_MIN_R = 2000

# identity / range grids
SMALL_PRIMES = (2, 3, 5)
SMALL_DIMS = (2, 3, 5)
SMALL_MAX_R = 200

# convergence grids
CONV_PRIMES = (2, 3)
CONV_DIMS = (2, 3)
CONV_KS = (2, 3, 5)
CONV_MAX_R = 5000

# oracle grids
WEIGHT_SPACE_POINTS = ((1, 2), (1, 3), (1, 4), (2, 2), (3, 2), (2, 3))  # (q, k)
APERIODIC_POINTS = tuple(product(range(1, 4), range(1, 11)))  # (n, r)
ORACLE_POWER_POINTS = tuple(product(range(1, 4), range(1, 7)))  # (n, r)
ORACLE_FIELDS = (None, 2, 3)


@dataclass
class CheckFamily:
    """One named family of checks with its failure details."""

    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, where: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(where)


def conv_chain(p: int, k: int) -> list[tuple[int, int]]:
    """(m, r) pairs of the convergence chain for k under p, up to CONV_MAX_R."""
    out = []
    m, r = 0, k
    while r <= CONV_MAX_R:
        out.append((m, r))
        m += 1
        r *= p
    return out


def arith_suite() -> list[CheckFamily]:
    mob = CheckFamily("arith/mobius-divisor-sum")
    mu = [0]  # mu[d] = mobius(d), filled in ascending r; every divisor of r is <= r
    for r in range(1, 10_001):
        mu.append(mobius(r))
        total = sum(mu[d] for d in divisors(r))
        mob.checks += 1
        if total != (1 if r == 1 else 0):
            mob.failures.append(f"(r={r})")

    padic = CheckFamily("arith/p-adic-round-trip")
    degrees = range(1, 100_001)
    for p in (2, 3, 5, 7):
        padic.checks += len(degrees)
        for r in degrees:
            m, k = p_adic_split(r, p)
            if p**m * k != r or k % p == 0:
                padic.failures.append(f"(p={p}, r={r})")
    return [mob, padic]


def witt_suite() -> list[CheckFamily]:
    bounds = CheckFamily("witt/two-sided-bounds")
    for n in range(1, 11):
        for r in range(1, 65):
            bounds.record(check_witt_bounds(n, r).holds, f"(n={n}, r={r})")

    degenerate = CheckFamily("witt/one-letter-alphabet")
    degenerate.record(witt_dim(1, 1) == 1, "(n=1, r=1)")
    for r in range(2, 101):
        degenerate.record(witt_dim(1, r) == 0, f"(n=1, r={r})")
    return [bounds, degenerate]


def b_suite() -> list[CheckFamily]:
    identity = CheckFamily("b/dimension-identity")
    ratio_range = CheckFamily("b/ratio-range")
    coeff = CheckFamily("b/coefficient-bounds")
    bound = CheckFamily("b/lower-bound")
    conv = CheckFamily("b/convergence")

    for p in SMALL_PRIMES:
        for n in SMALL_DIMS:
            ctx = LiePowerContext(p, n)
            chains = set()
            for r in range(1, SMALL_MAX_R + 1):
                m, k = ctx.split(r)
                where = f"(p={p}, n={n}, m={m}, k={k})"
                try:
                    identity.record(ctx.check_dimension_identity(m, k).holds, where)
                except ExactnessError as exc:
                    identity.record(False, f"{where}: {exc}")
                    continue
                b = ctx.ratio_b(r)
                ratio_range.record(0 <= b <= 1, where + " out of range")
                is_zero_point = k == 1 and m >= 1
                ratio_range.record((b == 0) == is_zero_point, where + " zero-locus")
                if m == 0:
                    ratio_range.record(b == 1, where + " ratio at m=0")
                if m >= 1 and k >= 2:
                    chains.add((m, k))
                    bound.record(ctx.lower_bound_b(m, k).holds_for(b), where)

            for m, k in sorted(chains):
                where = f"(p={p}, n={n}, m={m}, k={k})"
                a = [ctx.coeff_a(m, k, i) for i in range(m + 1)]
                coeff.record(a[1] <= Fraction(2, (p ** (m - 1) * k) ** (p - 1)), where + " a_1 cap")
                coeff.record(a[m] <= Fraction(2, k ** (p**m - 1)), where + " a_m cap")
                for i in range(2, m):
                    coeff.record(a[i] <= a[i - 1], f"{where} a_{i} monotone")
                for i in range(1, m + 1):
                    for s in range(1, i + 1):
                        if p ** (m - i + s) * k >= 6:
                            chk = ctx.check_a_ratio_bound(m, k, i, s)
                            coeff.record(chk.holds, f"{where} i={i} s={s}")

    for p in CONV_PRIMES:
        for n in CONV_DIMS:
            ctx = LiePowerContext(p, n)
            for k in CONV_KS:
                if k % p == 0:
                    continue
                for m, r in conv_chain(p, k):
                    where = f"(p={p}, n={n}, m={m}, k={k})"
                    b = ctx.ratio_b(r)
                    if m == 0:
                        conv.record(b == 1, where + " ratio at m=0")
                        continue
                    conv.record(ctx.lower_bound_b(m, k).holds_for(b), where + " bound")
                    if r >= GAP_MIN_R:
                        conv.record(1 - b < GAP_EPS, where + " gap")
    return [identity, ratio_range, coeff, bound, conv]


def c_suite(spans: dict[str, list[tuple]]) -> list[CheckFamily]:
    integ = CheckFamily("c/integrality-and-range")
    recur = CheckFamily("c/recurrence-cross-check")
    ratio_ident = CheckFamily("c/coefficient-ratio-identity")
    bound = CheckFamily("c/lower-bound")
    weight = CheckFamily("c/weight-space-formula")
    conv = CheckFamily("c/convergence")

    for p in SMALL_PRIMES:
        ctx = LieModuleContext(p)
        chains = set()
        for r in range(1, SMALL_MAX_R + 1):
            m, k = ctx.split(r)
            where = f"(p={p}, m={m}, k={k})"
            try:
                ctx.dim_c(r)
            except ExactnessError as exc:
                integ.record(False, f"{where}: {exc}")
                continue
            c = ctx.ratio_c(r)
            integ.record(0 <= c <= 1, where + " out of range")
            if m == 0:
                integ.record(c == 1, where + " ratio at m=0")
            if k == 1 and m >= 1:
                integ.record(c == 0, where + " ratio at k=1")
            if k >= 2:
                chains.add((m, k))

        for m, k in sorted(chains):
            _check_c_chain(ctx, m, k, "", recur, ratio_ident, bound)

    for q in range(1, 9):
        for k in range(1, 9):
            weight.record(
                weight_space_dim_formula(q, k) == phi_count(q, k) * dim_lie(k),
                f"(q={q}, k={k})",
            )

    agree = _ranked("c/weight-space-oracle", spans)

    for p in CONV_PRIMES:
        ctx = LieModuleContext(p)
        for k in CONV_KS:
            if k % p == 0:
                continue
            for m, r in conv_chain(p, k):
                where = f"(p={p}, m={m}, k={k})"
                c = ctx.ratio_c(r)
                if m == 0:
                    conv.record(c == 1, where + " ratio at m=0")
                    continue
                _check_c_chain(ctx, m, k, " conv-grid", recur, ratio_ident, conv)
                if r >= GAP_MIN_R:
                    conv.record(1 - c < GAP_EPS, where + " gap")
    return [integ, recur, ratio_ident, bound, weight, agree, conv]


def _check_c_chain(
    ctx: LieModuleContext,
    m: int,
    k: int,
    suffix: str,
    recur: CheckFamily,
    ratio_ident: CheckFamily,
    bound: CheckFamily,
) -> None:
    """Record one chain point's factorial-form recurrence and a' ratio identities
    (their `where` tagged with suffix) and, for m >= 1, its lower bound: sound,
    tight at m = 1 and, where the explicit terms allow, within GAP_EPS of 1.
    """
    p = ctx.p
    where = f"(p={p}, m={m}, k={k})"
    recur.record(ctx.check_c_recurrence_identity(m, k).holds, where + suffix)
    for i in range(m + 1):
        for s in range(i + 1):
            chk = check_a_prime_ratio_identity(p, m, k, i, s)
            ratio_ident.record(chk.holds, f"{where} i={i} s={s}{suffix}")
    if m >= 1:
        lb = lower_bound_c(p, m, k)
        c = ctx.ratio_c(p**m * k)
        bound.record(lb <= c, where + " bound")
        if m == 1:
            bound.record(lb == c, where + " tight at m=1")
        if (p ** (m - 1) * k) ** (p - 1) >= 200 * (m - 1) and k ** (p**m - 1) >= 400:
            bound.record(1 - lb < GAP_EPS, where + " bound gap")


def oracle_suite(spans: dict[str, list[tuple]]) -> list[CheckFamily]:
    lyndon = CheckFamily("oracle/lyndon-count")
    for n in range(1, 5):
        for r in range(1, 13):
            lyndon.record(oracle.count_lyndon_words(n, r) == witt_dim(n, r), f"(n={n}, r={r})")

    aper = CheckFamily("oracle/aperiodic-count")
    for n, r in APERIODIC_POINTS:
        aper.record(oracle.aperiodic_count_bruteforce(n, r) == aperiodic_word_count(n, r), f"(n={n}, r={r})")

    ranks = [_ranked(name, spans) for name in spans if name.startswith("oracle/")]

    smoke = CheckFamily("oracle/bracket-smoke")
    for r in range(1, 6):
        for word in product(range(2), repeat=r):
            vec = oracle.left_normed_expand(word)
            smoke.record(oracle.weight_of(vec) != oracle.INHOMOGENEOUS, f"(word={word})")
    for a in range(3):
        for b in range(3):
            one = oracle.left_normed_expand((a, b))
            minus_two = {idx: -c for idx, c in oracle.left_normed_expand((b, a)).items()}
            smoke.record(one == minus_two, f"(antisymmetry a={a}, b={b})")
    return [lyndon, aper, *ranks, smoke]


def _ranked(name: str, spans: dict[str, list[tuple]]) -> CheckFamily:
    """The rank family name: one check per job of spans[name], its span's rank against its closed form."""
    fam = CheckFamily(name)
    for where, rank, expected in spans[name]:
        fam.record(rank() == expected, where)
    return fam


def _oracle_spans(suite: str, slow: bool, budget: int | None = None) -> dict[str, list[tuple]]:
    """The rank jobs of the selected suites by family name, in family order,
    each (where, its span's rank, the closed form the rank must equal).

    Each distinct (builder, point, field) span is built, and so charged
    against budget (None: the active one), once and before any family runs,
    so an over-budget one is refused at once.  A rank eliminates its span
    when first read: c's and the oracle's weight space families share the six
    Q spans.  The Lie power spans of one field share one memo of blocks, so
    each content is eliminated once in the pass; the memos go with the spans.
    w(n, r) and (qk)!/k are computed once per point.
    """
    spans: dict[str, list[tuple]] = {}
    bases = {f: {} for f in ORACLE_FIELDS}

    def lie_power_span(n, r, f, budget):
        return oracle.lie_power_span(n, r, f, budget, bases[f])

    @cache
    def rank_of(builder, *args):
        return cache(builder(*args).rank)

    def add(name, builder, points, closed, where="(n={}, r={}, field={})", fields=ORACLE_FIELDS):
        # where takes a point's coordinates, then the field (c's takes no field)
        spans[name] = [
            (where.format(*pt, f), rank_of(builder, *pt, f, budget), closed(*pt)) for pt in points for f in fields
        ]

    qk = cache(weight_space_dim_formula)
    if suite in ("all", "c"):
        add("c/weight-space-oracle", oracle.weight_space_span, WEIGHT_SPACE_POINTS, qk, "(q={}, k={})", [None])
    if suite in ("all", "oracle"):
        witt = cache(witt_dim)
        add("oracle/lie-power-rank", lie_power_span, ORACLE_POWER_POINTS, witt)
        add("oracle/lyndon-basis-rank", oracle.lyndon_bracketing_span, ORACLE_POWER_POINTS, witt)
        add("oracle/lie-module-rank", oracle.lie_module_span, [(r,) for r in range(1, 7)], dim_lie, "(r={}, field={})")
        if slow:
            rank = rank_of(oracle.lie_module_span, 7, 2, work_budget(slow=True))
            spans["oracle/lie-module-rank"].append(("(r=7, field=2, slow)", rank, dim_lie(7)))
        qk_where = "(q={}, k={}, field={})"
        add("oracle/weight-space-rank", oracle.weight_space_span, WEIGHT_SPACE_POINTS, qk, qk_where, [None, 2])
    return spans


def run_suites(suite: str, slow: bool = False) -> list[CheckFamily]:
    """Run one named suite ('all' chains every family, including the arith grids).

    One pass, _oracle_spans, first builds and charges each distinct span, so an
    over-budget one is refused before any family runs; the c and oracle suites
    then read their ranks.  slow adds the r = 7 Lie module job.  The budget is
    resolved first, so every suite refuses a malformed LIEDIM_BUDGET.  Only then
    does 'all' fork the arith suite off (_in_worker): no refusal follows a fork.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    spans = _oracle_spans(suite, slow, work_budget())
    families: list[CheckFamily] = []
    with _in_worker(arith_suite, "the arith suite's worker") if suite == "all" else nullcontext([]) as arith:
        if suite in ("all", "witt"):
            families += witt_suite()
        if suite in ("all", "b"):
            families += b_suite()
        if suite in ("all", "c"):
            families += c_suite(spans)
        if suite in ("all", "oracle"):
            families += oracle_suite(spans)
    return arith + families


def failure_count(families: list[CheckFamily]) -> int:
    return sum(len(fam.failures) for fam in families)

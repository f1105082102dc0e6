"""Acceptance gate: one test per shipped guarantee, in order.

Run with `pytest -v tests/test_acceptance.py` for one PASS/FAIL line per
criterion; the slow variant of 4 needs `--slow`.  Criteria with a
stated wall-clock limit assert it.
"""

import time
from fractions import Fraction
from math import factorial

import pytest
from conftest import LIEDIM, fresh

from liedim import oracle, verify
from liedim.arith import exact_div
from liedim.lie_modules import (
    LieModuleContext,
    check_a_prime_ratio_identity,
    dim_lie,
    lower_bound_c,
    phi_count,
    weight_space_dim_formula,
)
from liedim.lie_powers import LiePowerContext
from liedim.witt import aperiodic_word_count, check_witt_bounds, witt_dim

GAP_EPS = Fraction(1, 100)


def test_criterion_01_witt_formula_vs_combinatorial_oracle():
    start = time.perf_counter()
    for n in range(1, 5):
        for r in range(1, 13):
            assert sum(1 for _ in oracle.iter_lyndon_words(n, r)) == witt_dim(n, r), (n, r)
    for n in range(1, 4):
        for r in range(1, 11):
            got = oracle.aperiodic_count_bruteforce(n, r)
            assert got == aperiodic_word_count(n, r), (n, r)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, limit 5s"
    print(f"ACCEPTANCE 1: PASS (lyndon n<=4 r<=12, aperiodic n<=3 r<=10, {elapsed:.2f}s)")


def test_criterion_02_two_sided_bounds_exact():
    for n in range(1, 11):
        for r in range(1, 65):
            chk = check_witt_bounds(n, r)
            assert chk.holds, (n, r)
            # cleared-denominator forms only: both sides are integers
            assert isinstance(chk.upper_lhs, int) and isinstance(chk.lower_rhs_sq, int)
    print("ACCEPTANCE 2: PASS (bounds exact for n<=10, r<=64)")


def test_criterion_03_lie_power_rank_oracle():
    start = time.perf_counter()
    for n in range(1, 4):
        for r in range(1, 7):
            w = witt_dim(n, r)
            for field in (None, 2, 3):
                assert oracle.lie_power_span(n, r, field).rank() == w, (n, r, field)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, limit 30s"
    print(f"ACCEPTANCE 3: PASS (rank = witt on n<=3, r<=6, three fields, {elapsed:.2f}s)")


def test_criterion_04_lie_module_rank_fast():
    for r in range(1, 7):
        for field in (None, 2, 3):
            assert len(oracle.lie_module_span(r, field).pivots()) == dim_lie(r), (r, field)
    print("ACCEPTANCE 4: PASS (multilinear rank = (r-1)! for r<=6)")


@pytest.mark.slow
def test_criterion_04_lie_module_rank_r7_slow():
    assert len(oracle.lie_module_span(7, 2, budget=10**9).pivots()) == dim_lie(7) == 720
    print("ACCEPTANCE 4 (slow): PASS (r=7 over F_2)")


def test_criterion_05_weight_space_dimensions():
    for q, k in ((1, 2), (1, 3), (1, 4), (2, 2), (3, 2), (2, 3)):
        expected = weight_space_dim_formula(q, k)
        assert len(oracle.weight_space_span(q, k).pivots()) == expected, (q, k)
    for q in range(1, 9):
        for k in range(1, 9):
            assert weight_space_dim_formula(q, k) == phi_count(q, k) * dim_lie(k), (q, k)
    print("ACCEPTANCE 5: PASS (weight space ranks and factorization)")


def test_criterion_06_dimension_identity_grid():
    for p in (2, 3, 5):
        for n in (2, 3, 5):
            ctx = LiePowerContext(p, n)
            for r in range(1, 201):
                m, k = ctx.split(r)
                # dim_b raising ExactnessError (failed divisibility) fails here
                assert ctx.dim_b(r) >= 0, (p, n, r)
                assert ctx.check_dimension_identity(m, k).holds, (p, n, r)
    print("ACCEPTANCE 6: PASS (dimension identity, p,n in {2,3,5}, r <= 200)")


def _solve_b_dims_from_identity(p, n, k, m_max):
    # Invert the degree-p^m*k dimension identity bottom-up.  Deliberately
    # independent of LiePowerContext: plain integers and witt_dim only.
    dims = {}
    for m in range(m_max + 1):
        total = witt_dim(n ** (p**m), k)
        for i in range(1, m + 1):
            total -= p ** (m - i) * dims[m - i] ** (p**i)
        dims[m] = exact_div(total, p**m)
    return dims


def _solve_c_ratios_from_identity(p, k, m_max):
    # Invert the factorial-form recurrence bottom-up.  Deliberately
    # independent of LieModuleContext: Fractions and factorials only.
    ratios = {}
    for m in range(m_max + 1):
        r = p**m * k
        big = factorial(r)
        rest = Fraction(big, k)
        for i in range(1, m + 1):
            coeff = Fraction(p ** (m - i) * big, (p ** (m - i) * k) ** (p**i))
            rest -= coeff * ratios[m - i] ** (p**i)
        ratios[m] = rest / Fraction(big, k)
    return ratios


def test_criterion_07_fixed_points_recomputed_independently():
    dims = _solve_b_dims_from_identity(2, 2, 3, 2)
    b = {m: Fraction(dims[m], witt_dim(2, 2**m * 3)) for m in dims}
    assert b[0] == 1
    assert b[1] == Fraction(8, 9)
    assert b[2] == Fraction(304, 335)

    c = _solve_c_ratios_from_identity(2, 3, 2)
    assert c[0] == 1
    assert c[1] == Fraction(2, 3)
    assert c[2] == Fraction(8, 9)
    dim_c6 = c[1] * factorial(5)
    assert dim_c6 == 80
    print("ACCEPTANCE 7: PASS (b_3, b_6, b_12, c_3, c_6, c_12, dim 80 re-derived)")


def test_criterion_08_convergence_grid():
    start = time.perf_counter()
    checked_deep = 0
    for p in (2, 3):
        cctx = LieModuleContext(p)
        for n in (2, 3):
            bctx = LiePowerContext(p, n)
            for k in (2, 3, 5):
                if k % p == 0:
                    continue
                for m, r in verify.conv_chain(p, k):
                    b = bctx.ratio_b(r)
                    c = cctx.ratio_c(r)
                    if m == 0:
                        assert b == 1 and c == 1, (p, n, k)
                        continue
                    # gap <= explicit bound, i.e. bound <= ratio, exactly
                    assert bctx.lower_bound_b(m, k).holds_for(b), (p, n, m, k)
                    assert lower_bound_c(p, m, k) <= c, (p, m, k)
                    if r >= 2000:
                        assert 1 - b < GAP_EPS, (p, n, m, k)
                        assert 1 - c < GAP_EPS, (p, m, k)
                        checked_deep += 1
    assert checked_deep > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s, limit 60s"
    print(f"ACCEPTANCE 8: PASS (convergence grid to r <= 5000, {elapsed:.2f}s)")


def test_criterion_09_cross_path_equality_and_ratio_identity():
    for p in (2, 3):
        ctx = LieModuleContext(p)
        for k in (2, 3, 5):
            if k % p == 0:
                continue
            for m, _r in verify.conv_chain(p, k):
                chk = ctx.check_c_recurrence_identity(m, k)
                assert chk.holds, (p, m, k)
                for i in range(m + 1):
                    for s in range(i + 1):
                        ident = check_a_prime_ratio_identity(p, m, k, i, s)
                        assert ident.holds, (p, m, k, i, s)
    print("ACCEPTANCE 9: PASS (factorial vs normalized recurrence, ratio identity)")


def _run_cli(args):
    result = fresh(*LIEDIM, *args)
    assert result.exit_code == 0, result.stderr
    return result.stdout.encode()


def test_criterion_10_byte_identical_reruns(verify_golden):
    # fresh interpreter per run, so hash randomization is actually exercised
    commands = [
        ["verify", "--suite", "all"],
        ["b-table", "--p", "2", "--n", "2", "--k", "3", "--k", "5", "--m-max", "6"],
        ["c-table", "--p", "3", "--k", "2", "--m-max", "6"],
        ["witt", "--n", "4", "--r", "24"],
    ]
    for args in commands:
        first = _run_cli(args)
        second = _run_cli(args)
        assert first == second, f"output differs between runs of {args}"
        if args[0] == "verify":
            assert first == verify_golden[False], "verify --suite all differs from tests/golden/verify_all.txt"
    print("ACCEPTANCE 10: PASS (byte-identical reruns, fresh processes)")

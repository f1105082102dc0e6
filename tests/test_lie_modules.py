from fractions import Fraction
from math import factorial

import pytest

from liedim.arith import ExactnessError, RatioReport
from liedim.lie_modules import (
    LieModuleContext,
    _integral_dim,
    check_a_prime_ratio_identity,
    coeff_a_prime,
    dim_lie,
    dim_lie_bits_lower,
    lower_bound_c,
    phi_count,
    weight_space_dim_formula,
)


def test_dim_lie():
    assert [dim_lie(r) for r in range(1, 7)] == [1, 1, 2, 6, 24, 120]
    with pytest.raises(ValueError):
        dim_lie(0)


def test_ratio_chain_p2():
    ctx = LieModuleContext(2)
    assert ctx.ratio_c(1) == 1
    assert ctx.ratio_c(3) == 1
    assert ctx.ratio_c(6) == Fraction(2, 3)
    assert ctx.ratio_c(12) == Fraction(8, 9)
    assert ctx.ratio_c(2) == 0
    assert ctx.ratio_c(8) == 0


def test_dim_chain_p2():
    ctx = LieModuleContext(2)
    assert ctx.dim_c(3) == 2
    assert ctx.dim_c(6) == 80
    assert ctx.dim_c(12) == 35481600
    assert ctx.dim_c(2) == 0


def test_ratio_p3():
    ctx = LieModuleContext(3)
    assert ctx.ratio_c(6) == Fraction(3, 4)
    assert ctx.dim_c(5) == 24
    assert ctx.ratio_c(9) == 0


def test_coeff_a_prime():
    assert coeff_a_prime(2, 1, 3, 0) == 1
    assert coeff_a_prime(2, 1, 3, 1) == Fraction(1, 3)
    assert coeff_a_prime(2, 2, 3, 1) == Fraction(1, 6)
    assert coeff_a_prime(2, 2, 3, 2) == Fraction(1, 27)
    with pytest.raises(ValueError):
        coeff_a_prime(2, 1, 3, 2)


def test_a_prime_ratio_identity():
    chk = check_a_prime_ratio_identity(2, 2, 3, 2, 1)
    assert chk.lhs == chk.rhs == Fraction(2, 9)
    assert chk.holds
    chk = check_a_prime_ratio_identity(2, 2, 3, 2, 2)
    assert chk.lhs == chk.rhs == Fraction(1, 27)
    assert chk.holds
    # s = 0 degenerates to 1 = 1
    chk = check_a_prime_ratio_identity(5, 1, 2, 1, 0)
    assert chk.lhs == chk.rhs == 1
    with pytest.raises(ValueError):
        check_a_prime_ratio_identity(2, 2, 3, 1, 2)


def test_weight_space_formula():
    assert weight_space_dim_formula(1, 3) == 2
    assert weight_space_dim_formula(2, 2) == 12
    assert weight_space_dim_formula(3, 2) == 360
    assert weight_space_dim_formula(2, 3) == 240
    for q in range(1, 9):
        for k in range(1, 9):
            assert weight_space_dim_formula(q, k) == phi_count(q, k) * dim_lie(k)
    assert phi_count(2, 2) == 12 and dim_lie(2) == 1
    assert phi_count(1, 4) == 1 and dim_lie(4) == 6


def test_lower_bound_c_values():
    assert lower_bound_c(2, 1, 3) == Fraction(2, 3)
    assert lower_bound_c(2, 2, 3) == Fraction(43, 54)
    assert lower_bound_c(3, 1, 2) == Fraction(3, 4)
    with pytest.raises(ValueError):
        lower_bound_c(2, 0, 3)
    with pytest.raises(ValueError):
        lower_bound_c(2, 1, 1)


def test_lower_bound_c_tight_at_m1():
    for p in (2, 3, 5):
        ctx = LieModuleContext(p)
        for k in range(2, 30):
            if k % p == 0:
                continue
            assert lower_bound_c(p, 1, k) == ctx.ratio_c(p * k), (p, k)


def test_lower_bound_c_sound():
    for p in (2, 3, 5):
        ctx = LieModuleContext(p)
        for r in range(1, 201):
            m, k = ctx.split(r)
            if m >= 1 and k >= 2:
                assert lower_bound_c(p, m, k) <= ctx.ratio_c(r), (p, r)


def test_recurrence_identity_instances():
    ctx = LieModuleContext(2)
    chk = ctx.check_c_recurrence_identity(1, 3)
    assert chk.lhs == chk.rhs == Fraction(240)
    assert chk.holds
    chk = ctx.check_c_recurrence_identity(0, 5)
    assert chk.lhs == chk.rhs == factorial(5) // 5 == 24
    assert chk.holds

    ctx = LieModuleContext(3)
    chk = ctx.check_c_recurrence_identity(1, 2)
    assert chk.lhs == chk.rhs == Fraction(360)
    assert chk.holds


def test_recurrence_identity_grid():
    for p in (2, 3, 5):
        ctx = LieModuleContext(p)
        for r in range(1, 101):
            m, k = ctx.split(r)
            if k >= 2:
                assert ctx.check_c_recurrence_identity(m, k).holds, (p, r)


def test_dim_c_integral_grid():
    # ratio * (r-1)! must come out integral everywhere
    for p in (2, 3, 5):
        ctx = LieModuleContext(p)
        for r in range(1, 121):
            dim = ctx.dim_c(r)
            assert 0 <= dim <= dim_lie(r), (p, r)


def test_integral_dim_divides_exactly():
    # the quotient by the denominator equals the Fraction product, and a
    # remainder raises with the Fraction shown
    for p in (2, 3):
        ctx = LieModuleContext(p)
        for r in range(1, 61):
            ratio = ctx.ratio_c(r)
            assert _integral_dim(r, ratio, dim_lie(r)) == ratio * dim_lie(r), (p, r)
    with pytest.raises(ExactnessError, match=r"^c_5 \* \(5-1\)! = 24/7 is not an integer$"):
        _integral_dim(5, Fraction(1, 7), 24)


def test_report_structure():
    ctx = LieModuleContext(2)
    rep = ctx.report(12)
    assert type(rep) is RatioReport  # the report type LiePowerContext returns too
    assert rep.dim == 35481600
    assert rep.reference == factorial(11)
    assert rep.ratio == Fraction(8, 9)
    assert rep.bound == Fraction(43, 54)
    a = [coeff_a_prime(2, 2, 3, i) for i in range(3)]
    assert a[0] == 1

    rep = ctx.report(3)
    assert rep.bound is None


def test_context_domain_errors():
    with pytest.raises(ValueError):
        LieModuleContext(6)
    ctx = LieModuleContext(2)
    with pytest.raises(ValueError):
        ctx.ratio_c(0)
    with pytest.raises(ValueError):
        ctx.check_c_recurrence_identity(1, 4)


def test_dim_lie_bits_lower_is_sound_and_tight():
    for r in range(1, 1500):
        assert 1 << dim_lie_bits_lower(r) <= dim_lie(r), r
    # (3071)! has 31,153 bits; the bound is within 0.2 %
    assert dim_lie(3072).bit_length() == 31153
    assert 31090 <= dim_lie_bits_lower(3072) < 31153

from fractions import Fraction

import pytest

from liedim import lie_powers
from liedim.arith import RatioReport
from liedim.lie_powers import LiePowerContext
from liedim.witt import witt_dim


@pytest.fixture
def ctx22():
    return LiePowerContext(2, 2)


def test_dim_chain_p2_n2(ctx22):
    # r = 1, 3, 6, 12 along the k = 3 chain (plus the p-power degrees)
    assert ctx22.dim_b(1) == 2
    assert ctx22.dim_b(2) == 0
    assert ctx22.dim_b(3) == 2
    assert ctx22.dim_b(6) == 8
    assert ctx22.dim_b(8) == 0
    assert ctx22.dim_b(12) == 304


def test_ratio_chain_p2_n2(ctx22):
    assert ctx22.ratio_b(3) == 1
    assert ctx22.ratio_b(6) == Fraction(8, 9)
    assert ctx22.ratio_b(12) == Fraction(304, 335)
    assert ctx22.ratio_b(2) == 0
    assert ctx22.ratio_b(8) == 0


def test_ratio_can_hit_one_at_positive_m():
    # p = 3, n = 2, r = 6: dim equals the full Witt dimension, so the ratio
    # is 1 even though m = 1
    ctx = LiePowerContext(3, 2)
    assert ctx.dim_b(6) == 9 == witt_dim(2, 6)
    assert ctx.ratio_b(6) == 1
    assert ctx.dim_b(15) == 2112
    assert ctx.ratio_b(15) == Fraction(1056, 1091)


def test_coeff_a_values(ctx22):
    assert ctx22.coeff_a(1, 3, 0) == 1
    assert ctx22.coeff_a(2, 3, 0) == 1
    assert ctx22.coeff_a(1, 3, 1) == Fraction(2, 9)
    assert ctx22.coeff_a(2, 3, 2) == Fraction(4, 335)
    with pytest.raises(ValueError):
        ctx22.coeff_a(2, 3, 5)


def test_a_ratio_bound_instances(ctx22):
    chk = ctx22.check_a_ratio_bound(2, 3, 1, 1)
    assert chk.lhs == Fraction(81, 670)
    assert chk.rhs == Fraction(1, 3)
    assert chk.holds

    chk = ctx22.check_a_ratio_bound(2, 3, 2, 2)
    assert chk.lhs == Fraction(4, 335)
    assert chk.rhs == Fraction(2, 27)
    assert chk.holds

    # consecutive-ratio instance: rhs collapses to 2/9 < 1
    chk = ctx22.check_a_ratio_bound(3, 3, 2, 1)
    assert chk.rhs == Fraction(2, 9)
    assert chk.holds
    assert chk.lhs <= 1


def test_a_ratio_bound_domain(ctx22):
    with pytest.raises(ValueError):
        ctx22.check_a_ratio_bound(2, 3, 1, 0)
    with pytest.raises(ValueError):
        ctx22.check_a_ratio_bound(2, 3, 3, 1)


def test_lower_bound_even_degree(ctx22):
    lb = ctx22.lower_bound_b(1, 3)
    assert lb.half_exact == Fraction(3, 16)
    assert lb.tower == 0
    assert lb.tail == Fraction(2, 3)
    # the bound is exactly 7/48: holds_for decides it at the boundary
    assert lb.holds_for(Fraction(7, 48)) and not lb.holds_for(Fraction(7, 48) - Fraction(1, 10**9))
    assert lb.holds_for(Fraction(8, 9))

    lb = ctx22.lower_bound_b(2, 3)
    assert lb.half_exact == Fraction(3, 128)
    assert lb.half_sq == Fraction(9, 4 * 2**12)
    assert lb.tower == Fraction(1, 3)
    assert lb.tail == Fraction(2, 27)
    assert lb.holds_for(Fraction(1967, 3456)) and not lb.holds_for(Fraction(1967, 3456) - Fraction(1, 10**9))
    assert lb.holds_for(Fraction(304, 335))
    assert not lb.holds_for(Fraction(1, 2))


def test_lower_bound_odd_degree_squared_form():
    # r = 3 * 5 = 15 is odd: n^(r/2) is irrational, so only the squared
    # half-term exists and comparisons go through squares
    ctx = LiePowerContext(3, 2)
    lb = ctx.lower_bound_b(1, 5)
    assert lb.half_exact is None
    assert lb.half_sq == Fraction(25, 4 * 2**15)
    assert lb.holds_for(ctx.ratio_b(15))
    rendered = lb.float_str(64)
    assert rendered.startswith("0.")


def test_lower_bound_domain(ctx22):
    with pytest.raises(ValueError):
        ctx22.lower_bound_b(0, 3)
    with pytest.raises(ValueError):
        ctx22.lower_bound_b(1, 1)
    with pytest.raises(ValueError):
        ctx22.lower_bound_b(1, 4)


def test_dimension_identity_instances(ctx22):
    chk = ctx22.check_dimension_identity(1, 3)
    assert chk.lhs == chk.rhs == witt_dim(4, 3) == 20
    assert chk.holds
    chk = ctx22.check_dimension_identity(0, 5)
    assert chk.holds

    ctx = LiePowerContext(3, 2)
    chk = ctx.check_dimension_identity(1, 2)
    assert chk.lhs == chk.rhs == witt_dim(8, 2) == 28
    assert chk.holds


def test_dimension_identity_grid():
    for p in (2, 3, 5):
        for n in (2, 3):
            ctx = LiePowerContext(p, n)
            for r in range(1, 101):
                m, k = ctx.split(r)
                assert ctx.check_dimension_identity(m, k).holds, (p, n, r)


def test_report_structure(ctx22):
    rep = ctx22.report(12)
    assert type(rep) is RatioReport  # the report type LieModuleContext returns too
    assert rep.dim == 304 and rep.reference == 335
    assert rep.ratio == Fraction(304, 335)
    assert rep.bound is not None
    a = [ctx22.coeff_a(2, 3, i) for i in range(3)]
    assert a[0] == 1

    rep = ctx22.report(3)
    assert rep.bound is None
    assert ctx22.coeff_a(0, 3, 0) == 1


def test_context_domain_errors():
    with pytest.raises(ValueError, match="^p must be prime, got 4$"):
        LiePowerContext(4, 2)
    with pytest.raises(ValueError):
        LiePowerContext(2, 1)
    ctx = LiePowerContext(2, 2)
    with pytest.raises(ValueError):
        ctx.dim_b(0)


def test_witt_dim_is_computed_once_per_argument(monkeypatch):
    calls = []

    def counted(n, r):
        calls.append((n, r))
        return witt_dim(n, r)

    monkeypatch.setattr(lie_powers, "witt_dim", counted)
    ctx = LiePowerContext(2, 3)
    first = [ctx.report(r) for r in range(1, 49)]
    for r in range(1, 49):
        m, k = ctx.split(r)
        ctx.check_dimension_identity(m, k)
        ctx.coeff_a(m, k, m)
    assert [ctx.report(r) for r in range(1, 49)] == first
    assert len(calls) == len(set(calls))
    # the memoised values are the plain ones
    fresh = LiePowerContext(2, 3)
    assert all(ctx.ratio_b(r) == fresh.ratio_b(r) for r in range(1, 49))

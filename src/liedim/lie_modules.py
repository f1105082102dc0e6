"""Exact ratios for the certified projective part of Lie modules.

The degree-r Lie module (the multilinear slice of the free Lie algebra on r
letters, as a module for the symmetric group over a field of characteristic
p) has dimension (r-1)!.  Writing r = p**m * k with p not dividing k, the
part with a certified projective complement has dimension dim_c(r) =
c_r * (r-1)! where the rational ratios c_r satisfy two equivalent exact
recurrences:

factorial form
    sum_{i=0..m} p**(m-i) * (p**m k)! / (p**(m-i) k)**(p**i) * c(p**(m-i) k)**(p**i)
        = (p**m k)! / k

normalized form (the production path; divide through by (p**m k)!/k)
    c(p**m k) = 1 - sum_{i=1..m} a'_i * c(p**(m-i) k)**(p**i),
    a'_i = (p**(m-i) k)**-(p**i - 1)

with base cases c(k) = 1 when p does not divide k (including c(1) = 1) and
c(p**m) = 0 for m >= 1.  check_c_recurrence_identity recomputes the factorial
form from scratch, so both routes stay live.

The coefficients obey the exact ratio identity

    a'_i / a'_(i-s) = p**-s * (p**s / (p**(m-i) k)**(p**s - 1))**(p**(i-s))

(check_a_prime_ratio_identity certifies it as an equality).  For
2 <= i <= m-1 the s = 1 instance is <= 1 because p**(m-i) k >= pk there, so
a'_i <= a'_1 for every i <= m-1, and since each c value lies in [0, 1],

    c(p**m k) >= 1 - sum_{i=1..m} a'_i >= 1 - (m-1) a'_1 - a'_m
              =  1 - (m-1)/(p**(m-1) k)**(p-1) - 1/k**(p**m - 1)

which is lower_bound_c.  At m = 1 the recurrence has the single correction
term a'_1 * c(k)**p = a'_1, so the bound is an equality there.

The weight-space count behind the factorial form is also exposed:
weight_space_dim_formula(q, k) = (qk)!/k, which factors as the number of
block decompositions phi_count(q, k) = (qk)!/k! times dim_lie(k) = (k-1)!,
the bracket-span dimension per block pattern.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .arith import Check, ExactnessError, RatioReport, _ChainTable, _check_chain, exact_div, power_bits_lower


def dim_lie(r: int) -> int:
    """Dimension (r-1)! of the degree-r Lie module."""
    if r < 1:
        raise ValueError("dim_lie() needs r >= 1")
    return factorial(r - 1)


def dim_lie_bits_lower(r: int) -> int:
    """A b >= 0 with 2**b <= (r-1)!, without building it: N! >= (N/e)**N >= (100N // 272)**N."""
    q = 100 * (r - 1) // 272
    return power_bits_lower(q, r - 1) if q >= 1 else 0


def coeff_a_prime(p: int, m: int, k: int, i: int) -> Fraction:
    """a'_i = (p**(m-i) * k)**-(p**i - 1) for 0 <= i <= m."""
    _check_chain(p, m, k, k_min=1)
    if not 0 <= i <= m:
        raise ValueError(f"need 0 <= i <= m, got i={i}, m={m}")
    return Fraction(1, (p ** (m - i) * k) ** (p**i - 1))


def check_a_prime_ratio_identity(p: int, m: int, k: int, i: int, s: int) -> Check:
    """Certify a'_i / a'_(i-s) = p**-s * (p**s / (p**(m-i) k)**(p**s - 1))**(p**(i-s)) exactly."""
    _check_chain(p, m, k, k_min=1)
    if not 0 <= s <= i <= m:
        raise ValueError(f"need 0 <= s <= i <= m, got i={i}, s={s}, m={m}")
    lhs = coeff_a_prime(p, m, k, i) / coeff_a_prime(p, m, k, i - s)
    rhs = Fraction(1, p**s) * Fraction(p**s, (p ** (m - i) * k) ** (p**s - 1)) ** (p ** (i - s))
    return Check(lhs, rhs, lhs == rhs)


def weight_space_dim_formula(q: int, k: int) -> int:
    """(qk)! / k: the multilinear weight space dimension the oracle measures."""
    if q < 1 or k < 1:
        raise ValueError("weight_space_dim_formula() needs q >= 1 and k >= 1")
    return exact_div(factorial(q * k), k)


def phi_count(q: int, k: int) -> int:
    """(qk)! / k!: number of ordered block decompositions, the coarse factor of the weight space."""
    if q < 1 or k < 1:
        raise ValueError("phi_count() needs q >= 1 and k >= 1")
    return exact_div(factorial(q * k), factorial(k))


def lower_bound_c(p: int, m: int, k: int) -> Fraction:
    """1 - (m-1) a'_1 - a'_m, an exact lower bound for c at degree p**m k; equality at m = 1."""
    _check_chain(p, m, k)
    if m < 1:
        raise ValueError("the lower bound needs m >= 1")
    return 1 - (m - 1) * coeff_a_prime(p, m, k, 1) - coeff_a_prime(p, m, k, m)


class LieModuleContext(_ChainTable):
    """Memoized c_r table for one prime p (no space dimension is involved)."""

    def _level(self, j: int, k: int) -> Fraction:
        if j == 0:
            return Fraction(1)
        if k == 1:
            return Fraction(0)
        p = self.p
        value = Fraction(1)
        for i in range(1, j + 1):
            value -= coeff_a_prime(p, j, k, i) * self._memo[p ** (j - i) * k] ** (p**i)
        return value

    def ratio_c(self, r: int) -> Fraction:
        """c_r via the normalized recurrence; always in [0, 1]."""
        return self._walk(r)

    def dim_c(self, r: int) -> int:
        """c_r * (r-1)!, which must come out an integer."""
        return _integral_dim(r, self.ratio_c(r), dim_lie(r))

    def check_c_recurrence_identity(self, m: int, k: int) -> Check:
        """Recompute the factorial-form recurrence from scratch against the stored ratios.

        Needs k >= 2 (and p not dividing k); the degenerate chains are covered
        by the base cases directly.
        """
        _check_chain(self.p, m, k)
        p = self.p
        r = p**m * k
        big = factorial(r)
        lhs = Fraction(0)
        for i in range(m + 1):
            coeff = Fraction(p ** (m - i) * big, (p ** (m - i) * k) ** (p**i))
            lhs += coeff * self.ratio_c(p ** (m - i) * k) ** (p**i)
        rhs = Fraction(big, k)
        return Check(lhs, rhs, lhs == rhs)

    def report(self, r: int) -> RatioReport:
        """Bundle the exact quantities for one degree."""
        m, k = self.split(r)
        ratio = self.ratio_c(r)
        lie_dim = dim_lie(r)
        bound = lower_bound_c(self.p, m, k) if m >= 1 and k >= 2 else None
        return RatioReport(dim=_integral_dim(r, ratio, lie_dim), reference=lie_dim, ratio=ratio, bound=bound)


def _integral_dim(r: int, ratio: Fraction, lie_dim: int) -> int:
    # ratio is in lowest terms, so ratio * lie_dim is an integer exactly when
    # its denominator divides lie_dim; no Fraction product (and no gcd) is needed
    quotient, remainder = divmod(lie_dim, ratio.denominator)
    if remainder:
        raise ExactnessError(f"c_{r} * ({r}-1)! = {ratio * lie_dim} is not an integer")
    return quotient * ratio.numerator

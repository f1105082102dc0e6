"""Dimension table and convergence bounds for the tensor-split part of Lie powers.

Fix a prime p and an n-dimensional space with n >= 2, and write each degree
as r = p**m * k with p not dividing k.  The degree-r Lie power (dimension
w(n, r)) contains a canonical direct summand that splits off tensor powers;
its dimension dim_b(r) is pinned down by the exact identity

    sum_{i=0..m} p**(m-i) * dim_b(p**(m-i) * k)**(p**i)  =  w(n**(p**m), k)

together with the base cases dim_b(k) = w(n, k) when p does not divide k and
dim_b(p**m) = 0 for m >= 1.  Solving the identity for the i = 0 term gives a
recurrence whose division by p**m is always exact; a remainder raises
ExactnessError rather than rounding.

The ratio b_r = dim_b(r) / w(n, r) lies in [0, 1], is 1 when p does not
divide r, is 0 at r = p**m, and for k >= 2 approaches 1 along each chain
k, pk, p**2 k, ...  The normalized correction coefficients

    a_i = w(n, p**(m-i) k)**(p**i) / (p**i * w(n, p**m k)),   0 <= i <= m

control the speed: check_a_ratio_bound certifies the ratio inequality

    a_i / a_(i-s) <= p**-s * (2 p**s / (p**(m-i) k)**(p**s - 1))**(p**(i-s))

for 0 < s <= i <= m (valid for n >= 2, k >= 2, p**(m-i+s) k >= 6), and
lower_bound_b packages the resulting explicit bound

    b_r >= 1 - k / (2 n**(r/2)) - 2(m-1) / (p**(m-1) k)**(p-1) - 2 / k**(p**m - 1)

keeping the n**(r/2) term in squared form when r is odd so every comparison
stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import Check, RatioReport, _ChainTable, _check_chain, checked_sub, exact_div
from .render import DEFAULT_FLOAT_BITS, render_fraction, sqrt_dyadic
from .witt import witt_dim


@dataclass(frozen=True)
class RatioBoundB:
    """Explicit lower bound for b at degree p**m * k, kept in exact pieces.

    bound = 1 - half - tower - tail where

        half  = k / (2 n**(p**m k / 2))   (irrational when p**m k is odd,
                                           so only its square is stored;
                                           half_exact is set when even)
        tower = 2 (m-1) / (p**(m-1) k)**(p-1)
        tail  = 2 / k**(p**m - 1)

    Comparisons against rationals are decided exactly via the squared form.
    """

    half_sq: Fraction
    half_exact: Fraction | None
    tower: Fraction
    tail: Fraction

    def holds_for(self, ratio: Fraction) -> bool:
        """Decide bound <= ratio exactly."""
        shortfall = 1 - self.tower - self.tail - ratio
        if shortfall <= 0:
            return True
        return shortfall * shortfall <= self.half_sq

    def float_str(self, bits: int = DEFAULT_FLOAT_BITS) -> str:
        """Decimal rendering; the only place the square root is approximated."""
        half = self.half_exact if self.half_exact is not None else sqrt_dyadic(self.half_sq, bits)
        return render_fraction(1 - half - self.tower - self.tail, bits)


class LiePowerContext(_ChainTable):
    """Memoized dim_b table for one (p, n), filled on demand (see _ChainTable)."""

    def __init__(self, p: int, n: int):
        super().__init__(p)
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        self.n = n
        self._witt_memo: dict[tuple[int, int], int] = {}

    def _witt(self, r: int, e: int = 1) -> int:
        """w(n**e, r), memoised for this context."""
        key = (e, r)
        if key not in self._witt_memo:
            self._witt_memo[key] = witt_dim(self.n**e, r)
        return self._witt_memo[key]

    def _level(self, j: int, k: int) -> int:
        if j == 0:
            return self._witt(k)
        if k == 1:
            return 0
        p = self.p
        total = self._witt(k, p**j)
        for i in range(1, j + 1):
            total = checked_sub(total, p ** (j - i) * self._memo[p ** (j - i) * k] ** (p**i))
        return exact_div(total, p**j)

    def dim_b(self, r: int) -> int:
        """Dimension of the tensor-split summand in degree r."""
        return self._walk(r)

    def ratio_b(self, r: int) -> Fraction:
        """Exact dim_b(r) / w(n, r); always in [0, 1]."""
        return Fraction(self.dim_b(r), self._witt(r))

    def coeff_a(self, m: int, k: int, i: int) -> Fraction:
        """Normalized correction coefficient a_i for the chain of k at level m."""
        _check_chain(self.p, m, k, k_min=1)
        if not 0 <= i <= m:
            raise ValueError(f"need 0 <= i <= m, got i={i}, m={m}")
        p = self.p
        num = self._witt(p ** (m - i) * k) ** (p**i)
        return Fraction(num, p**i * self._witt(p**m * k))

    def check_a_ratio_bound(self, m: int, k: int, i: int, s: int) -> Check:
        """Certify a_i / a_(i-s) <= p**-s * (2 p**s / (p**(m-i) k)**(p**s - 1))**(p**(i-s)).

        Requires 0 < s <= i <= m, k >= 2 and p**(m-i+s) * k >= 6 (the region
        where the inequality is asserted).
        """
        _check_chain(self.p, m, k)
        if not 0 < s <= i <= m:
            raise ValueError(f"need 0 < s <= i <= m, got i={i}, s={s}, m={m}")
        p = self.p
        if p ** (m - i + s) * k < 6:
            raise ValueError("the coefficient bound needs p**(m-i+s) * k >= 6")
        lhs = self.coeff_a(m, k, i) / self.coeff_a(m, k, i - s)
        rhs = Fraction(1, p**s) * Fraction(2 * p**s, (p ** (m - i) * k) ** (p**s - 1)) ** (p ** (i - s))
        return Check(lhs, rhs, lhs <= rhs)

    def lower_bound_b(self, m: int, k: int) -> RatioBoundB:
        """Explicit lower bound object for b at degree p**m * k (m >= 1, k >= 2)."""
        _check_chain(self.p, m, k)
        if m < 1:
            raise ValueError("the lower bound needs m >= 1")
        p, n = self.p, self.n
        r = p**m * k
        tower = Fraction(2 * (m - 1), (p ** (m - 1) * k) ** (p - 1))
        tail = Fraction(2, k ** (p**m - 1))
        half_sq = Fraction(k * k, 4 * n**r)
        half_exact = Fraction(k, 2 * n ** (r // 2)) if r % 2 == 0 else None
        return RatioBoundB(half_sq=half_sq, half_exact=half_exact, tower=tower, tail=tail)

    def check_dimension_identity(self, m: int, k: int) -> Check:
        """Recompute both sides of the defining identity in plain integers."""
        _check_chain(self.p, m, k, k_min=1)
        p = self.p
        lhs = sum(p ** (m - i) * self.dim_b(p ** (m - i) * k) ** (p**i) for i in range(m + 1))
        rhs = self._witt(k, p**m)
        return Check(lhs, rhs, lhs == rhs)

    def report(self, r: int) -> RatioReport:
        """Bundle the exact quantities for one degree."""
        m, k = self.split(r)
        dim = self.dim_b(r)
        w = self._witt(r)
        bound = self.lower_bound_b(m, k) if m >= 1 and k >= 2 else None
        return RatioReport(dim=dim, reference=w, ratio=Fraction(dim, w), bound=bound)

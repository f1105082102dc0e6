"""Necklace/Witt counts and their elementary two-sided bounds.

The central quantity is

    w(n, r) = (1/r) * sum_{d | r} mobius(d) * n**(r // d)

which counts the Lyndon words of length r over an n-letter alphabet and
equals the dimension of the degree-r component of the free Lie algebra on n
generators.  r * w(n, r) counts the aperiodic words of length r.

The bounds certified here are

    n**r / r - n**(r/2) / 2  <=  w(n, r)  <=  n**r / r

checked entirely in integers: the upper bound as r*w <= n**r, the lower bound
with denominators cleared and the possibly-irrational n**(r/2) squared away.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import divisors, exact_div, mobius, power_bits_lower


def witt_dim(n: int, r: int) -> int:
    """Number of Lyndon words of length r over n letters.

    The divisor sum is always divisible by r; a remainder would be a bug and
    raises ExactnessError.
    """
    if n < 1:
        raise ValueError("witt_dim() needs n >= 1")
    if r < 1:
        raise ValueError("witt_dim() needs r >= 1")
    total = sum(mobius(d) * n ** (r // d) for d in divisors(r))
    return exact_div(total, r)


def witt_dim_bits_lower(n: int, r: int) -> int:
    """A b >= 0 with 2**b <= w(n, r), without building w(n, r); 0 when n < 2 or r < 3.

    For n >= 2 and r >= 3 the words that are powers of shorter ones number at
    most n + n**2 + ... + n**(r//2) <= 2 n**(r//2) <= n**r / 2, so
    r * w(n, r) >= n**r / 2.
    """
    if n < 2 or r < 3:
        return 0
    return max(0, power_bits_lower(n, r) - 1 - r.bit_length())


def aperiodic_word_count(n: int, r: int) -> int:
    """Number of length-r words over n letters that are not a power of a shorter word."""
    return r * witt_dim(n, r)


class WittBoundsWitness(NamedTuple):
    """Integer comparisons certifying the two-sided bound on w(n, r).

    upper:  r*w <= n**r, compared directly.
    lower:  with excess = 2*n**r - 2*r*w the bound reads excess <= r * n**(r/2);
            it holds trivially when excess <= 0 and is otherwise compared as
            excess**2 <= r*r * n**r, so odd r (irrational n**(r/2)) stays exact.
    """

    w: int
    upper_lhs: int
    upper_rhs: int
    lower_excess: int
    lower_lhs_sq: int
    lower_rhs_sq: int
    holds: bool


def check_witt_bounds(n: int, r: int) -> WittBoundsWitness:
    """Certify n**r/r - n**(r/2)/2 <= w(n, r) <= n**r/r with exact integer arithmetic."""
    w = witt_dim(n, r)
    power = n**r
    upper_lhs = r * w
    upper_ok = upper_lhs <= power

    excess = 2 * power - 2 * r * w
    lower_lhs_sq = excess * excess if excess > 0 else 0
    lower_rhs_sq = r * r * power
    lower_ok = excess <= 0 or lower_lhs_sq <= lower_rhs_sq

    return WittBoundsWitness(
        w=w,
        upper_lhs=upper_lhs,
        upper_rhs=power,
        lower_excess=excess,
        lower_lhs_sq=lower_lhs_sq,
        lower_rhs_sq=lower_rhs_sq,
        holds=upper_ok and lower_ok,
    )

"""Exact integer and rational helpers shared by the dimension computations.

Everything in this package is computed in arbitrary-precision integers or
`fractions.Fraction` values (always in lowest terms, positive denominator),
so results are exact by construction.  Floats appear only at the reporting
layer, and only as renderings of exact rationals.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import TYPE_CHECKING, NamedTuple

from .render import int_to_str

if TYPE_CHECKING:
    from fractions import Fraction


class ExactnessError(ArithmeticError):
    """An operation that must be exact was not.

    Raised when a division leaves a remainder or a checked subtraction goes
    negative.  Either event means a recurrence identity failed, i.e. a bug,
    never bad user input.
    """


def exact_div(a: int, b: int) -> int:
    """Divide a by b, insisting on a zero remainder."""
    q, rem = divmod(a, b)
    if rem:
        raise ExactnessError(f"{int_to_str(a)} is not divisible by {int_to_str(b)}")
    return q


def checked_sub(a: int, b: int) -> int:
    """Subtract b from a, insisting on a non-negative result."""
    if b > a:
        raise ExactnessError(f"{int_to_str(a)} - {int_to_str(b)} would be negative")
    return a - b


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test, memoised for the 64 most recent n.

    Trial division is sufficient here and free of probabilistic caveats; a
    table run charges its isqrt(p) steps first, and the memo proves p once.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def divisors(r: int) -> list[int]:
    """All positive divisors of r in ascending order.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    if r < 1:
        raise ValueError("divisors() needs r >= 1")
    small = [f for f in range(1, isqrt(r) + 1) if not r % f]
    return small + [r // f for f in reversed(small) if f * f != r]


def mobius(d: int) -> int:
    """Mobius function: 0 if d has a squared prime factor, else (-1)^(number of prime factors).

    >>> [mobius(d) for d in (1, 2, 4, 6, 30)]
    [1, -1, 0, 1, -1]
    """
    if d < 1:
        raise ValueError("mobius() needs d >= 1")
    result = 1
    f = 2
    while f * f <= d:
        if d % f == 0:
            d //= f
            if d % f == 0:
                return 0
            result = -result
        f += 1
    if d > 1:
        result = -result
    return result


def power_bits_lower(x: int, e: int) -> int:
    """A b with 2**b <= x**e, for x >= 1 and e >= 0, without building x**e.

    (x**16).bit_length() - 1 is floor(16 * log2(x)), so e times it over 16 is
    at most e * log2(x).
    """
    return e * ((x**16).bit_length() - 1) // 16


_SMALL_PRIMES = frozenset((2, 3, 5, 7, 11, 13))


def p_adic_split(r: int, p: int) -> tuple[int, int]:
    """Split r as p**m * k with m maximal, so p does not divide k; returns (m, k).

    A p in the fixed set of primes below 16 is taken without a call to
    is_prime; every other p is proved by is_prime, so each non-prime p is
    still refused.

    >>> p_adic_split(12, 2)
    (2, 3)
    """
    if r < 1:
        raise ValueError("p_adic_split() needs r >= 1")
    if p not in _SMALL_PRIMES and not is_prime(p):
        raise ValueError(f"p_adic_split() needs a prime p, got {p}")
    m = 0
    k = r
    while k % p == 0:
        k //= p
        m += 1
    return m, k


def _check_chain(p: int, m: int, k: int, k_min: int = 2) -> None:
    """Validate a chain k, pk, p**2 k, ... at level m: p prime, m >= 0, k >= k_min, p not dividing k."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if k < k_min:
        raise ValueError(f"k must be >= {k_min}, got {k}")
    if k % p == 0:
        raise ValueError(f"k must not be divisible by p={p}, got {k}")


class _ChainTable:
    """Memoized per-degree table for one prime p, filled bottom-up along each chain k, pk, p**2 k, ...

    A subclass supplies _level(j, k), the value at degree p**j * k, once every
    lower level of that chain is in self._memo.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self._memo: dict = {}

    def split(self, r: int) -> tuple[int, int]:
        return p_adic_split(r, self.p)

    def _walk(self, r: int):
        if r not in self._memo:
            m, k = self.split(r)
            for j in range(m + 1):
                rj = self.p**j * k
                if rj not in self._memo:
                    self._memo[rj] = self._level(j, k)
        return self._memo[r]


class RatioReport(NamedTuple):
    """Exact per-degree summary: dim, the reference dimension it is measured against
    (w(n, r) or (r-1)!), their ratio and its explicit lower bound (None if undefined)."""

    dim: int
    reference: int
    ratio: Fraction
    bound: object


class Check(NamedTuple):
    """Result of an exact comparison of two independently computed sides:
    lhs == rhs for an identity, lhs <= rhs for a bound."""

    lhs: object
    rhs: object
    holds: bool

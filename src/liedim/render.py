"""Decimal renderings of exact rationals for reports.

Exact values stay exact everywhere else in the package; this module turns a
Fraction into a decimal string for table output.  The value is first rounded
half-even to a binary fixed-point number with a configurable number of
fractional bits (default 128), then rendered half-even with the matching
number of decimal digits.  Both steps are pure integer arithmetic, so the
strings are identical across runs and platforms.

Every integer the package prints as text goes through int_to_str.  Below
FAST_STR_MIN_BITS it is str(); above, where str() is quadratic on CPython
3.10 and 3.11, it builds an equal decimal.Decimal by divide and conquer
(split on a power of 2, convert both halves, recombine with a memoised
Decimal 2**w) and takes its str(), the algorithm of CPython 3.12's
Lib/_pylong.py (int_to_decimal).  Past the interpreter's int-to-str digit
limit it takes that path too, so it never refuses and its text does not depend
on the limit; the work budget bounds what is printed (budget.charge_output).

Every command loads this module at start-up (through arith), so decimal and
fractions are imported only in the functions that use them.
"""

from __future__ import annotations

import sys
from math import isqrt
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_FLOAT_BITS = 128
MAX_FLOAT_BITS = 65_536

# Bit length from which int_to_str converts by divide and conquer; below it
# str() is at least as fast.  Leaves of at most _LEAF_BITS convert directly.
FAST_STR_MIN_BITS = 1 << 15
_LEAF_BITS = 1024


def int_to_str(x: int) -> str:
    """Decimal text of x, the same as str(x) under a lifted int-to-str digit limit."""
    # str() only where it is fast and allowed: a nonzero limit L admits every x
    # of at most L * 3321 // 1000 bits, as 2**(3.321 * L) < 10**L
    bits = x.bit_length()
    limit = sys.get_int_max_str_digits()
    if bits < FAST_STR_MIN_BITS and (not limit or bits <= limit * 3321 // 1000):
        return str(x)
    return ("-" if x < 0 else "") + _decimal_text(abs(x), bits)


def str_to_int(text: str) -> int:
    """The integer of a text of decimal digits, the inverse of int_to_str at any
    digit limit: the text is split in halves down to 640 digits, the least limit."""
    if len(text) <= 640:
        return int(text)
    half = len(text) // 2
    return str_to_int(text[:-half]) * 10**half + str_to_int(text[-half:])


def _decimal_text(n: int, bits: int) -> str:
    """str(n) for n >= 0 of the given bit length, by divide and conquer over decimal.Decimal."""
    import decimal
    dec = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}

    def two_to(w: int) -> decimal.Decimal:
        result = powers.get(w)
        if result is None:
            if w <= _LEAF_BITS:
                result = dec(1 << w)
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                # the smaller half first, so the larger one is often its double
                half = w >> 1
                result = two_to(half) * two_to(w - half)
            powers[w] = result
        return result

    def build(n: int, w: int) -> decimal.Decimal:
        if w <= _LEAF_BITS:
            return dec(n)
        half = w >> 1
        hi = n >> half
        return build(n - (hi << half), half) + build(hi, w - half) * two_to(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        return str(build(n, bits))


def decimal_digits_for_bits(bits: int) -> int:
    """Largest digit count whose decimal grid is no finer than the binary one:
    the largest d with 10**d <= 2**bits, at least 1.  bits * 0.301029 is just
    below bits * log10(2), so the count starts at most d and only counts up."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    power = 1 << bits
    digits = bits * 301_029 // 1_000_000
    while 10 ** (digits + 1) <= power:
        digits += 1
    return max(1, digits)


def _round_half_even(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0), ties to even."""
    if den & (den - 1):
        q, rem = divmod(num, den)
    else:
        # den is a power of two, as behind render_fraction: a shift and a mask,
        # where divmod's long division is quadratic on CPython 3.11
        q, rem = num >> (den.bit_length() - 1), num & (den - 1)
    twice = 2 * rem
    if twice > den or (twice == den and q & 1):
        q += 1
    return q


def dyadic_round(x: Fraction, bits: int) -> Fraction:
    """Round x half-even to a multiple of 2**-bits."""
    from fractions import Fraction
    if bits < 1:
        raise ValueError("bits must be >= 1")
    scale = 1 << bits
    return Fraction(_round_half_even(x.numerator * scale, x.denominator), scale)


def format_decimal(x: Fraction, digits: int) -> str:
    """Fixed-point decimal string with exactly `digits` places, round half-even."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    scaled = _round_half_even(x.numerator * 10**digits, x.denominator)
    sign = "-" if scaled < 0 else ""
    body = int_to_str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def render_fraction(x: Fraction, bits: int = DEFAULT_FLOAT_BITS) -> str:
    """Standard report rendering: binary rounding at `bits`, then decimal formatting."""
    return format_decimal(dyadic_round(x, bits), decimal_digits_for_bits(bits))


def sqrt_dyadic(x: Fraction, bits: int = DEFAULT_FLOAT_BITS) -> Fraction:
    """Dyadic approximation of sqrt(x) for display (floor at 2**-bits resolution).

    Used only to render bounds whose exact form keeps an irrational term as a
    square; comparisons never go through this.
    """
    from fractions import Fraction
    if x < 0:
        raise ValueError("sqrt_dyadic() needs x >= 0")
    scale = 1 << bits
    approx = isqrt(x.numerator * scale * scale // x.denominator)
    return Fraction(approx, scale)

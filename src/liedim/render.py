"""Decimal renderings of exact rationals for reports.

Exact values stay exact everywhere else in the package; this module turns a
Fraction into a decimal string for table output.  The value is first rounded
half-even to a binary fixed-point number with a configurable number of
fractional bits (default 128), then rendered half-even with the matching
number of decimal digits.  Both steps are pure integer arithmetic, so the
strings are identical across runs and platforms.  Every integer the package
prints as text goes through int_to_str.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import isqrt

DEFAULT_FLOAT_BITS = 128
MAX_FLOAT_BITS = 65_536


def int_to_str(x: int) -> str:
    """Decimal text of x; past the interpreter's int-to-str digit limit, a
    ValueError that says how to lift the limit."""
    try:
        return str(x)
    except ValueError:
        raise ValueError(
            f"the result has an integer of more than {sys.get_int_max_str_digits()} decimal digits, "
            "the interpreter's limit; raise it via PYTHONINTMAXSTRDIGITS (0 lifts it)"
        ) from None


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
    q, rem = divmod(num, den)
    twice = 2 * rem
    if twice > den or (twice == den and q & 1):
        q += 1
    return q


def dyadic_round(x: Fraction, bits: int) -> Fraction:
    """Round x half-even to a multiple of 2**-bits."""
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
    if x < 0:
        raise ValueError("sqrt_dyadic() needs x >= 0")
    scale = 1 << bits
    approx = isqrt(x.numerator * scale * scale // x.denominator)
    return Fraction(approx, scale)

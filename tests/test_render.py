import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liedim.render import (
    FAST_STR_MIN_BITS,
    MAX_FLOAT_BITS,
    _round_half_even,
    decimal_digits_for_bits,
    dyadic_round,
    format_decimal,
    int_to_str,
    render_fraction,
    sqrt_dyadic,
    str_to_int,
)


@contextmanager
def digit_limit(limit):
    """The interpreter's int-to-str digit limit set to limit, restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_decimal_digits_for_bits():
    assert decimal_digits_for_bits(128) == 38
    assert decimal_digits_for_bits(16) == 4
    assert decimal_digits_for_bits(1) == 1
    with pytest.raises(ValueError):
        decimal_digits_for_bits(0)


def test_decimal_digits_for_bits_matches_the_digit_count():
    # the integer-only count equals one less than the digits of 2**bits
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for bits in range(1, 5001):
            assert decimal_digits_for_bits(bits) == max(1, len(str(1 << bits)) - 1), bits
    finally:
        sys.set_int_max_str_digits(saved)


def _lifted_str(x):
    """str(x) under a lifted int-to-str digit limit."""
    with digit_limit(0):
        return str(x)


def _near_limit(limit):
    """Integers just below and above 10**limit, both signs."""
    return [s * (10**limit + d) for d in (-1, 0, 1) for s in (1, -1)]


def test_int_to_str_digit_limit():
    # int_to_str never refuses: under the default limit, integers past it,
    # including those below FAST_STR_MIN_BITS that str() would refuse, print in full
    assert int_to_str(-120) == "-120"
    limit = sys.int_info.default_max_str_digits
    rng = random.Random(4300)
    values = _near_limit(limit) + [_with_bits(bits, rng, bits % 2) for bits in range(14_000, 33_001, 1_500)]
    expected = [_lifted_str(x) for x in values]
    with digit_limit(limit):
        assert [int_to_str(x) for x in values] == expected
        assert int_to_str(-(10**limit - 1)) == "-" + "9" * limit
        assert int_to_str(10**limit) == "1" + "0" * limit
        # and str_to_int reads them back
        assert [str_to_int(text.lstrip("-")) for text in expected] == [abs(x) for x in values]
        assert str_to_int("0" * 5000 + "7") == 7


# 10**9863 - 1 and 10**9863 take str(), 10**9864 - 1 and up the fast path
NEAR_THRESHOLD = [s * (10**k + d) for k in (9863, 9864, 9865) for d in (-1, 0) for s in (1, -1)]


def _with_bits(bits, rng, negative):
    x = rng.getrandbits(bits) | (1 << bits) >> 1
    return -x if negative else x


@given(
    st.one_of(
        st.sampled_from(NEAR_THRESHOLD),
        st.builds(
            _with_bits,
            st.integers(min_value=FAST_STR_MIN_BITS - 3000, max_value=FAST_STR_MIN_BITS + 3000),
            st.randoms(use_true_random=False),
            st.booleans(),
        ),
    )
)
@example(0)
@example(-1)
@example(10**9864)
@example(-(10**9864 - 1))
@example(_with_bits(5 * FAST_STR_MIN_BITS + 7, random.Random(1), False))
# each example converts three integers of about 2**15 bits twice; a per-example
# deadline would time the host's load, not int_to_str
@settings(deadline=None)
def test_int_to_str_matches_str(x):
    assert (10**9864 - 1).bit_length() == FAST_STR_MIN_BITS > (10**9863).bit_length()
    bits = x.bit_length()
    with digit_limit(0):
        assert int_to_str(x) == str(x)
        # all ones, then a single high bit: the most and the fewest nonzero leaves
        assert int_to_str((1 << bits) - 1) == str((1 << bits) - 1)
        assert int_to_str(1 << bits) == str(1 << bits)


def test_int_to_str_digit_limit_on_the_fast_path():
    # under a limit of 40,000 digits the same text, on both paths and past the limit
    rng = random.Random(40_000)
    values = _near_limit(40_000) + [1 << 200_000]
    values += [_with_bits(bits, rng, bits % 2) for bits in range(14_000, 33_001, 1_500)]
    expected = [_lifted_str(x) for x in values]
    with digit_limit(40_000):
        assert (10**40000 - 1).bit_length() > FAST_STR_MIN_BITS
        assert [int_to_str(x) for x in values] == expected
        with pytest.raises(ValueError):
            str(10**40000)


def test_dyadic_round():
    assert dyadic_round(Fraction(1, 3), 4) == Fraction(5, 16)
    assert dyadic_round(Fraction(1, 8), 4) == Fraction(1, 8)
    # ties go to even multiples of 2^-bits
    assert dyadic_round(Fraction(3, 32), 4) == Fraction(2, 16)
    assert dyadic_round(Fraction(5, 32), 4) == Fraction(2, 16)
    assert dyadic_round(Fraction(-1, 3), 4) == Fraction(-5, 16)


def test_format_decimal():
    assert format_decimal(Fraction(1, 8), 4) == "0.1250"
    assert format_decimal(Fraction(-1, 8), 4) == "-0.1250"
    assert format_decimal(Fraction(0), 4) == "0.0000"
    assert format_decimal(Fraction(1), 4) == "1.0000"
    assert format_decimal(Fraction(8, 9), 4) == "0.8889"
    # decimal ties are half-even too
    assert format_decimal(Fraction(25, 10000), 3) == "0.002"
    assert format_decimal(Fraction(35, 10000), 3) == "0.004"
    # tiny negatives must not render as a signed zero
    assert format_decimal(Fraction(-1, 10**9), 4) == "0.0000"


def _round_by_divmod(num, den):
    """The long-division rounding that _round_half_even replaces by a shift at den = 2**j."""
    q, rem = divmod(num, den)
    twice = 2 * rem
    if twice > den or (twice == den and q & 1):
        q += 1
    return q


@given(
    st.integers(min_value=1, max_value=MAX_FLOAT_BITS),
    st.randoms(use_true_random=False),
    st.booleans(),
)
@example(1, random.Random(0), True)
@example(MAX_FLOAT_BITS, random.Random(0), False)
@settings(deadline=None)
def test_rounding_by_shift_matches_divmod(bits, rng, negative):
    den = 1 << bits
    num = _with_bits(rng.randint(1, bits + 8), rng, negative)
    # exact halves, with an even and an odd quotient
    ties = [(2 * t + 1) << (bits - 1) for t in (2 * rng.getrandbits(bits), 2 * rng.getrandbits(bits) + 1)]
    for n in [num, *ties, *(-t for t in ties)]:
        assert _round_half_even(n, den) == _round_by_divmod(n, den)
    # format_decimal's own division, num * 10**digits over the dyadic denominator
    x = Fraction(num, den)
    scaled = x.numerator * 10 ** decimal_digits_for_bits(bits)
    assert _round_half_even(scaled, x.denominator) == _round_by_divmod(scaled, x.denominator)


def test_render_fraction():
    assert render_fraction(Fraction(8, 9), 16) == "0.8889"
    assert render_fraction(Fraction(1), 16) == "1.0000"
    assert render_fraction(Fraction(304, 335), 16) == "0.9075"
    # default precision: 38 decimal digits
    s = render_fraction(Fraction(1, 3))
    assert s == "0." + "3" * 38


def test_sqrt_dyadic():
    assert sqrt_dyadic(Fraction(9, 16), 32) == Fraction(3, 4)
    assert sqrt_dyadic(Fraction(0), 16) == 0
    val = sqrt_dyadic(Fraction(2), 20)
    assert abs(val * val - 2) < Fraction(1, 2**18)
    with pytest.raises(ValueError):
        sqrt_dyadic(Fraction(-1), 16)

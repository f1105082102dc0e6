import sys
from fractions import Fraction

import pytest

from liedim.render import (
    decimal_digits_for_bits,
    dyadic_round,
    format_decimal,
    int_to_str,
    render_fraction,
    sqrt_dyadic,
)


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


def test_int_to_str_digit_limit():
    assert int_to_str(-120) == "-120"
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        limit = sys.get_int_max_str_digits()
        assert int_to_str(-(10**limit - 1)) == "-" + "9" * limit
        with pytest.raises(ValueError, match=f"more than {limit} decimal digits.*PYTHONINTMAXSTRDIGITS"):
            int_to_str(10**limit)
    finally:
        sys.set_int_max_str_digits(saved)


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

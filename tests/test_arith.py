import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liedim.arith import (
    ExactnessError,
    checked_sub,
    divisors,
    exact_div,
    is_prime,
    mobius,
    p_adic_split,
    power_bits_lower,
)


def test_exact_div():
    assert exact_div(12, 3) == 4
    assert exact_div(0, 5) == 0
    assert exact_div(-12, 3) == -4
    with pytest.raises(ExactnessError):
        exact_div(13, 3)


def test_checked_sub():
    assert checked_sub(5, 3) == 2
    assert checked_sub(3, 3) == 0
    with pytest.raises(ExactnessError):
        checked_sub(3, 5)


def test_exactness_messages_past_the_digit_limit():
    # operands longer than the int-to-str digit limit still make an ExactnessError
    big = 10 ** (sys.int_info.default_max_str_digits + 100)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        with pytest.raises(ExactnessError, match=r"^10{4400} is not divisible by 3$"):
            exact_div(big, 3)
        with pytest.raises(ExactnessError, match=r"^1 - 10{4400} would be negative$"):
            checked_sub(1, big)
    finally:
        sys.set_int_max_str_digits(saved)


def test_is_prime_small():
    primes = [n for n in range(50) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert not is_prime(1)
    assert not is_prime(-7)
    assert not is_prime(121)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    assert divisors(97) == [1, 97]
    with pytest.raises(ValueError):
        divisors(0)


@given(st.integers(min_value=1, max_value=2000))
def test_divisors_match_the_full_walk(r):
    assert divisors(r) == [d for d in range(1, r + 1) if r % d == 0]


def test_mobius_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 8: 0, 9: 0, 12: 0, 30: -1, 105: -1, 210: 1}
    for d, mu in expected.items():
        assert mobius(d) == mu
    with pytest.raises(ValueError):
        mobius(0)


@given(st.integers(min_value=1, max_value=5000))
def test_mobius_divisor_sum(r):
    # sum of mu over divisors is the indicator of r == 1
    total = sum(mobius(d) for d in divisors(r))
    assert total == (1 if r == 1 else 0)


@given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 3, 5, 7, 11]))
def test_p_adic_split_round_trip(r, p):
    m, k = p_adic_split(r, p)
    assert p**m * k == r
    assert k % p != 0
    assert m >= 0


def test_p_adic_split_examples():
    assert p_adic_split(12, 2) == (2, 3)
    assert p_adic_split(12, 3) == (1, 4)
    assert p_adic_split(7, 5) == (0, 7)
    assert p_adic_split(8, 2) == (3, 1)
    # primes outside the set below 16 that skips is_prime
    assert p_adic_split(17**3 * 5, 17) == (3, 5)
    assert p_adic_split(10007**2 * 12, 10007) == (2, 12)
    assert p_adic_split(10006, 10007) == (0, 10006)
    with pytest.raises(ValueError, match="needs r >= 1"):
        p_adic_split(0, 2)
    # every non-prime p still reaches is_prime and is refused
    for p in (-2, 0, 1, 4, 6, 9, 15, 25, 49):
        with pytest.raises(ValueError, match=rf"^p_adic_split\(\) needs a prime p, got {p}$"):
            p_adic_split(12, p)


def test_power_bits_lower():
    for x in range(1, 200):
        for e in (0, 1, 2, 7, 64, 1000):
            b = power_bits_lower(x, e)
            assert 0 <= b and 1 << b <= x**e, (x, e)
            # within e/16 + 1 bits of the bit length
            assert (x**e).bit_length() - 1 - b <= e // 16 + 1, (x, e)

import pytest

from liedim.witt import aperiodic_word_count, check_witt_bounds, witt_dim, witt_dim_bits_lower

# hand-derived from the defining divisor sum
FROZEN = {
    (2, 1): 2,
    (2, 2): 1,
    (2, 3): 2,
    (2, 4): 3,
    (2, 5): 6,
    (2, 6): 9,
    (2, 12): 335,
    (2, 15): 2182,
    (3, 4): 18,
    (4, 3): 20,
    (8, 5): 6552,
    (16, 3): 1360,
    (32, 2): 496,
}


def test_witt_frozen_values():
    for (n, r), w in FROZEN.items():
        assert witt_dim(n, r) == w, (n, r)


def test_witt_one_letter_alphabet():
    assert witt_dim(1, 1) == 1
    for r in range(2, 40):
        assert witt_dim(1, r) == 0


def test_witt_domain_errors():
    with pytest.raises(ValueError):
        witt_dim(0, 3)
    with pytest.raises(ValueError):
        witt_dim(2, 0)


def test_aperiodic_word_count():
    assert aperiodic_word_count(2, 2) == 2
    assert aperiodic_word_count(2, 6) == 54
    assert aperiodic_word_count(1, 1) == 1
    assert aperiodic_word_count(3, 1) == 3


def test_bounds_witness_fields():
    chk = check_witt_bounds(2, 6)
    assert chk.w == 9
    assert chk.upper_lhs == 54 and chk.upper_rhs == 64
    assert chk.lower_excess == 2 * 64 - 2 * 54 == 20
    assert chk.lower_lhs_sq == 400
    assert chk.lower_rhs_sq == 36 * 64 == 2304
    assert chk.holds


def test_bounds_zero_excess_at_degree_one():
    # rw counts aperiodic words, so the excess 2n^r - 2rw is >= 0 and
    # vanishes exactly when every word is aperiodic, i.e. at r = 1
    chk = check_witt_bounds(7, 1)
    assert chk.lower_excess == 0
    assert chk.lower_lhs_sq == 0
    assert chk.holds


def test_bounds_positive_excess():
    chk = check_witt_bounds(2, 5)
    assert chk.lower_excess == 2 * 32 - 2 * 5 * 6 == 4
    assert chk.lower_lhs_sq == 16
    assert chk.holds


def test_bounds_grid():
    for n in range(1, 11):
        for r in range(1, 65):
            assert check_witt_bounds(n, r).holds, (n, r)


def test_witt_dim_bits_lower_is_sound_and_tight():
    for n in range(1, 12):
        for r in range(1, 400):
            b = witt_dim_bits_lower(n, r)
            w = witt_dim(n, r)
            assert b >= 0 and (b == 0 or 1 << b <= w), (n, r)
    # at a table's top degree, short of the true size only by taking log2(3) as 25/16
    w = witt_dim(3, 7 * 2**13)
    assert w.bit_length() == 90873
    assert 89500 <= witt_dim_bits_lower(3, 7 * 2**13) < 90873

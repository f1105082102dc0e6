import copy
import signal
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import chain, permutations, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liedim import budget, oracle
from liedim.lie_modules import dim_lie, weight_space_dim_formula
from liedim.verify import ORACLE_POWER_POINTS, WEIGHT_SPACE_POINTS
from liedim.witt import witt_dim

GOLDEN = Path(__file__).parent / "golden" / "bracketings_n2_r4.txt"


def test_lyndon_words_small():
    assert oracle.lyndon_words(2, 1) == [(0,), (1,)]
    assert oracle.lyndon_words(2, 2) == [(0, 1)]
    assert oracle.lyndon_words(2, 3) == [(0, 0, 1), (0, 1, 1)]
    assert oracle.lyndon_words(2, 4) == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)]
    assert oracle.lyndon_words(1, 2) == []


def test_lyndon_words_sorted_and_lyndon():
    words = oracle.lyndon_words(3, 5)
    assert words == sorted(words)
    assert all(oracle.is_lyndon(w) for w in words)
    assert len(words) == witt_dim(3, 5)


def test_iter_lyndon_words_matches_list():
    for n in range(1, 4):
        for r in range(1, 10):
            assert list(oracle.iter_lyndon_words(n, r)) == oracle.lyndon_words(n, r), (n, r)


def test_iter_lyndon_words_is_the_lyndon_filter_of_all_words():
    # every word tested directly, in lexicographic order: n <= 4 to r = 8, five letters to r = 6
    points = [(n, r) for n in range(1, 5) for r in range(1, 9)] + [(5, r) for r in range(1, 7)]
    for n, r in points:
        expected = [word for word in product(range(n), repeat=r) if oracle.is_lyndon(word)]
        assert list(oracle.iter_lyndon_words(n, r)) == expected, (n, r)


def test_iter_lyndon_words_is_lazy():
    # the first of the 1,397,740 words arrives without the rest being built
    tracemalloc.start()
    try:
        first = next(oracle.iter_lyndon_words(4, 12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == (0,) * 11 + (1,)
    assert peak < 64 * 1024


def test_iter_lyndon_words_rejects_bad_sizes():
    with pytest.raises(ValueError):
        next(oracle.iter_lyndon_words(0, 3))
    with pytest.raises(ValueError):
        oracle.lyndon_words(2, 0)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=8))
def test_iter_lyndon_words_increasing_lyndon_and_counted(n, r):
    words = list(oracle.iter_lyndon_words(n, r))
    assert all(a < b for a, b in zip(words, words[1:]))
    assert all(len(word) == r and oracle.is_lyndon(word) for word in words)
    assert len(words) == witt_dim(n, r)


def test_count_lyndon_words_matches_generator():
    # the runs at length r - 1 start at r = 3 and those at r - 2 at r = 5, so
    # r = 3..7 for eight letters covers both edges from every first, second
    # and last letter; n <= 4 goes on to r = 11, where the runs nest deepest
    points = [(n, r) for n in range(1, 5) for r in range(1, 12)]
    points += [(n, r) for n in range(5, 9) for r in range(1, 8)]
    for n, r in points:
        assert oracle.count_lyndon_words(n, r) == sum(1 for _ in oracle.iter_lyndon_words(n, r)), (n, r)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=9))
def test_count_lyndon_words_matches_generator_hypothesis(n, r):
    assert oracle.count_lyndon_words(n, r) == sum(1 for _ in oracle.iter_lyndon_words(n, r))


def test_count_lyndon_words_rejects_bad_sizes():
    for n, r in ((0, 3), (-1, 3), (2, 0), (2, -1)):
        with pytest.raises(ValueError):
            oracle.count_lyndon_words(n, r)


def test_count_lyndon_words_edges():
    # one letter: only the word of length 1 is Lyndon
    assert oracle.count_lyndon_words(1, 1) == 1
    assert [oracle.count_lyndon_words(1, r) for r in range(2, 12)] == [0] * 10
    # length 1: every letter is a Lyndon word
    assert [oracle.count_lyndon_words(n, 1) for n in range(1, 12)] == list(range(1, 12))


def test_is_lyndon():
    assert oracle.is_lyndon((0,))
    assert oracle.is_lyndon((0, 1, 1))
    assert not oracle.is_lyndon((1, 0))
    assert not oracle.is_lyndon((0, 1, 0, 1))
    assert not oracle.is_lyndon(())


def test_counts_match_witt():
    for n in (1, 2, 3):
        for r in range(1, 9):
            assert len(oracle.lyndon_words(n, r)) == witt_dim(n, r), (n, r)
            assert oracle.aperiodic_count_bruteforce(n, r) == r * witt_dim(n, r), (n, r)


def _aperiodic_count_every_divisor(n, r):
    # tries every proper divisor of r as a period
    periods = [d for d in range(1, r) if r % d == 0]
    return sum(1 for word in product(range(n), repeat=r) if not any(word == word[:d] * (r // d) for d in periods))


def test_aperiodic_count_matches_every_divisor_reference():
    points = [(2, r) for r in range(1, 17)] + [(3, r) for r in range(1, 11)]
    # four and five letters, so the numerals are in bases past 2 and 3
    points += [(n, r) for n in (4, 5) for r in range(1, 9)]
    for n, r in points:
        assert oracle.aperiodic_count_bruteforce(n, r) == _aperiodic_count_every_divisor(n, r), (n, r)
    # 010101 has period 2 but not 3, the largest proper divisor of 6
    assert _aperiodic_count_every_divisor(2, 6) == 54
    assert oracle.aperiodic_count_bruteforce(2, 6) == 54


def test_aperiodic_count_one_letter():
    # the one word is the numeral 0, a q-th power for each prime q dividing r
    assert oracle.aperiodic_count_bruteforce(1, 1) == 1
    assert oracle.aperiodic_count_bruteforce(1, 2) == 0
    # a prime r just under the default budget's 32*r limit: its numeral of
    # ones is q itself, built in no q steps, and the walk holds no r-slot array
    r = 312_469
    tracemalloc.start()
    try:
        assert oracle.aperiodic_count_bruteforce(1, r) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * r


def test_standard_factorization():
    assert oracle.standard_factorization((0, 0, 1)) == ((0,), (0, 1))
    assert oracle.standard_factorization((0, 1, 1)) == ((0, 1), (1,))
    assert oracle.standard_factorization((0, 0, 0, 1)) == ((0,), (0, 0, 1))
    assert oracle.standard_factorization((0, 0, 1, 1)) == ((0,), (0, 1, 1))
    # single letters cannot be split; Lyndonness of the input is the
    # caller's contract (expand_standard_bracketing checks it)
    for word in ((0,), ()):
        with pytest.raises(ValueError, match="needs a word of length >= 2"):
            oracle.standard_factorization(word)
    # the least proper suffix is the longest proper Lyndon suffix, found here
    # by testing each suffix, longest first
    for n, r_max in ((2, 10), (3, 7), (4, 5)):
        for r in range(2, r_max + 1):
            for word in oracle.iter_lyndon_words(n, r):
                i = next(i for i in range(1, r) if oracle.is_lyndon(word[i:]))
                assert oracle.standard_factorization(word) == (word[:i], word[i:]), word


def test_left_normed_expand():
    assert oracle.left_normed_expand((0,)) == {(0,): 1}
    assert oracle.left_normed_expand((0, 1)) == {(0, 1): 1, (1, 0): -1}
    assert oracle.left_normed_expand((0, 1, 2)) == {
        (0, 1, 2): 1,
        (1, 0, 2): -1,
        (2, 0, 1): -1,
        (2, 1, 0): 1,
    }
    # letters are 0..255, the digits of the fold's base-256 columns
    assert oracle.left_normed_expand((255, 0)) == {(255, 0): 1, (0, 255): -1}
    for word in ((), (256,), (0, -1)):
        with pytest.raises(ValueError):
            oracle.left_normed_expand(word)


def _reference_left_normed(word, q=1):
    # the plain fold over the word's runs of q letters, zeros filtered once at the end
    blocks = [tuple(word[i : i + q]) for i in range(0, len(word), q)]
    vec = Counter({blocks[0]: 1})
    for block in blocks[1:]:
        nxt = Counter()
        for idx, coeff in vec.items():
            nxt[idx + block] += coeff
            nxt[block + idx] -= coeff
        vec = nxt
    return {idx: coeff for idx, coeff in vec.items() if coeff}


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8))
def test_left_normed_expand_matches_reference_fold(word):
    got = oracle.left_normed_expand(word)
    assert got == _reference_left_normed(word)
    assert all(got.values())


def test_left_normed_expand_total_cancellation():
    for word in ((1, 1), (0, 0, 1), (2, 2, 0, 1, 2)):
        assert oracle.left_normed_expand(word) == {}, word


def test_antisymmetry():
    for a in range(3):
        for b in range(3):
            total = dict(oracle.left_normed_expand((a, b)))
            for idx, coeff in oracle.left_normed_expand((b, a)).items():
                total[idx] = total.get(idx, 0) + coeff
            assert all(v == 0 for v in total.values()), (a, b)


def test_jacobi_identity():
    # [x, [y, z]] + [y, [z, x]] + [z, [x, y]] = 0 for the one bracket product,
    # on vectors of degree 1 over three letters, in column numbers of base 3
    x, y, z = {0: 1}, {1: 1}, {2: 1}
    for vectors in ((x, y, z), ({0: 2, 1: -1}, {1: 1, 2: 3}, {0: 1, 2: -2})):
        total = Counter()
        for a, b, c in (vectors, vectors[1:] + vectors[:1], vectors[2:] + vectors[:2]):
            part = oracle._bracket_columns(a, oracle._bracket_columns(b, c, 3, 3), 3, 9)
            assert part and all(part.values())
            total.update(part)
        assert all(v == 0 for v in total.values()), vectors


def test_golden_standard_bracketings():
    for line in GOLDEN.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word_text, _, expansion_text = line.partition(" => ")
        word = tuple(int(ch) for ch in word_text)
        got = oracle.format_expansion(oracle.expand_standard_bracketing(word))
        assert got.split("\n") == expansion_text.split(), word_text


def test_expand_standard_bracketing_rejects_non_lyndon():
    with pytest.raises(ValueError):
        oracle.expand_standard_bracketing((0, 1, 0))
    # letters are 0..255, the digits of the base-256 columns, as for left_normed_expand
    assert oracle.expand_standard_bracketing((254, 255)) == {(254, 255): 1, (255, 254): -1}
    for word in ((256,), (0, 256), (-1,), (-1, 0)):
        with pytest.raises(ValueError):
            oracle.expand_standard_bracketing(word)


def _reference_standard(word):
    # the standard bracketing on index tuples: split off v, the longest proper
    # Lyndon suffix, and take [sigma(u), sigma(v)] term by term
    if len(word) == 1:
        return {word: 1}
    i = next(i for i in range(1, len(word)) if oracle.is_lyndon(word[i:]))
    total = Counter()
    for a, x in _reference_standard(word[:i]).items():
        for b, y in _reference_standard(word[i:]).items():
            total[a + b] += x * y
            total[b + a] -= x * y
    return {idx: c for idx, c in total.items() if c}


# the 1,318 Lyndon words of length <= 8 over three letters
SHORT_LYNDON_WORDS = [word for r in range(1, 9) for word in oracle.iter_lyndon_words(3, r)]


@given(st.sampled_from(SHORT_LYNDON_WORDS), st.integers(min_value=0, max_value=253))
def test_expand_standard_bracketing_matches_tuple_recursion(word, shift):
    # shifting every letter keeps the word Lyndon; the expansion's lowest key
    # is the word itself, with coefficient 1 (the triangularity of P_w)
    word = tuple(letter + shift for letter in word)
    got = oracle.expand_standard_bracketing(word)
    assert got == _reference_standard(word)
    assert min(got) == word and got[word] == 1


def test_weight_of():
    vec = oracle.left_normed_expand((0, 1, 1))
    assert oracle.weight_of(vec) == (1, 2)
    assert oracle.weight_of({}) == oracle.ZERO_WEIGHT
    mixed = {(0, 1): 1, (1, 0, 0): 1}
    assert oracle.weight_of(mixed) == oracle.INHOMOGENEOUS


def test_format_expansion_multi_digit_letters():
    vec = {(10, 2): 3, (2, 10): -3}
    assert oracle.format_expansion(vec) == "2.10:-3\n10.2:3"
    assert oracle.format_expansion({}) == ""


@contextmanager
def _time_limit(seconds):
    # an elimination step that fails to clear the lead can cycle for ever:
    # turn that into a failure
    def expire(signum, frame):
        raise TimeoutError(f"rank kernel still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Each generated rank example takes milliseconds.  A kernel that cycles on one
# fails it after this limit, once per shrink step, so keep it short.
EXAMPLE_SECONDS = 1


def test_rank_over_field_basic():
    a, b = (0,), (1,)
    vectors = [{a: 1, b: 1}, {a: 1, b: -1}, {a: 2, b: 0}]
    with _time_limit(5):
        assert oracle.rank_over_field(vectors) == 2
        # over F_2 the first two rows coincide and the third vanishes
        assert oracle.rank_over_field(vectors, field=2) == 1
        assert oracle.rank_over_field(vectors, field=3) == 2
        assert oracle.rank_over_field([]) == 0
        assert oracle.rank_over_field([{}, {a: 0}]) == 0


def test_rank_over_field_ignores_zero_entries():
    # explicit zero coefficients must not be mistaken for leading entries
    a, b, c = (0,), (1,), (2,)
    vectors = [{a: 0, b: 1}, {a: 1, c: 1}, {a: 1, c: -1}]
    assert oracle.rank_over_field(vectors) == 3
    assert oracle.rank_over_field(vectors, field=3) == 3
    # a zero entry of another degree is not a mixed-degree input
    for field in (None, 2, 3):
        assert oracle.rank_over_field([{a: 1, (0, 1): 0}], field) == 1


def _reference_rank(vectors, field):
    # dense elimination: Fractions over Q (field None), residues mod p otherwise
    columns = sorted({idx for vec in vectors for idx in vec})
    rows = [[vec.get(idx, 0) for idx in columns] for vec in vectors]
    if field is None:
        rows = [[Fraction(x) for x in row] for row in rows]
    else:
        rows = [[x % field for x in row] for row in rows]
    rank = 0
    for j in range(len(columns)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inv = 1 / top[j] if field is None else pow(top[j], -1, field)
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] * inv
            rows[i] = [a - f * b for a, b in zip(rows[i], top)]
            if field is not None:
                rows[i] = [x % field for x in rows[i]]
        rank += 1
    return rank


SPARSE_VECTOR = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(min_value=-4, max_value=4),
    max_size=6,
)


@st.composite
def sparse_vectors(draw, vector=SPARSE_VECTOR, max_base=6):
    # drawn vectors (entries -4..4, explicit zeros included) and, shuffled among
    # them, integer combinations of them, so that dependent rows are common
    base = draw(st.lists(vector, max_size=max_base))
    vectors = list(base)
    for coeffs in draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)), max_size=4)):
        combo: dict = {}
        for coeff, vec in zip(coeffs, base):
            for idx, v in vec.items():
                combo[idx] = combo.get(idx, 0) + coeff * v
        vectors.append(combo)
    return draw(st.permutations(vectors))


@given(sparse_vectors(), st.sampled_from([None, 2, 3, 5]))
# leads 2 and 3 divide neither way, so the rational kernel cross-multiplies
@example([{(0, 0): 2, (0, 1): 1}, {(0, 0): 3, (1, 1): -1}, {(0, 0): 0, (0, 1): 4}], None)
# nine cross-multiplied steps in one row, past the periodic gcd compression
@example([{(j,): 2, (j + 1,): 1} for j in range(9)] + [{(0,): 3}], None)
# seventeen scaled steps in one row, whose entry triples at each: the gcd
# compression runs twice in it and divides by 3**8 both times
@example([{(j,): 2, (j + 1,): 3} for j in range(17)] + [{(0,): 3}], None)
# over F3 the first pivot leads with 2 = -1, so it is stored negated
@example([{(0,): 2, (1,): 1}, {(0,): 1, (1,): 1}], 3)
def test_rank_over_field_matches_dense_reference(vectors, field):
    before = copy.deepcopy(vectors)
    with _time_limit(EXAMPLE_SECONDS):
        got = oracle.rank_over_field(vectors, field)
    assert got == _reference_rank(vectors, field)
    assert vectors == before


# Wide vectors over 100 to 300 one-letter columns, so that the F3 kernel's
# bit-planes span several machine words.  One byte per column, drawn in one
# go: below 128 the column is absent, else it holds b % 9 - 4 (zeros included).
WIDE_VECTOR = (
    st.integers(100, 300)
    .flatmap(lambda width: st.binary(min_size=width, max_size=width))
    .map(lambda data: {(j,): b % 9 - 4 for j, b in enumerate(data) if b >= 128})
)


# Rows over about 300 columns that all lead with 2 in column 0, so the first
# pivot leads with 2 too and each later row is reduced by it.  The
# combination r1 - r2 + 2*r3 leads with 4 = 1 mod 3 and depends on the rows
# before it; negated, the rows lead with -2 = 1 mod 3.
_LEAD_TWO = [{(0,): 2, **{(j,): j * k % 5 - 2 for j in range(k, 300, 2)}} for k in range(1, 20)]
_LEAD_TWO_COMBO = {
    idx: _LEAD_TWO[0].get(idx, 0) - _LEAD_TWO[1].get(idx, 0) + 2 * _LEAD_TWO[2].get(idx, 0)
    for idx in sorted({*_LEAD_TWO[0], *_LEAD_TWO[1], *_LEAD_TWO[2]})
}
_NEGATED = [{idx: -v for idx, v in row.items()} for row in _LEAD_TWO]


@given(sparse_vectors(WIDE_VECTOR, max_base=5))
@example(_LEAD_TWO)
@example(_LEAD_TWO[:3] + [_LEAD_TWO_COMBO])
@example([_LEAD_TWO_COMBO] + _LEAD_TWO[:3])
@example(_LEAD_TWO[:1] + _NEGATED[1:] + [_LEAD_TWO_COMBO])
def test_rank_gf3_wide_matches_dense_reference(vectors):
    with _time_limit(EXAMPLE_SECONDS):
        got = oracle.rank_over_field(vectors, 3)
    assert got == _reference_rank(vectors, 3)


# Wide vectors over 100 to 300 one-letter columns with entries in {-1, 0, 1},
# which the rationals rank on two bit-planes.  Each column gets one byte: its
# low three bits put it in one of six atoms (6 stores an explicit zero in
# every vector, 7 leaves it out) and bit 3 gives its sign.  The atoms have
# disjoint supports, so every vector, a combination of atoms with coefficients
# in {-1, 0, 1}, has entries in {-1, 0, 1}.  Dependent vectors are common,
# and so are steps that would make a +-2 and send the rank to the dict rows.
@st.composite
def signed_wide_vectors(draw):
    width = draw(st.integers(100, 300))
    labels = draw(st.binary(min_size=width, max_size=width))
    atoms = [{(j,): 1 - 2 * (b >> 3 & 1) for j, b in enumerate(labels) if b % 8 == a} for a in range(6)]
    zeros = {(j,): 0 for j, b in enumerate(labels) if b % 8 == 6}
    coeffs = draw(st.lists(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=6, max_size=6), max_size=10))
    return [
        {**zeros, **{idx: c * v for c, atom in zip(cs, atoms) if c for idx, v in atom.items()}} for cs in coeffs
    ]


# A wide pivot that leads with -1 at column 0, so it is stored negated
_MINUS_LEAD = {(0,): -1, **{(j,): 1 - 2 * (j // 3 % 2) for j in range(1, 300, 3)}}


@given(signed_wide_vectors())
# the second row leads with -1 and adds the pivot: +1 + 1 on the plus plane
@example([{(0,): 1, (1,): 1}, {(0,): -1, (1,): 1}])
# the second row leads with -1 and adds the pivot: -1 - 1 on the minus plane
@example([{(0,): 1, (1,): -1}, {(0,): -1, (1,): -1}])
# the first row leads with -1 and is stored negated; the second, its
# negation, cancels, and the third leads with +1 and adds the stored pivot's
# negation, the first row itself
@example([_MINUS_LEAD, {idx: -v for idx, v in _MINUS_LEAD.items()}, {(0,): 1, (2,): 1, (299,): -1}])
def test_rank_rational_planes_match_dense_reference(vectors):
    before = copy.deepcopy(vectors)
    with _time_limit(EXAMPLE_SECONDS):
        got = oracle.rank_over_field(vectors, None)
    assert got == _reference_rank(vectors, None)
    assert vectors == before


def _top(width):
    # the bit count of a row's bitmask: width rounded up to whole bytes
    return -(-width // 8) * 8


def _reference_kernel_rows(vectors, columns, p):
    # what each kernel should be fed for the tuple-keyed vectors under the
    # column map: F2 masks, F3 planes, rational planes up to and including the
    # first row they give up on (None), integer dicts and residue dicts mod p.
    # A mask is top bits wide, column 0 its highest bit.
    top = _top(len(columns))

    def mask(vec, keep):
        return sum(1 << (top - 1 - columns[idx]) for idx, c in vec.items() if keep(c))

    rational = []
    for vec in vectors:
        if any(c not in (-1, 0, 1) for c in vec.values()):
            rational.append(None)
            break
        rational.append((mask(vec, lambda c: c == 1), mask(vec, lambda c: c == -1)))
    return {
        "masks": [mask(vec, lambda c: c % 2) for vec in vectors],
        "f3": [(mask(vec, lambda c: c % 3 == 1), mask(vec, lambda c: c % 3 == 2)) for vec in vectors],
        "rational": rational,
        "integers": [{columns[idx]: c for idx, c in vec.items()} for vec in vectors],
        "residues": [{columns[idx]: c % p for idx, c in vec.items() if c % p} for vec in vectors],
    }


def _streamed_kernel_rows(rows, p):
    return {
        "masks": list(rows.masks()),
        "f3": list(rows.planes(True)),
        "rational": list(rows.planes(False)),
        "integers": list(rows.integers()),
        "residues": list(rows.residues(p)),
    }


def _kept(word, q=1):
    # the span oracles' rows: those whose first run of q letters is below the
    # second, and every row of a bracket of one run
    return len(word) == q or word[:q] < word[q : 2 * q]


def test_lie_module_rows_match_expansions():
    # row for row, every kernel gets the kept rows of left_normed_expand under
    # the sorted tuple column map from the fold's rows of Lie(r),
    # weight_space_span(1, r), verify's second route beside lie_module_span's
    # recursion, so the pivots are those of the index tuples
    for r in range(1, 7):
        perms = list(permutations(range(r)))
        assert perms == sorted(perms), r
        columns = {perm: i for i, perm in enumerate(perms)}
        vectors = [oracle.left_normed_expand(perm) for perm in perms if _kept(perm)]
        for p in (5, 7):
            expected = _reference_kernel_rows(vectors, columns, p)
            assert _streamed_kernel_rows(oracle.weight_space_span(1, r), p) == expected, (r, p)
    for f in (None, 2, 3, 5):
        assert len(oracle.lie_module_span(1, f).pivots()) == 1, f


def _over(vec, field):
    # a row's entries over the field: as they are over Q, else their nonzero residues
    return vec if field is None else {c: v % field for c, v in vec.items() if v % field}


def _row_vector(row):
    plus, minus, pairs = row
    return {**dict.fromkeys(plus, 1), **dict.fromkeys(minus, -1), **dict(pairs)}


def _pivot_vector(pivot, top):
    # a kernel's pivot row as {column: value}, read from the form the kernel
    # keeps: an F_2 bitmask, a planes pivot (plus, minus, support) or a dict;
    # a Lie power block's memo keeps a tuple whose third item is the
    # (column, value) pairs of its other entries
    if isinstance(pivot, int):
        return dict.fromkeys(_columns(pivot, top), 1)
    if isinstance(pivot, tuple):
        rest = pivot[2] if isinstance(pivot[2], tuple) else ()
        return {**dict.fromkeys(_columns(pivot[0], top), 1), **dict.fromkeys(_columns(pivot[1], top), -1), **dict(rest)}
    return dict(pivot)


def test_lie_module_rows_bracket_the_pivot_rows_below():
    # row for row, Lie(r)'s rows are [u, x] = u x - x u for x = 1, ..., r-1
    # and then 0, and for the pivot rows u of Lie(r-1)'s elimination over the
    # same field, in order of their leads, each renamed in order onto the
    # letters other than x: folded here on index tuples, with none of the
    # oracle's column maps
    for r in range(3, 8):
        below = list(permutations(range(r - 1)))
        columns = {perm: i for i, perm in enumerate(permutations(range(r)))}
        for field in (2, 3, 5, None):
            lower = oracle.lie_module_span(r - 1, field, 10**9)
            pivots = lower.pivots()
            expected = []
            for x in (*range(1, r), 0):
                letters = [a for a in range(r) if a != x]
                for lead in sorted(pivots):
                    row = {}
                    for c, v in _pivot_vector(pivots[lead], lower.top).items():
                        word = tuple(letters[a] for a in below[c])
                        row[columns[word + (x,)]] = v
                        row[columns[(x,) + word]] = -v
                    expected.append(_over(row, field))
            rows = [_over(_row_vector(row), field) for row in oracle.lie_module_span(r, field, 10**9).entries()]
            assert rows == expected, (r, field)


def test_lie_module_span_is_the_fold_span():
    # Lie(r) from the recursion and from the fold, weight_space_span(1, r):
    # the fold's rows, streamed after the recursion's, add no pivot, so each
    # reduces to zero against the recursion's pivots, and the ranks agree, so
    # the two spans are one
    for r in range(1, 7):
        for field in (2, 3, 5, None):
            recursion = oracle.lie_module_span(r, field)
            fold = oracle.weight_space_span(1, r, field)
            both = oracle._Rows(lambda: chain(recursion.entries(), fold.entries()), 0, fold.width, field)
            with _time_limit(10):
                assert len(both.pivots()) == len(recursion.pivots()) == len(fold.pivots()), (r, field)


def test_lie_module_recursion_streams_within_its_charge(monkeypatch):
    # Lie(r) is the Lie power block of r distinct letters: one elimination
    # of it passes once over each level k = 3, ..., r, the block of k
    # distinct letters (the base, Lie(2), is its own pivot row), a pass of
    # level k yields k * (k-2)! rows, one for each letter and pivot of the
    # level below, and the bits it streams over all levels, planes * rows *
    # k! at each, stay within work(), the fold's charge; r = 8 over F2 only,
    # the one the --slow budget admits (over F5 it takes 2.3 s)
    passes = []
    real = oracle._LiePowerRows.entries

    def counted(self):
        level = [len(self.counts), 0]
        passes.append(level)
        for row in real(self):
            level[1] += 1
            yield row

    monkeypatch.setattr(oracle._LiePowerRows, "entries", counted)
    for r, field in [*product(range(1, 8), (2, 3, 5, None)), (8, 2)]:
        span = oracle.lie_module_span(r, field, 10**9)
        passes.clear()
        with _time_limit(10):
            span.pivots()
        levels = range(3, r + 1) if r > 2 else [r]
        assert sorted(passes) == [[k, k * factorial(k - 2) if k > 2 else 1] for k in levels], (r, field)
        assert span.count == passes[0][1], (r, field)
        planes = 1 if field == 2 else 2
        assert planes * sum(rows * factorial(k) for k, rows in passes) <= span.work(), (r, field)


def test_weight_space_rows_match_block_expansions():
    for q, k in ((1, 1), (2, 1), (1, 4), (2, 2), (3, 2), (2, 3)):
        perms = list(permutations(range(q * k)))
        columns = {perm: i for i, perm in enumerate(perms)}
        vectors = [_reference_left_normed(perm, q) for perm in perms if _kept(perm, q)]
        assert _streamed_kernel_rows(oracle.weight_space_span(q, k), 5) == _reference_kernel_rows(vectors, columns, 5)


def _content(word, n):
    # the letter counts of a word over n letters
    return tuple(word.count(a) for a in range(n))


def _words_by_content(n, r):
    # every word over n letters, in lexicographic order, by its content
    contents = {}
    for word in product(range(n), repeat=r):
        contents.setdefault(_content(word, n), []).append(word)
    return contents


def _is_sorted(content):
    return list(content) == sorted(content, reverse=True)


def _words(counts):
    # the words of the content counts over the letters 0..len(counts)-1, in
    # lexicographic order
    k = len(counts)
    return [word for word in product(range(k), repeat=sum(counts)) if _content(word, k) == counts]


def _less(counts, x):
    # the content less one x; a count of 0 is dropped, renaming the letters above x
    return tuple(filter(None, counts[:x] + (counts[x] - 1,) + counts[x + 1 :]))


def test_lie_power_rows_match_expansions():
    # one block per content whose counts do not increase, its zero counts
    # dropped; its columns are the content's words in lexicographic order,
    # and its rows, for x = 1, ..., k-1 and then 0 and for the pivot rows u
    # of the block a - e_x over the same field, in order of their leads, are
    # [u, x] = u x - x u: expanded here with a Counter on the words of u's
    # entries, their letters renamed back when x was the only one, with none
    # of the oracle's column maps
    for n in (1, 2, 3):
        for r in range(1, 6):
            contents = _words_by_content(n, r)
            for field in (2, 3, 5, None):
                span = oracle.lie_power_span(n, r, field)
                assert list(span.blocks) == sorted(filter(_is_sorted, contents), reverse=True), (n, r)
                for content, rows in span.blocks.items():
                    counts = tuple(filter(None, content))
                    words = _words(counts)
                    assert rows.counts == counts and rows.width == len(words) == len(contents[content]), (n, r)
                    streamed = [_over(_row_vector(row), field) for row in rows.entries()]
                    assert rows.count == len(streamed), (n, r, field, content)
                    # a letter, and [e_0, e_1] alone, as [e_1, e_0] = -[e_0, e_1]
                    base = {(1,): [{0: 1}], (1, 1): [{0: 1, 1: -1}]}
                    expected = [_over(row, field) for row in base.get(counts, [])]
                    columns = {word: i for i, word in enumerate(words)}
                    for x in (*range(1, len(counts)), 0) if len(counts) > 1 and counts not in base else ():
                        below = _words(_less(counts, x))
                        letters = [a for a in range(len(counts)) if a != x or counts[x] > 1]
                        for u in span.bases[_less(counts, x)][0]:
                            vec = Counter()
                            for c, v in _pivot_vector(u, _top(len(below))).items():
                                word = tuple(letters[a] for a in below[c])
                                vec[word + (x,)] += v
                                vec[(x,) + word] -= v
                            expected.append(_over({columns[word]: v for word, v in vec.items() if v}, field))
                    assert streamed == expected, (n, r, field, content)


def test_dropped_rows_negate_kept_rows():
    # [a, b] = -[b, a]: a dropped row is the negation of the kept row with its
    # first two runs swapped, or 0 when they are equal, so the full expansion
    # lists have the rank the span oracles give from the kept rows alone
    def check(words, q, expand, oracle_rank):
        full = {word: expand(word) for word in words}
        for word, vec in full.items():
            if _kept(word, q):
                continue
            first, second = word[:q], word[q : 2 * q]
            if first == second:
                assert vec == {}, word
            else:
                partner = full[second + first + word[2 * q :]]
                assert vec == {idx: -c for idx, c in partner.items()}, word
        for field in (None, 2, 3, 5):
            with _time_limit(10):
                assert oracle.rank_over_field(list(full.values()), field) == oracle_rank(field), (words[0], field)

    for n in (1, 2, 3):
        for r in range(1, 7):
            words = list(product(range(n), repeat=r))
            check(words, 1, oracle.left_normed_expand, lambda f: oracle.lie_power_span(n, r, f).rank())
    for r in range(1, 7):
        perms = list(permutations(range(r)))
        check(perms, 1, oracle.left_normed_expand, lambda f: len(oracle.lie_module_span(r, f).pivots()))
    for q, k in WEIGHT_SPACE_POINTS:
        perms = list(permutations(range(q * k)))
        check(perms, q, lambda perm: _reference_left_normed(perm, q), lambda f: len(oracle.weight_space_span(q, k, f).pivots()))


def _columns(mask, top):
    # the columns of a bitmask of top bits, column 0 its highest bit
    return [c for c, bit in enumerate(format(mask, f"0{top}b")) if bit == "1"]


def _bit_kernels_match_dict_kernels(rows, label):
    # The pivots of _rank_gf2 and of _rank_planes in both modes, read back as
    # {lead: {column: value}}, must be the dict kernels' pivots, keys and rows:
    # _rank_prime over F2 and F3 (pivots scaled to lead 1) and, when the
    # rational planes do not give up, _rank_rational (a +-1 row's gcd is 1, so
    # its pivots are the rows that lead with +1), from the rows and from the
    # rows negated, where every row leads with -1.  Returns the rank the
    # rational planes found, or None when they gave up.
    top = rows.top

    def signed(pivots, minus_one):
        read = {}
        for lead, (plus, minus, support) in pivots.items():
            assert plus & minus == 0 and support == plus | minus, (label, lead)
            read[lead] = {**dict.fromkeys(_columns(plus, top), 1), **dict.fromkeys(_columns(minus, top), minus_one)}
        return read

    with _time_limit(10):
        gf2 = {lead: dict.fromkeys(_columns(x, top), 1) for lead, x in oracle._rank_gf2(rows.masks(), top).items()}
        assert gf2 == oracle._rank_prime(rows.residues(2), 2), label
        gf3 = oracle._rank_planes(rows.planes(True), top, wrap=True)
        assert signed(gf3, 2) == oracle._rank_prime(rows.residues(3), 3), label
        rational = oracle._rank_planes(rows.planes(False), top, wrap=False)
        if rational is None:
            return None
        negated = oracle._rank_planes((row and row[::-1] for row in rows.planes(False)), top, wrap=False)
        expected = oracle._rank_rational(rows.integers())
        assert signed(rational, -1) == signed(negated, -1) == expected, label
    return len(rational)


@st.composite
def signed_sparse_rows(draw):
    # up to twelve rows of +-1 entries over 1 to 70 columns or 5,040, most
    # widths no multiple of 8; each row takes up to eight columns of one pool
    # of at most 24, so rows share columns and reduce one another
    width = draw(st.one_of(st.integers(1, 70), st.just(5040)))
    pool = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=24, unique=True))
    row = st.dictionaries(st.sampled_from(pool), st.sampled_from([-1, 1]), max_size=8)
    return width, draw(st.lists(row, max_size=12))


@given(signed_sparse_rows())
# the first and last columns of a width whose masks carry three pad bits
@example((5037, [{0: 1, 5036: -1}, {0: -1, 1: 1}, {5036: 1, 1: 1}, {1: -1, 5036: 1}]))
# one column, seven pad bits, and a row that is the negation of the first
@example((1, [{0: -1}, {0: 1}]))
def test_bit_kernels_match_dict_kernels_on_signed_rows(drawn):
    # every other row comes as its + and - columns, the rest as pairs
    width, vectors = drawn

    def entries():
        for i, vec in enumerate(vectors):
            if i % 2:
                yield (), (), vec.items()
            else:
                yield [c for c, v in vec.items() if v == 1], [c for c, v in vec.items() if v == -1], ()

    _bit_kernels_match_dict_kernels(oracle._Rows(entries, len(vectors), width, None), drawn)


def test_rank_gf3_matches_dict_kernel_on_lie_module_rows():
    # the Lie-module rows stay in {-1, 0, 1}, so the rational planes finish
    # with pivots, as many as dim_lie counts, and every bit kernel, on the rows
    # and on the rows negated, gives the dict kernels' pivots
    for r in range(1, 7):
        assert _bit_kernels_match_dict_kernels(oracle.lie_module_span(r), r) == dim_lie(r), r


def test_bit_kernels_match_dict_kernels_on_oracle_rows():
    # the weight-space rows stay in {-1, 0, 1}, so the rational planes finish
    # with pivots, as many as the formula counts; the Lie power blocks come as
    # pairs
    for q, k in WEIGHT_SPACE_POINTS:
        assert _bit_kernels_match_dict_kernels(oracle.weight_space_span(q, k), (q, k)) == weight_space_dim_formula(q, k)
    for n, r in ORACLE_POWER_POINTS:
        for content, rows in oracle.lie_power_span(n, r).blocks.items():
            _bit_kernels_match_dict_kernels(rows, (n, r, content))


def test_pivots_are_the_lyndon_words():
    # The standard bracketing of a Lyndon word w is w plus larger words, and
    # these bracketings are a basis (Chen, Fox and Lyndon; Reutenauer, Free Lie
    # Algebras, ch. 5).  Each kernel leads with a row's lowest column, so over
    # every field the lead columns of a span are its Lyndon words, enumerated
    # here with no count.  A Lie power block's columns number its content's
    # words, so its leads are the Lyndon words of that content.
    for n, r in ((2, 10), (3, 7), (4, 5)):
        contents = _words_by_content(n, r)
        lyndon = list(oracle.iter_lyndon_words(n, r))
        # over the rationals some block's planes give up, and its leads are the dict kernel's
        blocks = oracle.lie_power_span(n, r).blocks
        gave_up = [oracle._rank_planes(rows.planes(False), rows.top, False) is None for rows in blocks.values()]
        assert any(gave_up), (n, r)
        for field in (2, 3, 5, None):
            for content, rows in oracle.lie_power_span(n, r, field).blocks.items():
                words = contents[content]
                expected = [words.index(word) for word in lyndon if _content(word, n) == content]
                assert sorted(rows.pivots()) == expected, (n, r, field, content)
    # multilinear words in 0..r-1: the Lyndon ones are those that start with 0
    for r in range(1, 8):
        expected = [i for i, perm in enumerate(permutations(range(r))) if perm[0] == 0]
        assert sorted(oracle.lie_module_span(r, 2, 10**9).pivots()) == expected, r
    # blocks of q letters as composite letters: the block word is Lyndon; the
    # block rows reach every kernel through the same adapters
    for q, k in WEIGHT_SPACE_POINTS:
        perms = permutations(range(q * k))
        expected = [i for i, perm in enumerate(perms) if oracle.is_lyndon(tuple(zip(*[iter(perm)] * q)))]
        for field in (2, 3, 5, None):
            assert sorted(oracle.weight_space_span(q, k, field).pivots()) == expected, (q, k, field)


def test_every_content_has_the_rank_of_its_sorted_content():
    # the symmetry the span rests on, checked rather than assumed: every
    # content, sorted or not, is ranked through the recursion, from its own
    # rows and a memo of its own.  Its zero counts are dropped, which renames
    # letters in order, so its width is its number of words and its leads
    # are where its Lyndon words stand among them, with no remapping.  The
    # ranks agree within each orbit and sum to w(n, r) and to the span's rank
    for n, r in (*ORACLE_POWER_POINTS, (2, 10), (3, 7), (4, 5)):
        contents = _words_by_content(n, r)
        lyndon = list(oracle.iter_lyndon_words(n, r))
        for field in (2, 3, 5, None):
            span = oracle.lie_power_span(n, r, field)
            sorted_ranks = {content: len(rows.basis()) for content, rows in span.blocks.items()}
            total = 0
            for content, words in contents.items():
                block = oracle._LiePowerRows(tuple(filter(None, content)), field, {})
                with _time_limit(5):
                    leads = sorted(block.pivots())
                assert block.width == len(words), (n, r, content)
                expected = [words.index(word) for word in lyndon if _content(word, n) == content]
                assert leads == expected, (n, r, field, content)
                assert len(leads) == sorted_ranks[tuple(sorted(content, reverse=True))], (n, r, field, content)
                total += len(leads)
            assert total == witt_dim(n, r) == span.rank(), (n, r, field)


class _CountedRows(oracle._Rows):
    """A row source that counts its passes."""

    def __init__(self, vectors, field=None):
        super().__init__(self._entries, len(vectors), 1 + max((c for vec in vectors for c in vec), default=-1), field)
        self.vectors = vectors
        self.passes = 0

    def _entries(self):
        self.passes += 1
        return (((), (), vec.items()) for vec in self.vectors)


# every _Rows span source of the verify grids and the fold's rows of Lie(r)
# up to r = 7, weight_space_span(1, r), with the number of index tuples its
# columns stand for, enumerated here; lie_module_span is charged as that
# fold (test_lie_module_recursion_streams_within_its_charge)
SPAN_SOURCES = (
    *(
        (oracle.lyndon_bracketing_span, (n, r), len(list(product(range(n), repeat=r))))
        for n, r in ORACLE_POWER_POINTS
    ),
    *((oracle.weight_space_span, (q, k), len(list(permutations(range(q * k))))) for q, k in WEIGHT_SPACE_POINTS),
    *((oracle.weight_space_span, (1, r), len(list(permutations(range(r))))) for r in range(1, 8)),
)


def _within(mask, width):
    # every set bit of a top-bit-first mask stands for a column in 0..width-1:
    # none at or above the top bit, none below bit top - width
    top = _top(width)
    return mask >> top == 0 and mask & ((1 << (top - width)) - 1) == 0


def test_each_source_states_the_rows_the_kernels_get(monkeypatch):
    # count is the number of rows one masks() pass yields, width the number of
    # index tuples the columns stand for, and the charge planes * count * width
    charged = []
    monkeypatch.setattr(oracle, "_charge", lambda budget, task, floor, shown, work: charged.append(work()))
    for span, args, width in SPAN_SOURCES:
        masks = list(span(*args, 2).masks())
        for field, planes in ((2, 1), (3, 2), (None, 2), (5, 2)):
            rows = span(*args, field)
            assert (rows.count, rows.width) == (len(masks), width), (span.__name__, args)
            assert charged[-1] == planes * len(masks) * width, (span.__name__, args, field)
        assert all(_within(mask, width) for mask in masks), (span.__name__, args)


def test_lie_power_blocks_state_the_rows_the_kernels_get(monkeypatch):
    # each block states its count rows, those one masks() pass yields, and
    # its width, the words of its content.  The charge is priced from the
    # words alone: for each sorted content, planes * count * width for the
    # count words with w[0] < w[1] (every word when r = 1), 3 * 2**(r-1)
    # steps a row to expand their brackets and 32*r a word for tables over
    # the words, and n for the orbit listing of each content that has rows
    charged = []
    monkeypatch.setattr(oracle, "_charge", lambda budget, task, floor, shown, work: charged.append(work()))
    for n, r in ORACLE_POWER_POINTS:
        contents = _words_by_content(n, r)
        for field, planes in ((2, 1), (3, 2), (None, 2), (5, 2)):
            work = n * len([content for content in contents if r == 1 or max(content) < r])
            for content, words in contents.items():
                if _is_sorted(content):
                    count, width = sum(map(_kept, words)), len(words)
                    work += planes * count * width + (3 * count << (r - 1)) + 32 * r * width
            for content, rows in oracle.lie_power_span(n, r, field).blocks.items():
                masks, width = list(rows.masks()), len(contents[content])
                assert (rows.count, rows.width) == (len(masks), width), (n, r, field, content)
                assert all(_within(mask, width) for mask in masks), (n, r, field, content)
            assert charged[-1] == work, (n, r, field)


def _lie_power_points():
    # the Lie power points of the CLI's rank commands, (n, r, field, budget)
    from test_cli import RANK_COMMANDS

    fields = {"q": None, "f2": 2, "f3": 3, "f5": 5}
    for command, _, _ in RANK_COMMANDS:
        args = command.split()
        if args[1] == "lie-power":
            option = dict(zip(args[2::2], args[3::2]))
            slow = "--slow" in args
            yield int(option["--n"]), int(option["--r"]), fields[option.get("--field", "q")], budget.work_budget(slow=slow)


def test_lie_power_recursion_streams_within_its_charge(monkeypatch):
    # a rank eliminates each block once, lower contents included, and a
    # pass of a block yields its count rows (the rationals' planes may give
    # up and the block be streamed again, so a block counts its longest
    # pass); the bits streamed over every block eliminated, planes * rows *
    # width, stay within work(), which is priced from binomials alone
    passes = []
    real = oracle._LiePowerRows.entries

    def counted(self):
        streamed = [self.counts, self.width, 0]
        passes.append(streamed)
        for row in real(self):
            streamed[2] += 1
            yield row

    monkeypatch.setattr(oracle._LiePowerRows, "entries", counted)
    points = [(n, r, field, None) for n, r in ORACLE_POWER_POINTS for field in (2, 3, 5, None)]
    for n, r, field, cap in [*points, *_lie_power_points()]:
        span = oracle.lie_power_span(n, r, field, cap)
        passes.clear()
        with _time_limit(10):
            assert span.rank() == witt_dim(n, r), (n, r, field)
        rows = {}
        for counts, width, count in passes:
            rows[counts] = max(rows.get(counts, (0, 0)), (count, width))
        assert set(rows) <= set(span.bases), (n, r, field)
        for counts, (count, _) in rows.items():
            assert oracle._LiePowerRows(counts, field, span.bases).count == count, (n, r, field, counts)
        planes = 1 if field == 2 else 2
        assert planes * sum(count * width for count, width in rows.values()) <= span.work(), (n, r, field)


def test_charge_bounds_the_kernels_memory():
    # a kernel keeps at most count pivots of width columns a block, and the
    # walks a column table and r folds: the traced peak of a whole run stays
    # under the charge in bytes (measured 1.4 to 6.0 times charge/8, the walks'
    # tables and frames outweighing the few pivots)
    for n, r in ((3, 7), (4, 5)):
        for field in (2, 3, None, 5):
            charge = oracle.lie_power_span(n, r, field).work()
            peak = _traced_peak_mib(lambda: oracle.lie_power_span(n, r, field).rank()) * 2**20
            assert peak < charge, (n, r, field, peak, charge)


@pytest.mark.slow
@pytest.mark.parametrize("n, r", [(3, 10), (4, 8)])
def test_lie_power_reach_over_f2_in_little_memory(n, r):
    # admitted under --slow, and kernel-bound: the traced peak stays under
    # 4 * charge/8 bytes (measured 0.29 and 0.46 times charge/8)
    slow = budget.work_budget(slow=True)
    charge = oracle.lie_power_span(n, r, 2, slow).work()
    ranks = []
    with _time_limit(60):
        peak = _traced_peak_mib(lambda: ranks.append(oracle.lie_power_span(n, r, 2, slow).rank())) * 2**20
    assert ranks == [witt_dim(n, r)]
    assert peak < 4 * charge / 8, (n, r, peak, charge)


@pytest.mark.slow
def test_lie_power_rank_n3_r10_over_q_under_slow_budget(runner):
    # charged 3.9 * 10**7 units, admitted under --slow; the blocks with a
    # repeated letter take the rationals' dict kernel, and the whole run took
    # about 18 s as a fresh process when its rows were the left-normed fold
    from liedim.cli import main

    with _time_limit(5):
        result = runner.invoke(main, ["oracle", "lie-power", "--n", "3", "--r", "10", "--slow"])
    assert (result.exit_code, result.output) == (0, "rank = 5880\nwitt = 5880\nagree\n")


def test_lyndon_bracketing_span_charged_before_expansion(monkeypatch):
    # count_lyndon_words(n, r) rows, found by the scan, over the n**r words:
    # (2, 16) is 2 * 4,080 * 65,536, refused before any bracket is expanded
    # (it was charged only its 65,536-word walk); the rows are the column
    # standard bracketings, so that is what must not run
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_standard_columns", None)
        with pytest.raises(budget.WorkBudgetExceeded, match="Lyndon bracketing span needs about 534773760 units"):
            len(oracle.lyndon_bracketing_span(2, 16).pivots())
    # 2 * 335 * 4,096 = 2,744,320 units, inside the default budget
    assert len(oracle.lyndon_bracketing_span(2, 12, 2).pivots()) == witt_dim(2, 12)


def test_rational_stream_restarts_after_pivots_are_stored():
    # rows 0-2 have entries +-1 and become pivots on the planes; row 3 does
    # too, but its reduction by row 0 makes a 2 in column 1, so the planes
    # give up with three pivots stored and the source is streamed again
    vectors = [{0: 1, 1: 1}, {2: 1, 3: -1}, {4: -1, 5: 1}, {0: -1, 1: 1, 2: 1}, {1: 1, 3: 1}]
    rows = [{(c,): v for c, v in vec.items()} for vec in vectors]
    assert oracle.rank_over_field(rows) == _reference_rank(rows, None) == 5
    counted = _CountedRows(vectors)
    assert len(counted.pivots()) == 5
    assert counted.passes == 2
    planes = list(_CountedRows(vectors).planes(False))
    assert planes[0] == (0b1100_0000, 0)
    assert oracle._rank_planes(planes, 8, wrap=False) is None
    # an input entry of 2 after stored pivots ends the planes pass at that row
    vectors = [{0: 1}, {1: -1}, {2: 2, 3: 1}, {2: 1}]
    counted = _CountedRows(vectors)
    assert list(counted.planes(False)) == [(0b1000_0000, 0), (0, 0b0100_0000), None]
    assert len(counted.pivots()) == 4 == _reference_rank(vectors, None)
    assert counted.passes == 3
    # over F3 the same rows never give up, so one pass
    counted = _CountedRows(vectors, 3)
    assert len(counted.pivots()) == _reference_rank(vectors, 3)
    assert counted.passes == 1
    # lie_power_span over the rationals restarts too: the words 0 1 ... make 2s
    assert oracle.lie_power_span(2, 5, None).rank() == witt_dim(2, 5)


# tracemalloc peaks of the span oracles, in MiB.  With every row built first,
# as lists of dict rows, a column map and converted rows, they were 1.05 to
# 1.2 at r = 6, 1.7 for lie_power_span(3, 6, 5) and 15 at r = 7; streamed,
# about 0.3, 0.15 and 3.5 to 4.3; streaming only one row of each +- pair,
# about 0.17 to 0.23, 0.13 and 2.1 to 2.9.  The r = 7 rows alone, one pass
# with no kernel, peaked at 1.95 with a column table for each of the 2**6
# terms of every kept row, and at about 0.79 folded one row at a time.
PEAK_CEILING_MIB = 0.6
PEAK_CEILING_R7_MIB = 4.0
PEAK_CEILING_R7_ROWS_MIB = 1.2


def _traced_peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_span_oracles_stream_in_little_memory():
    for field in (None, 2, 3):
        peak = _traced_peak_mib(lambda: len(oracle.lie_module_span(6, field).pivots()))
        assert peak < PEAK_CEILING_MIB, (field, peak)
    peak = _traced_peak_mib(lambda: oracle.lie_power_span(3, 6, 5).rank())
    assert peak < PEAK_CEILING_MIB, peak


def test_span_oracles_feed_kernels_one_row_at_a_time(monkeypatch):
    # every kernel input is an iterator, never a list of rows
    fed = []
    for name in ("_rank_gf2", "_rank_planes", "_rank_prime", "_rank_rational"):
        kernel = getattr(oracle, name)

        def recording(rows, *args, kernel=kernel, name=name):
            fed.append((name, type(rows).__name__))
            assert iter(rows) is rows, name
            return kernel(rows, *args)

        monkeypatch.setattr(oracle, name, recording)
    for field in (None, 2, 3, 5):
        assert len(oracle.lie_module_span(5, field).pivots()) == dim_lie(5)
        assert oracle.lie_power_span(2, 6, field).rank() == witt_dim(2, 6)
        assert len(oracle.weight_space_span(2, 2, field).pivots()) == weight_space_dim_formula(2, 2)
    # the rationals over two letters give up on the planes and take the dict kernel
    assert {name for name, _ in fed} == {"_rank_gf2", "_rank_planes", "_rank_prime", "_rank_rational"}
    assert {kind for _, kind in fed} == {"generator"}


def test_lie_module_rows_fold_one_row_at_a_time():
    # a pass holds the 120 pivot rows of Lie(6), the columns of the 5,040
    # permutations by their last letter and the row at hand (measured
    # 0.34 MiB; the fold's pass, with its six prepend maps, 0.79 MiB)
    rows = oracle.lie_module_span(7, 2, 10**9)
    peak = _traced_peak_mib(lambda: sum(len(plus) + len(minus) for plus, minus, _ in rows.entries()))
    assert peak < PEAK_CEILING_R7_ROWS_MIB, peak


def test_multilinear_spans_are_refused_before_they_allocate():
    # a pass builds its r letter counts when it starts, so a refused span
    # never holds them: at r = 10**8 they took 779 MiB, at 10**10 a MemoryError
    def refuse(build, *args):
        with pytest.raises(budget.WorkBudgetExceeded):
            build(*args)

    for build, args in ((oracle.lie_module_span, (10**8,)), (oracle.weight_space_span, (10**5, 10**5))):
        peak = _traced_peak_mib(lambda: refuse(build, *args))
        assert peak < 1, (build.__name__, peak)


def test_a_bad_field_is_refused_where_the_span_is_built(monkeypatch):
    # a span carries its field, so a bad one is refused before anything is charged
    def must_not_charge(*args):
        raise AssertionError("charged before the field was checked")

    monkeypatch.setattr(oracle, "_charge", must_not_charge)
    builds = (
        lambda: oracle.lie_power_span(2, 3, 4),
        lambda: oracle.lyndon_bracketing_span(2, 3, 4),
        lambda: oracle.lie_module_span(3, 4),
        lambda: oracle.weight_space_span(1, 2, 4),
        lambda: oracle.rank_over_field([{(0,): 1}], 4),
    )
    for build in builds:
        with pytest.raises(ValueError, match=r"^field must be None \(rationals\) or a prime, got 4$"):
            build()


def test_rank_over_field_validation():
    with pytest.raises(ValueError):
        oracle.rank_over_field([{(0,): 1}], field=4)
    with pytest.raises(ValueError):
        oracle.rank_over_field([{(0,): 1}, {(0, 1): 1}])


def test_lie_power_rank_small():
    assert oracle.lie_power_span(1, 2).rank() == 0
    for n in (2, 3):
        for r in range(1, 6):
            w = witt_dim(n, r)
            for f in (None, 2, 3):
                with _time_limit(5):
                    assert oracle.lie_power_span(n, r, f).rank() == w, (n, r, f)
                    assert len(oracle.lyndon_bracketing_span(n, r, f).pivots()) == w, (n, r, f)


def test_lie_module_rank_small():
    for r in range(1, 6):
        for f in (None, 2, 3):
            with _time_limit(5):
                assert len(oracle.lie_module_span(r, f).pivots()) == dim_lie(r), (r, f)


def test_weight_space_rank_small():
    for q, k in ((1, 2), (1, 3), (1, 4), (2, 2)):
        expected = weight_space_dim_formula(q, k)
        for f in (None, 2):
            assert len(oracle.weight_space_span(q, k, f).pivots()) == expected, (q, k, f)


def test_budget_rejects_oversized_jobs():
    with pytest.raises(budget.WorkBudgetExceeded):
        oracle.aperiodic_count_bruteforce(2, 10, budget=100)
    with pytest.raises(budget.WorkBudgetExceeded):
        len(oracle.lie_module_span(7).pivots())  # needs (7!)^2 > default budget
    # explicit budgets unlock the same call
    assert oracle.aperiodic_count_bruteforce(2, 10, budget=2000) == 990


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv(budget.BUDGET_ENV_VAR, "50")
    assert budget.work_budget() == 50
    with pytest.raises(budget.WorkBudgetExceeded):
        oracle.aperiodic_count_bruteforce(2, 8)
    # explicit argument beats the environment, which beats --slow
    assert oracle.aperiodic_count_bruteforce(2, 8, budget=10**6) == 240
    assert budget.work_budget(slow=True) == 50
    assert budget.work_budget(7, slow=True) == 7
    monkeypatch.delenv(budget.BUDGET_ENV_VAR)
    assert budget.work_budget(slow=True) == 100 * budget.DEFAULT_BUDGET
    assert budget.work_budget() == budget.DEFAULT_BUDGET
    for bad in ("not a number", "-5", ""):
        monkeypatch.setenv(budget.BUDGET_ENV_VAR, bad)
        with pytest.raises(ValueError, match=budget.BUDGET_ENV_VAR):
            budget.work_budget()


def test_word_enumeration_charge():
    oracle.charge_word_enumeration(4, 11)  # 4**11 = 4,194,304 units
    with pytest.raises(budget.WorkBudgetExceeded, match="Lyndon word enumeration"):
        oracle.charge_word_enumeration(4, 12)  # 16,777,216 units
    oracle.charge_word_enumeration(4, 12, budget=10**8)
    # one word, but a walk may hold its r letters in r-slot arrays: charged 32*r
    oracle.charge_word_enumeration(1, 312_500)
    with pytest.raises(budget.WorkBudgetExceeded, match="needs about 10000032 units"):
        oracle.charge_word_enumeration(1, 312_501)
    with pytest.raises(budget.WorkBudgetExceeded, match=r"needs about 32\*1000000000 units"):
        oracle.charge_word_enumeration(1, 10**9)
    # refused from the exponent alone, without building 10**(10**9)
    with pytest.raises(budget.WorkBudgetExceeded, match=r"10\^1000000000 units"):
        oracle.charge_word_enumeration(10, 10**9)
    with pytest.raises(budget.WorkBudgetExceeded):
        len(oracle.lyndon_bracketing_span(4, 12).pivots())


@pytest.mark.slow
@pytest.mark.parametrize("field", [2, 3, None])
def test_lie_module_rank_r7_slow(field):
    # one elimination per field gives the rank and, streamed, a small traced peak
    ranks = []
    with _time_limit(60):
        peak = _traced_peak_mib(lambda: ranks.append(len(oracle.lie_module_span(7, field, budget=10**9).pivots())))
    assert ranks == [dim_lie(7)] == [720]
    assert peak < PEAK_CEILING_R7_MIB, (field, peak)


@pytest.mark.slow
def test_lie_module_rank_r8_over_f2_under_slow_budget():
    # charged 8!/2 * 8! = 812,851,200 units over F_2, inside the --slow
    # budget; the traced peak, mostly the 5,040 pivots of 8! bits, stays under
    # half of charge/8 bytes (measured 0.30 times)
    span = oracle.lie_module_span(8, 2, budget.work_budget(slow=True))
    ranks = []
    with _time_limit(60):
        peak = _traced_peak_mib(lambda: ranks.append(len(span.pivots()))) * 2**20
    assert ranks == [dim_lie(8)] == [5040]
    assert peak < span.work() / 16, peak


def test_weight_space_rank_23():
    # charged (6!)^2 = 518,400 units, inside the default budget
    assert len(oracle.weight_space_span(2, 3, None).pivots()) == 240

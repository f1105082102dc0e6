"""Brute-force ground truth for Lie power and Lie module dimensions.

Everything here works in explicit tensor coordinates.  A vector maps index
tuples (one letter per tensor factor) to nonzero integer coefficients.  One
bracket product, _bracket_columns, makes [u, v] = u (x) v - v (x) u with
each index tuple read as its column number, its position in lexicographic
order.  The four span oracles (left-normed words, standard bracketings of
Lyndon words, multilinear and block brackets) stream their rows one at a
time, each as its +1 columns, its -1 columns and (column, value) pairs for
the rest, into a span, a _Rows source that carries its field.  Its one
elimination, _Rows.pivots(), turns each row into the form its field's
kernel takes, runs a deterministic sparse Gaussian elimination, exact over
Q or F_p, and returns the kernel's pivots: by the triangularity of the
standard bracketing, the lead columns are the Lyndon words.  The bracket
oracles make one row of each +- pair: since [a, b] = -[b, a], the rows
whose first letter (block) is below the second span everything.

Every row but the Lyndon bracketings' comes from one generator,
_bracket_rows, which folds left-normed brackets in the column numbers of
the arrangements of a letter content.  The left-normed span is
block-diagonal by content, and renaming letters permutes the blocks, so
_LiePowerSpan makes one _Rows block per content whose counts do not
increase and weights each block's rank by the number of contents in its
orbit, which it lists.  The Lie module and the weight spaces are the
arrangements of the distinct letters 0..r-1, in runs of one letter or of q.

The point of this module is independence: nothing below knows about the
closed-form counts or recurrences elsewhere in the package, so agreement
between the two is meaningful evidence.  Enumeration sizes are guarded by
the work budget of budget.py.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cached_property, partial
from itertools import combinations
from math import comb, factorial, gcd

from .arith import divisors, is_prime
from .budget import _charge

Word = tuple[int, ...]
TensorIndex = tuple[int, ...]
SparseTensorVector = dict[TensorIndex, int]

# weight_of() markers
ZERO_WEIGHT = "zero"
INHOMOGENEOUS = "inhomogeneous"


def charge_word_enumeration(
    n: int, r: int, budget: int | None = None, task: str = "Lyndon word enumeration"
) -> None:
    """Refuse a walk over all n**r words of length r when it is over the budget.

    One letter gives one word, but a walk may still hold its r letters in
    r-slot arrays of 8-byte pointers: the Lyndon scans one list of the word's
    letters.  The aperiodic walk holds none: its one word is the numeral 0
    and its periods' numerals of ones are the primes q dividing r.  Each is
    charged 32*r bytes, four such arrays, which bounds them all (and
    _LiePowerSpan.work prices its walks the same)."""
    if n < 1 or r < 1:
        raise ValueError(f"{task} needs n >= 1 and r >= 1")
    if n == 1:
        _charge(budget, task, r.bit_length() + 4, f"32*{r}", lambda: 32 * r)
    else:
        _charge(budget, task, r, f"{n}^{r}", lambda: n**r)


def charge_expansion(r: int, budget: int | None = None) -> None:
    """The budget charge of expanding one bracket of r letters: r*2**(r-1),
    its at most 2**(r-1) terms times their r letters."""
    _charge(budget, "bracket expansion", r - 1, f"{r}*2^{r - 1}", lambda: r << (r - 1))


def charge_span(task: str, span, budget: int | None = None):
    """Refuse the elimination of a span (a _Rows source or a _LiePowerSpan)
    when its work() is over the budget, else return the span.  A huge span is
    refused from its floor_bits alone, shown as its shape, before work() is
    built."""
    _charge(budget, task, span.floor_bits, span.shape, span.work)
    return span


def iter_lyndon_words(n: int, r: int) -> Iterator[Word]:
    """Yield the Lyndon words of length r over the alphabet 0..n-1, lexicographically.

    Duval's generation scheme: extend the current word periodically to length
    r, drop trailing maximal letters, then increment.  Each word produced on
    the way is Lyndon; we yield the ones of length exactly r.  The scan runs on
    one list of r slots and an explicit length m: the word is w[:m], an
    extension writes w[i] = w[i - m] for i = m..r-1, and a pop lowers m.
    Words are made one at a time and no list of all of them is kept.  The
    arguments are checked when iteration starts.
    """
    if n < 1 or r < 1:
        raise ValueError("iter_lyndon_words() needs n >= 1 and r >= 1")
    top = n - 1
    w = [0] * r
    w[0] = -1
    m = 1
    while m:
        w[m - 1] += 1
        if m == r:
            yield tuple(w)
        else:
            for i in range(m, r):
                w[i] = w[i - m]
            m = r
        while m and w[m - 1] == top:
            m -= 1


def count_lyndon_words(n: int, r: int) -> int:
    """The number of words iter_lyndon_words(n, r) yields, found by the same scan.

    Whenever the scan's word has length r it is next raised in its last
    letter, one step at a time, up to n - 1, and each step is a Lyndon word of
    length r; after the last step the trailing maximal letters are popped.  So
    each such run of words is counted in one step: n - a words when an
    increment lands on length r with last letter a, and n - 1 - a when an
    extension reaches length r with last letter a (the extended word itself is
    not counted).

    Runs at length r - 1 are taken in one step too.  An increment that lands
    on length r - 1 >= 2 gives a Lyndon word w with last letter a, which is
    then raised through a, ..., n - 1 in turn.  Each raise extends by the one
    letter w[0], which the raise leaves alone, to a word whose run counts
    n - 1 - w[0] words, so the whole run counts (n - a) * (n - 1 - w[0]).  At
    length 1 the raised letter is w[0] itself, so r = 2 keeps the step-wise
    walk.

    So are runs at length r - 2.  An increment that lands on length
    r - 2 >= 3 gives a Lyndon word w with last letter a, raised in turn
    through a, ..., n - 1.  Each raise extends by the two letters w[0] w[1]
    to a word of length r whose run counts n - 1 - w[1]; the pop after it
    stops at length r - 1, on the letter w[0] < n - 1 (the first letter of a
    Lyndon word of length >= 2 is below its last).  The next increment lands
    there, on length r - 1 with last letter w[0] + 1, and is the run above:
    (n - 1 - w[0]) * (n - 1 - w[0]) words.  So the whole run counts
    (n - a) * ((n - 1 - w[1]) + (n - 1 - w[0])**2).  The raise must leave
    w[1] alone, so r - 2 = 2 keeps the run at r - 1 only.  Runs at r - 3 and
    below would be nested sums of these, which start to rebuild a count
    recurrence, so the scan takes none.  This is still Duval's scan over the
    same words in the same order; it only takes some runs in one step, and
    it uses no closed-form count.  No word tuple is made.
    """
    if n < 1 or r < 1:
        raise ValueError("count_lyndon_words() needs n >= 1 and r >= 1")
    top = n - 1
    mid = r - 1 if r >= 3 else 0
    low = r - 2 if r >= 5 else 0
    w = [0] * r
    w[0] = -1
    m = 1
    count = 0
    while m:
        a = w[m - 1] + 1
        if m == low:
            count += (n - a) * (top - w[1] + (top - w[0]) ** 2)
        elif m == mid:
            count += (n - a) * (top - w[0])
        elif m == r:
            count += n - a
        else:
            w[m - 1] = a
            for i in range(m, r):
                w[i] = w[i - m]
            count += top - w[-1]
            m = r
        m -= 1
        while m and w[m - 1] == top:
            m -= 1
    return count


def lyndon_words(n: int, r: int) -> list[Word]:
    """All Lyndon words of length r over the alphabet 0..n-1, lexicographically.
    No code in the package calls it; it stays for perfbench/layers.py, which
    patches it by name."""
    return list(iter_lyndon_words(n, r))


def is_lyndon(word: Word) -> bool:
    """True when the word is strictly smaller than every proper rotation of itself."""
    r = len(word)
    if r == 0:
        return False
    doubled = word + word
    return all(word < doubled[i : i + r] for i in range(1, r))


def aperiodic_count_bruteforce(n: int, r: int, budget: int | None = None) -> int:
    """Count the length-r words over n letters that are no power of a shorter word.

    Every one of the n**r words is tested, so this is a pure counting oracle.
    A word that is u**j for some j >= 2 is also (u**(j // q))**q for each
    prime q dividing j, and q divides r as well, so it has period r // q.
    Testing the maximal proper periods r // q, for the primes q dividing r,
    therefore finds every power; at r = 12 that is periods 6 and 4 instead of
    1, 2, 3, 4 and 6.

    Each word is its base-n numeral x in range(n**r), first letter most
    significant.  With d = r // q, the word is u**q exactly when x is its
    last d letters, x % n**d, written q times, d letters apart: when
    x % n**d * ones == x for the numeral ones = 1 + n**d + ... + n**(d(q-1))
    of q ones.  That is (n**r - 1) // (n**d - 1) for n >= 2, and q for
    n = 1, where the one word is x = 0; neither takes q steps to build.
    """
    charge_word_enumeration(n, r, budget, "aperiodic word enumeration")
    size = n**r
    periods = []
    for q in divisors(r):
        if is_prime(q):
            base = n ** (r // q)
            periods.append((base, (size - 1) // (base - 1) if n > 1 else q))
    count = 0
    for x in range(size):
        for base, ones in periods:
            if x % base * ones == x:
                break
        else:
            count += 1
    return count


def _expand_base256(columns_of, word) -> SparseTensorVector:
    # columns_of(letters, 256) over the letters 0..255 (bytes() refuses any
    # other), each column read back as its index tuple, its r base-256 digits
    letters = bytes(word)
    r = len(letters)
    return {tuple(c.to_bytes(r, "big")): v for c, v in columns_of(letters, 256).items()}


def left_normed_expand(word) -> SparseTensorVector:
    """Tensor-coordinate expansion of the left-normed bracket of the word's letters.

    [e_{w1}, e_{w2}, ..., e_{wr}] with all brackets gathered to the left, for
    letters 0..255 (any other letter raises ValueError).  This is
    _left_normed_columns over 256 letters, one _bracket_columns a letter, a
    fold that shares nothing with _bracket_rows, which the tests check row
    for row against this one.
    The result has at most 2**(r-1) terms; repeated letters can cancel or
    combine, so coefficients other than +-1 do occur.
    """
    letters = bytes(word)
    if not letters:
        raise ValueError("left_normed_expand() needs a nonempty word")
    return _expand_base256(_left_normed_columns, letters)


def _bracket_columns(u: dict[int, int], v: dict[int, int], size_u: int, size_v: int) -> dict[int, int]:
    # [u, v] = u (x) v - v (x) u in column numbers: an index tuple read as a
    # numeral in one base, so u's column a (of size_u) followed by v's column b
    # (of size_v) is a*size_v + b.  The u (x) v keys are distinct, so that half
    # is made whole; a v (x) u key meets at most one of them and is deleted when
    # the two cancel, so no zero is ever stored.
    out = {a * size_v + b: x * y for b, y in v.items() for a, x in u.items()}
    get = out.get
    for b, y in v.items():
        high = b * size_u
        for a, x in u.items():
            key = high + a
            nv = get(key, 0) - x * y
            if nv:
                out[key] = nv
            else:
                del out[key]
    return out


def _left_normed_columns(word: Sequence[int], n: int) -> dict[int, int]:
    # the left-normed bracket [[..[s1, s2], s3] ..., st] over letters 0..n-1, in base n
    vec = {word[0]: 1}
    size = n
    for s in word[1:]:
        vec = _bracket_columns(vec, {s: 1}, size, n)
        size *= n
    return vec


def standard_factorization(word: Word) -> tuple[Word, Word]:
    """Split a Lyndon word of length >= 2 as u, v with v the longest proper Lyndon suffix.

    That suffix is the lexicographically least proper suffix v: each suffix
    of v is a proper suffix of the word, so larger than v, and v is Lyndon;
    a longer Lyndon suffix would be smaller than its suffix v.  So no suffix
    is tested for being Lyndon.
    """
    if len(word) < 2:
        raise ValueError(f"standard_factorization() needs a word of length >= 2, got {word!r}")
    v = min(word[i:] for i in range(1, len(word)))
    return word[: len(word) - len(v)], v


def _standard_columns(word: Sequence[int], n: int) -> dict[int, int]:
    # the standard bracketing of a Lyndon word over letters 0..n-1, in base n
    if len(word) == 1:
        return {word[0]: 1}
    u, v = standard_factorization(word)
    return _bracket_columns(_standard_columns(u, n), _standard_columns(v, n), n ** len(u), n ** len(v))


def expand_standard_bracketing(word) -> SparseTensorVector:
    """Coordinate expansion of the standard bracketing of a Lyndon word.

    Convention (frozen by the golden files): a word of length >= 2 splits as
    u * v with v its longest proper Lyndon suffix, and expands recursively as
    [sigma(u), sigma(v)].  For example 001 splits as 0 * 01 and expands to
    {001: +1, 010: -2, 100: +1}.  This is _standard_columns over 256 letters,
    so letters are 0..255 (any other raises ValueError), as for left_normed_expand.
    """
    letters = tuple(word)
    if not is_lyndon(letters):
        raise ValueError(f"{letters!r} is not a Lyndon word")
    return _expand_base256(_standard_columns, letters)


def weight_of(vec: SparseTensorVector):
    """Common letter content of the vector's indices, as a tuple of letter counts
    for the letters 0..max letter.

    Returns ZERO_WEIGHT for the zero vector and INHOMOGENEOUS when two indices
    disagree on their letter multiset.
    """
    if not vec:
        return ZERO_WEIGHT
    contents = {tuple(sorted(idx)) for idx in vec}
    if len(contents) > 1:
        return INHOMOGENEOUS
    (content,) = contents
    return tuple(content.count(letter) for letter in range(content[-1] + 1))


def format_expansion(vec: SparseTensorVector) -> str:
    """Render an expansion as sorted 'index:coefficient' lines.

    Letters up to 9 concatenate digit-wise (so indices read like 010); wider
    alphabets fall back to dot-separated letters.
    """
    lines = []
    for idx in sorted(vec):
        sep = "." if idx and max(idx) > 9 else ""
        lines.append(f"{sep.join(map(str, idx))}:{vec[idx]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# exact rank computation


def _bitmasker(top: int):
    """The function that makes a row's bitmask of top bits (whole bytes) from
    lists of its columns, column c at bit top - 1 - c, so that a row's lead,
    its first nonzero column, is top - x.bit_length().  The bits are set in a
    bytearray and read once big-endian, so no entry costs a big-int operation;
    each column's byte and bit come from lists made once a pass, as c >> 3
    would make a new int for every entry past column 2,055."""
    size = top >> 3
    byte = [i for i in range(size) for _ in range(8)]
    bit = [0x80 >> k for k in range(8)] * size

    def bitmask(*columns) -> int:
        bits = bytearray(size)
        for part in columns:
            for c in part:
                bits[byte[c]] |= bit[c]
        return int.from_bytes(bits, "big")

    return bitmask


def _checked_field(field: int | None) -> int | None:
    if field is not None and not is_prime(field):
        raise ValueError(f"field must be None (rationals) or a prime, got {field}")
    return field


def _planes_text(field: int | None, shape: str) -> str:
    # a span's work as text: one bit plane a row over F_2, two over any other field
    return shape if field == 2 else f"2*{shape}"


class _Rows:
    """A span: a re-iterable source of rows and the field they span over.

    Each call of entries() starts a pass over the rows, in a fixed order, and
    yields each row as (plus, minus, pairs): the columns holding +1, the
    columns holding -1, and (column, integer) pairs for the other entries,
    no column twice.  A source that does not sort its signs gives every
    entry as a pair.  The columns are numbered 0..width-1 in the
    lexicographic order of the tensor indices they stand for.  A zero entry
    is skipped and may have no column.  Each adapter below starts a pass and
    yields one kernel's rows one at a time, so no pass makes a list of rows,
    and a kernel holds only its pivots and the row at hand.  Every source, a
    subclass too, reaches the kernels through these adapters and pivots(),
    and states only entries().  Its field, None (the rationals) or a prime p
    (F_p), is checked when it is built.

    A source states its size, count rows of width columns a pass, for
    charge_span, with floor_bits <= log2(count * width) and shape, its work()
    as text, so that a huge source is refused before either number is built.
    """

    floor_bits = 0

    def __init__(self, entries, count: int, width: int, field: int | None):
        self.field = _checked_field(field)
        self.entries = entries
        self.count = count
        self.width = width
        self.shape = _planes_text(field, f"{count}*{width}")

    @property
    def top(self) -> int:
        """The bit count of a row's bitmask: width rounded up to whole bytes."""
        return (self.width + 7) & -8

    def work(self) -> int:
        """planes * count * width, the bits of the dense rows a pass streams:
        one plane over F_2, two over any other field, so a kernel's count
        pivots take a small multiple of work/8 bytes."""
        return (1 if self.field == 2 else 2) * self.count * self.width

    def rank(self) -> int:
        """The rank of the span, the number of its pivots."""
        return len(self.pivots())

    def pivots(self) -> dict[int, object]:
        """The pivots of an exact elimination of the rows over the span's field,
        keyed by their lead columns; the rank of the span is their number.

        Deterministic by construction: the rows are reduced one at a time, in
        the source's order, each against pivots chosen as the first nonzero
        position in column order.  This is the one place that picks a field's
        kernel:
        - F_2: a row is one bitmask, and a step XORs in the pivot;
        - F_3 and the rationals: one signed two-plane kernel (bitslicing, after
          Boothby and Bradshaw), _rank_planes, which over the rationals gives
          up at the first +-2.  The source is then streamed again as integer
          dict rows (_rank_rational), so the worst case is one wasted pass;
        - F_p for p >= 5: a row is a dict of residues; pivots are scaled to
          lead 1 and a row loses a multiple of the pivot.
        """
        field = self.field
        if field == 2:
            return _rank_gf2(self.masks(), self.top)
        if field not in (None, 3):
            return _rank_prime(self.residues(field), field)
        pivots = _rank_planes(self.planes(field == 3), self.top, field == 3)
        return _rank_rational(self.integers()) if pivots is None else pivots

    def masks(self):
        """F_2 rows: the bitmask of the odd entries' columns, top bits wide."""
        bitmask = _bitmasker(self.top)
        for plus, minus, pairs in self.entries():
            yield bitmask(plus, minus, [c for c, v in pairs if v & 1])

    def planes(self, wrap: bool):
        """Signed rows (plus, minus): the bitmasks of the columns holding +1 and
        holding -1, top bits wide.  A row's plus and minus columns go in as
        they are; each of its pairs is tested.  With wrap (F_3) a pair's entry
        is taken mod 3, where 2 stands for -1; without it (the rationals) the
        entry itself, and a row with an entry outside {-1, 0, 1} comes as
        None and ends the pass."""
        bitmask = _bitmasker(self.top)
        minus_one = 2 if wrap else -1
        for plus, minus, pairs in self.entries():
            more_plus, more_minus = [], []
            for c, v in pairs:
                if wrap:
                    v %= 3
                if v == 1:
                    more_plus.append(c)
                elif v == minus_one:
                    more_minus.append(c)
                elif v:
                    yield None
                    return
            yield bitmask(plus, more_plus), bitmask(minus, more_minus)

    def integers(self):
        """Rows as fresh dicts of nonzero integers, which the kernel may modify."""
        for plus, minus, pairs in self.entries():
            yield {**dict.fromkeys(plus, 1), **dict.fromkeys(minus, -1), **{c: v for c, v in pairs if v}}

    def residues(self, p: int):
        """Rows as fresh dicts of nonzero residues mod p."""
        for plus, minus, pairs in self.entries():
            residues = {c: m for c, v in pairs if (m := v % p)}
            yield {**dict.fromkeys(plus, 1), **dict.fromkeys(minus, p - 1), **residues}


def _arrangement_numerals(counts: Sequence[int]) -> list[int]:
    # The arrangements of the letters a, counts[a] of each, as base-len(counts)
    # numerals in lexicographic order, built up one length m at a time: those
    # of m letters are, for each letter a they hold in turn, a followed by
    # those of the other m - 1, so only two lengths are held at once.
    base = len(counts)
    level = {(0,) * base: [0]}
    for m in range(1, sum(counts) + 1):
        step = base ** (m - 1)
        subs = {sub[:a] + (k + 1,) + sub[a + 1 :] for sub in level for a, k in enumerate(sub) if k < counts[a]}
        level = {
            sub: [a * step + y for a, k in enumerate(sub) if k for y in level[sub[:a] + (k - 1,) + sub[a + 1 :]]]
            for sub in subs
        }
    (numerals,) = level.values()
    return numerals


# The rows of distinct letters that _bracket_rows folds at once: enough that
# a step's maps over the batch outweigh its Python overhead, while the
# batch's terms (64 * 64 a list at r = 7) stay small beside a pass's tables.
_FOLD_BATCH = 64


def _bracket_rows(counts: Sequence[int], q: int):
    """One pass over the rows of the left-normed brackets [B_1, ..., B_k] of
    the arrangements of the letters a, counts[a] of each, B_j the j-th run
    of q letters.

    The columns number the arrangements in lexicographic order; the rows
    are the brackets of those whose first run is below the second (all when
    k = 1; see the module docstring), in that order.  Pad a term of the fold
    v -> v (x) B - B (x) v with the letters still to come, so that it is an
    arrangement with a column, which appending the next run leaves as it is.
    Prepending the run at s..s+q-1 permutes the positions by the cycle
    c_s = (s..s+q-1, 0..s-1, s+q..): it maps the column of an arrangement P
    to that of P o c_s, one table per s, made once a pass.  So a row is folded
    in column numbers from its own, + on the terms prepended to an even
    number of times.  Terms meet only when a letter repeats, and are then
    merged run by run into the row's pairs.  With distinct letters a row is
    two lists, its + and its - terms, and a step maps each table over them
    at C speed: the prepended - terms join the + list and the prepended +
    terms the - list.  _FOLD_BATCH rows are folded at once, their terms
    held term by term, so that a step is one map over the batch and row i
    of the batch is every size-th term from the i-th.
    """
    r, base = sum(counts), len(counts)
    numerals = _arrangement_numerals(counts)
    column = {x: i for i, x in enumerate(numerals)}
    u = base**q
    prepends = []
    for s in range(q, r, q):
        # head * u * t + run * t + tail becomes run * base**(r - q) + head * t + tail
        t = base ** (r - s - q)
        ut = u * t
        to_front, back = base ** (r - q) - t, ut - t
        prepends.append([column[x + x // t % u * to_front - x // ut * back] for x in numerals].__getitem__)
    second = base ** max(r - 2 * q, 0)
    kept = [i for i, x in enumerate(numerals) if r == q or x // (u * second) < x // second % u]
    del column, numerals
    if max(counts) == 1:
        for b in range(0, len(kept), _FOLD_BATCH):
            plus, minus = kept[b : b + _FOLD_BATCH], []
            size = len(plus)
            for at in prepends:
                plus, minus = plus + list(map(at, minus)), minus + list(map(at, plus))
            for i in range(size):
                yield plus[i::size], minus[i::size], ()
        return
    for x in kept:
        terms = {x: 1}
        for at in prepends:
            # the prepended terms are distinct, as at is a bijection; each
            # appended term keeps its column and may meet one of them
            new = dict(zip(map(at, terms), [-v for v in terms.values()]))
            get = new.get
            for c, v in terms.items():
                nv = get(c, 0) + v
                if nv:
                    new[c] = nv
                else:
                    del new[c]
            terms = new
        yield (), (), terms.items()


class _MultilinearRows(_Rows):
    """The rows of _bracket_rows over the letters 0..q*k-1 in runs of q, for
    lie_module_span and weight_space_span, sized only when read: a huge span
    is refused from floor_bits (r! >= 2**(r-1), count >= r!/2) before r! is
    built."""

    def __init__(self, q: int, k: int, field: int | None):
        self.field = _checked_field(field)
        r = q * k
        self.entries = partial(_bracket_rows, (1,) * r, q)
        self.r, self.halved = r, k > 1
        self.floor_bits = 2 * r - 3
        self.shape = _planes_text(field, f"({r}!/2)*{r}!" if k > 1 else f"{r}!*{r}!")

    width = property(lambda self: factorial(self.r))
    count = property(lambda self: self.width >> self.halved)


def _sorted_contents(n: int, r: int, top: int) -> Iterator[tuple[int, ...]]:
    # the letter counts of length-r words over n letters that do not increase
    # from letter 0 to letter n-1, each at most top, the largest first count first
    if r == 0:
        yield (0,) * n
        return
    for k in range(min(r, top), -(-r // n) - 1, -1):
        for tail in _sorted_contents(n - 1, r - k, k):
            yield (k, *tail)


def _orbit(content: tuple[int, ...]) -> int:
    # the number of distinct rearrangements of the counts, by listing them:
    # each chooses the letters that hold each nonzero count, largest first,
    # among those the larger counts left, and the rest hold 0.  Choosing
    # letters, not arranging all n counts, scans no zeros.
    def choices(letters, sizes):
        if len(sizes) == 1:
            return combinations(letters, sizes[0])
        return (
            rest for chosen in combinations(letters, sizes[0])
            for rest in choices([a for a in letters if a not in chosen], sizes[1:])
        )

    sizes = [content.count(k) for k in sorted(set(content) - {0}, reverse=True)]
    return sum(1 for _ in choices(range(len(content)), sizes))


def _word_count(counts) -> int:
    # the number of words with these letter counts, a product of binomials
    total, words = 0, 1
    for k in counts:
        if k:
            total += k
            words *= comb(total, k)
    return words


class _LiePowerSpan:
    """The span of the left-normed brackets of all n**r words over the field,
    as one _Rows block per sorted letter content.

    Every term of a bracket has the content of its word, the counts of its
    letters, so the span is the direct sum of one block per content and its
    rank is the sum of theirs.  Renaming the letters maps words to words and
    brackets to brackets, so a content has the rank of its sorted content,
    its counts put in non-increasing order.  So rank() is the sum, over the
    sorted contents, of a block's rank times its orbit, the number of
    distinct rearrangements of its counts, which rank() lists rather than
    computes.

    blocks maps each sorted content, as its n counts, to its _Rows block,
    built when first read, whose rows _bracket_rows makes with runs of one
    letter: the brackets of the content's words with w[0] < w[1] (every word
    when r = 1; see the module docstring), in lexicographic order, with a
    term's column the rank of its word among the content's words.  The
    counts and widths that size the blocks are products of binomials, which
    the rank never reads.
    """

    def __init__(self, n: int, r: int, field: int | None):
        self.field = _checked_field(field)
        self.n, self.r = n, r
        # lower bounds on three of work()'s terms: the walk of the one word
        # 0...0, the fold of the row 0 1 0...0, and the orbits of the C(n, r)
        # contents of r distinct letters, n * C(n, r) >= n * (n/r)**r
        floor = 4 + r.bit_length()
        if n >= 2 and r >= 2:
            floor = max(floor, r)
        if n >= r:
            floor = max(floor, n.bit_length() - 1 + r * ((n // r).bit_length() - 1))
        self.floor_bits = floor
        self.shape = f"2^{floor}"

    @cached_property
    def blocks(self) -> dict[tuple[int, ...], _Rows]:
        n, r = self.n, self.r
        blocks = {}
        for content in _sorted_contents(n, r, r):
            width = _word_count(content)
            # by the swap, half the words whose first two letters differ are rows
            same = sum(_word_count(content[:a] + (k - 2,) + content[a + 1 :]) for a, k in enumerate(content) if k >= 2)
            count = width if r == 1 else (width - same) // 2
            blocks[content] = _Rows(partial(_bracket_rows, content, 1), count, width, self.field)
        return blocks

    def work(self) -> int:
        """The charge, built from blocks: each block's own work(); the folds of
        its count rows, a row mapping at most 2**t terms at its letter t,
        2**r - 1 in all, and merging at most 2**(r-1) of them, so
        3 * 2**(r-1) steps; and the tables over its width words, the numerals
        and r - 1 prepend maps, 32*r a word, as charge_word_enumeration
        prices a letter.  rank() lists the orbits of the blocks with a pivot,
        n counts an arrangement: at most the C(n+r-1, r) contents, less the n
        of one letter repeated when r >= 2, which make no row."""
        n, r = self.n, self.r
        work = n * (comb(n + r - 1, r) - (n if r > 1 else 0))
        for rows in self.blocks.values():
            work += rows.work() + (3 * rows.count << (r - 1)) + 32 * r * rows.width
        return work

    def rank(self) -> int:
        """The rank of the span: each block's rank times its orbit."""
        rank = 0
        for content, rows in self.blocks.items():
            block_rank = len(rows.pivots())
            if block_rank:
                rank += block_rank * _orbit(content)
        return rank


def rank_over_field(vectors, field: int | None = None) -> int:
    """Exact rank of the span of the given list of sparse vectors.

    A vector's keys are index tuples, all of one tensor degree.  field None
    means the rationals; a prime p means F_p.  The keys of the nonzero
    entries, sorted lexicographically, number the columns, and the vectors
    are the rows of a _Rows span, eliminated in the given order, one at a
    time, so each pivot is a row's first nonzero key in sorted order.  The
    vectors are not modified.  The four span oracles make no such list: they
    stream their rows.  It stays as the list-input entry to the kernels,
    which the tests use, and perfbench/layers.py patches it by name.
    """
    # explicit zero entries are skipped throughout; the kernels assume stored = nonzero
    keys = {idx for vec in vectors for idx, c in vec.items() if c}
    degrees = {len(idx) for idx in keys}
    if len(degrees) > 1:
        raise ValueError(f"mixed tensor degrees in rank input: {sorted(degrees)}")
    column = {idx: j for j, idx in enumerate(sorted(keys))}.get
    rows = _Rows(
        lambda: (((), (), zip(map(column, vec), vec.values())) for vec in vectors), len(vectors), len(keys), field
    )
    return len(rows.pivots())


def _rank_gf2(rows, top: int) -> dict[int, int]:
    # Rows are bitmasks of top bits from _bitmasker, column c at bit top - 1 - c,
    # so the highest set bit is the leading entry and its column is
    # top - x.bit_length().  A step clears the row's top bit, so the row
    # shrinks as it is reduced.
    pivots: dict[int, int] = {}
    for x in rows:
        while x:
            lead = top - x.bit_length()
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = x
                break
            x ^= piv
    return pivots


def _rank_planes(rows, top: int, wrap: bool) -> dict[int, tuple[int, int, int]] | None:
    # A row is (plus, minus) from _Rows.planes, bitmasks of top bits, so the
    # highest bit of its support x = plus | minus leads, at column
    # top - x.bit_length(), and the row leads with +1 when plus reaches as
    # high as x; a row None is an entry outside {-1, 0, 1}, and the kernel
    # gives up.  Negation swaps the planes, and pivots are stored with their
    # planes swapped where needed so that each leads with +1, and with their
    # support y.  Then a row leading with +1 adds the negated pivot and a row
    # leading with -1 adds the pivot.  With wrap the sum over F_3 of (a1, a2)
    # and (b1, b2) is ((a2|b2) ^ t, (a1|b1) ^ t) with t = (a1|b2) ^ (a2|b1), as
    # checking the nine residue pairs shows.  Without it the sum is over the
    # integers, and t = x & y are the columns both hold.  Where they hold
    # opposite signs the sum is 0, so it is (a1 ^ b1 ^ t, a2 ^ b2 ^ t) with
    # support x ^ y.  Where they hold the same sign it is +-2, and that column
    # lands in both planes: the kernel gives up and returns None.  Until then
    # every lead is +-1, so this is _rank_rational's elimination exactly.
    pivots: dict[int, tuple[int, int, int]] = {}
    for row in rows:
        if row is None:
            return None
        a1, a2 = row
        x = a1 | a2
        while x:
            size = x.bit_length()
            lead = top - size
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = (a1, a2, x) if a1.bit_length() == size else (a2, a1, x)
                break
            if a1.bit_length() == size:
                b2, b1, y = piv
            else:
                b1, b2, y = piv
            if wrap:
                t = (a1 | b2) ^ (a2 | b1)
                a1, a2 = (a2 | b2) ^ t, (a1 | b1) ^ t
                x = a1 | a2
            else:
                t = x & y
                a1, a2 = a1 ^ b1 ^ t, a2 ^ b2 ^ t
                if a1 & a2:
                    return None
                x ^= y
    return pivots


def _rank_prime(rows, p: int) -> dict[int, dict[int, int]]:
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: (v * inv) % p for c, v in row.items()}
                break
            f = p - row[lead]  # pivot rows are normalized to leading coefficient 1
            get = row.get
            for c, v in piv.items():
                nv = (get(c, 0) + f * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        # an emptied row is dependent; move on
    return pivots


def _gcd_normalize(row: dict[int, int]) -> dict[int, int]:
    # row is nonempty and stores no zero, so g ends > 1 unless it returns early
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()}


def _rank_rational(rows) -> dict[int, dict[int, int]]:
    """Rank over the rationals of integer rows, without ever making a Fraction.

    Pivot rows are gcd-compressed with a positive lead a.  A row with lead b
    takes one update: when a does not divide b (never when a == 1, the usual
    case for bracket expansions) the row is first scaled in place by
    a / gcd(a, b), and then it loses (b // a) * pivot by exact division, so
    that it becomes (a/g) * row - (b/g) * pivot.  Every 8th scaling of a row
    first gcd-compresses it, so that entries do not snowball.  Rows are
    modified, so callers pass rows they own.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        scalings = 0
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                row = _gcd_normalize(row)
                if row[lead] < 0:
                    row = {c: -v for c, v in row.items()}
                pivots[lead] = row
                break
            a = piv[lead]
            b = row[lead]
            if b % a:
                scalings += 1
                if scalings % 8 == 0:
                    row = _gcd_normalize(row)  # keep entries from snowballing
                    b = row[lead]
                s = a // gcd(a, b)
                for c, v in row.items():
                    row[c] = v * s
                b *= s
            f = b // a
            get = row.get
            for c, v in piv.items():
                nv = get(c, 0) - f * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]  # f * v != 0, so a zero means c was stored
    return pivots


# ---------------------------------------------------------------------------
# span oracles


def lie_power_span(n: int, r: int, field: int | None = None, budget: int | None = None) -> _LiePowerSpan:
    """The span of the left-normed expansions of all n**r words over the
    field, block by letter content (see _LiePowerSpan), charged before any
    walk.

    Its rank is the dimension of the degree-r Lie power of an n-dimensional
    space, measured directly in coordinates; the answer is field-independent.
    """
    if n < 1 or r < 1:
        raise ValueError("Lie power word enumeration needs n >= 1 and r >= 1")
    return charge_span("Lie power span expansion", _LiePowerSpan(n, r, field), budget)


def lyndon_bracketing_span(n: int, r: int, field: int | None = None, budget: int | None = None) -> _Rows:
    """The span of the standard bracketings of the length-r Lyndon words over
    the field, charged after the walk over the n**r words that makes it:
    count_lyndon_words(n, r) rows over lie_power_span's n**r columns, a
    strictly smaller spanning set whose rank must come out the same."""
    _checked_field(field)  # before the walk is charged; the rows check it again
    charge_word_enumeration(n, r, budget)
    count = count_lyndon_words(n, r)
    rows = _Rows(
        lambda: (((), (), _standard_columns(w, n).items()) for w in iter_lyndon_words(n, r)), count, n**r, field
    )
    return charge_span("Lyndon bracketing span", rows, budget)


def lie_module_span(r: int, field: int | None = None, budget: int | None = None) -> _Rows:
    """The span of the r! multilinear left-normed brackets over the field, charged.

    The brackets [e_{pi(1)}, ..., e_{pi(r)}] over all permutations pi span the
    multilinear component; its rank equals (r-1)! over every field.  It is
    the block of the content (1^r) of the Lie power at n = r, and its rows
    are made the same way: _bracket_rows over the letters 0..r-1, the r!/2
    permutations with pi(1) < pi(2) when r >= 2, streamed one at a time.  The
    charge, planes * (r!/2) * r!, admits r <= 6 at the default budget, and
    r = 7 and, over F_2 only, r = 8 at the --slow budget.
    """
    if r < 1:
        raise ValueError("lie_module_span() needs r >= 1")
    return charge_span("multilinear bracket span", _MultilinearRows(1, r, field), budget)


def weight_space_span(q: int, k: int, field: int | None = None, budget: int | None = None) -> _Rows:
    """The span of the multilinear weight space of the degree-k Lie power of a
    q-fold tensor power, over the field, charged.

    Spanning vectors: for every permutation of the q*k symbols, cut it into k
    consecutive blocks of length q, treat each block as one composite letter,
    and expand the left-normed bracket of the k blocks; _bracket_rows over
    the letters 0..q*k-1 in runs of q streams those whose first block is
    below the second when k >= 2, since swapping the two negates the
    bracket.  The rank equals (q*k)! / k.  The charge for k >= 2 is
    planes * ((q*k)!/2) * (q*k)!, ((q*k)!)**2 over every field but F_2, so
    q*k <= 6 fits the default budget.
    """
    if q < 1 or k < 1:
        raise ValueError("weight_space_span() needs q >= 1 and k >= 1")
    return charge_span("weight space span", _MultilinearRows(q, k, field), budget)

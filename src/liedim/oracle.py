"""Brute-force ground truth for Lie power and Lie module dimensions.

Everything here works in explicit tensor coordinates.  A vector maps index
tuples (one letter per tensor factor) to nonzero integer coefficients.  One
bracket product, _bracket_columns, makes [u, v] = u (x) v - v (x) u with
each index tuple read as its column number, its position in lexicographic
order.  The four span oracles (left-normed words, standard bracketings of
Lyndon words, multilinear and block brackets) stream their rows one at a
time, each as (column, value) entries, into a span, a _Rows source that
carries its field.  Its one elimination, _Rows.pivots(), turns each row
into the form its field's kernel takes, runs a deterministic sparse
Gaussian elimination, exact over Q or F_p, and returns the kernel's pivots:
by the triangularity of the standard bracketing, the lead columns are the
Lyndon words.  The bracket oracles make one row of each +- pair: since
[a, b] = -[b, a], the rows whose first letter (block) is below the second
span everything.

The point of this module is independence: nothing below knows about the
closed-form counts or recurrences elsewhere in the package, so agreement
between the two is meaningful evidence.  Enumeration sizes are guarded by
the work budget of budget.py.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import permutations, product
from math import factorial, gcd
from operator import itemgetter

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
    letters, the Lie power walk three (product's pools and indices, the
    word).  The aperiodic walk holds none: its one word is the numeral 0 and
    its periods' numerals of ones are the primes q dividing r.  Each is
    charged 32*r bytes, four such arrays, which bounds them all."""
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


def charge_span(task: str, rows: _Rows, budget: int | None = None) -> _Rows:
    """Refuse the elimination of a span (see _Rows) when one pass is over the
    budget, else return the span.  The charge is planes * count * width, the
    bits of the dense rows a pass streams: one plane over F_2, two over any
    other field, so a kernel's count pivots take a small multiple of charge/8
    bytes."""
    planes = 1 if rows.field == 2 else 2
    shape = rows.shape if planes == 1 else f"2*{rows.shape}"
    _charge(budget, task, rows.floor_bits, shape, lambda: planes * rows.count * rows.width)
    return rows


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
    """All Lyndon words of length r over the alphabet 0..n-1, lexicographically."""
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
    letters 0..255 (any other letter raises ValueError).  This is the fold
    lie_power_span's rows come from, _left_normed_columns over 256 letters.
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


def _bitmask(columns, width: int) -> int:
    # The int with bit c set for each column c < width.  The bits are set in
    # a bytearray and read once, so no entry costs a big-int operation.
    bits = bytearray((width + 7) >> 3)
    for c in columns:
        bits[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(bits, "little")


def _checked_field(field: int | None) -> int | None:
    if field is not None and not is_prime(field):
        raise ValueError(f"field must be None (rationals) or a prime, got {field}")
    return field


class _Rows:
    """A span: a re-iterable source of rows and the field they span over.

    Each call of entries() starts a pass over the rows, in a fixed order, and
    yields each row as (column, integer) pairs, no column twice.  The columns
    are numbered 0..width-1 in the lexicographic order of the tensor indices
    they stand for.  A zero entry is skipped and may have no column.  Each
    adapter below starts a pass and yields one kernel's rows one at a time, so
    no pass makes a list of rows, and a kernel holds only its pivots and the
    row at hand.  Every source, a subclass too, reaches the kernels through
    these adapters and pivots(), and states only entries().  Its field,
    None (the rationals) or a prime p (F_p), is checked when it is built.

    A source states its size, count rows of width columns a pass, for
    charge_span, with floor_bits <= log2(count * width) and shape, the product
    as text, so that a huge source is refused before either number is built.
    """

    floor_bits = 0

    def __init__(self, entries, count: int, width: int, field: int | None):
        self.field = _checked_field(field)
        self.entries = entries
        self.count = count
        self.width = width
        self.shape = f"{count}*{width}"

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
            return _rank_gf2(self.masks())
        if field not in (None, 3):
            return _rank_prime(self.residues(field), field)
        pivots = _rank_planes(self.planes(field == 3), field == 3)
        return _rank_rational(self.integers()) if pivots is None else pivots

    def masks(self):
        """F_2 rows: the bitmask of the odd entries' columns."""
        width = self.width
        for row in self.entries():
            yield _bitmask([c for c, v in row if v & 1], width)

    def planes(self, wrap: bool):
        """Signed rows (plus, minus): the bitmasks of the columns holding +1 and
        holding -1.  With wrap (F_3) an entry is taken mod 3, where 2 stands for
        -1; without it (the rationals) the entry itself, and a row with an entry
        outside {-1, 0, 1} comes as None and ends the pass."""
        width = self.width
        minus_one = 2 if wrap else -1
        for row in self.entries():
            plus, minus = [], []
            for c, v in row:
                if wrap:
                    v %= 3
                if v == 1:
                    plus.append(c)
                elif v == minus_one:
                    minus.append(c)
                elif v:
                    yield None
                    return
            yield _bitmask(plus, width), _bitmask(minus, width)

    def integers(self):
        """Rows as fresh dicts of nonzero integers, which the kernel may modify."""
        for row in self.entries():
            yield {c: v for c, v in row if v}

    def residues(self, p: int):
        """Rows as fresh dicts of nonzero residues mod p."""
        for row in self.entries():
            yield {c: m for c, v in row if (m := v % p)}


class _BlockBracketRows(_Rows):
    """The rows of the brackets [B_1, ..., B_k] of k blocks of q letters, where
    the q*k letters run through every permutation of 0..q*k-1 in
    permutations() order and B_j is the permutation's j-th run of q letters.
    A row's columns are the positions of its terms' index tuples among the
    permutations, which permutations() yields in lexicographic order.
    When k >= 2 only the permutations with B_1 < B_2 are rows, half of them:
    swapping B_1 and B_2 negates the bracket, so the other half adds nothing
    to the span.  At r = 7 that is 2,520 rows over 5,040 columns.

    Each pass, each call of entries(), makes the column tables of the terms
    of one bracket, those of the blocks 0..q-1, q..2q-1, ... in order, and
    reads each row off them as (column, sign) entries; these reach every
    kernel through _Rows' adapters, as the other sources' rows do.  A
    term's table holds its column in the bracket of every kept permutation
    pi, in order, so the first table lists the kept rows' own columns; the
    bracket of pi renames each letter i as pi[i], so its term with index
    tuple P (itself a permutation) has index tuple pi o P.  The fold
    v -> v (x) B - B (x) v builds each term from a shorter one by appending
    or prepending a block.  Write a word as a permutation P by padding it
    with the letters still to come, in order.  Appending the next block then
    leaves P as it is, and so the table too.  Prepending the block of letters
    s..s+q-1 to a word of s letters gives P o c, for the fixed cycle c of
    positions (s..s+q-1, 0..s-1, s+q..); pi o P o c = pi' o c for the pi' at
    the parent's table entry, so the new table is c's own table read at the
    parent's entries, one list composition.  The letters are distinct, so no
    two terms meet, and every coefficient is +-1: + for the terms made with
    an even number of prepends.  The width (q*k)! is made only when read.
    """

    def __init__(self, q: int, k: int, field: int | None):
        self.field = _checked_field(field)
        self.q, self.k = q, k
        r = q * k
        self.floor_bits = 2 * r - 3  # r! >= 2**(r-1), and count >= r!/2
        self.shape = f"{r}!*{r}!" if k == 1 else f"({r}!/2)*{r}!"

    width = property(lambda self: factorial(self.q * self.k))
    count = property(lambda self: self.width // (2 if self.k > 1 else 1))

    def entries(self):
        # the tables live as long as the returned iterator
        q, r = self.q, self.q * self.k
        perms = list(permutations(range(r)))
        column = {perm: i for i, perm in enumerate(perms)}
        kept = [i for i, perm in enumerate(perms) if self.k == 1 or perm[:q] < perm[q : 2 * q]]
        terms = [(kept, 1)]
        for s in range(q, r, q):
            cycle = (*range(s, s + q), *range(s), *range(s + q, r))
            at = [column[perm] for perm in map(itemgetter(*cycle), perms)].__getitem__
            terms += [(list(map(at, table)), -sign) for table, sign in terms]
        signs = [sign for _, sign in terms]
        return (zip(cols, signs) for cols in zip(*(table for table, _ in terms)))


def rank_over_field(vectors, field: int | None = None) -> int:
    """Exact rank of the span of the given list of sparse vectors.

    A vector's keys are index tuples, all of one tensor degree.  field None
    means the rationals; a prime p means F_p.  The keys of the nonzero
    entries, sorted lexicographically, number the columns, and the vectors
    are the rows of a _Rows span, eliminated in the given order, one at a
    time, so each pivot is a row's first nonzero key in sorted order.  The
    vectors are not modified.  The four span oracles make no such list: they
    stream their rows.
    """
    # explicit zero entries are skipped throughout; the kernels assume stored = nonzero
    keys = {idx for vec in vectors for idx, c in vec.items() if c}
    degrees = {len(idx) for idx in keys}
    if len(degrees) > 1:
        raise ValueError(f"mixed tensor degrees in rank input: {sorted(degrees)}")
    column = {idx: j for j, idx in enumerate(sorted(keys))}.get
    rows = _Rows(lambda: (zip(map(column, vec), vec.values()) for vec in vectors), len(vectors), len(keys), field)
    return len(rows.pivots())


def _rank_gf2(rows) -> dict[int, int]:
    # Rows are bitmasks; bit i is the i-th column in lexicographic order, so
    # the lowest set bit is the leading entry.
    pivots: dict[int, int] = {}
    for x in rows:
        while x:
            lead = (x & -x).bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = x
                break
            x ^= piv
    return pivots


def _rank_planes(rows, wrap: bool) -> dict[int, tuple[int, int, int]] | None:
    # A row is (plus, minus) from _Rows.planes, so the lowest bit of its
    # support x = plus | minus leads; a row None is an entry outside
    # {-1, 0, 1}, and the kernel gives up.  Negation swaps the planes, and
    # pivots are stored with their planes swapped where needed so that each
    # leads with +1, and with their support y.  Then a row leading with +1
    # adds the negated pivot and a row leading with -1 adds the pivot.  With
    # wrap the sum over F_3 of (a1, a2) and (b1, b2) is
    # ((a2|b2) ^ t, (a1|b1) ^ t) with t = (a1|b2) ^ (a2|b1), as checking the
    # nine residue pairs shows.  Without it the sum is over the integers, and
    # t = x & y are the columns both hold.  Where they hold opposite signs the
    # sum is 0, so it is (a1 ^ b1 ^ t, a2 ^ b2 ^ t) with support x ^ y.  Where
    # they hold the same sign it is +-2, and that column lands in both planes:
    # the kernel gives up and returns None.  Until then every lead is +-1, so
    # this is _rank_rational's elimination exactly.
    pivots: dict[int, tuple[int, int, int]] = {}
    for row in rows:
        if row is None:
            return None
        a1, a2 = row
        x = a1 | a2
        while x:
            low = x & -x
            lead = low.bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = (a1, a2, x) if a1 & low else (a2, a1, x)
                break
            if a1 & low:
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


def lie_power_span(n: int, r: int, field: int | None = None, budget: int | None = None) -> _Rows:
    """The span of the left-normed expansions of all n**r words over the field,
    charged after the walk over the words that makes it.

    Its rank is the dimension of the degree-r Lie power of an n-dimensional
    space, measured directly in coordinates; the answer is field-independent.
    Only the words with w[0] < w[1] (all words when r = 1) are expanded: the
    bracket of a word with w[0] > w[1] is minus that of the word with the two
    swapped, and with w[0] == w[1] it is 0.  That leaves n**(r-2) * n*(n-1)/2
    rows, each streamed to the kernel as it is made.  The columns are the
    n**r words in product() order, so a word's column is the word read as a
    base-n numeral.
    """
    _checked_field(field)  # before the walk is charged; the rows check it again
    charge_word_enumeration(n, r, budget, "Lie power word enumeration")

    def expansions():
        words = product(range(n), repeat=r)
        return (_left_normed_columns(w, n).items() for w in words if r == 1 or w[0] < w[1])

    rows = _Rows(expansions, n if r == 1 else n ** (r - 2) * (n * (n - 1) // 2), n**r, field)
    return charge_span("Lie power span expansion", rows, budget)


def lyndon_bracketing_span(n: int, r: int, field: int | None = None, budget: int | None = None) -> _Rows:
    """The span of the standard bracketings of the length-r Lyndon words over
    the field, charged after the walk over the n**r words that makes it:
    count_lyndon_words(n, r) rows over lie_power_span's n**r columns, a
    strictly smaller spanning set whose rank must come out the same."""
    _checked_field(field)  # before the walk is charged; the rows check it again
    charge_word_enumeration(n, r, budget)
    count = count_lyndon_words(n, r)
    rows = _Rows(lambda: (_standard_columns(w, n).items() for w in iter_lyndon_words(n, r)), count, n**r, field)
    return charge_span("Lyndon bracketing span", rows, budget)


def lie_module_span(r: int, field: int | None = None, budget: int | None = None) -> _Rows:
    """The span of the r! multilinear left-normed brackets over the field, charged.

    The brackets [e_{pi(1)}, ..., e_{pi(r)}] over all permutations pi span the
    multilinear component; its rank equals (r-1)! over every field.  Their
    rows are those of _BlockBracketRows with blocks of one letter: the r!/2
    permutations with pi(1) < pi(2) when r >= 2, streamed one at a time.  The
    charge, planes * (r!/2) * r!, admits r <= 6 at the default budget, and
    r = 7 and, over F_2 only, r = 8 at the --slow budget.
    """
    if r < 1:
        raise ValueError("lie_module_span() needs r >= 1")
    return charge_span("multilinear bracket span", _BlockBracketRows(1, r, field), budget)


def weight_space_span(q: int, k: int, field: int | None = None, budget: int | None = None) -> _Rows:
    """The span of the multilinear weight space of the degree-k Lie power of a
    q-fold tensor power, over the field, charged.

    Spanning vectors: for every permutation of the q*k symbols, cut it into k
    consecutive blocks of length q, treat each block as one composite letter,
    and expand the left-normed bracket of the k blocks; _BlockBracketRows
    streams those whose first block is below the second when k >= 2, since
    swapping the two negates the bracket.  The rank equals (q*k)! / k.  The
    charge for k >= 2 is planes * ((q*k)!/2) * (q*k)!, ((q*k)!)**2 over every
    field but F_2, so q*k <= 6 fits the default budget.
    """
    if q < 1 or k < 1:
        raise ValueError("weight_space_span() needs q >= 1 and k >= 1")
    return charge_span("weight space span", _BlockBracketRows(q, k, field), budget)

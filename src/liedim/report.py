"""Convergence tables and their CSV / JSON renderings.

The row schema, shared by the b and c tables, is the ConvergenceRow
dataclass: its fields are the columns, in CSV order.  A row holds the degree
and its p-adic split, the summand dimension, the reference dimension it is
measured against (w(n, r) for Lie powers, (r-1)! for Lie modules), the exact
ratio as a normalized fraction, and decimal renderings of the ratio, the
explicit lower bound and the gap 1 - ratio.  Big integers are emitted as
strings in JSON so consumers without arbitrary precision stay safe; CSV uses
LF line endings, and all number formatting is locale-independent, so both
formats are byte-identical across runs.

A table whose integers reach FAST_STR_MIN_BITS forks a worker twice
(_two_lanes): in _build_rows, once its output is charged, so no refusal
follows a fork, and in to_csv or to_json, to print the integers.

Bound column conventions: at m = 0 the ratio is exactly 1 and the bound
column renders the trivial bound 1; on the degenerate chain k = 1 (ratio 0,
no bound is defined) the bound column is empty.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial

from .arith import _check_chain, is_prime
from .budget import charge_divisor_walk, charge_output
from .lie_modules import LieModuleContext, dim_lie_bits_lower
from .lie_powers import LiePowerContext, RatioBoundB
from .render import DEFAULT_FLOAT_BITS, FAST_STR_MIN_BITS, MAX_FLOAT_BITS, int_to_str, render_fraction, str_to_int
from .witt import witt_dim_bits_lower
from .worker import _in_worker


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one table run."""

    p: int
    k_list: tuple[int, ...]
    m_max: int
    n: int | None = None
    float_bits: int = DEFAULT_FLOAT_BITS

    def __post_init__(self):
        if self.p > 1:
            charge_divisor_walk("primality check of p", self.p)
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not self.k_list:
            raise ValueError("at least one k is required")
        if len(set(self.k_list)) != len(self.k_list):
            raise ValueError(f"duplicate k values: {self.k_list}")
        for k in self.k_list:
            _check_chain(self.p, 0, k, k_min=1)
        if self.m_max < 0:
            raise ValueError(f"m_max must be >= 0, got {self.m_max}")
        if self.n is not None and self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.float_bits < 1:
            raise ValueError(f"float_bits must be >= 1, got {self.float_bits}")
        if self.float_bits > MAX_FLOAT_BITS:
            raise ValueError(f"float_bits must be <= {MAX_FLOAT_BITS}, got {self.float_bits}")


@dataclass(frozen=True)
class ConvergenceRow:
    """One fully rendered table row; its fields are the columns, in CSV order."""

    r: int
    p: int
    m: int
    k: int
    dim_num: int
    dim_den_context: int
    ratio_num: int
    ratio_den: int
    ratio_float: str
    bound_float: str
    gap_float: str

    @property
    def ratio(self) -> Fraction:
        """The exact ratio dim_num / dim_den_context, in lowest terms."""
        return Fraction(self.ratio_num, self.ratio_den)


CSV_COLUMNS = tuple(f.name for f in fields(ConvergenceRow))
# the columns printed as decimal text; JSON carries them as strings
_INT_TEXT_COLUMNS = ("dim_num", "dim_den_context", "ratio_num", "ratio_den")


def _points(cfg: RunConfig, m_max: int) -> list[tuple[int, int, int]]:
    return sorted((cfg.p**m * k, m, k) for k in cfg.k_list for m in range(m_max + 1))


# A b row also reduces Fraction(dim, w(n, r)), a gcd quadratic in the row's
# bits that a c row, whose ratio has a small denominator, does not run.  In
# fresh processes (2 shared vCPUs, Python 3.11) `b-table --p 2 --n 2 --k 3
# --m-max 18` took 8-9 times the time per unit of `c-table --p 2 --k 3
# --m-max 15`, which prints as many bytes.
B_ROW_PRICE = 8
# Every row also prints its integers as decimal text, and above 2^15 bits
# int_to_str's divide and conquer is far from quadratic: per b^2 an integer of
# 2^15 bits converts 9 times slower than one of 2^20 bits.  So a row is charged
# TEXT_PRICE * b on top of its b^2 terms, twice b^2 at 2^17 bits and a
# quarter at 2^20.  `c-table --p 2 --k 3 --k 5 ... --k 1001 --m-max 3` (2,000
# rows of up to 92,000 bits) has b^2 terms of only 3.2 * 10^6 units but takes
# 4.5-5.5 s in a fresh process (2 shared vCPUs, Python 3.11); with the text
# price it is refused, and the largest such table admitted runs in under 2 s.
TEXT_PRICE = 1 << 18
# A decimal at float_bits = f costs about DECIMAL_PRICE * f * (f + 4096): its
# rounding divides f-bit integers, and its power of ten and text are nearly
# linear in f.  A row whose ratio is 0 or 1 (m = 0 or k = 1) renders only 0s
# and 1s, about one decimal's work in all; any other row renders three.
DECIMAL_PRICE = 8


def _two_lanes(fn: Callable, items: list, bits: list[int]) -> list:
    """[fn(x) for x in items]; once some bits reach FAST_STR_MIN_BITS (below, a
    fork costs more than it saves), in two lanes: largest first, each item joins
    the one with the smaller sum of bits**2, lane 0 a forked worker's."""
    if max(bits, default=0) < FAST_STR_MIN_BITS:
        return [fn(x) for x in items]
    lanes, loads = ([], []), [0, 0]
    for i in sorted(range(len(items)), key=bits.__getitem__, reverse=True):
        lane = int(loads[1] < loads[0])
        lanes[lane].append(i)
        loads[lane] += bits[i] ** 2
    with _in_worker(lambda: [fn(items[i]) for i in lanes[0]], "the table's worker") as first:
        second = [fn(items[i]) for i in lanes[1]]
    done = dict(zip(lanes[0] + lanes[1], first + second))
    return [done[i] for i in range(len(items))]


def _build_rows(
    cfg: RunConfig, task: str, price: int, bits_lower: Callable, report: Callable, render_bound: Callable
) -> list[ConvergenceRow]:
    """Rows for every point of cfg, ordered by degree; shared by the b and c tables.

    The output is charged first: price times the square of bits_lower(r), a
    sound floor on the bits of row r's largest integer, plus TEXT_PRICE times
    it, plus the decimal columns; that sum stops at m = 64, which can only
    lower it.  Only then are the rows built, by _two_lanes weighted by
    bits_lower(r), so no refusal follows a fork.  report(r) is the context's
    per-degree RatioReport and render_bound(bound, bits) the decimal bound
    column.
    """
    bits = cfg.float_bits
    decimal = DECIMAL_PRICE * bits * (bits + 4096)
    row_bits = ((bits_lower(r), m, k) for r, m, k in _points(cfg, min(cfg.m_max, 64)))
    charge_output(task, ((price * b + TEXT_PRICE) * b + (3 if m and k > 1 else 1) * decimal for b, m, k in row_bits))

    def row(point: tuple[int, int, int]) -> ConvergenceRow:
        r, m, k = point
        rep = report(r)
        if rep.bound is not None:
            bound_float = render_bound(rep.bound, bits)
        elif m == 0:
            bound_float = render_fraction(Fraction(1), bits)
        else:
            bound_float = ""
        return ConvergenceRow(
            r=r,
            p=cfg.p,
            m=m,
            k=k,
            dim_num=rep.dim,
            dim_den_context=rep.reference,
            ratio_num=rep.ratio.numerator,
            ratio_den=rep.ratio.denominator,
            ratio_float=render_fraction(rep.ratio, bits),
            bound_float=bound_float,
            gap_float=render_fraction(1 - rep.ratio, bits),
        )

    points = _points(cfg, cfg.m_max)
    return _two_lanes(row, points, [bits_lower(r) for r, _, _ in points])


def build_b_rows(cfg: RunConfig) -> list[ConvergenceRow]:
    """Rows of the b-ratio table for one (p, n), ordered by degree."""
    if cfg.n is None:
        raise ValueError("the b table needs n")
    report = LiePowerContext(cfg.p, cfg.n).report
    bits_lower = partial(witt_dim_bits_lower, cfg.n)
    return _build_rows(cfg, "b table output", B_ROW_PRICE, bits_lower, report, RatioBoundB.float_str)


def build_c_rows(cfg: RunConfig) -> list[ConvergenceRow]:
    """Rows of the c-ratio table for one p, ordered by degree."""
    report = LieModuleContext(cfg.p).report
    return _build_rows(cfg, "c table output", 1, dim_lie_bits_lower, report, render_fraction)


def _records(rows: list[ConvergenceRow]) -> list[dict]:
    """Each row keyed by CSV_COLUMNS, in that order; big integers as decimal
    strings, each its own _two_lanes item, so the two largest can take both lanes."""
    ints = [getattr(row, c) for row in rows for c in CSV_COLUMNS if c in _INT_TEXT_COLUMNS]
    text = iter(_two_lanes(int_to_str, ints, [x.bit_length() for x in ints]))
    return [{c: next(text) if c in _INT_TEXT_COLUMNS else getattr(row, c) for c in CSV_COLUMNS} for row in rows]


def to_csv(rows: list[ConvergenceRow]) -> str:
    """Fixed-column CSV with LF endings and a trailing newline."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(map(str, record.values())) for record in _records(rows)]
    return "\n".join(lines) + "\n"


def to_json(rows: list[ConvergenceRow]) -> str:
    """JSON array of row objects; big integers are encoded as strings."""
    return json.dumps(_records(rows), indent=2) + "\n"


def rows_from_json(text: str) -> list[ConvergenceRow]:
    """Inverse of to_json; the big integers are parsed back from their strings."""
    return [
        ConvergenceRow(**{c: str_to_int(obj[c]) if c in _INT_TEXT_COLUMNS else obj[c] for c in CSV_COLUMNS})
        for obj in json.loads(text)
    ]

"""The work budget, liedim's one size gate: a job is charged its estimated work
before it starts and refused over the budget (the default, or LIEDIM_BUDGET)."""

from __future__ import annotations

import os
from math import isqrt

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "LIEDIM_BUDGET"


class WorkBudgetExceeded(RuntimeError):
    """Estimated work for a computation is over the active budget."""


def work_budget(budget: int | None = None, slow: bool = False) -> int:
    """Resolve the active budget: explicit argument, else environment, else
    100 times the default for slow runs, else the default."""
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is None:
        return 100 * DEFAULT_BUDGET if slow else DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a non-negative integer, got {env!r}")
    return value


def _charge(budget: int | None, task: str, floor_bits: int, symbolic: str, work) -> None:
    """Refuse a computation whose work is over the budget.

    2**floor_bits is a cheap lower bound on the work.  When it alone exceeds
    the limit the request is refused without building the work number, which
    may be far too large to print, and the work is shown as `symbolic`.
    Otherwise work() builds the exact count, which is compared and printed.
    The oracle's floors: n**r >= 2**r for n >= 2, r >= 2**(r.bit_length() - 1)
    and r! >= 2**(r-1).
    """
    limit = work_budget(budget)
    shown = symbolic
    if floor_bits <= limit.bit_length():
        shown = work()
        if shown <= limit:
            return
    raise WorkBudgetExceeded(
        f"{task} needs about {shown} units of work, budget is {limit} "
        f"(raise it via the budget argument or {BUDGET_ENV_VAR})"
    )


def charge_output(task: str, row_squares) -> None:
    """Refuse, before any work, a run whose rows cost at least row_squares, each
    a weighted sum of squared bit counts: a row's gcd, divisions and decimal
    text are quadratic in the bits of its integers and its decimals."""
    units = sum(row_squares) >> 19
    _charge(None, task, units.bit_length() - 1, f"2^{units.bit_length() - 1}", lambda: units)


def charge_divisor_walk(task: str, r: int) -> None:
    """Refuse, before any work, a trial-division walk over the divisors of r >= 1,
    as in witt or a primality proof, which takes about isqrt(r) steps."""
    _charge(None, task, (r.bit_length() - 1) // 2, f"isqrt({r})", lambda: isqrt(r))

"""Exact dimensions, ratios and error bounds for modular Lie powers.

Public surface:

- ``witt_dim`` / ``aperiodic_word_count`` and the two-sided bound check;
- ``LiePowerContext`` for dim L^r(V) along chains r = p^m k, with
  coefficient bounds and the explicit lower bound for ratio_b;
- ``LieModuleContext`` for dim C(r) = ratio_c * (r-1)!, the factorial-form
  cross-check and the lower bound for ratio_c;
- the brute-force ``oracle`` (Lyndon words, bracket expansion, exact ranks
  over Q and F_p);
- ``report`` table builders plus CSV/JSON serialization;
- ``verify`` self-check suites, also reachable via the ``liedim`` CLI.
"""

from .arith import ExactnessError, p_adic_split
from .lie_modules import (
    LieModuleContext,
    dim_lie,
    lower_bound_c,
    weight_space_dim_formula,
)
from .lie_powers import LiePowerContext
from .witt import aperiodic_word_count, check_witt_bounds, witt_dim

__all__ = [
    "ExactnessError",
    "p_adic_split",
    "witt_dim",
    "aperiodic_word_count",
    "check_witt_bounds",
    "LiePowerContext",
    "LieModuleContext",
    "dim_lie",
    "lower_bound_c",
    "weight_space_dim_formula",
]

__version__ = "0.1.0"

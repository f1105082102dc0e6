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

Importing the package loads none of its modules, so ``import liedim.cli``
pays only for what the command line needs.  Each name of ``__all__`` is read
from its home module on every lookup (PEP 562), so no stale copy is kept.
"""

from importlib import import_module

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

# the module each name of __all__ lives in
_HOMES = {
    "ExactnessError": "arith", "p_adic_split": "arith",
    "witt_dim": "witt", "aperiodic_word_count": "witt", "check_witt_bounds": "witt",
    "LiePowerContext": "lie_powers",
    "LieModuleContext": "lie_modules", "dim_lie": "lie_modules", "lower_bound_c": "lie_modules",
    "weight_space_dim_formula": "lie_modules",
}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

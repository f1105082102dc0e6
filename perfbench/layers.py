"""Per-layer tracing: timing wrappers installed from outside on liedim's functions.

A wrapper records, for each call of a traced function, a span and the
counters named below.  A span's self time is its duration minus the time
covered by the traced spans it called directly.  Each wrapper is installed in
every liedim module namespace that binds the function (``witt_dim`` is bound
in ``witt``, ``lie_powers``, ``verify``, ``cli`` and the package itself), and
methods are patched on their class.  Arguments and results pass through
unchanged.  Spans are aggregated per name in memory, not stored one by one:
a certify pass makes about half a million calls.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


def _rank_span(args, kwargs) -> str:
    field = kwargs.get("field", args[1] if len(args) > 1 else None)
    return "oracle.rank_over_field." + {None: "q", 2: "f2"}.get(field, "fp")


def _witt_args(tracer, args, kwargs, result) -> None:
    tracer.witt_args.add((args, tuple(sorted(kwargs.items()))))


def _row_bits(tracer, args, kwargs, rows) -> None:
    for row in rows:
        bits = max(
            row.dim_num.bit_length(),
            row.dim_den_context.bit_length(),
            row.ratio.numerator.bit_length(),
            row.ratio.denominator.bit_length(),
        )
        tracer.counts["report.max_int_bits"] = max(tracer.counts["report.max_int_bits"], bits)


def _out_bytes(tracer, args, kwargs, text) -> None:
    tracer.counts["report.out_bytes"] += len(text.encode("utf-8"))


def _words(tracer, args, kwargs, words) -> None:
    tracer.counts["oracle.lyndon_words.words"] += len(words)


def _rank(tracer, args, kwargs, rank) -> None:
    vectors = args[0] if args else kwargs["vectors"]
    tracer.counts["oracle.rank_over_field.vectors"] += len(vectors)
    # stored entries: the oracle's expanders never store a zero coefficient
    tracer.counts["oracle.rank_over_field.nonzeros"] += sum(map(len, vectors))
    tracer.counts["oracle.rank_over_field.rank"] += rank


def _checks(tracer, args, kwargs, families) -> None:
    tracer.counts["verify.checks"] += sum(fam.checks for fam in families)


# "module.function" or "module.Class.method", with an optional observer of
# (tracer, args, kwargs, result) and an optional span-name function.
TARGETS = (
    ("arith.divisors", None, None),
    ("arith.mobius", None, None),
    ("arith.p_adic_split", None, None),
    ("witt.witt_dim", _witt_args, None),
    ("witt.check_witt_bounds", None, None),
    ("lie_powers.LiePowerContext.dim_b", None, None),
    ("lie_powers.LiePowerContext.report", None, None),
    ("lie_powers.LiePowerContext.coeff_a", None, None),
    ("lie_powers.LiePowerContext.lower_bound_b", None, None),
    ("lie_powers.LiePowerContext.check_dimension_identity", None, None),
    ("lie_modules.LieModuleContext.ratio_c", None, None),
    ("lie_modules.LieModuleContext.dim_c", None, None),
    ("lie_modules.LieModuleContext.check_c_recurrence_identity", None, None),
    ("lie_modules.dim_lie", None, None),
    ("lie_modules.coeff_a_prime", None, None),
    ("render.render_fraction", None, None),
    ("render.sqrt_dyadic", None, None),
    ("report.build_b_rows", _row_bits, None),
    ("report.build_c_rows", _row_bits, None),
    ("report.to_csv", _out_bytes, None),
    ("report.to_json", _out_bytes, None),
    ("oracle.lyndon_words", _words, None),
    ("oracle.aperiodic_count_bruteforce", None, None),
    ("oracle.left_normed_expand", None, None),
    ("oracle.expand_standard_bracketing", None, None),
    ("oracle.rank_over_field", _rank, _rank_span),
    ("verify.arith_suite", _checks, None),
    ("verify.witt_suite", _checks, None),
    ("verify.b_suite", _checks, None),
    ("verify.c_suite", _checks, None),
    ("verify.oracle_suite", _checks, None),
)

MODULES = ("arith", "witt", "lie_powers", "lie_modules", "render", "report", "oracle", "verify", "cli")


class Tracer:
    """Span and counter totals for one traced pass."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.witt_args: set = set()
        self._stack = [[0.0]]  # child time covered, per open span; [0] is the root

    def wrap(self, span, fn, observe, span_of):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            name = span_of(args, kwargs) if span_of else span
            covered = [0.0]
            stack.append(covered)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                stat = spans.setdefault(name, [0, 0.0])
                stat[0] += 1
                stat[1] += duration - covered[0]
            if observe:
                observe(self, args, kwargs, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counts)
        for name, (calls, self_s) in self.spans.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        out["witt.witt_dim.distinct_args"] = len(self.witt_args)
        vectors = self.counts["oracle.rank_over_field.vectors"]
        out["oracle.rank_over_field.useful_ratio"] = (
            self.counts["oracle.rank_over_field.rank"] / vectors if vectors else 0.0
        )
        return out


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Install the wrappers; returns the (namespace, name, original) list that uninstall() restores."""
    package = importlib.import_module("liedim")
    modules = {name: importlib.import_module("liedim." + name) for name in MODULES}
    namespaces = [package, *modules.values()]
    undo = []
    for target, observe, span_of in TARGETS:
        module_name, *path = target.split(".")
        span = f"{module_name}.{path[-1]}"
        owner = modules[module_name]
        if len(path) == 2:
            cls = getattr(owner, path[0])
            original = cls.__dict__[path[1]]
            undo.append((cls, path[1], original))
            setattr(cls, path[1], tracer.wrap(span, original, observe, span_of))
            continue
        original = getattr(owner, path[0])
        wrapper = tracer.wrap(span, original, observe, span_of)
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    undo.append((ns, name, original))
                    setattr(ns, name, wrapper)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for ns, name, original in reversed(undo):
        setattr(ns, name, original)

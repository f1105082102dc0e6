"""Command line front end.

Exit codes: 0 success, 1 a failed check, 2 usage or domain error.  The
commands call the library directly, and `main.main` is the one place that
turns an error into an exit code, printed as one `Error:` line and never as
a traceback:

- a malformed command line, a work-budget refusal or a ValueError exits 2: an
  unknown option, a bad prime, k divisible by p, a non-Lyndon word, a
  malformed LIEDIM_BUDGET, an oracle job or a witt or table output over the
  budget;
- an ExactnessError (an exact identity that failed) or a ChildProcessError (a
  worker died before its results came back: verify's, before its checks ran,
  or a table's, before its rows were built or printed) exits 1 like any
  failed check;
- a standard output closed before the output was written (a pipe into
  `head`) exits 2.

`main` is an argparse parser that can be called: the console script,
`python -m liedim.cli` and `main([...])` all run `main.main`, which also
takes click-style `args=`, `prog_name=` and `standalone_mode=` keywords.

Each command is a fresh process, so the top of this module imports only what
the parser and the failure boundary need (argparse, arith, budget, render,
oracle); a command imports the rest when it runs.  So verify.run_suites, not
the parser, refuses an unknown suite.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import oracle as oracle_mod
from .arith import ExactnessError, power_bits_lower
from .budget import WorkBudgetExceeded, charge_divisor_walk, charge_output, work_budget
from .render import DEFAULT_FLOAT_BITS, int_to_str

FIELD_CHOICES = {"q": None, "f2": 2, "f3": 3, "f5": 5}

MAX_FAILURES_SHOWN = 20


class _HelpFormatter(argparse.HelpFormatter):
    """Marks each option's help with [required] or its default."""

    def _format_action(self, action):
        notes = ["[required]"] if action.required and action.option_strings else []
        if action.default not in (None, False, argparse.SUPPRESS):
            notes.append("[default: %(default)s]")
        if notes:
            from copy import copy
            action = copy(action)
            action.help = " ".join(filter(None, [action.help, *notes]))
        return super()._format_action(action)


class _Parser(argparse.ArgumentParser):
    """The command parser; its `main` is the CLI's one failure boundary (see the module docstring)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, formatter_class=_HelpFormatter, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")
        self._commands = None

    def error(self, message):
        raise ValueError(message)

    def subparser(self, name: str, description: str) -> _Parser:
        """Add and return the parser of subcommand `name`."""
        if self._commands is None:
            self._commands = self.add_subparsers(metavar="COMMAND", required=True)
        return self._commands.add_parser(name, help=description, description=description)

    def command(self, name: str, *arguments: tuple[str, dict]):
        """Decorator: run the function as subcommand `name`, given add_argument's (flag, keywords) pairs."""

        def register(run):
            sub = self.subparser(name, run.__doc__)
            for flag, keywords in arguments:
                sub.add_argument(flag, **keywords)
            sub.set_defaults(run=run)
            return run

        return register

    def command_paths(self) -> list[tuple[str, ...]]:
        """Every command path below this parser, each group before its subcommands."""
        paths = []
        for name, sub in (self._commands.choices if self._commands else {}).items():
            paths += [(name,), *((name, *path) for path in sub.command_paths())]
        return paths

    def main(self, args=None, prog_name=None, standalone_mode=True) -> None:
        """Run the command line `args` (default sys.argv[1:]); a failure raises SystemExit.

        prog_name and standalone_mode are accepted for click-style callers and
        change nothing: the program is always named liedim, and a failure
        always ends in SystemExit after its one `Error:` line.
        """
        message = None
        try:
            chosen = vars(self.parse_args(args))
            status = chosen.pop("run")(**chosen)
            sys.stdout.flush()
        except (WorkBudgetExceeded, ValueError) as exc:
            status, message = 2, str(exc)
        except (ExactnessError, ChildProcessError) as exc:
            status, message = 1, str(exc)
        except BrokenPipeError as exc:
            # what is still buffered goes to devnull at exit, not to a second error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            status, message = 2, f"cannot write to standard output: {exc.strerror}"
        if message is not None:
            print(f"Error: {message}", file=sys.stderr)
        if status:
            raise SystemExit(status)

    __call__ = main


def _option(flag: str, **keywords) -> tuple[str, dict]:
    if keywords.get("type") is int:
        keywords["metavar"] = "INTEGER"
    return flag, keywords


def _int(flag: str, text: str | None = None) -> tuple[str, dict]:
    return _option(flag, type=int, required=True, help=text)


_SLOW = _option("--slow", action="store_true", help="raise the work budget 100x")
_FIELD = _option(
    "--field", choices=sorted(FIELD_CHOICES), default="q", help="coefficient field for the rank computation"
)
_P = _int("--p", "prime characteristic")
_KS = _option("--k", dest="ks", type=int, action="append", required=True, help="coprime part(s) k; repeatable")
_M_MAX = _option("--m-max", type=int, default=6, help="largest exponent m in r = p^m k")
_FORMAT = _option("--format", dest="fmt", choices=("csv", "json"), default="csv")
_FLOAT_BITS = _option("--float-bits", type=int, default=DEFAULT_FLOAT_BITS)

main = _Parser(prog="liedim", description="Exact dimensions, ratios and error bounds for modular Lie powers.")


def _report_rank(rank: int, label: str, expected: int) -> int:
    """Print the rank, the expected value and agree/DISAGREE; the exit status, 1 on a mismatch."""
    print(f"rank = {rank}")
    print(f"{label} = {expected}")
    print("agree" if rank == expected else "DISAGREE")
    return int(rank != expected)


@main.command("witt", _int("--n", "alphabet size"), _int("--r", "degree"))
def witt_cmd(n: int, r: int) -> int:
    """Print w(n, r) and check the two-sided bounds on r*w(n, r)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    # n^r and r^2 n^r are printed; charge their size before building them
    charge_output("witt output", [power_bits_lower(n, r) ** 2])
    # w(n, r) walks the divisors of r whatever n is; at n = 1 the output charge is 0
    charge_divisor_walk("witt divisor walk", r)
    from .witt import check_witt_bounds
    chk = check_witt_bounds(n, r)
    s = int_to_str
    lines = [f"w({s(n)}, {s(r)}) = {s(chk.w)}", f"upper: r*w = {s(chk.upper_lhs)} <= n^r = {s(chk.upper_rhs)}"]
    if chk.lower_excess <= 0:
        lines.append(f"lower: excess 2n^r - 2rw = {s(chk.lower_excess)} <= 0")
    else:
        lines.append(f"lower: excess^2 = {s(chk.lower_lhs_sq)} <= r^2 n^r = {s(chk.lower_rhs_sq)}")
    lines.append("bounds OK" if chk.holds else "bounds FAILED")
    print("\n".join(lines))
    return int(not chk.holds)


def _print_table(build, fmt, p, ks, m_max, n, float_bits) -> None:
    from .report import RunConfig, to_csv, to_json
    rows = build(RunConfig(p=p, k_list=tuple(ks), m_max=m_max, n=n, float_bits=float_bits))
    print(to_csv(rows) if fmt == "csv" else to_json(rows), end="")


@main.command("b-table", _P, _int("--n", "alphabet size, n >= 2"), _KS, _M_MAX, _FORMAT, _FLOAT_BITS)
def b_table_cmd(p, n, ks, m_max, fmt, float_bits) -> None:
    """Table of dim L^r, ratio_b and lower bounds along chains r = p^m k."""
    from .report import build_b_rows
    _print_table(build_b_rows, fmt, p, ks, m_max, n, float_bits)


@main.command("c-table", _P, _KS, _M_MAX, _FORMAT, _FLOAT_BITS)
def c_table_cmd(p, ks, m_max, fmt, float_bits) -> None:
    """Table of dim C(r), ratio_c and lower bounds along chains r = p^m k."""
    from .report import build_c_rows
    _print_table(build_c_rows, fmt, p, ks, m_max, None, float_bits)


oracle_group = main.subparser("oracle", "Brute-force cross-checks over explicit free Lie algebra bases.")


@oracle_group.command(
    "lyndon", _int("--n"), _int("--r"), _option("--words", action="store_true", help="also print the words, one per line"), _SLOW
)
def oracle_lyndon(n: int, r: int, words: bool, slow: bool) -> None:
    """Count (and optionally list) Lyndon words of length r over n letters."""
    oracle_mod.charge_word_enumeration(n, r, work_budget(slow=slow))
    print(oracle_mod.count_lyndon_words(n, r))
    if words:
        for word in oracle_mod.iter_lyndon_words(n, r):
            print(".".join(str(a) for a in word))


@oracle_group.command("aperiodic", _int("--n"), _int("--r"), _SLOW)
def oracle_aperiodic(n: int, r: int, slow: bool) -> None:
    """Count aperiodic words of length r over n letters by direct filtering."""
    print(oracle_mod.aperiodic_count_bruteforce(n, r, work_budget(slow=slow)))


@oracle_group.command("lie-power", _int("--n"), _int("--r"), _FIELD, _SLOW)
def oracle_lie_power(n: int, r: int, field: str, slow: bool) -> int:
    """Rank of the left-normed spanning set of L^r(V), dim V = n."""
    from .witt import witt_dim
    span = oracle_mod.lie_power_span(n, r, FIELD_CHOICES[field], work_budget(slow=slow))
    return _report_rank(span.rank(), "witt", witt_dim(n, r))


@oracle_group.command("lie-module", _int("--r"), _FIELD, _SLOW)
def oracle_lie_module(r: int, field: str, slow: bool) -> int:
    """Rank of the multilinear component spanned by permutation brackets."""
    from math import factorial
    span = oracle_mod.lie_module_span(r, FIELD_CHOICES[field], work_budget(slow=slow))
    return _report_rank(span.rank(), "(r-1)!", factorial(r - 1))


@oracle_group.command("weight-space", _int("--q"), _int("--k"), _FIELD, _SLOW)
def oracle_weight_space(q: int, k: int, field: str, slow: bool) -> int:
    """Rank of the weight-(q,..,q) space of L^qk spanned by block brackets."""
    from math import factorial
    span = oracle_mod.weight_space_span(q, k, FIELD_CHOICES[field], work_budget(slow=slow))
    return _report_rank(span.rank(), "(qk)!/k", factorial(q * k) // k)


@oracle_group.command(
    "expand",
    _option("word", metavar="WORD"),
    _option("--bracketing", choices=("standard", "left-normed"), default="standard"),
)
def oracle_expand(word: str, bracketing: str) -> None:
    """Expand a bracketed word into the tensor algebra (letters are digits)."""
    if not (word.isascii() and word.isdigit()):
        raise ValueError("word must be a nonempty string of digits")
    letters = tuple(int(ch) for ch in word)
    oracle_mod.charge_expansion(len(letters))
    expand = oracle_mod.expand_standard_bracketing if bracketing == "standard" else oracle_mod.left_normed_expand
    out = oracle_mod.format_expansion(expand(letters))
    if out:
        print(out)


@main.command(
    "verify",
    _option("--suite", default="all", help="suite to run; an unknown name exits 2 and lists them"),
    _option("--slow", action="store_true", help="include the long oracle checks"),
)
def verify_cmd(suite: str, slow: bool) -> int:
    """Run the named self-check suite; exit 1 if any check fails."""
    from .verify import failure_count, run_suites
    families = run_suites(suite, slow)
    for fam in families:
        print(f"{fam.name}: {fam.checks} checks, {len(fam.failures)} failures")
        for detail in fam.failures[:MAX_FAILURES_SHOWN]:
            print(f"  FAIL {detail}")
        hidden = len(fam.failures) - MAX_FAILURES_SHOWN
        if hidden > 0:
            print(f"  ... and {hidden} more")
    total = failure_count(families)
    checks = sum(fam.checks for fam in families)
    if total:
        print(f"FAIL: {total} of {checks} checks failed")
        return 1
    print(f"PASS: {checks} checks")
    return 0


if __name__ == "__main__":
    main()

"""Command line front end.

Exit codes: 0 success, 1 a failed check, 2 usage or domain error.  The
commands call the library directly and the `main` group is the one place
that turns an error into an exit code, printed as one `Error:` line and
never as a traceback:

- a work-budget refusal or a ValueError exits 2: a bad prime, k divisible by
  p, a non-Lyndon word, a malformed LIEDIM_BUDGET, an oracle job or a witt
  or table output over the budget;
- an ExactnessError, an exact identity that failed, exits 1 like any other
  failed check.

Each command is a fresh process, so the top of this module imports only what
the groups, options and failure boundary need (click, arith, budget, render,
oracle); a command imports the rest when it runs.  So verify.run_suites, not
click, refuses an unknown suite.
"""

from __future__ import annotations

import click

from . import oracle as oracle_mod
from .arith import ExactnessError, power_bits_lower
from .budget import WorkBudgetExceeded, charge_divisor_walk, charge_output, work_budget
from .render import DEFAULT_FLOAT_BITS, int_to_str

FIELD_CHOICES = {"q": None, "f2": 2, "f3": 3, "f5": 5}

MAX_FAILURES_SHOWN = 20


def _field_option():
    return click.option(
        "--field",
        type=click.Choice(sorted(FIELD_CHOICES)),
        default="q",
        show_default=True,
        help="coefficient field for the rank computation",
    )


def _report_rank(rank: int, label: str, expected: int) -> None:
    """Print the rank, the expected value and agree/DISAGREE; exit 1 on a mismatch."""
    click.echo(f"rank = {rank}")
    click.echo(f"{label} = {expected}")
    click.echo("agree" if rank == expected else "DISAGREE")
    if rank != expected:
        raise SystemExit(1)


class _FailureBoundary(click.Group):
    """The CLI's one failure boundary; see the module docstring."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (WorkBudgetExceeded, ValueError) as exc:
            raise click.UsageError(str(exc)) from exc
        except ExactnessError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_FailureBoundary)
def main() -> None:
    """Exact dimensions, ratios and error bounds for modular Lie powers."""


@main.command("witt")
@click.option("--n", type=int, required=True, help="alphabet size")
@click.option("--r", type=int, required=True, help="degree")
def witt_cmd(n: int, r: int) -> None:
    """Print w(n, r) and check the two-sided bounds on r*w(n, r)."""
    if r < 1:
        raise click.UsageError("r must be >= 1")
    if n < 1:
        raise click.UsageError("n must be >= 1")
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
    click.echo("\n".join(lines))
    if not chk.holds:
        raise SystemExit(1)


def _print_table(build, fmt, p, ks, m_max, n, float_bits) -> None:
    from .report import RunConfig, to_csv, to_json
    rows = build(RunConfig(p=p, k_list=tuple(ks), m_max=m_max, n=n, float_bits=float_bits))
    click.echo(to_csv(rows) if fmt == "csv" else to_json(rows), nl=False)


@main.command("b-table")
@click.option("--p", type=int, required=True, help="prime characteristic")
@click.option("--n", type=int, required=True, help="alphabet size, n >= 2")
@click.option("--k", "ks", type=int, multiple=True, required=True, help="coprime part(s) k; repeatable")
@click.option("--m-max", type=int, default=6, show_default=True, help="largest exponent m in r = p^m k")
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default="csv", show_default=True)
@click.option("--float-bits", type=int, default=DEFAULT_FLOAT_BITS, show_default=True)
def b_table_cmd(p, n, ks, m_max, fmt, float_bits) -> None:
    """Table of dim L^r, ratio_b and lower bounds along chains r = p^m k."""
    from .report import build_b_rows
    _print_table(build_b_rows, fmt, p, ks, m_max, n, float_bits)


@main.command("c-table")
@click.option("--p", type=int, required=True, help="prime characteristic")
@click.option("--k", "ks", type=int, multiple=True, required=True, help="coprime part(s) k; repeatable")
@click.option("--m-max", type=int, default=6, show_default=True, help="largest exponent m in r = p^m k")
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default="csv", show_default=True)
@click.option("--float-bits", type=int, default=DEFAULT_FLOAT_BITS, show_default=True)
def c_table_cmd(p, ks, m_max, fmt, float_bits) -> None:
    """Table of dim C(r), ratio_c and lower bounds along chains r = p^m k."""
    from .report import build_c_rows
    _print_table(build_c_rows, fmt, p, ks, m_max, None, float_bits)


@main.group("oracle")
def oracle_group() -> None:
    """Brute-force cross-checks over explicit free Lie algebra bases."""


@oracle_group.command("lyndon")
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--words", is_flag=True, help="also print the words, one per line")
@click.option("--slow", is_flag=True, help="raise the work budget 100x")
def oracle_lyndon(n: int, r: int, words: bool, slow: bool) -> None:
    """Count (and optionally list) Lyndon words of length r over n letters."""
    oracle_mod.charge_word_enumeration(n, r, work_budget(slow=slow))
    click.echo(str(oracle_mod.count_lyndon_words(n, r)))
    if words:
        for word in oracle_mod.iter_lyndon_words(n, r):
            click.echo(".".join(str(a) for a in word))


@oracle_group.command("aperiodic")
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--slow", is_flag=True, help="raise the work budget 100x")
def oracle_aperiodic(n: int, r: int, slow: bool) -> None:
    """Count aperiodic words of length r over n letters by direct filtering."""
    click.echo(str(oracle_mod.aperiodic_count_bruteforce(n, r, work_budget(slow=slow))))


@oracle_group.command("lie-power")
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, required=True)
@_field_option()
@click.option("--slow", is_flag=True, help="raise the work budget 100x")
def oracle_lie_power(n: int, r: int, field: str, slow: bool) -> None:
    """Rank of the left-normed spanning set of L^r(V), dim V = n."""
    from .witt import witt_dim
    span = oracle_mod.lie_power_span(n, r, FIELD_CHOICES[field], work_budget(slow=slow))
    _report_rank(len(span.pivots()), "witt", witt_dim(n, r))


@oracle_group.command("lie-module")
@click.option("--r", type=int, required=True)
@_field_option()
@click.option("--slow", is_flag=True, help="raise the work budget 100x")
def oracle_lie_module(r: int, field: str, slow: bool) -> None:
    """Rank of the multilinear component spanned by permutation brackets."""
    from .lie_modules import dim_lie
    span = oracle_mod.lie_module_span(r, FIELD_CHOICES[field], work_budget(slow=slow))
    _report_rank(len(span.pivots()), "(r-1)!", dim_lie(r))


@oracle_group.command("weight-space")
@click.option("--q", type=int, required=True)
@click.option("--k", type=int, required=True)
@_field_option()
@click.option("--slow", is_flag=True, help="raise the work budget 100x")
def oracle_weight_space(q: int, k: int, field: str, slow: bool) -> None:
    """Rank of the weight-(q,..,q) space of L^qk spanned by block brackets."""
    from .lie_modules import weight_space_dim_formula
    span = oracle_mod.weight_space_span(q, k, FIELD_CHOICES[field], work_budget(slow=slow))
    _report_rank(len(span.pivots()), "(qk)!/k", weight_space_dim_formula(q, k))


@oracle_group.command("expand")
@click.argument("word")
@click.option(
    "--bracketing",
    type=click.Choice(("standard", "left-normed")),
    default="standard",
    show_default=True,
)
def oracle_expand(word: str, bracketing: str) -> None:
    """Expand a bracketed word into the tensor algebra (letters are digits)."""
    if not (word.isascii() and word.isdigit()):
        raise click.UsageError("word must be a nonempty string of digits")
    letters = tuple(int(ch) for ch in word)
    oracle_mod.charge_expansion(len(letters))
    expand = oracle_mod.expand_standard_bracketing if bracketing == "standard" else oracle_mod.left_normed_expand
    out = oracle_mod.format_expansion(expand(letters))
    if out:
        click.echo(out)


@main.command("verify")
@click.option("--suite", default="all", show_default=True, help="suite to run; an unknown name exits 2 and lists them")
@click.option("--slow", is_flag=True, help="include the long oracle checks")
def verify_cmd(suite: str, slow: bool) -> None:
    """Run the named self-check suite; exit 1 if any check fails."""
    from .verify import failure_count, run_suites
    families = run_suites(suite, slow)
    for fam in families:
        click.echo(f"{fam.name}: {fam.checks} checks, {len(fam.failures)} failures")
        for detail in fam.failures[:MAX_FAILURES_SHOWN]:
            click.echo(f"  FAIL {detail}")
        hidden = len(fam.failures) - MAX_FAILURES_SHOWN
        if hidden > 0:
            click.echo(f"  ... and {hidden} more")
    total = failure_count(families)
    checks = sum(fam.checks for fam in families)
    if total:
        click.echo(f"FAIL: {total} of {checks} checks failed")
        raise SystemExit(1)
    click.echo(f"PASS: {checks} checks")


if __name__ == "__main__":
    main()

"""Command line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Domain errors (bad prime, k divisible by p, non-Lyndon word, work budget
exceeded) are reported through click's usage-error path so they share
exit code 2 with argument parsing errors.
"""

from __future__ import annotations

import sys

import click

from . import oracle as oracle_mod
from . import verify as verify_mod
from .lie_modules import dim_lie, weight_space_dim_formula
from .report import RunConfig, build_b_rows, build_c_rows, to_csv, to_json
from .render import DEFAULT_FLOAT_BITS
from .witt import check_witt_bounds, witt_dim

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


def _budgeted(fn, *args):
    """Call fn(*args), reporting a work-budget refusal as a usage error."""
    try:
        return fn(*args)
    except oracle_mod.WorkBudgetExceeded as exc:
        raise click.UsageError(str(exc)) from exc


def _check_printable(values) -> None:
    """Refuse, before anything is printed, an integer with more decimal digits
    than the interpreter's int-to-str limit allows (a limit of 0 is none)."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    too_big = 10**limit
    if any(abs(x) >= too_big for x in values):
        raise click.UsageError(
            f"the result has an integer of more than {limit} decimal digits, the interpreter's "
            "limit; raise it via PYTHONINTMAXSTRDIGITS (0 lifts it)"
        )


def _report_rank(rank: int, label: str, expected: int) -> None:
    """Print the rank, the expected value and agree/DISAGREE; exit 1 on a mismatch."""
    click.echo(f"rank = {rank}")
    click.echo(f"{label} = {expected}")
    click.echo("agree" if rank == expected else "DISAGREE")
    if rank != expected:
        raise SystemExit(1)


@click.group()
def main() -> None:
    """Exact dimensions, ratios and error bounds for modular Lie powers."""
    try:
        oracle_mod.work_budget()
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@main.command("witt")
@click.option("--n", type=int, required=True, help="alphabet size")
@click.option("--r", type=int, required=True, help="degree")
def witt_cmd(n: int, r: int) -> None:
    """Print w(n, r) and check the two-sided bounds on r*w(n, r)."""
    if r < 1:
        raise click.UsageError("r must be >= 1")
    if n < 1:
        raise click.UsageError("n must be >= 1")
    chk = check_witt_bounds(n, r)
    shown = [chk.w, chk.upper_lhs, chk.upper_rhs]
    shown += [chk.lower_excess] if chk.lower_excess <= 0 else [chk.lower_lhs_sq, chk.lower_rhs_sq]
    _check_printable(shown)
    click.echo(f"w({n}, {r}) = {chk.w}")
    click.echo(f"upper: r*w = {chk.upper_lhs} <= n^r = {chk.upper_rhs}")
    if chk.lower_excess <= 0:
        click.echo(f"lower: excess 2n^r - 2rw = {chk.lower_excess} <= 0")
    else:
        click.echo(
            f"lower: excess^2 = {chk.lower_lhs_sq} <= r^2 n^r = {chk.lower_rhs_sq}"
        )
    if not chk.holds:
        click.echo("bounds FAILED")
        raise SystemExit(1)
    click.echo("bounds OK")


def _print_table(build, fmt, p, ks, m_max, n, float_bits) -> None:
    try:
        cfg = RunConfig(p=p, k_list=tuple(ks), m_max=m_max, n=n, float_bits=float_bits)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    rows = build(cfg)
    _check_printable(x for row in rows for x in (row.dim_num, row.dim_den_context, *row.ratio.as_integer_ratio()))
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
    _print_table(build_b_rows, fmt, p, ks, m_max, n, float_bits)


@main.command("c-table")
@click.option("--p", type=int, required=True, help="prime characteristic")
@click.option("--k", "ks", type=int, multiple=True, required=True, help="coprime part(s) k; repeatable")
@click.option("--m-max", type=int, default=6, show_default=True, help="largest exponent m in r = p^m k")
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default="csv", show_default=True)
@click.option("--float-bits", type=int, default=DEFAULT_FLOAT_BITS, show_default=True)
def c_table_cmd(p, ks, m_max, fmt, float_bits) -> None:
    """Table of dim C(r), ratio_c and lower bounds along chains r = p^m k."""
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
    if n < 1 or r < 1:
        raise click.UsageError("n and r must be >= 1")
    _budgeted(oracle_mod.charge_word_enumeration, n, r, oracle_mod.work_budget(slow=slow))
    if not words:
        click.echo(str(sum(1 for _ in oracle_mod.iter_lyndon_words(n, r))))
        return
    found = oracle_mod.lyndon_words(n, r)
    click.echo(str(len(found)))
    for word in found:
        click.echo(".".join(str(a) for a in word))


@oracle_group.command("aperiodic")
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--slow", is_flag=True, help="raise the work budget 100x")
def oracle_aperiodic(n: int, r: int, slow: bool) -> None:
    """Count aperiodic words of length r over n letters by direct filtering."""
    if n < 1 or r < 1:
        raise click.UsageError("n and r must be >= 1")
    click.echo(str(_budgeted(oracle_mod.aperiodic_count_bruteforce, n, r, oracle_mod.work_budget(slow=slow))))


@oracle_group.command("lie-power")
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, required=True)
@_field_option()
@click.option("--slow", is_flag=True, help="raise the work budget 100x")
def oracle_lie_power(n: int, r: int, field: str, slow: bool) -> None:
    """Rank of the left-normed spanning set of L^r(V), dim V = n."""
    if n < 1 or r < 1:
        raise click.UsageError("n and r must be >= 1")
    rank = _budgeted(oracle_mod.lie_power_rank, n, r, FIELD_CHOICES[field], oracle_mod.work_budget(slow=slow))
    _report_rank(rank, "witt", witt_dim(n, r))


@oracle_group.command("lie-module")
@click.option("--r", type=int, required=True)
@_field_option()
@click.option("--slow", is_flag=True, help="raise the work budget 100x")
def oracle_lie_module(r: int, field: str, slow: bool) -> None:
    """Rank of the multilinear component spanned by permutation brackets."""
    if r < 1:
        raise click.UsageError("r must be >= 1")
    rank = _budgeted(oracle_mod.lie_module_rank, r, FIELD_CHOICES[field], oracle_mod.work_budget(slow=slow))
    _report_rank(rank, "(r-1)!", dim_lie(r))


@oracle_group.command("weight-space")
@click.option("--q", type=int, required=True)
@click.option("--k", type=int, required=True)
@_field_option()
@click.option("--slow", is_flag=True, help="raise the work budget 100x")
def oracle_weight_space(q: int, k: int, field: str, slow: bool) -> None:
    """Rank of the weight-(q,..,q) space of L^qk spanned by block brackets."""
    if q < 1 or k < 1:
        raise click.UsageError("q and k must be >= 1")
    rank = _budgeted(oracle_mod.weight_space_rank, q, k, FIELD_CHOICES[field], oracle_mod.work_budget(slow=slow))
    _report_rank(rank, "(qk)!/k", weight_space_dim_formula(q, k))


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
    if not word or not word.isdigit():
        raise click.UsageError("word must be a nonempty string of digits")
    letters = tuple(int(ch) for ch in word)
    if bracketing == "standard":
        try:
            vec = oracle_mod.expand_standard_bracketing(letters)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
    else:
        vec = oracle_mod.left_normed_expand(letters)
    out = oracle_mod.format_expansion(vec)
    if out:
        click.echo(out)


@main.command("verify")
@click.option(
    "--suite",
    type=click.Choice(verify_mod.SUITE_NAMES),
    default="all",
    show_default=True,
)
@click.option("--slow", is_flag=True, help="include the long oracle checks")
def verify_cmd(suite: str, slow: bool) -> None:
    """Run the named self-check suite; exit 1 if any check fails."""
    families = _budgeted(verify_mod.run_suites, suite, slow)
    for fam in families:
        click.echo(f"{fam.name}: {fam.checks} checks, {len(fam.failures)} failures")
        for detail in fam.failures[:MAX_FAILURES_SHOWN]:
            click.echo(f"  FAIL {detail}")
        hidden = len(fam.failures) - MAX_FAILURES_SHOWN
        if hidden > 0:
            click.echo(f"  ... and {hidden} more")
    total = verify_mod.failure_count(families)
    checks = sum(fam.checks for fam in families)
    if total:
        click.echo(f"FAIL: {total} of {checks} checks failed")
        raise SystemExit(1)
    click.echo(f"PASS: {checks} checks")


if __name__ == "__main__":
    main()

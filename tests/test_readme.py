"""README.md's examples run as shown: each ```python block executes, and each
`$ liedim ...` line prints exactly the output shown under it (or, with none
shown, exits 0)."""

import re
import shlex
from pathlib import Path

import pytest
from conftest import assert_refused

from liedim import oracle
from liedim.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# (info string, body, the README line the body starts on) of every fenced block
BLOCKS = [
    (m[1], m[2], README.count("\n", 0, m.start(2)) + 1)
    for m in re.finditer(r"^```(\w*)\n(.*?)^```$", README, flags=re.DOTALL | re.MULTILINE)
]

# each body padded with blank lines, so that a traceback names its README line,
# and named by its place among the python blocks, so that its test id stays put
# when the README above it changes
PYTHON_BLOCKS = {
    f"README.md:python-{i}": "\n" * (line - 1) + body
    for i, (_, body, line) in enumerate((block for block in BLOCKS if block[0] == "python"), 1)
}


def _commands():
    """(argv after `liedim`, the output shown under the line or None)."""
    for _, body, _ in BLOCKS:
        lines = body.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ liedim "):
                continue
            shown = []
            for out in lines[i + 1 :]:
                if not out or out.startswith("$ "):
                    break
                shown.append(out)
            yield shlex.split(line[len("$ liedim ") :], comments=True), "".join(s + "\n" for s in shown) or None


COMMANDS = list(_commands())


def test_readme_has_examples():
    assert PYTHON_BLOCKS
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("source", list(PYTHON_BLOCKS.values()), ids=list(PYTHON_BLOCKS))
def test_readme_python_block_runs(source):
    exec(compile(source, "README.md", "exec"), {})


@pytest.mark.parametrize("args, shown", COMMANDS, ids=[" ".join(args) for args, _ in COMMANDS])
def test_readme_command_prints_what_it_shows(runner, args, shown):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    if shown is not None:
        assert result.stdout == shown


# the `oracle …` rows of the size table: (argv after `liedim`, its verdict)
SIZE_TABLE = [
    (m[1].split(), m[2])
    for m in re.finditer(r"^\| `(oracle [^`]*)` \| [^|]* \| (runs|refused)\b", README, flags=re.MULTILINE)
]


def test_size_table_verdicts_are_the_charges(runner, monkeypatch):
    # each row is admitted or refused as the table says: its span is built
    # and charged, and no elimination runs (every span has rank 0 here, so an
    # admitted run prints its rank and exits 0 or 1, and a refused one exits 2)
    monkeypatch.delenv("LIEDIM_BUDGET", raising=False)
    monkeypatch.setattr(oracle._Rows, "pivots", lambda self: {})
    assert len(SIZE_TABLE) >= 15
    for args, verdict in SIZE_TABLE:
        result = runner.invoke(main, args)
        if verdict == "runs":
            assert result.exit_code in (0, 1) and result.stdout.startswith("rank = 0\n"), (args, result.output)
        else:
            assert "units of work" in assert_refused(result), args

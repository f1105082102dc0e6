"""Start-up: what `import liedim.cli` and one oracle command load, and the lazy package root.

Each command runs as a fresh process, so the modules it imports before any
work are paid on every run.  The sets below are read from sys.modules in a
fresh interpreter, so what the host's site setup loads shows up on both
sides of a difference and drops out.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liedim

SRC = Path(__file__).resolve().parent.parent / "src"

# what the group, its options and the failure boundary need
CLI_START_UP = {"liedim", "liedim.cli", "liedim.arith", "liedim.budget", "liedim.oracle", "liedim.render"}


def _fresh(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_cli_loads_only_the_start_up_modules():
    proc = _fresh(
        "import sys\n"
        "import click\n"
        "before = set(sys.modules)\n"
        "import liedim.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    loaded = set(proc.stdout.split())
    assert "liedim.cli" in loaded
    assert loaded <= CLI_START_UP, sorted(loaded - CLI_START_UP)


def test_oracle_lie_power_loads_no_table_or_verify_code():
    proc = _fresh(
        "import sys\n"
        "from liedim.cli import main\n"
        "try:\n"
        "    main(['oracle', 'lie-power', '--n', '2', '--r', '4'])\n"
        "finally:\n"
        "    print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
    )
    assert proc.stdout.splitlines()[-1] == "agree"
    loaded = set(proc.stderr.split())
    assert "liedim.witt" in loaded
    assert not loaded & {"liedim.verify", "liedim.report", "liedim.lie_powers", "json"}


@pytest.mark.parametrize("command", [["lie-module", "--r", "3"], ["weight-space", "--q", "1", "--k", "2"]])
def test_oracle_block_commands_load_no_closed_form_module(command):
    # each checks its rank against a factorial it computes itself, so neither
    # lie_modules nor the fractions, decimal and numbers it imports are
    # loaded; what click loads to write the output (locale) is all that is new
    proc = _fresh(
        "import sys\n"
        "from liedim.cli import main\n"
        "before = set(sys.modules)\n"
        "try:\n"
        f"    main(['oracle', *{command!r}])\n"
        "finally:\n"
        "    print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
    )
    assert proc.stdout.splitlines()[-1] == "agree"
    loaded = set(proc.stderr.split())
    assert loaded <= {"locale", "_locale"}, sorted(loaded)


def test_package_names_resolve_to_their_home_modules():
    assert list(liedim._HOMES) == liedim.__all__
    for name in liedim.__all__:
        home = importlib.import_module(f"liedim.{liedim._HOMES[name]}")
        assert getattr(liedim, name) is getattr(home, name), name
        assert getattr(home, name).__module__ == home.__name__, name


def test_package_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from liedim import *", namespace)
    assert set(liedim.__all__) <= set(namespace)
    for name in liedim.__all__:
        assert namespace[name] is getattr(liedim, name), name
    assert set(liedim.__all__) <= set(dir(liedim))
    assert "__version__" in dir(liedim)


def test_package_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        liedim.no_such_name  # noqa: B018
    assert not hasattr(liedim, "_no_such_private")

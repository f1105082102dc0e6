"""Start-up: what `import liedim.cli` and one oracle command load, and the lazy package root.

Each command runs as a fresh process, so the modules it imports before any
work are paid on every run.  The sets below are read from sys.modules in a
fresh interpreter, so what the host's site setup loads shows up on both
sides of a difference and drops out.
"""

import importlib

import pytest
from conftest import fresh

import liedim

# what the parser, its commands and the failure boundary need
CLI_START_UP = {"liedim", "liedim.cli", "liedim.arith", "liedim.budget", "liedim.oracle", "liedim.render"}

# the standard library the start-up modules import at their top
START_UP_STDLIB = "__future__, argparse, collections.abc, functools, importlib, itertools, math, os, sys, typing"


def _fresh(code: str):
    result = fresh("-c", code)
    assert result.exit_code == 0, result.stderr
    return result


def _loaded_by(statement: str) -> set[str]:
    """The modules a bare interpreter loads to run the statement."""
    result = _fresh(
        f"import sys\nbefore = set(sys.modules)\n{statement}\nprint(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    return set(result.stdout.split())


def test_import_cli_loads_only_the_start_up_modules():
    # no click, and outside the package only what its start-up modules' own
    # standard library imports load, with the locale module that argparse's
    # gettext loads when a parser is built: on a host whose site set-up loads
    # typing, math and os, that is argparse, gettext, locale and __future__
    loaded = _loaded_by("import liedim.cli")
    assert "liedim.cli" in loaded
    assert "click" not in loaded
    package = {name for name in loaded if name.partition(".")[0] == "liedim"}
    assert package <= CLI_START_UP, sorted(package - CLI_START_UP)
    stdlib = _loaded_by(f"import {START_UP_STDLIB}\nargparse.ArgumentParser()")
    assert loaded - package <= stdlib, sorted(loaded - package - stdlib)


def test_oracle_lie_power_loads_no_table_or_verify_code():
    result = _fresh(
        "import sys\n"
        "from liedim.cli import main\n"
        "try:\n"
        "    main(['oracle', 'lie-power', '--n', '2', '--r', '4'])\n"
        "finally:\n"
        "    print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
    )
    assert result.stdout.splitlines()[-1] == "agree"
    loaded = set(result.stderr.split())
    assert "liedim.witt" in loaded
    assert not loaded & {"liedim.verify", "liedim.report", "liedim.worker", "liedim.lie_powers", "json"}


@pytest.mark.parametrize("command", [["lie-module", "--r", "3"], ["weight-space", "--q", "1", "--k", "2"]])
def test_oracle_block_commands_load_no_closed_form_module(command):
    # each checks its rank against a factorial it computes itself, so neither
    # lie_modules nor the fractions, decimal and numbers it imports are
    # loaded: nothing is loaded after the start-up modules
    result = _fresh(
        "import sys\n"
        "from liedim.cli import main\n"
        "before = set(sys.modules)\n"
        "try:\n"
        f"    main(['oracle', *{command!r}])\n"
        "finally:\n"
        "    print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
    )
    assert result.stdout.splitlines()[-1] == "agree"
    loaded = set(result.stderr.split())
    assert not loaded, sorted(loaded)


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

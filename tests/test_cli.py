import json

import pytest
from click.testing import CliRunner

from liedim.cli import main
from liedim.report import RunConfig, build_b_rows, build_c_rows, to_csv


@pytest.fixture
def runner():
    return CliRunner()


def test_witt_ok(runner):
    result = runner.invoke(main, ["witt", "--n", "2", "--r", "6"])
    assert result.exit_code == 0
    assert "w(2, 6) = 9" in result.output
    assert "bounds OK" in result.output


def test_witt_one_letter(runner):
    result = runner.invoke(main, ["witt", "--n", "1", "--r", "5"])
    assert result.exit_code == 0
    assert "w(1, 5) = 0" in result.output


def test_witt_domain_errors(runner):
    result = runner.invoke(main, ["witt", "--n", "2", "--r", "0"])
    assert result.exit_code == 2
    assert "r must be >= 1" in result.output
    result = runner.invoke(main, ["witt", "--n", "0", "--r", "3"])
    assert result.exit_code == 2
    assert "n must be >= 1" in result.output


def test_b_table_matches_library(runner):
    result = runner.invoke(
        main,
        ["b-table", "--p", "2", "--n", "2", "--k", "3", "--k", "5", "--m-max", "3"],
    )
    assert result.exit_code == 0
    cfg = RunConfig(p=2, k_list=(3, 5), m_max=3, n=2)
    assert result.output == to_csv(build_b_rows(cfg))


def test_c_table_matches_library(runner):
    result = runner.invoke(main, ["c-table", "--p", "2", "--k", "3", "--m-max", "2"])
    assert result.exit_code == 0
    cfg = RunConfig(p=2, k_list=(3,), m_max=2)
    assert result.output == to_csv(build_c_rows(cfg))
    # frozen dimensions appear in the expected rows
    lines = result.output.splitlines()
    assert lines[1].startswith("3,2,0,3,2,2,")
    assert lines[2].startswith("6,2,1,3,80,120,")
    assert lines[3].startswith("12,2,2,3,35481600,39916800,")


def test_c_table_single_trivial_row(runner):
    result = runner.invoke(main, ["c-table", "--p", "5", "--k", "2", "--m-max", "0"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("2,5,0,2,1,1,1,1,")


def test_table_json_parses(runner):
    result = runner.invoke(
        main,
        ["b-table", "--p", "3", "--n", "2", "--k", "2", "--m-max", "2", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert [row["r"] for row in payload] == [2, 6, 18]


def test_table_domain_errors(runner):
    result = runner.invoke(main, ["b-table", "--p", "4", "--n", "2", "--k", "3"])
    assert result.exit_code == 2
    assert "p must be prime" in result.output
    result = runner.invoke(main, ["c-table", "--p", "2", "--k", "4"])
    assert result.exit_code == 2
    assert "divisible" in result.output
    result = runner.invoke(main, ["c-table", "--p", "2", "--k", "3", "--m-max", "-1"])
    assert result.exit_code == 2


def test_table_determinism(runner):
    args = ["b-table", "--p", "2", "--n", "3", "--k", "3", "--m-max", "4"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_oracle_lyndon(runner):
    result = runner.invoke(main, ["oracle", "lyndon", "--n", "2", "--r", "6"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "9"
    result = runner.invoke(main, ["oracle", "lyndon", "--n", "2", "--r", "3", "--words"])
    assert result.output.splitlines() == ["2", "0.0.1", "0.1.1"]


def test_oracle_expand(runner):
    result = runner.invoke(main, ["oracle", "expand", "001"])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["001:1", "010:-2", "100:1"]
    result = runner.invoke(main, ["oracle", "expand", "01", "--bracketing", "left-normed"])
    assert result.output.splitlines() == ["01:1", "10:-1"]
    result = runner.invoke(main, ["oracle", "expand", "010"])
    assert result.exit_code == 2
    assert "not a Lyndon word" in result.output
    result = runner.invoke(main, ["oracle", "expand", "0a1"])
    assert result.exit_code == 2


def test_oracle_rank_commands(runner):
    result = runner.invoke(main, ["oracle", "lie-power", "--n", "2", "--r", "6", "--field", "f2"])
    assert result.exit_code == 0
    assert "rank = 9" in result.output and "agree" in result.output

    result = runner.invoke(main, ["oracle", "lie-module", "--r", "5"])
    assert result.exit_code == 0
    assert "rank = 24" in result.output

    result = runner.invoke(main, ["oracle", "weight-space", "--q", "2", "--k", "2"])
    assert result.exit_code == 0
    assert "rank = 12" in result.output


def test_oracle_budget_exceeded(runner):
    result = runner.invoke(main, ["oracle", "lie-module", "--r", "7"])
    assert result.exit_code == 2
    assert "work" in result.output

    result = runner.invoke(main, ["oracle", "aperiodic", "--n", "3", "--r", "30"])
    assert result.exit_code == 2
    # n**r far past the int-to-str digit limit is still refused in one line
    result = runner.invoke(main, ["oracle", "aperiodic", "--n", "10", "--r", "5000"])
    assert result.exit_code == 2
    assert "10^5000" in result.output


def test_oracle_env_budget(runner, monkeypatch):
    monkeypatch.setenv("LIEDIM_BUDGET", "10")
    result = runner.invoke(main, ["oracle", "aperiodic", "--n", "2", "--r", "8"])
    assert result.exit_code == 2
    monkeypatch.setenv("LIEDIM_BUDGET", "1000000")
    result = runner.invoke(main, ["oracle", "aperiodic", "--n", "2", "--r", "8"])
    assert result.exit_code == 0
    assert result.output.strip() == "240"


def test_malformed_env_budget(runner, monkeypatch):
    monkeypatch.setenv("LIEDIM_BUDGET", "abc")
    for args in (["oracle", "lie-module", "--r", "3"], ["verify", "--suite", "oracle"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert isinstance(result.exception, SystemExit), args
        error_lines = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert error_lines == ["Error: LIEDIM_BUDGET must be a non-negative integer, got 'abc'"]


def test_oracle_lyndon_budget(runner):
    result = runner.invoke(main, ["oracle", "lyndon", "--n", "10", "--r", "12"])
    assert result.exit_code == 2
    assert "Lyndon word enumeration" in result.output
    result = runner.invoke(main, ["oracle", "lyndon", "--n", "10", "--r", "1000000000", "--words"])
    assert result.exit_code == 2
    assert "10^1000000000" in result.output


def test_oracle_lyndon_slow_flag(runner):
    args = ["oracle", "lyndon", "--n", "4", "--r", "12"]
    assert runner.invoke(main, args).exit_code == 2
    result = runner.invoke(main, [*args, "--slow"])
    assert result.exit_code == 0
    assert result.output == "1397740\n"


def test_verify_witt_suite(runner):
    result = runner.invoke(main, ["verify", "--suite", "witt"])
    assert result.exit_code == 0
    assert "witt/two-sided-bounds: 640 checks, 0 failures" in result.output
    assert "witt/one-letter-alphabet: 100 checks, 0 failures" in result.output
    assert result.output.strip().endswith("PASS: 740 checks")


def test_verify_rejects_unknown_suite(runner):
    result = runner.invoke(main, ["verify", "--suite", "nope"])
    assert result.exit_code == 2


@pytest.mark.slow
def test_oracle_lie_module_r7_slow_flag(runner):
    result = runner.invoke(main, ["oracle", "lie-module", "--r", "7", "--field", "f2", "--slow"])
    assert result.exit_code == 0
    assert "rank = 720" in result.output

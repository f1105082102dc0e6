import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
LIEDIM = ("-m", "liedim.cli")  # the interpreter arguments that run the command line


def pytest_addoption(parser):
    parser.addoption(
        "--slow",
        action="store_true",
        default=False,
        help="run the long oracle checks (lie module rank at r=7)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="needs --slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@dataclass
class Result:
    output: str  # stdout and stderr: interleaved as written in process, one after the other from a child
    stdout: str
    stderr: str
    exit_code: int


class _Both(io.StringIO):
    """Standard output: kept on its own and in the interleaved output."""

    def __init__(self, output: io.StringIO):
        super().__init__()
        self.output = output

    def write(self, text: str) -> int:
        self.output.write(text)
        return super().write(text)


class Runner:
    """Runs a command line in process and captures what it prints and how it exits.

    Any exception other than SystemExit propagates, so a traceback fails the test.
    """

    def invoke(self, cli, args) -> Result:
        output = io.StringIO()
        stdout, stderr = _Both(output), _Both(output)
        code = 0
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                cli(list(args))
            except SystemExit as exc:
                code = exc.code or 0
        return Result(output.getvalue(), stdout.getvalue(), stderr.getvalue(), code if isinstance(code, int) else 1)


def child(*args: str, **env: str | None) -> tuple[list[str], dict[str, str]]:
    """The argv and environment of a fresh interpreter that runs `python args`.

    This checkout's src goes first on PYTHONPATH, so the child imports the
    liedim the tests import; LIEDIM_BUDGET is dropped, so the child runs at
    the default budget; each keyword sets a variable, or drops it when None.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    environ = {**os.environ, "PYTHONPATH": path, "LIEDIM_BUDGET": None, **env}
    return [sys.executable, *args], {name: value for name, value in environ.items() if value is not None}


def fresh(*args: str, **env: str | None) -> Result:
    """Runs `python args` in a fresh interpreter (see child) and returns what
    Runner.invoke returns for the same run: fresh(*LIEDIM, "witt", ...)."""
    argv, environ = child(*args, **env)
    proc = subprocess.run(argv, capture_output=True, timeout=300, env=environ)
    stdout, stderr = proc.stdout.decode(), proc.stderr.decode()
    return Result(stdout + stderr, stdout, stderr, proc.returncode)


def assert_refused(result: Result, message: str | None = None, exit_code: int = 2) -> str:
    """Checks a refusal, in process or fresh: the exit code, nothing on stdout
    and one `Error:` line as the whole output, so no traceback; with message,
    the line is `Error: <message>`.  Returns the message the line gives."""
    assert result.exit_code == exit_code, result.output
    assert result.stdout == "", result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    got = lines[0].removeprefix("Error: ")
    assert message is None or got == message, got
    return got


@pytest.fixture(scope="session")
def runner():
    return Runner()


@pytest.fixture(scope="session")
def verify_golden():
    """The stdout of `liedim verify --suite all`, keyed by --slow: the one place
    where a family, its check count and the PASS total are written."""
    return {slow: (GOLDEN / f"verify_all{'_slow' * slow}.txt").read_bytes() for slow in (False, True)}


@pytest.fixture(scope="session")
def golden_families(verify_golden):
    """families(suite, slow=False): the check count in the golden of each
    family of the suite ('all': every family), in printed order."""

    def families(suite: str, slow: bool = False) -> dict[str, int]:
        pairs = (line.split(": ", 1) for line in verify_golden[slow].decode().splitlines()[:-1])
        return {name: int(rest.split()[0]) for name, rest in pairs if suite == "all" or name.startswith(f"{suite}/")}

    return families

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import pytest


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
    output: str  # stdout and stderr, interleaved as written
    stdout: str
    exit_code: int
    exception: SystemExit | None  # the SystemExit of a nonzero exit


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
        stdout = _Both(output)
        exception = None
        with redirect_stdout(stdout), redirect_stderr(output):
            try:
                cli(list(args))
            except SystemExit as exc:
                exception = exc if exc.code else None
        code = exception.code if exception else 0
        return Result(output.getvalue(), stdout.getvalue(), code if isinstance(code, int) else 1, exception)


@pytest.fixture(scope="session")
def runner():
    return Runner()

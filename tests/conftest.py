import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


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

"""The benchmark's workloads: liedim command lines and the output each must print.

Reference outputs were recorded at the commit that introduced this benchmark:
the sha256 of each table and oracle command's stdout, and for ``verify`` the
family list and check count it printed.  Later commits must reproduce them
byte for byte (ROADMAP aim 2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

VERIFY_FAMILIES = (
    "arith/mobius-divisor-sum",
    "arith/p-adic-round-trip",
    "witt/two-sided-bounds",
    "witt/one-letter-alphabet",
    "b/dimension-identity",
    "b/ratio-range",
    "b/coefficient-bounds",
    "b/lower-bound",
    "b/convergence",
    "c/integrality-and-range",
    "c/recurrence-cross-check",
    "c/coefficient-ratio-identity",
    "c/lower-bound",
    "c/weight-space-formula",
    "c/weight-space-oracle",
    "c/convergence",
    "oracle/lyndon-count",
    "oracle/aperiodic-count",
    "oracle/lie-power-rank",
    "oracle/lyndon-basis-rank",
    "oracle/lie-module-rank",
    "oracle/weight-space-rank",
    "oracle/bracket-smoke",
)
VERIFY_MIN_CHECKS = 425_106

LIE_MODULE_R7 = "05d952c81cfa25258ea2fb063970d3f4d1aacb5137694da233d46a31ea48deef"
C_TABLE_M10 = "2560825119e0861ff03fd8196cf27dee7568fe837f18713e4b2778d87bc8f214"


@dataclass(frozen=True)
class Op:
    """One liedim command line and how to judge what it printed.

    ``sha256`` is the expected stdout digest; None means the output is a
    ``verify`` report, checked by ``verify_output_ok``.  ``lift_digit_limit``
    runs the command with PYTHONINTMAXSTRDIGITS=0.
    """

    args: tuple[str, ...]
    sha256: str | None = None
    lift_digit_limit: bool = False

    @property
    def name(self) -> str:
        return " ".join(self.args)

    def output_ok(self, stdout: bytes) -> bool:
        if self.sha256 is None:
            return verify_output_ok(stdout.decode("utf-8", "replace"))
        return hashlib.sha256(stdout).hexdigest() == self.sha256


def verify_output_ok(text: str) -> bool:
    """The report names the recorded families in order and passes at least the recorded checks."""
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("PASS: "):
        return False
    families = tuple(line.split(":", 1)[0] for line in lines[:-1])
    try:
        checks = int(lines[-1].removeprefix("PASS: ").removesuffix(" checks"))
    except ValueError:
        return False
    return families == VERIFY_FAMILIES and checks >= VERIFY_MIN_CHECKS


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "certify": (Op(("verify", "--suite", "all")),),
    "oracle_reach": (
        Op(("oracle", "lie-module", "--r", "7", "--slow", "--field", "f2"), LIE_MODULE_R7),
        Op(("oracle", "lie-module", "--r", "7", "--slow", "--field", "f3"), LIE_MODULE_R7),
        Op(("oracle", "lie-module", "--r", "7", "--slow", "--field", "q"), LIE_MODULE_R7),
        Op(
            ("oracle", "lie-power", "--n", "3", "--r", "7", "--field", "f5"),
            "7421fb1dcd355834118da52ef3f256a2448296a8a4023f196b2a8f4942d765f5",
        ),
        Op(
            ("oracle", "lie-power", "--n", "2", "--r", "10"),
            "616cda496c35cad60c657c2e687f6a5b526b1675b5db973c55a6531c587d138f",
        ),
    ),
    "giant_tables": (
        Op(
            ("c-table", "--p", "2", "--k", "3", "--m-max", "14"),
            "514b3d11cdffbed10909bde8cc53d82fae70bc054dd48cfbf0f10da7592199fe",
            lift_digit_limit=True,
        ),
        Op(
            ("b-table", "--p", "2", "--n", "3", "--k", "3", "--k", "5", "--k", "7",
             "--m-max", "13", "--format", "json"),
            "f4689343fe65dceaf99c27c566b29425fb550a733b5cd4059d523c61397f7fbd",
            lift_digit_limit=True,
        ),
    ),
}

# The share of the reference work (reference.py) that each workload's
# --trace 0 times are scaled by: all of it, or its bigint part alone.  On the
# shared host the benchmark was defined on, load from other tenants slowed
# interpreter-bound code about twice as much as C-level big-int code.  The
# mixed ops of certify and oracle_reach tracked the whole reference best; the
# big-int decimal output that is nearly all of giant_tables tracked the bigint
# part, and scaled by the whole reference its ten-run spread grew from about
# 0.05 to 0.11-0.16.
REFERENCE_KIND = {"certify": "all", "oracle_reach": "all", "giant_tables": "bigint"}

# Known-defect probes: run once per run, after the measured passes, and reported
# on their own summary line instead of in ``attempted``/``failed``, so that the
# failure counts of a run do not depend on how many passes fit in it.  The
# digit-limit probe expects the bytes printed under the lifted limit while
# running with the interpreter's default limit.  It crashes at the commit that
# introduced it (ROADMAP baseline, "Defects reproduced").
PROBES: dict[str, tuple[Op, ...]] = {
    "giant_tables": (Op(("c-table", "--p", "2", "--k", "3", "--m-max", "10"), C_TABLE_M10),),
}

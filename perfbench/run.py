"""liedim benchmark: run each workload's CLI commands, check their output, time them.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

--trace 0 runs every op as a fresh ``python -m liedim.cli`` process with
PYTHONPATH set to the checkout's src/, one child at a time: a closed loop with
one client.  One untimed warm-up pass writes the .pyc caches; then passes
repeat until --seconds have gone by, and each metric is the median over
passes.  setup_s is the median wall time of several fresh
``python -c "import liedim.cli"`` processes.  Fixed reference work
(reference.py) runs between passes.  Each pass's times are divided by how
much slower than nominal the host ran the workload's share of the reference
work next to them (REFERENCE_KIND), and setup_s by all of it, so they read as
seconds on a host where the reference takes REFERENCE_NOMINAL_S.

--trace 1 runs the same ops in this process through click, alternating an
untraced pass with a pass traced by the wrappers in layers.py, and reports
the per-layer metrics plus the tracing overhead.

The seed sets the op order within each pass.  Every op's output is checked
(workloads.py); an op fails when it exits nonzero, times out or prints the
wrong bytes, and ``correct`` is false when an op exits 0 with wrong output.
A workload's known-defect probes run once per run, after the passes, as fresh
processes; their outcome is printed in the summary and kept out of
``attempted`` and ``failed``, but a probe that exits 0 with wrong output
still makes ``correct`` false.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines above it are a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from layers import Tracer, install, uninstall
from workloads import PROBES, REFERENCE_KIND, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_CHECKSUM = b"30000 15000 97 259277 65155536966770541875"
# Nominal seconds of each part of the reference work: about what it takes on
# the 2-vCPU Xeon VM (2.1 GHz, Python 3.11.7) the benchmark was defined on, in
# its quieter phases, so that scaled times read close to that host's seconds.
REFERENCE_NOMINAL_S = {"all": 0.47, "bigint": 0.17}
DEFAULT_SEED = 0
SETUP_SPAWNS_PER_PASS = 4
OP_TIMEOUT_S = 120.0
RUN_BUDGET_S = 165.0  # each run must exit within 180 s
# Outside settings that would change what a child computes or caches.
CLEARED_ENV = ("PYTHONPATH", "PYTHONINTMAXSTRDIGITS", "PYTHONDONTWRITEBYTECODE", "LIEDIM_BUDGET")


class Tally:
    """Op outcomes of one run."""

    def __init__(self, started: float):
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()
        self.op_walls: dict[str, list[float]] = defaultdict(list)

    def record(self, name: str, code: int | None, output_ok: bool, detail: str) -> None:
        self.attempted += 1
        if code == 0 and output_ok:
            return
        self.failed += 1
        if code == 0:
            self.wrong += 1
            detail = "exit 0 with wrong output"
        self.reasons[f"{name}: {detail}"] += 1

    def timeout(self) -> float:
        left = RUN_BUDGET_S - (time.perf_counter() - self.started)
        return max(1.0, min(OP_TIMEOUT_S, left))

    def over_budget(self) -> bool:
        return time.perf_counter() - self.started > RUN_BUDGET_S


# ---------------------------------------------------------------------------
# fresh processes


def child_env(lift_digit_limit: bool) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    if lift_digit_limit:
        env["PYTHONINTMAXSTRDIGITS"] = "0"
    return env


def spawn(argv: list[str], env: dict[str, str], timeout: float):
    """Run one child to completion: (wall s, cpu s, max RSS KiB, exit code or None on timeout, stdout, stderr)."""
    with tempfile.TemporaryFile(dir=ROOT) as out, tempfile.TemporaryFile(dir=ROOT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killed = []

        def kill() -> None:
            killed.append(True)
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        exited = False
        try:
            # Wait without reaping, so the kill above can never hit a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            exited = True
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        code = None if killed else proc.returncode
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, code, out.read(), err.read()


def failure_detail(code: int | None, stderr: bytes, timeout: float) -> str:
    if code is None:
        return f"timed out after {timeout:.0f} s"
    lines = [line for line in stderr.decode("utf-8", "replace").splitlines() if line.strip()]
    return f"exit {code}: {lines[-1].strip() if lines else 'no stderr'}"


def process_pass(ops, tally: Tally) -> tuple[float, float, float]:
    """One pass in the given order: (wall s, cpu s, max RSS KiB) summed / maxed over the ops."""
    wall = cpu = rss = 0.0
    for op in ops:
        timeout = tally.timeout()
        argv = [sys.executable, "-m", "liedim.cli", *op.args]
        w, c, r, code, out, err = spawn(argv, child_env(op.lift_digit_limit), timeout)
        tally.record(op.name, code, code == 0 and op.output_ok(out), failure_detail(code, err, timeout))
        tally.op_walls[op.name].append(w)
        wall += w
        cpu += c
        rss = max(rss, r)
    return wall, cpu, rss


def run_probes(name: str, tally: Tally) -> list[tuple[str, str, bool]]:
    """Run the workload's known-defect probes once: (op, outcome, exited 0 with wrong output)."""
    results = []
    for op in PROBES.get(name, ()):
        timeout = tally.timeout()
        argv = [sys.executable, "-m", "liedim.cli", *op.args]
        _, _, _, code, out, err = spawn(argv, child_env(op.lift_digit_limit), timeout)
        ok = code == 0 and op.output_ok(out)
        wrong = code == 0 and not ok
        outcome = "passes" if ok else "exit 0 with wrong output" if wrong else failure_detail(code, err, timeout)
        results.append((op.name, outcome, wrong))
    return results


def setup_spawn(tally: Tally) -> float:
    timeout = tally.timeout()
    wall, _, _, code, _, err = spawn([sys.executable, "-c", "import liedim.cli"], child_env(False), timeout)
    tally.record("import liedim.cli", code, True, failure_detail(code, err, timeout))
    return wall


def reference_spawn(tally: Tally) -> dict[str, float]:
    """Run the fixed reference work once: seconds for all of it and for its bigint part."""
    timeout = tally.timeout()
    _, _, _, code, out, err = spawn([sys.executable, str(REFERENCE)], child_env(False), timeout)
    lines = out.splitlines()
    if code != 0 or len(lines) != 2 or lines[0] != REFERENCE_CHECKSUM:
        raise SystemExit(f"the reference work failed: {failure_detail(code, err, timeout)}, stdout {out!r}")
    interp, bigint = map(float, lines[1].split())
    return {"all": interp + bigint, "bigint": bigint}


def timed_run(name: str, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    ops = WORKLOADS[name]
    rng = random.Random(seed)
    process_pass(rng.sample(ops, len(ops)), tally)  # warm-up: fills the .pyc caches
    tally.op_walls.clear()

    # Each pass and its set-up spawns sit between two reference spawns.  Their
    # times are divided by how much slower than nominal the host ran the
    # workload's share of the reference just then (the mean of the two), so that
    # a run measures the program rather than the host's load at the time.
    kind = REFERENCE_KIND[name]
    refs = [reference_spawn(tally)]
    walls, cpus, rsss, setup, raw_walls, raw_setup = [], [], [], [], [], []
    begun = time.perf_counter()
    while not walls or (time.perf_counter() - begun < seconds and not tally.over_budget()):
        wall, cpu, rss = process_pass(rng.sample(ops, len(ops)), tally)
        spawns = [setup_spawn(tally) for _ in range(SETUP_SPAWNS_PER_PASS)]
        refs.append(reference_spawn(tally))
        slow = {k: (refs[-2][k] + refs[-1][k]) / 2 / nominal for k, nominal in REFERENCE_NOMINAL_S.items()}
        walls.append(wall / slow[kind])
        cpus.append(cpu / slow[kind])
        rsss.append(rss)
        setup += [w / slow["all"] for w in spawns]
        raw_walls.append(wall)
        raw_setup += spawns
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss) / 1024,
        "setup_s": statistics.median(setup),
        "_passes": len(walls),
        "_kind": kind,
        "_walls": walls,
        "_spawns": len(setup),
        "_raw_wall_s": statistics.median(raw_walls),
        "_raw_setup_s": statistics.median(raw_setup),
        "_reference_s": {k: statistics.median(r[k] for r in refs) for k in REFERENCE_NOMINAL_S},
    }


# ---------------------------------------------------------------------------
# in-process, traced


def import_cli():
    """Import liedim.cli from the checkout's src/; returns (module, seconds taken)."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    cli = importlib.import_module("liedim.cli")
    took = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "liedim":
        raise SystemExit(f"liedim was imported from {cli.__file__}, not from this checkout")
    return cli, took


def call_in_process(cli, op) -> tuple[int | None, bytes, str]:
    import click

    buf = io.StringIO()
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0 if op.lift_digit_limit else sys.int_info.default_max_str_digits)
    detail = ""
    try:
        with contextlib.redirect_stdout(buf):
            rv = cli.main.main(args=list(op.args), prog_name="liedim", standalone_mode=False)
        code = rv if isinstance(rv, int) else 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        code, detail = exc.exit_code, exc.format_message()
    except Exception as exc:  # the op failed; the run goes on and counts it
        code, detail = 1, f"{type(exc).__name__}: {exc}"
    finally:
        sys.set_int_max_str_digits(saved)
    return code, buf.getvalue().encode("utf-8"), f"exit {code}: {detail}"


def in_process_pass(cli, ops, tally: Tally) -> float:
    wall = 0.0
    for op in ops:
        start = time.perf_counter()
        code, out, detail = call_in_process(cli, op)
        wall += time.perf_counter() - start
        tally.record(op.name, code, code == 0 and op.output_ok(out), detail)
    return wall


def traced_run(name: str, seed: int, seconds: float, tally: Tally, cli, import_s: float) -> dict[str, float]:
    ops = WORKLOADS[name]
    rng = random.Random(seed)
    in_process_pass(cli, rng.sample(ops, len(ops)), tally)  # warm-up
    untraced, traced, per_pass = [], [], []
    begun = time.perf_counter()
    while not traced or (time.perf_counter() - begun < seconds and not tally.over_budget()):
        order = rng.sample(ops, len(ops))
        untraced.append(in_process_pass(cli, order, tally))
        tracer = Tracer()
        undo = install(tracer)
        try:
            traced.append(in_process_pass(cli, order, tally))
        finally:
            uninstall(undo)
        per_pass.append(tracer.metrics())
    names = {n for m in per_pass for n in m}
    out = {n: statistics.median(m.get(n, 0) for m in per_pass) for n in names}
    out["cli.import_s"] = import_s
    out["trace.untraced_wall_s"] = statistics.median(untraced)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    out["_passes"] = len(traced)
    out["_counts_repeat"] = all(
        m.get(n) == per_pass[0].get(n)
        for m in per_pass
        for n in ("oracle.lyndon_words.words", "verify.checks", "oracle.rank_over_field.rank", "report.max_int_bits")
    )
    return out


# ---------------------------------------------------------------------------
# reporting


def quartiles(values) -> str:
    if len(values) < 2:
        return "one sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4f} .. {q3:.4f}"


def summarize(name: str, seed: int, trace: bool, result: dict, tally: Tally, units: dict[str, str], probes) -> None:
    print(
        f"# {name}: seed {seed}, {result['_passes']} {'traced' if trace else 'timed'} passes"
        f" after 1 warm-up, python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}"
    )
    for metric, unit in units.items():
        note = ""
        if metric == "wall_s":
            note = f"median over passes; {quartiles(result['_walls'])}"
            if "_kind" in result:
                note += f"; scaled by reference work ({result['_kind']}), unscaled {result['_raw_wall_s']:.4f} s"
        elif metric == "setup_s":
            note = f"median of {result['_spawns']} spawns"
            if "_raw_setup_s" in result:
                note += f"; scaled by reference work (all), unscaled {result['_raw_setup_s']:.4f} s"
        print(f"#   {metric:<48} {result[metric]:>14.6g} {unit:<6} {note}")
    for kind, took in result.get("_reference_s", {}).items():
        print(f"#   {'reference work, ' + kind:<48} {took:>14.6g} {'s':<6} median; nominal {REFERENCE_NOMINAL_S[kind]} s")
    share = tally.failed / tally.attempted
    print(f"#   {'fail_share':<48} {share:>14.6g} {'share':<6} {tally.failed} of {tally.attempted} ops failed")
    if trace and not result["_counts_repeat"]:
        print("#   WARNING: traced counts differ between passes")
    for op, walls in tally.op_walls.items():
        print(f"#   op {statistics.median(walls):9.4f} s  ({len(walls)} runs)  {op}")
    for reason, count in tally.reasons.items():
        print(f"#   FAILED x{count}: {reason}")
    for op, outcome, _ in probes:
        print(f"#   known-defect probe, not counted in failed: {op}: {outcome}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sets the op order within each pass")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through spawn() so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "liedim" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no liedim sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    cli = import_s = None
    if args.trace:
        cli, import_s = import_cli()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        tally = Tally(time.perf_counter())
        if args.trace:
            result = traced_run(name, args.seed, args.seconds, tally, cli, import_s)
        else:
            result = timed_run(name, args.seed, args.seconds, tally)
        probes = run_probes(name, tally)
        result = {**{m: 0 for m in units}, **result}
        summarize(name, args.seed, bool(args.trace), result, tally, units, probes)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": result[metric], "unit": unit}
        correct = correct and tally.wrong == 0 and not any(wrong for _, _, wrong in probes)
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

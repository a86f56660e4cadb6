"""Benchmark of the ``decobs`` CLI, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A run spawns one child process at a time (``child.py``), each executing one
``decobs`` campaign of the workload at its fixed size, and keeps spawning for
``--seconds`` seconds per workload (at least ``MIN_CALLS`` calls).  With
``--workload all`` the workloads take turns, so drift in host speed hits all
of them alike.  Before timing, an untimed preflight runs both exact
counterexamples and, per workload, a small call at the digest seed whose
report must match ``digests.json``.  Every call's output passes the
correctness gate (``gate.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls of one fixed seed and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import layers
from workloads import DIGEST_SEED, DIGEST_TRIALS, PREFLIGHT, WORKLOADS, Workload, child_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"

#: A run makes at least this many timed calls per workload.
MIN_CALLS = 11

#: A call that has not exited after this long is killed and counts as failed.
CALL_TIMEOUT_S = 60.0

#: Nominal duration of the two runs of ``child.reference_task`` in a call.
#: Every call's times are scaled by this over their measured duration, so
#: that they read as seconds on a host where the task takes this long.
REFERENCE_S = 0.07

#: End-to-end metric name -> unit, in the order they are reported.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "report_bytes": "bytes",
    "ops_ok_frac": "ratio",
}


@dataclass
class Call:
    """One finished child process."""

    exit_code: int
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes
    spawned: float
    record: dict | None

    def campaign(self) -> tuple[float, float] | None:
        """Monotonic start and end of the ``decobs.cli.run_*`` call, if one was recorded."""
        if self.record is None:
            return None
        index = layers.find_span(self.record["names"], self.record["spans"], "cli.run_")
        return None if index is None else tuple(self.record["spans"][index][1:3])


@dataclass
class Samples:
    """Per-call measurements of one workload within a run."""

    plain: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)


class Runner:
    """Spawns calls, applies the gate and keeps the tally of a run."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        #: workload name -> [calls attempted, calls failed] that count towards it
        self.counts: dict[str, list[int]] = {}
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}",
            # numpy's OpenBLAS otherwise starts one thread per core
            OPENBLAS_NUM_THREADS="1",
        )

    def spawn(self, args: list[str], mode: str) -> Call:
        out = self.scratch / "record.json"
        out.unlink(missing_ok=True)
        stdout_path, stderr_path = self.scratch / "stdout", self.scratch / "stderr"
        importtime = ["-X", "importtime"] if mode == "trace" else []
        command = [sys.executable, *importtime, str(CHILD), str(out), mode, "--", *args]
        with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
            spawned = time.monotonic()
            proc = subprocess.Popen(command, cwd=ROOT, env=self.env, stdout=stdout, stderr=stderr)
            status, usage = _wait(proc)
            wall = time.monotonic() - spawned
        record = json.loads(out.read_text()) if out.exists() else None
        return Call(status, wall, usage.ru_maxrss, stdout_path.read_bytes(), stderr_path.read_bytes(), spawned, record)

    def tally(self, label: str, problems: list[str], workloads: list[str]) -> bool:
        """Count one call, against each of ``workloads``; whether it passed."""
        self.attempted += 1
        self.failed += bool(problems)
        for name in workloads:
            counts = self.counts.setdefault(name, [0, 0])
            counts[0] += 1
            counts[1] += bool(problems)
        if problems:
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def ok_frac(self, name: str) -> float:
        """Share of the calls counted against workload ``name`` that passed the gate."""
        attempted, failed = self.counts[name]
        return (attempted - failed) / attempted

    def preflight(self, workloads: list[Workload]) -> None:
        """Untimed checks: exact counterexamples (counted against every workload) and report digests."""
        names = [workload.name for workload in workloads]
        for args in PREFLIGHT:
            result = self.spawn(args, "plain")
            self.tally(" ".join(args), gate.check_counterexample(result.exit_code, result.stdout), names)
        digests = json.loads(DIGESTS.read_text())
        for workload in workloads:
            result = self.spawn(workload.argv(DIGEST_SEED, DIGEST_TRIALS), "plain")
            problems, _ = gate.check_call(workload, DIGEST_TRIALS, DIGEST_SEED, result.exit_code, result.stdout)
            if not problems and gate.report_digest(result.stdout) != digests[workload.name]:
                problems = ["report differs from digests.json"]
            self.tally(f"{workload.name} digest", problems, [workload.name])

    def measure(self, workload: Workload, seed: int, mode: str) -> dict | None:
        """One timed call; its measurements, or None if it failed the gate."""
        trials = workload.trials
        result = self.spawn(workload.argv(seed), mode)
        problems, rows = gate.check_call(workload, trials, seed, result.exit_code, result.stdout)
        if not problems and result.campaign() is None:
            problems = ["no decobs.cli.run_* call recorded"]
        if not self.tally(f"{workload.name} seed {seed}", problems, [workload.name]):
            return None
        start, end = result.campaign()
        (before_start, before_end), (after_start, after_end) = result.record["reference"]
        reference = before_end - before_start + after_end - after_start
        scale = REFERENCE_S / reference
        sample = {
            "setup_s": (start - result.spawned - (before_end - before_start)) * scale,
            "wall_s": (result.wall_s - reference) * scale,
            "trials_per_s": trials / ((end - start) * scale),
            "peak_rss_mb": result.maxrss_kb / 1024,
            "report_bytes": len(result.stdout),
            "unscaled_wall_s": result.wall_s - reference,
        }
        if mode == "trace":
            sample.update(layers.layer_metrics(result.record, trials, rows))
            sample.update(layers.import_times(result.stderr.decode()))
        return sample


def _wait(proc: subprocess.Popen) -> tuple:
    """Reap ``proc``, killing it after ``CALL_TIMEOUT_S``: its exit code and resource usage."""
    pidfd = os.pidfd_open(proc.pid)
    exited = False
    try:
        exited = bool(select.select([pidfd], [], [], CALL_TIMEOUT_S)[0])
    finally:
        os.close(pidfd)
        if not exited:
            proc.kill()  # timed out, or the wait itself was interrupted
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run(names: list[str], seed: int, seconds: float, trace: bool, runner: Runner) -> dict[str, Samples]:
    workloads = [WORKLOADS[name] for name in names]
    runner.preflight(workloads)
    samples = {name: Samples() for name in names}
    deadline = time.monotonic() + seconds * len(names)
    index = 0
    while index < MIN_CALLS or time.monotonic() < deadline:
        for workload in workloads:
            kept = samples[workload.name]
            if trace:
                # one seed throughout, so the traced and untraced calls do equal work
                # and the counts repeat exactly; alternate which of the pair goes first
                order = ("plain", "trace") if index % 2 == 0 else ("trace", "plain")
                for mode in order:
                    sample = runner.measure(workload, child_seed(seed, 0), mode)
                    if sample:
                        (kept.traced if mode == "trace" else kept.plain).append(sample)
            else:
                sample = runner.measure(workload, child_seed(seed, index), "plain")
                if sample:
                    kept.plain.append(sample)
        index += 1
    return samples


def median(samples: list[dict], name: str) -> float:
    return statistics.median(sample[name] for sample in samples)


def end_to_end(name: str, kept: Samples, runner: Runner) -> dict[str, float]:
    metrics = {metric: median(kept.plain, metric) for metric in END_TO_END if metric != "ops_ok_frac"}
    metrics["ops_ok_frac"] = runner.ok_frac(name)
    return metrics


def per_layer(kept: Samples) -> dict[str, float]:
    metrics = {name: median(kept.traced, name) for name in layers.UNITS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = median(kept.traced, "unscaled_wall_s") - median(kept.plain, "unscaled_wall_s")
    return metrics


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    return 100.0 * (len(values) - 10) / len(values), ordered[len(values) - 11]


def environment() -> dict[str, str]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
    }


def report(samples: dict[str, Samples], trace: bool, runner: Runner) -> dict:
    print("environment: " + ", ".join(f"{k} {v}" for k, v in environment().items()))
    units = layers.UNITS if trace else END_TO_END
    metrics = {}
    for name, kept in samples.items():
        if not kept.plain or (trace and not kept.traced):
            raise SystemExit(f"error: no call of {name} passed the gate")
        values = per_layer(kept) if trace else end_to_end(name, kept, runner)
        walls = [sample["wall_s"] for sample in kept.plain]
        traced = f"{len(kept.traced)} traced and " if trace else ""
        print(f"{name}: {traced}{len(walls)} untraced calls")
        for metric, value in values.items():
            print(f"  {metric:30s} {value:14.6g} {units[metric]}")
        if not trace:
            print(f"  {'unscaled wall_s':30s} {median(kept.plain, 'unscaled_wall_s'):14.6g} s")
            if tail(walls):
                percentile, value = tail(walls)
                print(f"  {'wall_s p%.0f' % percentile:30s} {value:14.6g} s")
        prefix = "" if len(samples) == 1 else f"{name}/"
        metrics.update({prefix + metric: {"value": value, "unit": units[metric]} for metric, value in values.items()})
    verdict = "passed" if runner.failed == 0 else "FAILED"
    print(f"correctness gate: {verdict} ({runner.failed} of {runner.attempted} calls failed)")
    return {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "decobs" / "__init__.py").is_file():
        print(f"error: no decobs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        runner = Runner(scratch)
        samples = run(names, args.seed, args.seconds, bool(args.trace), runner)
        result = report(samples, bool(args.trace), runner)
    finally:
        shutil.rmtree(scratch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

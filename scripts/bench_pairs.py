"""Alternating pairs of benchmark runs on a parent and a change checkout, and their summary.

Usage, from the root of a checkout::

    python scripts/bench_pairs.py --parent DIR --change DIR --workload W --seeds 401-410 \\
        [--claim METRIC] [--out FILE --set LABEL]

Pair i runs the benchmark command of ``BENCHMARK.json`` (``python3
perfbench/run.py``) with ``--workload W --seed S_i`` once in each checkout,
the parent first on even i and the change first on odd i, so that a drift
in host speed hits both sides alike.  Each run's result is the JSON object
on the last line of its standard output.

The summary gives, for each end-to-end metric of ``BENCHMARK.json``, both
sides' runs, medians and quartiles, the change's wins (pairs where it reads
better; ties count for neither) and the number of pairs, with the seeds and
each run's attempted and failed calls.  Its ``regressions`` list names every
end-to-end metric whose change median is worse than the parent median by
more than that metric's ``BENCHMARK.json`` bound, a fraction of the parent
median.  Its ``unresolved`` list names every end-to-end metric whose parent
interquartile range is wider than that bound, so that the pairs cannot tell
a change within the bound from none, unless every change run reads better
than every parent run.  With ``--claim METRIC`` it adds the verdict of the
claim rule: at least ten pairs, the change wins at least nine tenths of
them, its median is better than the parent's by more than the parent's
interquartile range, and its runs fail no larger share of their attempted
calls than the parent's.  It prints the summary as JSON, and with
``--out`` merges it into that file under ``sets[LABEL][W]``.

It refuses to run, with exit code 2, while either checkout's ``src/``
holds a ``__pycache__``: a valid bytecode cache on one side only skips
that side's compiling of ``decobs`` and skews ``setup_s`` and ``wall_s``.
It refuses too when the checkouts' ``BENCHMARK.json`` or files under
``perfbench/`` differ, since each side runs its own harness.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: End-to-end metric name -> True when a higher value is better.
HIGHER_IS_BETTER = {metric["name"]: metric["better"] == "higher" for metric in BENCHMARK["end_to_end"]}
#: End-to-end metric name -> the largest worsening of its median allowed, as a fraction of the parent's.
BOUNDS = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    """Seeds from "401-410" or "401,405,409"."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def bytecode_caches(checkout: Path) -> list[Path]:
    """The ``__pycache__`` directories under the checkout's ``src/``."""
    return sorted((checkout / "src").rglob("__pycache__"))


def _harness_files(checkout: Path) -> set[str]:
    """The paths, relative to the checkout, of ``BENCHMARK.json`` and the files under ``perfbench/``."""
    files = {path for path in (checkout / "perfbench").rglob("*") if path.is_file() and "__pycache__" not in path.parts}
    return {str(path.relative_to(checkout)) for path in files} | {"BENCHMARK.json"}


def harness_differences(parent: Path, change: Path) -> list[str]:
    """The harness paths whose bytes differ between the checkouts, or that only one of them has."""

    def read(path: Path) -> bytes | None:
        return path.read_bytes() if path.is_file() else None

    paths = _harness_files(parent) | _harness_files(change)
    return sorted(path for path in paths if read(parent / path) != read(change / path))


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: the JSON result on its last line of output."""
    command = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def run_pairs(parent: Path, change: Path, workload: str, seeds: list[int]) -> list[tuple[int, dict, dict]]:
    """(seed, parent result, change result) for each seed, the side that runs first alternating."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {side: run_once(parent if side == "parent" else change, workload, seed) for side in order}
        pairs.append((seed, results["parent"], results["change"]))
        shown = ", ".join(f"{side} {_value(results[side], 'trials_per_s'):.6g}" for side in ("parent", "change"))
        print(f"pair {i + 1}/{len(seeds)} seed {seed} ({order[0]} first): trials_per_s {shown}", file=sys.stderr)
    return pairs


def _value(result: dict, metric: str) -> float:
    return result["metrics"][metric]["value"]


def _quartiles(runs: list[float]) -> list[float]:
    """First quartile, median and third quartile (``statistics.quantiles``, exclusive method)."""
    if len(runs) < 2:
        return [runs[0]] * 3
    return statistics.quantiles(runs, n=4)


def summarize(pairs: list[tuple[int, dict, dict]], claim: str | None = None) -> dict:
    """The summary of a workload's pairs, in the layout of ``BENCH_streams.json``."""
    summary = {}
    for metric, higher in HIGHER_IS_BETTER.items():
        parent = [_value(p, metric) for _, p, _ in pairs]
        change = [_value(c, metric) for _, _, c in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        summary[metric] = {
            "parent_runs": parent,
            "change_runs": change,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartiles": _quartiles(parent),
            "change_quartiles": _quartiles(change),
            "change_wins": wins,
            "pairs": len(pairs),
        }
    summary["regressions"] = [metric for metric in HIGHER_IS_BETTER if regressed(summary[metric], metric)]
    summary["unresolved"] = [metric for metric in HIGHER_IS_BETTER if unresolved(summary[metric], metric)]
    summary["seeds"] = [seed for seed, _, _ in pairs]
    for key in ("attempted", "failed"):
        summary[key] = {"parent": [p[key] for _, p, _ in pairs], "change": [c[key] for _, _, c in pairs]}
    if claim:
        shares = {side: failed_share(summary["failed"][side], summary["attempted"][side]) for side in summary["failed"]}
        summary["verdict"] = verdict(summary[claim], HIGHER_IS_BETTER[claim], claim, shares)
    return summary


def regressed(stats: dict, metric: str) -> bool:
    """Whether the change median is worse than the parent median by more than the metric's bound."""
    slack = BOUNDS[metric] * abs(stats["parent_median"])
    if HIGHER_IS_BETTER[metric]:
        return stats["change_median"] < stats["parent_median"] - slack
    return stats["change_median"] > stats["parent_median"] + slack


def unresolved(stats: dict, metric: str) -> bool:
    """Whether the parent's spread is wider than the metric's bound, and the change runs overlap the parent's."""
    q1, _, q3 = stats["parent_quartiles"]
    if q3 - q1 <= BOUNDS[metric] * abs(stats["parent_median"]):
        return False
    parent, change = stats["parent_runs"], stats["change_runs"]
    if HIGHER_IS_BETTER[metric]:
        return min(change) <= max(parent)
    return max(change) >= min(parent)


def failed_share(failed: list[int], attempted: list[int]) -> float:
    """Failed calls over attempted calls, each summed over a side's runs."""
    return sum(failed) / max(1, sum(attempted))


def verdict(stats: dict, higher: bool, metric: str, failed_shares: dict) -> dict:
    """The claim rule on one metric's summary.

    Wins >= 9/10 of >= 10 pairs, median gap > parent IQR, and the change's
    share of failed calls no larger than the parent's.
    """
    q1, _, q3 = stats["parent_quartiles"]
    gap = stats["change_median"] - stats["parent_median"]
    gap = gap if higher else -gap
    enough_wins = stats["pairs"] >= 10 and stats["change_wins"] >= math.ceil(0.9 * stats["pairs"])
    no_more_failures = failed_shares["change"] <= failed_shares["parent"]
    return {
        "metric": metric,
        "change_wins": stats["change_wins"],
        "pairs": stats["pairs"],
        "median_gain": gap,
        "parent_iqr": q3 - q1,
        "parent_failed_share": failed_shares["parent"],
        "change_failed_share": failed_shares["change"],
        "holds": enough_wins and gap > q3 - q1 and no_more_failures,
    }


def merge(path: Path, label: str, workload: str, summary: dict, claim: str | None) -> None:
    """Write ``summary`` into the file at ``sets[label][workload]``, keeping everything else there."""
    command = " ".join(BENCHMARK["command"])
    host = f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}, numpy {version('numpy')}"
    document = json.loads(path.read_text()) if path.exists() else {
        "command": f"{command} --workload W --seed S, parent and change alternating which runs first",
        "host": host,
        "claim": None,
        "sets": {},
    }
    if claim:
        document["claim"] = f"{claim} on {workload}"
    document["sets"].setdefault(label, {})[workload] = summary
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help='"401-410" or "401,405"')
    parser.add_argument("--claim", choices=sorted(HIGHER_IS_BETTER), help="metric to judge by the claim rule")
    parser.add_argument("--out", type=Path, help="JSON file to merge the summary into")
    parser.add_argument("--set", default="pairs", help="label of the set of runs in --out")
    args = parser.parse_args(argv)
    caches = bytecode_caches(args.parent) + bytecode_caches(args.change)
    if caches:
        listed = "\n".join(str(cache) for cache in caches)
        print(f"error: remove these bytecode caches, or one side skips compiling decobs:\n{listed}", file=sys.stderr)
        return 2
    differences = harness_differences(args.parent, args.change)
    if differences:
        listed = "\n".join(differences)
        print(f"error: the checkouts run different benchmarks; these files differ:\n{listed}", file=sys.stderr)
        return 2
    summary = summarize(run_pairs(args.parent, args.change, args.workload, args.seeds), args.claim)
    if args.out:
        merge(args.out, args.set, args.workload, summary, args.claim)
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness gate applied to the output of every benchmark call.

Each check returns the problems it found; an empty list means the call passed.
A call that fails any check counts as failed in the run's result.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re

from workloads import Workload

#: The CLI's default slack for hard inequality checks (``--tol``), in nats.
HARD_TOL = 1e-9

CSV_HEADER = ["trial", "dim", "functional", "side", "lhs", "rhs", "margin", "trivial"]

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def report_digest(stdout: bytes) -> str:
    """SHA-256 of a report with the JSON timestamp value blanked out."""
    return hashlib.sha256(_TIMESTAMP.sub(b'"timestamp": ""', stdout)).hexdigest()


def check_call(workload: Workload, trials: int, seed: int, exit_code: int, stdout: bytes) -> tuple[list[str], int]:
    """Problems with one campaign call (exit code, row count, violations), and its rows."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], 0
    expected = workload.expected_rows(trials)
    try:
        if workload.fmt == "csv":
            return _check_csv(workload, expected, stdout)
        return _check_json(workload, expected, seed, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"], 0


def _check_json(workload: Workload, expected: int, seed: int, stdout: bytes) -> tuple[list[str], int]:
    report = json.loads(stdout)
    summary = report["summary"]
    problems = []
    if report["command"] != workload.command or report["seed"] != seed:
        problems.append(f"report is for {report['command']} seed {report['seed']}")
    if summary["rows"] != expected or len(report["rows"]) != expected:
        problems.append(f"rows {summary['rows']} (listed {len(report['rows'])}), expected {expected}")
    if summary["violations"] != 0:
        problems.append(f"{summary['violations']} violations")
    if summary.get("consistency_ok", True) is not True:
        problems.append(f"consistency residual {summary['consistency_max_residual']}")
    return problems, len(report["rows"])


def _check_csv(workload: Workload, expected: int, stdout: bytes) -> tuple[list[str], int]:
    table = list(csv.reader(io.StringIO(stdout.decode())))
    if not table or table[0] != CSV_HEADER:
        return ["missing CSV header"], 0
    rows = table[1:]
    problems = []
    if len(rows) != expected:
        problems.append(f"rows {len(rows)}, expected {expected}")
    scale = 1.0 / math.log(2.0) if "bits" in workload.extra else 1.0
    violations = 0
    for trial, dim, functional, side, lhs, rhs, _margin, _trivial in rows:
        if int(dim) != workload.dim or side not in workload.sides or functional not in workload.functionals:
            problems.append(f"unexpected row {trial},{dim},{functional},{side}")
            break
        # the CLI's own verdict, lhs <= rhs + tol in nats, restated in display units
        if not float(lhs) <= float(rhs) + HARD_TOL * scale * (1 + 1e-9):
            violations += 1
    if violations:
        problems.append(f"{violations} violations")
    return problems, len(rows)


def check_counterexample(exit_code: int, stdout: bytes) -> list[str]:
    """Problems with an exact counterexample call: every check must pass."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        failed = json.loads(stdout)["summary"]["checks_failed"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    return [] if failed == 0 else [f"{failed} checks failed"]

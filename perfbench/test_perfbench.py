"""Tests of the benchmark itself, at a tiny size.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import gate
import layers
import run
from workloads import WORKLOADS, Workload

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small(name: str, trials: int = 2) -> Workload:
    """Workload ``name`` at a tiny size."""
    return dataclasses.replace(WORKLOADS[name], trials=trials)


def bench(name: str, trace: bool, seed: int, scratch) -> dict:
    """The result of a minimal run of workload ``name`` at a tiny size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(WORKLOADS, name, small(name))
        runner = run.Runner(scratch)
        return run.report(run.run([name], seed, 0, trace, runner), trace, runner)


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory) -> list[dict]:
    return [bench("probe-small", True, 5, tmp_path_factory.mktemp("trace")) for _ in range(2)]


def test_benchmark_json_names_the_metrics_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.UNITS


def test_untraced_run_reports_every_end_to_end_metric_with_its_unit(tmp_path):
    result = bench("mixture-csv", False, 1, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_CALLS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_with_its_unit(traced_twice):
    result = traced_twice[0]
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == layers.UNITS
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["matcore.eigvalsh_calls"] == 14 and metrics["matcore.spectra"] == 6


def test_counts_repeat_exactly_across_two_traced_runs(traced_twice):
    counts = [name for name, unit in layers.UNITS.items() if unit.endswith("/trial")]
    first, second = ({name: r["metrics"][name]["value"] for name in counts} for r in traced_twice)
    assert "cli.rows" in counts and "entropy.evals" in counts
    assert first == second


def test_layer_self_times_sum_to_no_more_than_the_traced_wall_time(tmp_path):
    runner = run.Runner(tmp_path)
    for name in WORKLOADS:
        workload = small(name, trials=3)
        result = runner.spawn(workload.argv(1), "trace")
        problems, rows = gate.check_call(workload, 3, 1, result.exit_code, result.stdout)
        assert problems == []
        metrics = layers.layer_metrics(result.record, 3, rows)
        own = [metrics[f"{layer}.self_s"] for layer in ("sampling", "states", "processes", "matcore", "entropy")]
        own += [metrics["majorization.self_s"], metrics["cli.assemble_s"], metrics["cli.emit_s"]]
        assert all(seconds >= 0 for seconds in own)
        # every layer span nests inside the CLI's main(), which runs between the two reference tasks
        names, spans = result.record["names"], result.record["spans"]
        _, start, end, _, _ = spans[layers.find_span(names, spans, "cli.main")]
        (before_start, before_end), (after_start, after_end) = result.record["reference"]
        assert sum(own) <= end - start <= result.wall_s - (before_end - before_start) - (after_end - after_start)
        if name == "dominance":
            assert metrics["entropy.evals"] == 0


def test_ops_ok_frac_counts_each_workload_on_its_own(tmp_path):
    runner = run.Runner(tmp_path)
    runner.tally("counterexample", [], ["probe-small", "dominance"])
    runner.tally("dominance seed 1", ["1 violations"], ["dominance"])
    runner.tally("probe-small seed 1", [], ["probe-small"])
    assert runner.ok_frac("probe-small") == 1.0
    assert runner.ok_frac("dominance") == 0.5
    assert (runner.attempted, runner.failed) == (3, 1)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]
    spans = [[0, 0.0, 10.0, -1, 0], [1, 1.0, 4.0, 0, 0], [2, 2.0, 3.0, 1, 0], [3, 5.0, 9.0, 0, 0]]
    assert layers.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_import_times_nest_numpy_inside_decobs():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   encodings",
            "import time:       500 |        700 |     numpy",
            "import time:       300 |       1000 |   decobs",
            "import time:       200 |       1200 | decobs.cli",
        ]
    )
    times = layers.import_times(stderr)
    assert times["import.numpy_s"] == pytest.approx(700e-6)
    assert times["import.decobs_s"] == pytest.approx(500e-6)


def test_gate_rejects_violations_and_short_reports():
    workload = WORKLOADS["mixture-csv"]
    header = ",".join(gate.CSV_HEADER)
    good = f"{header}\n" + "".join(f"0,8,{f},holevo,1.0,2.0,1.0,\n" for f in workload.functionals)
    assert gate.check_call(workload, 1, 0, 0, good.encode()) == ([], 5)
    bad = good.replace("1.0,2.0", "2.5,2.0", 1)
    assert gate.check_call(workload, 1, 0, 0, bad.encode())[0] == ["1 violations"]
    assert gate.check_call(workload, 2, 0, 0, good.encode())[0] == ["rows 5, expected 10"]
    assert gate.check_call(workload, 1, 0, 1, good.encode())[0] == ["exit code 1"]
    report = {"command": "majorization", "seed": 3, "summary": {"rows": 4, "violations": 1}, "rows": [{}] * 4}
    assert gate.check_call(WORKLOADS["dominance"], 1, 3, 0, json.dumps(report).encode())[0] == ["1 violations"]


def test_digest_ignores_only_the_timestamp():
    a = b'{"command": "x", "timestamp": "2026-01-01T00:00:00", "rows": []}'
    b = b'{"command": "x", "timestamp": "2027-05-05T11:11:11", "rows": []}'
    assert gate.report_digest(a) == gate.report_digest(b)
    assert gate.report_digest(a) != gate.report_digest(a.replace(b"[]", b"[1]"))


def test_run_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, "perfbench/run.py", "--workload", "probe-small", "--seconds", "1"]
    process = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout

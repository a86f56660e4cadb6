"""Smoke tests: each script under scripts/ runs end to end on a tiny size."""

import ast
import importlib.util
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")), ids=lambda path: path.name)
def test_a_script_s_docstring_names_every_flag_it_parses(path):
    tree = ast.parse(path.read_text())
    flags = [
        arg.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        for arg in node.args
        if isinstance(arg, ast.Constant) and arg.value.startswith("--")
    ]
    doc = ast.get_docstring(tree) or ""
    assert [flag for flag in flags if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", doc)] == []


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def test_run_all_campaigns_writes_every_report(tmp_path):
    outdir = tmp_path / "reports"
    result = run_script("run_all_campaigns.py", "--trials", "2", "--dims", "2", "--outdir", str(outdir))
    assert result.returncode == 0, result.stderr
    paths = list(outdir.glob("*.json"))
    # three seeded campaigns per dim, and the two counterexamples
    assert sorted(path.stem for path in paths) == [
        "counterexample-1", "counterexample-2", "holevo-dim2", "majorization-dim2", "s-theorems-dim2",
    ]
    assert "0 campaign(s) with violations" in result.stdout
    for path in paths:
        # strict JSON: non-finite values are the strings "inf", "-inf" and "nan"
        assert json.loads(path.read_text(), parse_constant=_reject_constant)["rows"]


def test_sweep_response_dim_emits_csv():
    result = run_script("sweep_response_dim.py", "--trials", "2", "--max-response-dim", "2")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "response_dim,functional,side,mean_margin,trivial_fraction"
    assert len(lines) > 1
    assert {line.split(",")[0] for line in lines[1:]} == {"1", "2"}


def test_show_counterexamples_runs():
    result = run_script("show_counterexamples.py")
    assert result.returncode == 0, result.stderr
    assert "breaks the observation inequality" in result.stdout
    assert "breaks the decoherence inequality" in result.stdout
    # each section prints what the counterexample campaign reports, in von Neumann nats
    sections = result.stdout.split("=== ")[1:]
    assert len(sections) == 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for which, section in enumerate(sections, 1):
        command = [sys.executable, "-m", "decobs", "counterexample", "--which", str(which)]
        report = json.loads(subprocess.run(command, capture_output=True, text=True, env=env, check=True).stdout)
        probabilities = re.search(r"^branch probabilities: (.*)$", section, re.M).group(1)
        assert json.loads(probabilities) == [round(p, 12) for p in report["probabilities"]]
        printed = re.findall(r"^(?:entropy before|expected entropy|entropy of average).*?: +(\S+) nats", section, re.M)
        shown = report["entropy"]
        assert printed == [f"{shown[key]:.6f}" for key in ("before", "expected_after_observation", "of_average")]


#: The digest grid's recorded output: 478 lines, of which the six ``majorization --tol 1e-30`` lines,
#: a tolerance below rounding, exit 1.
DIGESTS = ROOT / "tests" / "report_digests.txt"


def test_report_digests_prints_one_line_per_config(tmp_path):
    """The grid prints the lines of ``tests/report_digests.txt``, byte for byte, so every report keeps its bytes.

    The digests depend on the LAPACK build that numpy calls, as those of
    ``perfbench/digests.json`` do.  A change that moves report bytes on
    purpose records that decision in ``CHANGES.md`` and re-takes the file,
    from the root of the checkout::

        PYTHONPATH=src python scripts/report_digests.py > tests/report_digests.txt
    """
    result = run_script("report_digests.py", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    recorded = DIGESTS.read_text().splitlines()
    assert len(recorded) == 478
    assert sum(line.startswith("1 ") for line in recorded) == 6
    lines = result.stdout.splitlines()
    assert len(lines) == len(recorded)
    for line, expected in zip(lines, recorded):
        assert line == expected
    assert result.stdout == DIGESTS.read_text()
    assert list(tmp_path.iterdir()) == []


def test_report_digests_blanks_the_timestamp():
    script = runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))
    argv = ["counterexample", "--which", "1"]
    assert script["digest"](argv) == script["digest"](argv)


def test_report_digests_multi_chunk_lines_split_into_chunks(monkeypatch):
    from decobs import campaigns
    from decobs.campaigns import holevo, s_theorems, spectral

    script = runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))
    lines = [argv for argv in script["grid"]() if argv[1:5] == ["--dim", "16", "--trials", "20"]]
    assert len(lines) == 6
    assert {argv[0] for argv in lines} == {"verify-s-theorems", "holevo", "majorization"}
    plan = campaigns.plan_chunks
    chunks = []
    for module in (s_theorems, spectral, holevo):
        monkeypatch.setattr(module, "plan_chunks", lambda *args: chunks.append(plan(*args)) or chunks[-1])
    for argv in lines:
        chunks.clear()
        assert script["digest"](argv).startswith("0 ")
        assert len(chunks) == 1 and len(chunks[0]) >= 2


def test_report_digests_parallel_lines_fork_on_two_cpus(allowed_cpus, forks):
    script = runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))
    multi_chunk = list(script["MULTI_CHUNK"])
    lines = [
        argv for argv in script["grid"]()
        if tuple(argv) in script["PARALLEL"] or argv[0] == "majorization" and argv[1:5] == multi_chunk
    ]
    assert len(lines) == 5
    assert {argv[0] for argv in lines} == {"verify-s-theorems", "holevo", "majorization"}
    for argv in lines:
        allowed_cpus(1)
        serial = script["digest"](argv)
        assert forks == []
        allowed_cpus(2)
        assert script["digest"](argv) == serial
        assert len(forks) == 1, argv
        forks.clear()


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_run(trials_per_s: float, wall_s: float, failed: int = 0, **values) -> str:
    """The standard output of one benchmark run: progress lines, then the JSON result."""
    values = {"setup_s": 0.16, "wall_s": wall_s, "trials_per_s": trials_per_s, "peak_rss_mb": 40.0,
              "report_bytes": 9000, "ops_ok_frac": (50 - failed) / 50} | values
    metrics = {name: {"value": value} for name, value in values.items()}
    result = {"correct": True, "attempted": 50, "failed": failed, "metrics": metrics}
    return f"correctness gate: pass ({failed} of 50 calls failed)\n" + json.dumps(result) + "\n"


def _canned_pairs(parent: dict, change: dict, pairs: int = 10) -> list[tuple[int, dict, dict]]:
    """(seed, parent result, change result) of canned runs, each side's keyword arguments to ``_canned_run``."""
    def result(kwargs: dict) -> dict:
        return json.loads(_canned_run(**kwargs).splitlines()[-1])

    return [(seed, result(parent), result(change)) for seed in range(pairs)]


def test_bench_pairs_alternates_the_sides_and_summarizes_canned_runs(monkeypatch, tmp_path):
    bench_pairs = _bench_pairs()
    parent, change = tmp_path / "parent", tmp_path / "change"
    # trials_per_s by side and seed: the change wins 9 of 10 pairs by about 15%
    speed = {
        (parent, seed): 6400.0 + 10 * (seed % 5) for seed in range(401, 411)
    } | {(change, seed): 7400.0 - 20 * (seed % 3) for seed in range(401, 411)}
    speed[change, 410] = 6300.0
    calls = []

    def run(command, cwd, capture_output, text):
        seed = int(command[command.index("--seed") + 1])
        calls.append((cwd, command))
        return subprocess.CompletedProcess(command, 0, _canned_run(speed[cwd, seed], 0.23 if cwd == parent else 0.22), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "BENCH_pairs.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "mixture-csv", "--seeds", "401-410",
            "--claim", "trials_per_s", "--out", str(out), "--set", "final"]
    assert bench_pairs.main(argv) == 0
    # the benchmark command only, parent first on even pairs and change first on odd ones
    assert {tuple(command[:2]) for _, command in calls} == {("python3", "perfbench/run.py")}
    assert [cwd for cwd, _ in calls[:4]] == [parent, change, change, parent]
    assert len(calls) == 20
    summary = json.loads(out.read_text())["sets"]["final"]["mixture-csv"]
    rate = summary["trials_per_s"]
    assert rate["pairs"] == 10 and rate["change_wins"] == 9
    assert rate["parent_runs"] == [speed[parent, seed] for seed in range(401, 411)]
    assert rate["parent_median"] == 6420.0
    assert rate["parent_quartiles"][1] == rate["parent_median"]
    # lower is better for wall_s: the change wins every pair
    assert summary["wall_s"]["change_wins"] == 10
    assert summary["report_bytes"]["change_wins"] == 0
    assert summary["seeds"] == list(range(401, 411))
    assert summary["failed"] == {"parent": [0] * 10, "change": [0] * 10}
    assert summary["regressions"] == []
    verdict = summary["verdict"]
    assert verdict["holds"] and verdict["median_gain"] > verdict["parent_iqr"]
    assert verdict["parent_failed_share"] == verdict["change_failed_share"] == 0.0


@pytest.mark.parametrize("side", ["parent", "change"])
def test_bench_pairs_refuses_a_checkout_with_a_bytecode_cache(monkeypatch, tmp_path, capsys, side):
    bench_pairs = _bench_pairs()
    for name in ("parent", "change"):
        (tmp_path / name / "src" / "decobs").mkdir(parents=True)
    cache = tmp_path / side / "src" / "decobs" / "__pycache__"
    cache.mkdir()
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: pytest.fail("the benchmark ran"))
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--workload", "probe-large",
            "--seeds", "1-10", "--out", str(tmp_path / "BENCH_pairs.json")]
    assert bench_pairs.main(argv) == 2
    assert str(cache) in capsys.readouterr().err
    assert not (tmp_path / "BENCH_pairs.json").exists()


@pytest.mark.parametrize(
    "change_wins,pairs,gain,iqr,holds",
    [(9, 10, 900.0, 20.0, True), (8, 10, 900.0, 20.0, False), (9, 9, 900.0, 20.0, False), (10, 10, 15.0, 20.0, False)],
    ids=["holds", "too-few-wins", "too-few-pairs", "gap-within-iqr"],
)
def test_bench_pairs_verdict_follows_the_claim_rule(change_wins, pairs, gain, iqr, holds):
    stats = {"parent_quartiles": [100.0, 110.0, 100.0 + iqr], "parent_median": 110.0,
             "change_median": 110.0 + gain, "change_wins": change_wins, "pairs": pairs}
    shares = {"parent": 0.0, "change": 0.0}
    assert _bench_pairs().verdict(stats, True, "trials_per_s", shares)["holds"] is holds
    # for a lower-is-better metric the same gap is a loss
    assert _bench_pairs().verdict(stats, False, "wall_s", shares)["holds"] is False


@pytest.mark.parametrize(
    "parent_failed,change_failed,holds",
    [(0, 0, True), (0, 1, False), (2, 1, True), (2, 2, True), (2, 3, False)],
    ids=["none-fail", "change-fails", "change-fails-less", "equal-shares", "change-fails-more"],
)
def test_bench_pairs_verdict_counts_failed_calls(parent_failed, change_failed, holds):
    # the change wins every pair by 15%, so only the failed calls can refuse the claim
    pairs = _canned_pairs(dict(trials_per_s=6400.0, wall_s=0.23, failed=parent_failed),
                          dict(trials_per_s=7400.0, wall_s=0.22, failed=change_failed))
    verdict = _bench_pairs().summarize(pairs, "trials_per_s")["verdict"]
    assert verdict["change_wins"] == 10 and verdict["median_gain"] > verdict["parent_iqr"]
    assert verdict["parent_failed_share"] == parent_failed / 50
    assert verdict["change_failed_share"] == change_failed / 50
    assert verdict["holds"] is holds


@pytest.mark.parametrize(
    "change,regressions",
    [
        (dict(), []),
        (dict(wall_s=0.23 * 1.23), []),
        (dict(wall_s=0.23 * 1.26), ["wall_s"]),
        (dict(trials_per_s=6400.0 * 0.75, report_bytes=9000 * 1.06), ["trials_per_s", "report_bytes"]),
        (dict(trials_per_s=6400.0 * 1.5, wall_s=0.23 * 0.5), []),
        (dict(failed=1), ["ops_ok_frac"]),
    ],
    ids=["same", "wall-within-bound", "wall-past-bound", "rate-and-bytes-past-bound", "better", "one-failed-call"],
)
def test_bench_pairs_names_the_metrics_worse_than_their_bound(change, regressions):
    pairs = _canned_pairs(dict(trials_per_s=6400.0, wall_s=0.23), dict(trials_per_s=6400.0, wall_s=0.23) | change)
    assert _bench_pairs().summarize(pairs)["regressions"] == regressions


@pytest.mark.parametrize(
    "parent,change,unresolved",
    [
        (dict(wall_s=[0.23, 0.24]), dict(wall_s=[0.23, 0.24]), []),
        (dict(wall_s=[0.10, 0.40]), dict(wall_s=[0.10, 0.40]), ["wall_s"]),
        (dict(wall_s=[0.10, 0.40]), dict(wall_s=[0.05, 0.09]), []),
        (dict(wall_s=[0.10, 0.40]), dict(wall_s=[0.05, 0.10]), ["wall_s"]),
        (dict(wall_s=[0.10, 0.40]), dict(wall_s=[0.50, 0.60]), ["wall_s"]),
        (dict(trials_per_s=[6000.0, 9000.0]), dict(trials_per_s=[7000.0, 8000.0]), ["trials_per_s"]),
        (dict(trials_per_s=[6000.0, 9000.0]), dict(trials_per_s=[9001.0, 9500.0]), []),
    ],
    ids=["narrow-spread", "wide-spread", "every-change-run-better", "one-change-run-ties",
         "every-change-run-worse", "wide-rate", "every-change-rate-better"],
)
def test_bench_pairs_names_the_metrics_whose_spread_is_wider_than_their_bound(parent, change, unresolved):
    # each side alternates between its two values over 10 pairs; the metrics not given stay constant
    def result(values: dict, i: int) -> dict:
        kwargs = dict(trials_per_s=6400.0, wall_s=0.23) | {name: runs[i % 2] for name, runs in values.items()}
        return json.loads(_canned_run(**kwargs).splitlines()[-1])

    pairs = [(i, result(parent, i), result(change, i)) for i in range(10)]
    assert _bench_pairs().summarize(pairs)["unresolved"] == unresolved


def _harness(root: Path) -> Path:
    """A checkout holding a ``BENCHMARK.json`` and a ``perfbench/`` of three files."""
    (root / "perfbench" / "__pycache__").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text('{"command": ["python3", "perfbench/run.py"]}\n')
    for name, text in [("run.py", "print(1)\n"), ("gate.py", "GATE = 1\n"), ("__pycache__/run.cpython.pyc", "x")]:
        (root / "perfbench" / name).write_text(text)
    return root


def test_bench_pairs_refuses_checkouts_whose_harnesses_differ(monkeypatch, tmp_path, capsys):
    bench_pairs = _bench_pairs()
    parent, change = _harness(tmp_path / "parent"), _harness(tmp_path / "change")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: pytest.fail("the benchmark ran"))
    # a bytecode cache is not the harness
    (change / "perfbench" / "__pycache__" / "run.cpython.pyc").write_text("y")
    assert bench_pairs.harness_differences(parent, change) == []
    (change / "BENCHMARK.json").write_text('{"command": ["python3", "perfbench/other.py"]}\n')
    (change / "perfbench" / "gate.py").write_text("GATE = 2\n")
    (change / "perfbench" / "extra.py").write_text("")
    (parent / "perfbench" / "run.py").unlink()
    differing = ["BENCHMARK.json", "perfbench/extra.py", "perfbench/gate.py", "perfbench/run.py"]
    assert bench_pairs.harness_differences(parent, change) == differing
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "dominance", "--seeds", "1-5",
            "--out", str(tmp_path / "BENCH_pairs.json")]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert all(path in err for path in differing)
    assert "__pycache__" not in err
    assert not (tmp_path / "BENCH_pairs.json").exists()


def test_bench_pairs_parses_seed_ranges_and_lists():
    bench_pairs = _bench_pairs()
    assert bench_pairs.parse_seeds("401-404") == [401, 402, 403, 404]
    assert bench_pairs.parse_seeds("7,9") == [7, 9]

"""Smoke tests: each script under scripts/ runs end to end on a tiny size."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def test_run_all_campaigns_writes_every_report(tmp_path):
    outdir = tmp_path / "reports"
    result = run_script("run_all_campaigns.py", "--trials", "2", "--dims", "2", "--outdir", str(outdir))
    assert result.returncode == 0, result.stderr
    paths = list(outdir.glob("*.json"))
    assert len(paths) == 6
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


def test_report_digests_prints_one_line_per_config(tmp_path):
    result = run_script("report_digests.py", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    assert len(lines) > 400
    commands = set()
    for line in lines:
        code, digest, command, *_ = line.split(" ")
        assert code in {"0", "1"}
        assert len(digest) == 64 and int(digest, 16) >= 0
        commands.add(command)
    assert commands == {
        "verify-s-theorems", "majorization", "counterexample", "holevo", "luders-equiv", "povm-classify",
    }
    assert list(tmp_path.iterdir()) == []


def test_report_digests_blanks_the_timestamp():
    script = runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))
    argv = ["counterexample", "--which", "1"]
    assert script["digest"](argv) == script["digest"](argv)


def test_report_digests_multi_chunk_lines_split_into_chunks(monkeypatch):
    from decobs import campaigns

    script = runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))
    lines = [argv for argv in script["grid"]() if argv[1:5] == ["--dim", "16", "--trials", "20"]]
    assert len(lines) == 8
    assert {argv[0] for argv in lines} == {"verify-s-theorems", "holevo", "majorization", "luders-equiv"}
    plan = campaigns.plan_chunks
    chunks = []
    monkeypatch.setattr(campaigns, "plan_chunks", lambda *args: chunks.append(plan(*args)) or chunks[-1])
    for argv in lines:
        chunks.clear()
        assert script["digest"](argv).startswith("0 ")
        assert len(chunks) == 1 and len(chunks[0]) >= 2


def test_report_digests_parallel_lines_fork_on_two_cpus(allowed_cpus, forks):
    script = runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))
    multi_chunk = list(script["MULTI_CHUNK"])
    lines = [
        argv for argv in script["grid"]()
        if tuple(argv) in script["PARALLEL"] or argv[0] in ("majorization", "luders-equiv") and argv[1:5] == multi_chunk
    ]
    assert len(lines) == 7
    assert {argv[0] for argv in lines} == {"verify-s-theorems", "holevo", "majorization", "luders-equiv"}
    for argv in lines:
        allowed_cpus(1)
        serial = script["digest"](argv)
        assert forks == []
        allowed_cpus(2)
        assert script["digest"](argv) == serial
        assert len(forks) == 1, argv
        forks.clear()

"""Smoke tests: each script under scripts/ runs end to end on a tiny size."""

import os
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


def test_run_all_campaigns_writes_every_report(tmp_path):
    outdir = tmp_path / "reports"
    result = run_script("run_all_campaigns.py", "--trials", "2", "--dims", "2", "--outdir", str(outdir))
    assert result.returncode == 0, result.stderr
    assert len(list(outdir.glob("*.json"))) == 6
    assert "0 campaign(s) with violations" in result.stdout


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

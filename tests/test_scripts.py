"""Tests for the repository tooling scripts."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args, timeout=180):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )


def test_api_index_is_current():
    """docs/API.md must match the live docstrings (regen if this fails)."""
    proc = run_script("gen_api_index.py", "--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_run_experiments_rejects_unknown():
    proc = run_script("run_experiments.py", "e99")
    assert proc.returncode == 2
    assert "unknown experiments" in proc.stdout


def test_bench_report_quick_smoke():
    """CI smoke: quick perf suite runs, prints the table, writes nothing."""
    proc = run_script("bench_report.py", "--quick", "--no-write", timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "perf suite" in proc.stdout
    assert "engine_churn" in proc.stdout


def test_perfbench_fingerprints_against_itself(tmp_path):
    """One benchmark shard's digest matches itself, and a changed digest
    is named and fails the comparison."""
    args = ("--seed", "1", "--workload", "lan_rbp", "--shard", "0")
    first = run_script("perfbench_fingerprints.py", *args)
    assert first.returncode == 0, first.stderr
    digests = json.loads(first.stdout)
    assert list(digests) == ["lan_rbp/0"]
    reference = tmp_path / "fingerprints.json"
    reference.write_text(first.stdout)
    again = run_script("perfbench_fingerprints.py", *args, "--against", str(reference))
    assert again.returncode == 0, again.stderr
    assert json.loads(again.stdout) == digests
    reference.write_text(json.dumps({"lan_rbp/0": "0" * 64}))
    changed = run_script("perfbench_fingerprints.py", *args, "--against", str(reference))
    assert changed.returncode == 1
    assert "lan_rbp/0" in changed.stderr


def test_run_experiments_single_experiment():
    """Run the fastest experiment end to end through the script."""
    proc = run_script("run_experiments.py", "e1", timeout=400)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "E1" in proc.stdout
    assert "PASS" in proc.stdout

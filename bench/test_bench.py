"""Smoke test of the benchmark at tiny sizes: every workload, the gate and tracing.

    python3 -m pytest bench/test_bench.py

Runs from any directory; the benchmark itself runs from the repo root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from gate import Tally, gate_invocation  # noqa: E402
from workloads import VERIFY_EXIT, WORKLOADS, verdict_keys  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    if trace:
        m = {name: v["value"] for name, v in result["metrics"].items()}
        layers = sum(v for name, v in m.items()
                     if name.endswith(".self_s") and not name.startswith("trace."))
        assert layers + m["trace.harness_s"] == pytest.approx(m["trace.wall_s"], rel=1e-6)
        info = json.loads(proc.stdout.splitlines()[-2])["info"]
        assert info["skipped"] == []


def _tiny_report(tmp_path) -> tuple[str, dict]:
    path = str(tmp_path / "report.json")
    argv = ["verify", "--theorem", "3.1", "--from", "1", "--to", "12",
            "--variant", "both", "--format", "json"]
    with open(path, "w", encoding="utf-8") as out:
        proc = subprocess.run([sys.executable, "-m", "jacsum", *argv], stdout=out,
                              env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
                              timeout=60)
    invocation = {"argv": argv, "exit": VERIFY_EXIT["3.1"], "keys": verdict_keys("3.1", 1, 12)}
    assert proc.returncode == invocation["exit"]
    return path, invocation


def test_gate_catches_a_corrupted_endpoint(tmp_path):
    path, invocation = _tiny_report(tmp_path)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    clean = Tally()
    gate_invocation(clean, invocation, path, invocation["exit"])
    assert clean.failed == 0 and clean.attempted == 1 + len(invocation["keys"])

    with open(path, encoding="utf-8") as f:
        rows = json.load(f)
    row = next(r for r in rows if r["variant"] == "proof-implied" and r["n"] == 8)
    num, den = row["enclosure"]["lo"].split("/")
    row["enclosure"]["hi"] = f"{2 * int(num)}/{den}"  # widen: the floor no longer decides
    with open(path, "w", encoding="utf-8") as f:
        json.dump(rows, f)
    corrupted = Tally()
    gate_invocation(corrupted, invocation, path, invocation["exit"])
    assert corrupted.failed == 1
    assert "3.1 proof-implied n=8" in corrupted.problems[0]
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit  # the gate's raise was scoped


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""

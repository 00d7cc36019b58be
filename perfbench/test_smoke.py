"""Smoke test of the benchmark itself: every workload at the tiny size, with
and without tracing, must pass its output checks and print exactly the
metrics BENCHMARK.json declares.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_metrics_fit_the_limits():
    for group, limit in (("end_to_end", 16), ("per_layer", 128)):
        metrics = SPEC[group]
        assert 1 <= len(metrics) <= limit
        for m in metrics:
            assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m
            assert m["unit"], m


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

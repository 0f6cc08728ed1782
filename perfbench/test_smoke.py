"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py

Each run must exit 0, print every metric BENCHMARK.json names with its unit,
and pass every correctness check (fail_frac 0).  A checkout without trispin's
sources must make the benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run(root: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_printed_and_no_check_fails(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[1:2] == [metric["name"]] and line.split()[3] == metric["unit"] for line in lines[:-1])
    fail_frac = [line.split() for line in lines[:-1] if line.split()[1:2] == ["fail_frac"]]
    assert len(fail_frac) == 1 and float(fail_frac[0][2]) == 0.0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _run(str(tmp_path), "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench/test_selfcheck.py

A planted fault — one observed output corrupted before it is checked —
must come out as a failed operation, never as a number; a directory
holding only the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["rv32i-primes", "msi8-traffic", "fuzz-seeds", "dsp-sweep"]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_fault_is_a_failed_operation(workload):
    result = result_of(run_bench(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", "0", "--plant-fault"))
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] > 1


@pytest.mark.parametrize("workload", ["fuzz-seeds", "dsp-sweep"])
def test_clean_run_is_correct(workload):
    result = result_of(run_bench(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", "0"))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "cycles_per_s",
                                      "jobs_per_s", "peak_rss_mb"}


def test_benchmark_without_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "dsp-sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

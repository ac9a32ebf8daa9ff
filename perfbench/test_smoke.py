"""Toy-scale test of the benchmark itself.

  python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once at toy scale, untraced and traced, and checks that
every metric named in BENCHMARK.json is printed with its unit; that a
corrupted margins file fed to `committee` is counted as a failed operation
rather than crashing the benchmark; and that the benchmark refuses to run
without the folkclass sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "5", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench("--workload", workload, "--trace", str(trace), "--smoke")
    result = result_of(proc)
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["end_to_end"] if trace == 0 else BENCH["per_layer"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for name, unit in printed.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines()), name
    assert "ops_failed_ratio" in proc.stdout
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_margins_count_as_failed_operation():
    proc = run_bench("--workload", "cli-pipeline", "--smoke", "--corrupt-margins")
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "folkclass committee exited 1" in proc.stdout


def test_refuses_to_run_without_folkclass_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", "corpus", cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)

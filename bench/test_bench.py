"""Self-test of the benchmark at smoke scale (request counts / 100).

Every workload runs once untraced and once traced, each in its own
subprocess through the command ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _smoke(name: str, trace: int) -> tuple[dict, str]:
    completed = _run(
        "--workload", name, "--seed", "0", "--seconds", "0",
        "--trace", str(trace), "--scale", "smoke",
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    signature = next(line.split()[1] for line in lines if line.startswith("signature "))
    return json.loads(lines[-1]), signature


@pytest.fixture(scope="module")
def smoke_runs() -> dict[tuple[str, int], tuple[dict, str]]:
    return {(name, trace): _smoke(name, trace) for name in NAMES for trace in (0, 1)}


def test_workload_table_matches_benchmark_json():
    from bench_workloads import WORKLOADS

    assert list(WORKLOADS) == NAMES


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(smoke_runs, name, trace):
    result, _ = smoke_runs[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


@pytest.mark.parametrize("name", NAMES)
def test_runs_repeat_and_tracing_is_inert(smoke_runs, name):
    # Two fresh processes, one of them traced, serve identical timelines.
    assert smoke_runs[name, 0][1] == smoke_runs[name, 1][1]


def test_unknown_workload_is_refused():
    completed = _run("--workload", "no-such-workload")
    assert completed.returncode != 0
    assert "invalid choice: 'no-such-workload'" in completed.stderr


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = _run("--workload", NAMES[0], "--seconds", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout

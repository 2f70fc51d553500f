"""The benchmark's traced block-store rules, at tier 1.

``bench/run.py --scale smoke`` skips the purpose checks, so the only run
that enforces "short-nocache must never call the block store" is a
full-scale traced one.  These tests apply that rule to one smoke-scale
traced ``short-nocache`` pass, and its converse to one smoke-scale traced
``prefix-hit`` pass (whose requests all go through the prefix cache), both
built and traced through the benchmark's own modules (they read
``bench/`` and change nothing there).  Each checks that the tracer found
every layer function it times except the two block-store methods that no
longer exist, so a rename that drops the block-store timer fails here.
"""

import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "bench"

#: Block-store methods the tracer still lists that the store no longer has.
KNOWN_MISSING = {"SharedBlockStore.allocate_run", "SharedBlockStore.append_to_block"}


@pytest.fixture()
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import bench_trace
    import bench_workloads

    return bench_trace, bench_workloads


def traced_pass(bench_modules, capsys, workload: str):
    """``(metrics, requests, timers the tracer could not find)`` of one
    smoke-scale traced pass of ``workload``."""
    bench_trace, bench_workloads = bench_modules
    setup = bench_workloads.WORKLOADS[workload](0, bench_workloads.SMOKE_DIVISOR)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        missing = {
            line.split()[1]
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("trace: ") and line.endswith("loses that timer")
        }
        start = time.perf_counter()
        result = bench_workloads.run_pass(setup)
        wall = time.perf_counter() - start
        tracer.harvest()
    finally:
        tracer.uninstall()
    return tracer.layer_metrics(1, wall), result.requests, missing


def test_traced_short_nocache_pass_never_calls_the_block_store(bench_modules, capsys):
    metrics, requests, missing = traced_pass(bench_modules, capsys, "short-nocache")
    assert requests > 0
    assert metrics["router.calls"] > 0  # the tracer saw the pass
    assert metrics["block_store.calls"] == 0
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)


def test_traced_prefix_hit_pass_times_the_block_store(bench_modules, capsys):
    metrics, requests, missing = traced_pass(bench_modules, capsys, "prefix-hit")
    assert requests > 0
    assert metrics["router.calls"] > 0
    assert metrics["block_store.calls"] > 0
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)

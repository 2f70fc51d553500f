"""Disaggregated vs unified serving under mixed traffic (beyond-paper).

A reduced :func:`repro.experiments.disagg_sweep.run_disagg_sweep` run —
one merged chat + long-prompt stream served by unified, disaggregated and
heterogeneous-fast-prefill clusters at equal device count.  The rows land
in ``BENCH_disagg.json`` for CI trend tracking, and the benchmark *gates*
the architecture claims the subsystem exists for: disaggregation must
match or beat unified SLO-goodput on this traffic, and the heterogeneous
fast-prefill cluster must beat the same-count all-slow split.  Set
``BENCH_DISAGG_JSON`` to redirect the artifact path.
"""

import os

import pytest

from repro.experiments.bench_output import write_bench_serving_json
from repro.experiments.disagg_sweep import DISAGG_COLUMNS, run_disagg_sweep

BENCH_JSON = os.environ.get("BENCH_DISAGG_JSON", "BENCH_disagg.json")

SWEEP_KWARGS = {
    "num_shards": 4,
    "load_factor": 3.0,
    "chat_requests": 48,
    "long_requests": 8,
    "chat_generation_len": 64,
    "long_generation_len": 32,
    "seed": 0,
}


@pytest.mark.paper_artifact("Disaggregation sweep (beyond-paper)")
def test_bench_disagg_sweep(benchmark, print_rows):
    rows = benchmark.pedantic(
        run_disagg_sweep,
        kwargs=SWEEP_KWARGS,
        iterations=1,
        rounds=1,
    )
    print_rows(
        rows,
        columns=list(DISAGG_COLUMNS),
        title=(
            "Disaggregation sweep: mixed chat + summarization @ S1 x4, "
            "Poisson arrivals"
        ),
    )
    document = write_bench_serving_json(
        BENCH_JSON,
        rows,
        meta={
            "source": "benchmarks/test_bench_disagg.py",
            "model": "mixtral-8x7b",
            "hardware": "1xT4",
            "fast_hardware": "1xL4",
            **SWEEP_KWARGS,
        },
        benchmark="disagg",
    )
    by_config = {row["config"]: row for row in rows}
    assert set(by_config) == {"unified", "disagg", "disagg-het"}
    # Every configuration faced the identical offered stream.
    offered = {row["offered"] for row in rows}
    assert len(offered) == 1
    # The architecture gates: disaggregation holds the tight TPOT SLO that
    # unified prefill interference breaks, at equal device count ...
    assert by_config["disagg"]["goodput"] >= by_config["unified"]["goodput"]
    # ... and putting the fast device type where the FLOPs are (prefill)
    # beats the same-count all-slow split.
    assert by_config["disagg-het"]["goodput"] > by_config["disagg"]["goodput"]
    # Migration happened and was conserved into decode-side completions.
    assert by_config["disagg"]["migrated"] > 0
    assert by_config["disagg-het"]["migrated"] > 0
    assert by_config["unified"]["migrated"] == 0
    assert document["meta"]["source"] == "benchmarks/test_bench_disagg.py"

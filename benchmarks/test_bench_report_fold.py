"""Micro-benchmark of the streaming report fold (not a paper artifact).

A fixed seeded set of 50k hand-built request records, cut into random
retirement-sized batches, is folded through a streaming
:class:`repro.serving.ReportBuilder`.  The built row must equal the row of
the frozen per-request observer with per-value P² sketches.  The cost per
request is recorded in ``extra_info``; nothing is asserted about time.
"""

import pytest

from repro.serving import SLO, ReportBuilder
from tests.frozen_report import frozen_builder, frozen_observe, make_records, splits

NUM_REQUESTS = 50_000
MAKESPAN = 2_500.0
SLO_TARGET = SLO(ttft=0.5, tpot=0.05)


@pytest.mark.paper_artifact("infrastructure")
def test_streaming_report_fold(benchmark):
    records = make_records(seed=0, count=NUM_REQUESTS)
    batches = splits(records, seed=0)

    def fold():
        builder = ReportBuilder(SLO_TARGET, store_samples=False)
        for batch in batches:
            builder.observe_many(batch)
        return builder.build(MAKESPAN).as_row()

    row = benchmark.pedantic(fold, rounds=3, iterations=1)

    reference = frozen_builder(SLO_TARGET)
    for sr in records:
        frozen_observe(reference, sr)
    assert row == reference.build(MAKESPAN).as_row()

    ns_per_request = benchmark.stats.stats.median / NUM_REQUESTS * 1e9
    benchmark.extra_info["ns_per_request"] = ns_per_request
    print(f"\nstreaming report fold: {ns_per_request:.0f} ns/request")

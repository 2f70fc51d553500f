"""One observer path: every way of feeding a ReportBuilder builds one report.

``ReportBuilder.observe`` is a one-request ``observe_many``.  Hand-built
request records cover every rejection outcome code, retries, requests
still live at stream end, ``generation_len == 1`` (TPOT 0.0) and
prefix-cache hits and misses.  Fed per request, as one batch or in random
splits, both aggregation modes must build ``==``-identical reports; the
exact mode must match :func:`summarize` and plain numpy over the
per-request latency properties, and the streaming mode the frozen
per-request observer.
"""

import numpy as np
import pytest

from repro.serving import SLO, ReportBuilder, summarize
from repro.serving.metrics import REPORT_PERCENTILES
from repro.serving.queue import OUTCOME_CODES, RequestState
from tests.frozen_report import frozen_builder, frozen_observe, make_records, splits

SLO_TARGET = SLO(ttft=0.5, tpot=0.05)
MAKESPAN = 40.0


def fingerprint(builder: ReportBuilder) -> tuple:
    report = builder.build(MAKESPAN)
    return report.as_row(), report.mean_ttft_hit, report.mean_ttft_miss


def feed(records, *, store_samples: bool, how: str, seed: int = 0) -> tuple:
    builder = ReportBuilder(SLO_TARGET, store_samples=store_samples)
    if how == "per-request":
        for sr in records:
            builder.observe(sr)
    elif how == "one-batch":
        builder.observe_many(iter(records))
    else:
        for batch in splits(records, seed):
            builder.observe_many(batch)
    return fingerprint(builder)


def test_records_cover_every_case():
    records = make_records(0)
    codes = {sr.outcome_code for sr in records if sr.state is RequestState.REJECTED}
    assert codes == set(OUTCOME_CODES)
    finished = [sr for sr in records if sr.state is RequestState.FINISHED]
    assert any(sr.attempt > 0 for sr in finished)
    assert any(sr.tpot == 0.0 and sr.request.generation_len == 1 for sr in finished)
    assert any(sr.is_cache_hit for sr in finished)
    assert any(not sr.is_cache_hit for sr in finished)
    assert any(SLO_TARGET.is_met(sr) for sr in finished)
    assert any(not SLO_TARGET.is_met(sr) for sr in finished)
    live = {sr.state for sr in records} - {RequestState.FINISHED, RequestState.REJECTED}
    assert live == {RequestState.QUEUED, RequestState.RUNNING}


@pytest.mark.parametrize("store_samples", [True, False], ids=["exact", "streaming"])
@pytest.mark.parametrize("length", [0, 3, 12, 400])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_feeding_builds_the_same_report(store_samples, length, seed):
    records = make_records(seed)[:length]
    one_batch = feed(records, store_samples=store_samples, how="one-batch")
    assert feed(records, store_samples=store_samples, how="per-request") == one_batch
    for split_seed in range(4):
        assert (
            feed(records, store_samples=store_samples, how="splits", seed=split_seed)
            == one_batch
        )


@pytest.mark.parametrize("length", [0, 3, 12, 400])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_mode_matches_summarize_and_numpy(length, seed):
    records = make_records(seed)[:length]
    report = summarize(records, MAKESPAN, SLO_TARGET)
    assert feed(records, store_samples=True, how="splits", seed=seed) == (
        report.as_row(), report.mean_ttft_hit, report.mean_ttft_miss
    )
    # An independent reference from the per-request latency properties.
    finished = [sr for sr in records if sr.state is RequestState.FINISHED]
    for name, values in (
        ("ttft", [sr.ttft for sr in finished]),
        ("tpot", [sr.tpot for sr in finished]),
        ("e2e", [sr.e2e_latency for sr in finished]),
    ):
        expected = {
            q: float(np.percentile(values, q)) if values else 0.0
            for q in REPORT_PERCENTILES
        }
        assert getattr(report, name) == expected
    hit = [sr.ttft for sr in finished if sr.is_cache_hit]
    miss = [sr.ttft for sr in finished if not sr.is_cache_hit]
    assert report.mean_ttft_hit == (float(np.mean(hit)) if hit else 0.0)
    assert report.mean_ttft_miss == (float(np.mean(miss)) if miss else 0.0)
    assert report.slo_met == sum(SLO_TARGET.is_met(sr) for sr in finished)


@pytest.mark.parametrize("length", [0, 3, 12, 400])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streaming_mode_matches_the_frozen_observer(length, seed):
    records = make_records(seed)[:length]
    reference = frozen_builder(SLO_TARGET)
    for sr in records:
        frozen_observe(reference, sr)
    assert feed(records, store_samples=False, how="splits", seed=seed) == fingerprint(
        reference
    )

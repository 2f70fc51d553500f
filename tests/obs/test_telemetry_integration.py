"""Telemetry threaded through the serving stack: the ISSUE's acceptance bar.

* Telemetry disabled → results bit-for-bit identical to a telemetry-on
  run of the same stream (the hooks never mutate serving state);
* on a 2-shard, overlap-on chat run the per-lane span sums reproduce
  ``decode_busy_s`` / ``prefill_busy_s`` / ``overlap_fraction`` exactly
  (``==``, not approx);
* spans never overlap on one lane, and every finished request's lifecycle
  chain (queue → prefill → decode) is gapless.
"""

import pytest

from repro.experiments.serving_sweep import offline_capacity
from repro.obs import Telemetry, validate_chrome_trace
from repro.serving import (
    PoissonProcess,
    ServingSystem,
    ShardedServingSystem,
)
from repro.serving.queue import RequestState
from repro.systems import MoELightningSystem
from repro.workloads import chat

NUM_REQUESTS = 32
SEED = 0


@pytest.fixture(scope="module")
def setup(mixtral, t4_node):
    workload = chat(generation_len=16, num_requests=NUM_REQUESTS)
    backend = MoELightningSystem(mixtral, t4_node)
    policy = backend.select_policy(workload)
    rate = 3.0 * offline_capacity(backend, workload, policy)
    return backend, workload, policy, rate


def run_sharded(setup, telemetry=None):
    backend, workload, policy, rate = setup
    sharded = ShardedServingSystem(
        backend,
        workload,
        num_shards=2,
        policy=policy,
        router="round-robin",
        prefix_cache=True,
        overlap=True,
    )
    return sharded.run(
        PoissonProcess(rate), count=NUM_REQUESTS, seed=SEED, telemetry=telemetry
    )


@pytest.fixture(scope="module")
def traced(setup):
    telemetry = Telemetry(sample_interval=2.0)
    result = run_sharded(setup, telemetry=telemetry)
    return result, telemetry


class TestZeroImpact:
    def test_disabled_is_bit_for_bit_identical(self, setup, traced):
        result_on, _ = traced
        result_off = run_sharded(setup, telemetry=None)
        assert result_off.report == result_on.report
        assert result_off.makespan == result_on.makespan
        assert result_off.admission_stats == result_on.admission_stats
        for off, on in zip(result_off.requests, result_on.requests):
            assert off.arrival_time == on.arrival_time
            assert off.admit_time == on.admit_time
            assert off.first_token_time == on.first_token_time
            assert off.finish_time == on.finish_time
            assert off.shard_id == on.shard_id
            assert off.tokens_decoded == on.tokens_decoded

    def test_single_engine_disabled_identical(self, setup):
        backend, workload, policy, rate = setup
        process = PoissonProcess(rate)
        on = ServingSystem(backend, workload, policy=policy, overlap=True).run(
            process, count=NUM_REQUESTS, seed=SEED, telemetry=Telemetry()
        )
        off = ServingSystem(backend, workload, policy=policy, overlap=True).run(
            process, count=NUM_REQUESTS, seed=SEED
        )
        assert off.report == on.report
        assert [sr.finish_time for sr in off.requests] == [
            sr.finish_time for sr in on.requests
        ]


class TestSingleEngineSampler:
    def test_sampled_queue_depth_counts_mid_step_arrivals(self, mixtral, t4_node):
        """Each sample's queue depth is the true queue at its instant.

        An arrival that lands while a step is in flight joins the queue at
        its arrival time, so the sample at ``t`` must count every request
        with ``arrival_time <= t < admit_time`` — computed here from the
        result's own per-request timestamps.
        """
        workload = chat(generation_len=8, num_requests=16)
        backend = MoELightningSystem(mixtral, t4_node)
        policy = backend.select_policy(workload)
        rate = 2.0 * offline_capacity(backend, workload, policy)
        telemetry = Telemetry(trace=False, metrics=False, sample_interval=5.0)
        result = ServingSystem(backend, workload, policy=policy, overlap=True).run(
            PoissonProcess(rate), count=16, seed=SEED, telemetry=telemetry
        )
        assert all(sr.admit_time is not None for sr in result.requests)
        samples = telemetry.sampler.samples
        assert len(samples) > 10
        queued_somewhere = False
        for sample in samples:
            t = sample["t"]
            expected = sum(
                1
                for sr in result.requests
                if sr.arrival_time <= t < sr.admit_time
            )
            queued_somewhere |= expected > 0
            assert sample["queue_depth"] == expected, f"t={t}"
        assert queued_somewhere


class TestLaneAccounting:
    def test_lane_sums_reproduce_stream_busy_exactly(self, traced):
        result, telemetry = traced
        trace = telemetry.trace
        for stats in result.shard_stats:
            label = f"shard{stats.shard_id}"
            assert trace.lane_busy(f"{label}/decode") == stats.decode_stream_busy
            assert trace.lane_busy(f"{label}/prefill") == stats.prefill_stream_busy
            assert trace.lane_busy(f"{label}/weight") == stats.busy_time

    def test_cluster_totals_reproduce_as_row_exactly(self, traced):
        result, telemetry = traced
        trace = telemetry.trace
        row = result.as_row()
        decode = sum(
            trace.lane_busy(f"shard{s.shard_id}/decode")
            for s in result.shard_stats
        )
        prefill = sum(
            trace.lane_busy(f"shard{s.shard_id}/prefill")
            for s in result.shard_stats
        )
        assert decode == row["decode_busy_s"]
        assert prefill == row["prefill_busy_s"]

    def test_overlap_fraction_reconstructed_exactly(self, traced):
        # Per step: overlapped = (decode + prefill) - duration (never
        # clamped: a pure step's sum equals its duration, a mixed step's
        # duration is max(decode, prefill)), so the trace alone
        # reconstructs each shard's overlap fraction bit-for-bit.
        result, telemetry = traced
        trace = telemetry.trace
        assert result.overlap_fraction > 0.0
        for stats in result.shard_stats:
            label = f"shard{stats.shard_id}"
            decode = {s.start: s.duration for s in trace.spans_on(f"{label}/decode")}
            prefill = {s.start: s.duration for s in trace.spans_on(f"{label}/prefill")}
            overlapped = busy = 0.0
            for span in trace.spans_on(f"{label}/weight"):
                overlapped += max(
                    0.0,
                    decode.get(span.start, 0.0)
                    + prefill.get(span.start, 0.0)
                    - span.duration,
                )
                busy += span.duration
            fraction = overlapped / busy if busy > 0 else 0.0
            assert fraction == stats.overlap_fraction

    def test_lanes_never_overlap(self, traced):
        _, telemetry = traced
        telemetry.trace.verify_lanes()


class TestRequestChains:
    def test_chains_are_gapless_and_complete(self, traced):
        result, telemetry = traced
        trace = telemetry.trace
        trace.verify_request_chains()
        finished = [
            sr for sr in result.requests if sr.state is RequestState.FINISHED
        ]
        traced_ids = {rs.request_id for rs in trace.request_spans}
        assert traced_ids == {sr.request_id for sr in finished}
        for sr in finished:
            chain = trace.request_chain(sr.request_id)
            assert [rs.phase for rs in chain] == ["queue", "prefill", "decode"]
            assert chain[0].start == sr.arrival_time
            assert chain[-1].end == sr.finish_time

    def test_latency_histograms_match_report_means(self, traced):
        result, telemetry = traced
        snapshot = telemetry.registry.snapshot()
        ttft = snapshot["histograms"]["ttft"]
        assert ttft["count"] == result.report.num_completed
        assert ttft["mean"] == pytest.approx(result.report.mean_ttft)

    def test_admission_counters_match_stats(self, traced):
        result, telemetry = traced
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["admission.admitted"] == result.admission_stats["admitted"]
        assert counters["requests.routed"] == result.report.num_offered
        assert counters["requests.finished"] == result.report.num_completed
        assert (
            counters["tokens.generated"] == result.report.tokens_generated
        )


class TestSamplerAndExport:
    def test_sampler_covers_the_run(self, traced):
        result, telemetry = traced
        samples = telemetry.sampler.samples
        assert samples, "sampler recorded nothing"
        assert samples[0]["t"] == 0.0
        assert samples[-1]["t"] >= result.makespan - telemetry.sampler.interval
        names = telemetry.sampler.series_names()
        assert {"queue_depth", "load", "kv_frac", "hit_rate"} <= set(names)
        assert "shard0.load" in names and "shard1.load" in names

    def test_chrome_export_of_real_run_validates(self, traced, tmp_path):
        _, telemetry = traced
        document = telemetry.trace.write_chrome(tmp_path / "trace.json")
        assert validate_chrome_trace(document) == []

    def test_summary_rollup(self, traced):
        result, telemetry = traced
        summary = telemetry.summary()
        assert summary["requests_traced"] == result.report.num_completed
        assert summary["samples"] == len(telemetry.sampler.samples)
        lanes = {row["lane"] for row in summary["lanes"]}
        assert "shard0/weight" in lanes and "router" in lanes

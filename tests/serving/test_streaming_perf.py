"""The streaming hot path: timeline equivalence, O(1) accounting, memory.

The performance overhaul's contract is that every optimization is
*invisible* to the simulated timeline:

* streaming mode (``store_samples=False``: lazy columnar arrivals, sketch
  reports, no step records) serves bit-for-bit the same per-request
  admit/first-token/finish instants as exact mode, and its P² percentiles
  track the exact ones;
* incremental routing (shared load board + direct prefix-index probes)
  hands the router exactly the loads and cached-prefix lengths a poll of
  every core would read at each arrival, for both load-driven and
  cache-aware policies;
* the engine's O(1) counters (load, offered/completed/rejected, busy
  accumulators) agree with the scans they replaced;
* a long streaming run's peak memory does not grow with stream length.
"""

import tracemalloc

import pytest

from repro.experiments.serving_sweep import offline_capacity
import repro.serving.sharded as sharded_module
from repro.serving import PoissonProcess, ServingEventLoop, ShardRouter, default_slo
from repro.serving.metrics import ReportBuilder
from repro.serving.queue import ServingRequest
from repro.serving.server import EngineCore, EngineStepModel
from repro.serving.sharded import ShardedServingSystem
from repro.systems import MoELightningSystem
from repro.workloads import chat

GENERATION_LEN = 8
SEED = 7


@pytest.fixture(scope="module")
def backend(mixtral, t4_node):
    return MoELightningSystem(mixtral, t4_node)


def make_sharded(backend, num_requests, num_shards=4, **kwargs):
    workload = chat(generation_len=GENERATION_LEN, num_requests=num_requests)
    policy = backend.select_policy(workload)
    slo = default_slo(backend, workload, policy)
    return ShardedServingSystem(
        backend,
        workload,
        num_shards=num_shards,
        policy=policy,
        slo=slo,
        **kwargs,
    )


def sustainable_rate(backend, num_shards, load_factor=0.8):
    """An offered rate that keeps queues bounded (for memory tests)."""
    workload = chat(generation_len=GENERATION_LEN, num_requests=1)
    policy = backend.select_policy(workload)
    return load_factor * offline_capacity(backend, workload, policy) * num_shards


def run_stream(system, num_requests, rate=120.0, seed=SEED):
    return system.run(PoissonProcess(rate), count=num_requests, seed=seed)


def per_request_instants(records):
    """Multiset of per-request timelines, independent of record order.

    ``None`` instants (rejected requests never admit or decode) sort as
    -1 so the tuples stay comparable.
    """

    def instant(value):
        return -1.0 if value is None else value

    return sorted(
        (
            sr.arrival_time,
            instant(sr.shard_id),
            instant(sr.admit_time),
            instant(sr.first_token_time),
            instant(sr.finish_time),
            sr.state.name,
        )
        for sr in records
    )


# ----------------------------------------------------------------------
# Streaming vs. exact equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("router", ["round-robin", "least-loaded"])
def test_streaming_mode_reproduces_exact_timeline(backend, monkeypatch, router):
    """Same stream, same instants: only the report aggregation differs."""
    num_requests = 300
    exact = run_stream(
        make_sharded(backend, num_requests, router=router), num_requests
    )

    # ``observe`` is a one-request ``observe_many``, so spying on the
    # batch path alone sees every request exactly once.
    captured = []
    original_many = ReportBuilder.observe_many

    def spy_many(self, serving_requests):
        batch = list(serving_requests)
        captured.extend(batch)
        original_many(self, batch)

    monkeypatch.setattr(ReportBuilder, "observe_many", spy_many)
    streaming = run_stream(
        make_sharded(backend, num_requests, router=router, store_samples=False),
        num_requests,
    )

    # Bit-for-bit: makespan, per-request instants, shard stats, and every
    # exact (counter-derived) report field.
    assert streaming.makespan == exact.makespan
    assert len(captured) == num_requests
    assert per_request_instants(captured) == per_request_instants(
        exact.requests
    )
    assert [s.as_row() for s in streaming.shard_stats] == [
        s.as_row() for s in exact.shard_stats
    ]
    assert streaming.report.num_offered == exact.report.num_offered
    assert streaming.report.num_completed == exact.report.num_completed
    assert streaming.report.num_rejected == exact.report.num_rejected
    assert streaming.report.goodput == exact.report.goodput
    assert streaming.report.token_throughput == exact.report.token_throughput
    assert streaming.report.mean_ttft == pytest.approx(exact.report.mean_ttft)
    assert streaming.report.mean_tpot == pytest.approx(exact.report.mean_tpot)
    # Streaming mode keeps no records by design.
    assert streaming.requests == []

    # P² percentiles track the exact ones within sketch tolerance.
    for name in ("ttft", "tpot", "e2e"):
        exact_pcts = getattr(exact.report, name)
        stream_pcts = getattr(streaming.report, name)
        for percentile, exact_value in exact_pcts.items():
            assert stream_pcts[percentile] == pytest.approx(
                exact_value, rel=0.15
            )


# ----------------------------------------------------------------------
# Incremental routing state vs. polled core state
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "router,prefix_cache",
    [("least-loaded", False), ("cache-aware", True)],
)
def test_incremental_routing_state_matches_polled_cores(
    backend, router, prefix_cache, monkeypatch
):
    """The O(1) router state is what a per-arrival poll would read.

    The loop's route callable is wrapped to expose the live cores; at
    every arrival the loads (and, cache-aware, the cached-prefix lengths)
    handed to :meth:`ShardRouter.route` must equal each core's
    ``load()`` and ``admission.match_prefix(request)`` at that instant.
    """
    num_requests = 200
    live: dict[str, object] = {}
    checked = []

    class WrappedRouteLoop(ServingEventLoop):
        def __init__(self, cores, route, telemetry=None):
            def wrapped(serving_request, loop_cores):
                live["cores"] = loop_cores
                return route(serving_request, loop_cores)

            super().__init__(cores, wrapped, telemetry=telemetry)

    original = ShardRouter.route

    def polled_route(self, serving_request, loads, prefix_lens=None):
        cores = live["cores"]
        assert list(loads) == [core.load() for core in cores]
        if router == "cache-aware":
            assert list(prefix_lens) == [
                core.admission.match_prefix(serving_request.request)
                for core in cores
            ]
        checked.append(serving_request)
        return original(self, serving_request, loads, prefix_lens)

    monkeypatch.setattr(sharded_module, "ServingEventLoop", WrappedRouteLoop)
    monkeypatch.setattr(ShardRouter, "route", polled_route)
    system = make_sharded(
        backend, num_requests, router=router, prefix_cache=prefix_cache
    )
    # A sustainable rate interleaves retirements with arrivals, so the
    # board is checked after load decrements as well as increments.
    result = run_stream(
        system, num_requests, rate=sustainable_rate(backend, num_shards=4)
    )
    assert len(checked) == num_requests
    assert result.report.num_completed + result.report.num_rejected == num_requests
    if router == "cache-aware":
        assert result.admission_stats["cache_hits"] > 0


def test_load_counter_matches_scan(backend):
    """The incremental load counter equals the O(n) scan it replaced."""
    num_requests = 120
    workload = chat(generation_len=GENERATION_LEN, num_requests=num_requests)
    policy = backend.select_policy(workload)
    step_model = EngineStepModel(backend, workload, policy)
    core = EngineCore(
        backend=backend,
        workload=workload,
        policy=policy,
        step_model=step_model,
        max_queue_depth=8,
    )
    rate = 4.0 * offline_capacity(backend, workload, policy)
    stream = PoissonProcess(rate).generate_lazy(
        workload, count=num_requests, seed=SEED
    )
    for timed in stream:
        core.offer(
            ServingRequest(request=timed.request, arrival_time=timed.arrival_time)
        )
        assert core._load == core.load()
        # Drive steps opportunistically so admissions, retirements and
        # oversized rejections all exercise the counter.
        if not core.step_in_flight and core.has_work():
            core.begin_step()
            assert core._load == core.load()
        if core.step_in_flight:
            core.complete_step()
            assert core._load == core.load()
    core.drain()
    assert core._load == core.load() == 0


# ----------------------------------------------------------------------
# Memory flatness
# ----------------------------------------------------------------------
def test_streaming_memory_is_flat_in_stream_length(backend):
    """4x the requests must not cost 4x the memory (or anywhere near it).

    The streaming path holds one in-flight arrival plus the live working
    set; peak traced memory at 100k requests stays within a small factor
    of the 25k peak (fixed overheads: step-model memo, interpreter noise)
    instead of scaling with the stream.
    """
    rate = sustainable_rate(backend, num_shards=4)
    peaks = {}
    for num_requests in (25_000, 100_000):
        system = make_sharded(
            backend, num_requests, num_shards=4, store_samples=False
        )
        tracemalloc.start()
        result = run_stream(system, num_requests, rate=rate)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[num_requests] = peak
        assert result.report.num_completed + result.report.num_rejected == (
            num_requests
        )
    assert peaks[100_000] < 2.0 * peaks[25_000]
    # Absolute sanity: far below what 100k stored ServingRequests need.
    assert peaks[100_000] < 120e6


def test_lazy_hash_memory_is_flat_in_stream_length(backend):
    """Cache-aware streaming stays flat too: hashes, no token lists.

    The prefix-cache hot path carries each prompt as a per-session hash
    row plus a lazy token source — never a materialised token tuple — and
    the shard stores' residency is bounded by their pools, not by the
    stream.  4x the requests must stay within a small factor of the peak
    (per-session hash rows and interpreter noise are the only growth).
    """
    rate = sustainable_rate(backend, num_shards=4)
    peaks = {}
    for num_requests in (10_000, 40_000):
        system = make_sharded(
            backend,
            num_requests,
            num_shards=4,
            router="cache-aware",
            prefix_cache=True,
            store_samples=False,
        )
        tracemalloc.start()
        result = run_stream(system, num_requests, rate=rate)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[num_requests] = peak
        assert result.report.num_completed + result.report.num_rejected == (
            num_requests
        )
    assert peaks[40_000] < 2.0 * peaks[10_000]
    # Absolute sanity: far below what 40k stored token tuples need.
    assert peaks[40_000] < 80e6


def test_streaming_percentiles_agree_with_exact_at_scale(backend):
    """P² vs. exact on a long stream: the sketch is a faithful reporter."""
    num_requests = 30_000
    rate = sustainable_rate(backend, num_shards=4)
    exact = run_stream(
        make_sharded(backend, num_requests, num_shards=4),
        num_requests,
        rate=rate,
    )
    streaming = run_stream(
        make_sharded(backend, num_requests, num_shards=4, store_samples=False),
        num_requests,
        rate=rate,
    )
    assert streaming.makespan == exact.makespan
    assert streaming.report.goodput == exact.report.goodput
    assert streaming.report.num_completed == exact.report.num_completed
    for name in ("ttft", "tpot", "e2e"):
        exact_pcts = getattr(exact.report, name)
        stream_pcts = getattr(streaming.report, name)
        for percentile, exact_value in exact_pcts.items():
            assert stream_pcts[percentile] == pytest.approx(
                exact_value, rel=0.1
            )

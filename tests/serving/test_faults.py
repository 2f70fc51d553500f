"""Fault injection, crash recovery and graceful degradation.

Covers the PR's robustness acceptance criteria at tier 1:

* an **empty** :class:`FaultSchedule` attached to a run reproduces the
  no-injector timeline bit-for-bit (exact and streaming modes, unified
  and disaggregated);
* crash teardown invariants: a crashed shard frees all resident bytes,
  refcounts never go negative, no dangling ``prefix_index`` entries
  survive, and every dropped request gets exactly one terminal record;
* request resilience: deadline timeouts, capped-backoff retries that
  preserve session identity, predictive admission shedding;
* mid-transfer disagg crashes release the held source reservation
  exactly once (target-dies and source-dies variants);
* terminal outcome codes surface per-class drop counts in reports.
"""

import pytest

from repro.cluster.spec import ClusterSpec, DeviceSpec, GPULinkSpec
from repro.experiments.serving_sweep import offline_capacity
from repro.serving import (
    EngineCore,
    PoissonProcess,
    ShardedServingSystem,
    default_slo,
)
from repro.serving.event_loop import ServingEventLoop
from repro.serving.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    ResiliencePolicy,
)
from repro.serving.queue import RequestState, outcome_code_for
from repro.serving.router import ShardRouter
from repro.serving.sharded import _DisaggController
from repro.systems import MoELightningSystem
from repro.utils.errors import ConfigurationError
from repro.workloads import chat

NUM_REQUESTS = 36
SEED = 0


@pytest.fixture(scope="module")
def setup(mixtral, t4_node):
    workload = chat(
        generation_len=6,
        num_requests=NUM_REQUESTS,
        turns_per_session=3,
        system_prompt_len=64,
        user_turn_len=32,
    )
    backend = MoELightningSystem(mixtral, t4_node)
    policy = backend.select_policy(workload)
    slo = default_slo(backend, workload, policy)
    rate = 4 * 0.5 * offline_capacity(backend, workload, policy)
    return backend, workload, policy, slo, rate


def make_system(setup, **kwargs):
    backend, workload, policy, slo, rate = setup
    kwargs.setdefault("num_shards", 4)
    kwargs.setdefault("router", "least-loaded")
    kwargs.setdefault("prefix_cache", True)
    return ShardedServingSystem(
        backend, workload, policy=policy, slo=slo, **kwargs
    )


def run_system(setup, **kwargs):
    _, _, _, _, rate = setup
    count = kwargs.pop("count", NUM_REQUESTS)
    seed = kwargs.pop("seed", SEED)
    return make_system(setup, **kwargs).run(
        PoissonProcess(rate), count=count, seed=seed
    )


def timeline(result):
    # Request ids come from a process-global counter, so identity across
    # two runs of the same seeded stream is positional.
    return [
        (
            sr.attempt,
            sr.arrival_time,
            sr.state,
            sr.shard_id,
            sr.outcome_code,
            sr.first_token_time,
            sr.finish_time,
            sr.tokens_cached,
        )
        for sr in result.requests
    ]


def horizon_of(result):
    return max(sr.arrival_time for sr in result.requests)


def assert_store_invariants(core):
    """Refcounts non-negative, index non-dangling, bytes conserved."""
    store = core.admission.kv_cache.block_store
    if store is None:
        return
    for block in store.resident_blocks():
        assert block.ref_count >= 0
    for block_hash in store.prefix_index:
        assert block_hash in store
        assert store.block(block_hash).block_hash == block_hash
    # Every charged block is either indexed once or private: the pool pages
    # leave no room for an unindexed (dangling or duplicated) hashed block.
    blocks = len(store.prefix_index) + store.num_private_blocks
    assert store.cpu_pool.used_pages == blocks * store._block_cpu_pages
    cpu, gpu = store.bytes_in_use()
    assert cpu == pytest.approx(
        store.num_blocks * store._block_cpu_pages * store.cpu_pool.page_bytes
    )


# ----------------------------------------------------------------------
# Schedule and policy validation
# ----------------------------------------------------------------------
class TestFaultScheduleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultEvent("meteor", 1.0, shard=0)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            FaultEvent("crash", -1.0, shard=0)

    def test_crash_needs_shard(self):
        with pytest.raises(ConfigurationError, match="need a shard id"):
            FaultEvent("crash", 1.0)

    def test_slowdown_factor_must_slow(self):
        with pytest.raises(ConfigurationError, match="factor"):
            FaultEvent("straggle", 1.0, shard=0, duration=1.0, factor=0.5)

    def test_double_crash_rejected(self):
        with pytest.raises(ConfigurationError, match="already down"):
            FaultSchedule(
                (
                    FaultEvent("crash", 1.0, shard=0),
                    FaultEvent("crash", 2.0, shard=0),
                )
            )

    def test_recover_without_crash_rejected(self):
        with pytest.raises(ConfigurationError, match="without a preceding"):
            FaultSchedule((FaultEvent("recover", 1.0, shard=0),))

    def test_events_sorted_by_time(self):
        schedule = FaultSchedule(
            (
                FaultEvent("crash", 5.0, shard=1),
                FaultEvent("crash", 2.0, shard=0),
            )
        )
        assert [e.time for e in schedule.events] == [2.0, 5.0]

    def test_transient_crash_recover_must_follow(self):
        with pytest.raises(ConfigurationError, match="precedes the crash"):
            FaultSchedule.transient_crash(0, at=5.0, recover_at=1.0)

    def test_pattern_constructors_validate(self):
        assert len(FaultSchedule.transient_crash(0, at=1.0)) == 1
        assert len(FaultSchedule.correlated([0, 1], at=1.0, recover_at=2.0)) == 4
        rolling = FaultSchedule.rolling_restart(
            [0, 1, 2], start=1.0, interval=2.0, downtime=0.5
        )
        assert len(rolling) == 6

    def test_random_schedule_is_seeded_and_valid(self):
        a = FaultSchedule.random(4, horizon=100.0, seed=3, num_crashes=4)
        b = FaultSchedule.random(4, horizon=100.0, seed=3, num_crashes=4)
        assert a == b
        assert FaultSchedule.random(4, horizon=100.0, seed=4) != a

    def test_targets_outside_cluster_rejected(self, setup):
        with pytest.raises(ConfigurationError, match="outside"):
            make_system(
                setup,
                num_shards=2,
                faults=FaultSchedule.transient_crash(5, at=1.0),
            )


class TestResiliencePolicyValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError, match="max_retries"):
            ResiliencePolicy(max_retries=-1)

    def test_unknown_retry_code_rejected(self):
        with pytest.raises(ConfigurationError, match="retry_on"):
            ResiliencePolicy(retry_on=("queue-full",))

    def test_backoff_doubles_and_caps(self):
        policy = ResiliencePolicy(
            max_retries=8, retry_backoff=1.0, backoff_cap=5.0
        )
        assert [policy.backoff(k) for k in range(4)] == [1.0, 2.0, 4.0, 5.0]


# ----------------------------------------------------------------------
# Determinism: empty schedule is bit-for-bit the no-injector run
# ----------------------------------------------------------------------
class TestEmptyScheduleDeterminism:
    @pytest.mark.parametrize("router", ["least-loaded", "cache-aware"])
    def test_exact_mode_identical(self, setup, router):
        plain = run_system(setup, router=router)
        injected = run_system(
            setup, router=router, faults=FaultSchedule.empty()
        )
        assert timeline(injected) == timeline(plain)
        assert injected.makespan == plain.makespan
        assert injected.report.as_row() == plain.report.as_row()
        assert injected.admission_stats == plain.admission_stats
        assert injected.fault_stats == {
            "crashes": 0,
            "recoveries": 0,
            "retries": 0,
            "kv_bytes_lost": 0.0,
            "blocks_lost": 0,
            "unavailability_s": 0.0,
        }

    def test_streaming_mode_identical(self, setup):
        plain = run_system(setup, store_samples=False)
        injected = run_system(
            setup, store_samples=False, faults=FaultSchedule.empty()
        )
        assert injected.makespan == plain.makespan
        assert injected.report.as_row() == plain.report.as_row()

    def test_disagg_identical(self, setup):
        plain = run_system(setup, disaggregated=True)
        injected = run_system(
            setup, disaggregated=True, faults=FaultSchedule.empty()
        )
        assert timeline(injected) == timeline(plain)
        assert injected.makespan == plain.makespan


# ----------------------------------------------------------------------
# Crash teardown and recovery
# ----------------------------------------------------------------------
class TestCrashTeardown:
    def test_permanent_crash_accounting(self, setup):
        base = run_system(setup)
        horizon = horizon_of(base)
        result = run_system(
            setup, faults=FaultSchedule.transient_crash(1, at=0.3 * horizon)
        )
        report = result.report
        assert report.num_offered == NUM_REQUESTS
        assert report.num_completed + report.num_rejected == NUM_REQUESTS
        assert report.outcomes.get("crash", 0) > 0
        assert result.fault_stats["crashes"] == 1
        assert result.fault_stats["recoveries"] == 0
        assert result.fault_stats["kv_bytes_lost"] > 0

    def test_no_arrivals_on_dead_shard(self, setup):
        base = run_system(setup)
        horizon = horizon_of(base)
        crash_at = 0.3 * horizon
        result = run_system(
            setup, faults=FaultSchedule.transient_crash(1, at=crash_at)
        )
        for sr in result.requests:
            if sr.arrival_time > crash_at:
                assert sr.shard_id != 1

    def test_recovery_serves_again(self, setup):
        base = run_system(setup)
        horizon = horizon_of(base)
        crash_at, recover_at, load_time = (
            0.25 * horizon,
            0.4 * horizon,
            0.05 * horizon,
        )
        result = run_system(
            setup,
            faults=FaultSchedule.transient_crash(
                1, at=crash_at, recover_at=recover_at, load_time=load_time
            ),
        )
        assert result.fault_stats["crashes"] == 1
        assert result.fault_stats["recoveries"] == 1
        ready_at = recover_at + load_time
        assert result.fault_stats["unavailability_s"] == pytest.approx(
            ready_at - crash_at
        )
        served_after = [
            sr
            for sr in result.requests
            if sr.shard_id == 1
            and sr.arrival_time > ready_at
            and sr.state is RequestState.FINISHED
        ]
        assert served_after, "the recovered shard never served again"
        # No first token on the recovered shard before its ready instant
        # plus the crash window (mid-stream DeviceSpec.ready_at semantics).
        for sr in result.requests:
            if sr.shard_id == 1 and sr.arrival_time > crash_at:
                assert sr.first_token_time is None or (
                    sr.first_token_time > ready_at
                )

    def test_crash_teardown_frees_store(self, setup):
        """Drive cores directly and inspect the crashed shard's store."""
        sharded = make_system(setup)
        _, _, _, _, rate = setup
        records = sharded._materialize(
            PoissonProcess(rate), NUM_REQUESTS, SEED
        )
        horizon = max(sr.arrival_time for sr in records)
        cores = sharded._make_cores()
        router_fn = sharded._incremental_route_fn(
            ShardRouter(4, "least-loaded"), cores
        )
        injector = FaultInjector(
            cores, FaultSchedule.transient_crash(2, at=0.4 * horizon)
        )
        route = injector.wrap_route(router_fn)
        injector.set_route(route)
        loop = ServingEventLoop(cores, route)
        injector.attach(loop)
        loop.run(records)
        crashed = cores[2]
        assert crashed.crash_dropped > 0
        assert crashed.admission.kv_cache.sequences == {}
        store = crashed.admission.kv_cache.block_store
        assert store.num_blocks == 0
        assert store.bytes_in_use() == (0.0, 0.0)
        assert store.prefix_index == {}
        assert store.cpu_pool.used_pages == 0
        assert store.crash_drops > 0
        for core in cores:
            assert_store_invariants(core)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_chaos_invariants(self, setup, seed):
        """Seeded random crash/recover timelines keep every invariant."""
        base = run_system(setup, seed=seed)
        horizon = horizon_of(base)
        schedule = FaultSchedule.random(
            4, horizon=horizon, seed=seed, num_crashes=3
        )
        result = run_system(
            setup,
            seed=seed,
            faults=schedule,
            resilience=ResiliencePolicy(max_retries=1, retry_backoff=0.2),
        )
        report = result.report
        assert report.num_completed + report.num_rejected == report.num_offered
        assert report.num_offered >= NUM_REQUESTS
        assert sum(report.outcomes.values()) == report.num_rejected
        for sr in result.requests:
            assert sr.state in (RequestState.FINISHED, RequestState.REJECTED)
            if sr.state is RequestState.REJECTED:
                assert sr.outcome_code is not None


# ----------------------------------------------------------------------
# Request resilience: retries, deadlines, shedding
# ----------------------------------------------------------------------
class TestRetries:
    def test_retries_preserve_session_identity(self, setup):
        base = run_system(setup)
        horizon = horizon_of(base)
        schedule = FaultSchedule.transient_crash(
            1, at=0.3 * horizon, recover_at=0.5 * horizon
        )
        no_retry = run_system(setup, faults=schedule)
        retry = run_system(
            setup,
            faults=schedule,
            resilience=ResiliencePolicy(max_retries=2, retry_backoff=0.2),
        )
        assert retry.report.num_retries > 0
        assert retry.fault_stats["retries"] == retry.report.num_retries
        assert retry.report.num_completed > no_retry.report.num_completed
        originals = {
            id(sr.request) for sr in retry.requests if sr.attempt == 0
        }
        for sr in retry.requests:
            if sr.attempt:
                # The retry carries the same underlying Request object, so
                # session identity and the prefix hash chain survive.
                assert id(sr.request) in originals
                assert sr.arrival_time > 0.3 * horizon

    def test_retry_attempts_are_capped(self, setup):
        base = run_system(setup)
        horizon = horizon_of(base)
        result = run_system(
            setup,
            faults=FaultSchedule.correlated(
                [0, 1, 2, 3], at=0.3 * horizon
            ),
            resilience=ResiliencePolicy(max_retries=2, retry_backoff=0.2),
        )
        # The whole cluster stays dark: every drop retries until the cap.
        assert all(sr.attempt <= 2 for sr in result.requests)
        assert (
            result.report.num_completed + result.report.num_rejected
            == result.report.num_offered
        )


class TestDeadlineTimeout:
    def test_queued_requests_time_out(self, setup):
        backend, workload, policy, slo, rate = setup
        sharded = make_system(
            setup,
            num_shards=2,
            resilience=ResiliencePolicy(deadline=2.0),
        )
        result = sharded.run(
            PoissonProcess(8 * rate), count=NUM_REQUESTS, seed=SEED
        )
        report = result.report
        assert report.outcomes.get("timeout", 0) > 0
        assert report.as_row()["drop_timeout"] == report.outcomes["timeout"]
        assert report.num_completed + report.num_rejected == NUM_REQUESTS
        for sr in result.requests:
            if sr.outcome_code == "timeout":
                assert sr.finish_time - sr.arrival_time > 2.0


class TestShedding:
    def test_overload_sheds_at_the_door(self, setup):
        backend, workload, policy, slo, rate = setup
        sharded = make_system(
            setup,
            num_shards=2,
            resilience=ResiliencePolicy(shed=True, shed_ttft_factor=0.5),
        )
        result = sharded.run(
            PoissonProcess(8 * rate), count=NUM_REQUESTS, seed=SEED
        )
        report = result.report
        assert report.outcomes.get("shed", 0) > 0
        assert report.num_completed + report.num_rejected == NUM_REQUESTS
        # Sheds are judged at arrival: the request never waits.
        for sr in result.requests:
            if sr.outcome_code == "shed":
                assert sr.finish_time == sr.arrival_time

    def test_shed_needs_slo(self, setup):
        # The facades always derive a default SLO, so the guard only
        # trips on direct EngineCore construction without one.
        backend, workload, policy, _, _ = setup
        sharded = make_system(setup, num_shards=2)
        cores = sharded._make_cores()
        with pytest.raises(ConfigurationError, match="SLO"):
            EngineCore(
                backend,
                workload,
                policy,
                cores[0].step_model,
                resilience=ResiliencePolicy(shed=True),
                slo=None,
            )


# ----------------------------------------------------------------------
# Performance faults: stragglers and link degradation
# ----------------------------------------------------------------------
class TestStraggler:
    def test_straggling_shard_slows_the_run(self, setup):
        base = run_system(setup, num_shards=2)
        horizon = horizon_of(base)
        slowed = run_system(
            setup,
            num_shards=2,
            faults=FaultSchedule(
                (
                    FaultEvent(
                        "straggle",
                        0.0,
                        shard=0,
                        duration=10 * horizon,
                        factor=4.0,
                    ),
                )
            ),
        )
        assert slowed.makespan > base.makespan
        assert slowed.report.mean_ttft > base.report.mean_ttft


class TestLinkDegrade:
    def test_degraded_link_stretches_migrations(self, setup, t4_node):
        slow_link = GPULinkSpec(name="slow", bandwidth=2e6, latency=0.05)
        cluster = ClusterSpec.of_devices(
            [
                DeviceSpec(
                    device_id=i,
                    node=t4_node,
                    role="prefill" if i < 2 else "decode",
                )
                for i in range(4)
            ],
            link=slow_link,
        )
        base = run_system(setup, num_shards=None, cluster=cluster)
        horizon = horizon_of(base)
        degraded = run_system(
            setup,
            num_shards=None,
            cluster=cluster,
            faults=FaultSchedule(
                (
                    FaultEvent(
                        "link-degrade",
                        0.0,
                        duration=10 * horizon,
                        factor=8.0,
                    ),
                )
            ),
        )
        assert degraded.makespan > base.makespan


# ----------------------------------------------------------------------
# Mid-transfer crashes (the source-reservation leak regression)
# ----------------------------------------------------------------------
def _disagg_internals(setup, t4_node, faults=None):
    """The exact `_run_disagg` wiring, with cores exposed for inspection."""
    _, _, _, _, rate = setup
    slow_link = GPULinkSpec(name="slow", bandwidth=2e6, latency=1.0)
    cluster = ClusterSpec.of_devices(
        [
            DeviceSpec(
                device_id=i,
                node=t4_node,
                role="prefill" if i < 2 else "decode",
            )
            for i in range(4)
        ],
        link=slow_link,
    )
    sharded = make_system(setup, num_shards=None, cluster=cluster)
    records = sharded._materialize(PoissonProcess(rate), NUM_REQUESTS, SEED)
    cores = sharded._make_cores()
    controller = _DisaggController(sharded, cores)
    injector = None
    route = controller.route
    if faults is not None:
        injector = FaultInjector(cores, faults)
        injector.add_ready_view(controller.router.ready_at)
        injector.on_crash_drops.append(controller.on_crash_drops)
        injector.set_route(route)
        controller.injector = injector
        for core in cores:
            core.on_fail = injector.handle_failure
    loop = ServingEventLoop(cores, route)
    controller.attach(loop)
    if injector is not None:
        injector.attach(loop, record_sink=records.append)
    loop.run(records)
    return records, cores, controller


@pytest.fixture(scope="module")
def first_transfer(setup, t4_node):
    """(land_time, source_shard, target_shard) of the first fault-free
    KV transfer on the slow-link disagg cluster.

    The link's 1-second latency guarantees every transfer is in flight for
    at least a second, so ``land_time - 0.5`` is strictly inside the
    flight window — and because injected faults cannot perturb the
    timeline *before* they fire, a crash at that instant in a faulted
    re-run catches the very same transfer mid-flight.
    """
    landings = []
    original = _DisaggController._landing

    def spy(self, serving_request, source, target, land_time):
        landings.append((land_time, source.shard_id, target.shard_id))
        return original(self, serving_request, source, target, land_time)

    _DisaggController._landing = spy
    try:
        _, cores, controller = _disagg_internals(setup, t4_node)
    finally:
        _DisaggController._landing = original
    assert controller.transfers > 0 and landings
    return min(landings)


class TestMidTransferCrash:
    def test_target_crash_releases_source_exactly_once(
        self, setup, t4_node, first_transfer
    ):
        land_time, _source_id, target_id = first_transfer
        faults = FaultSchedule.transient_crash(target_id, at=land_time - 0.5)
        records, cores, controller = _disagg_internals(
            setup, t4_node, faults=faults
        )
        assert controller.transfers_lost >= 1
        lost = [
            sr
            for sr in records
            if sr.outcome_code == "crash"
            and sr.reject_reason == "migration lost to crash"
        ]
        assert lost
        for sr in records:
            assert sr.state in (RequestState.FINISHED, RequestState.REJECTED)
        for core in cores:
            # The source's held reservation was released exactly once: no
            # live sequences anywhere, no negative refcounts, no dangling
            # index entries (a double release would go negative; a leak
            # would leave the migrated sequence's KV held forever).
            assert core.admission.kv_cache.sequences == {}
            assert_store_invariants(core)
            store = core.admission.kv_cache.block_store
            cpu_live, _ = store.bytes_in_use(live_only=True)
            assert cpu_live == 0.0

    def test_source_crash_does_not_double_release(
        self, setup, t4_node, first_transfer
    ):
        land_time, source_id, _target_id = first_transfer
        faults = FaultSchedule.transient_crash(source_id, at=land_time - 0.5)
        records, cores, controller = _disagg_internals(
            setup, t4_node, faults=faults
        )
        assert controller.transfers_lost >= 1
        source_store = cores[source_id].admission.kv_cache.block_store
        assert source_store.num_blocks == 0
        assert source_store.bytes_in_use() == (0.0, 0.0)
        for sr in records:
            assert sr.state in (RequestState.FINISHED, RequestState.REJECTED)
        for core in cores:
            assert core.admission.kv_cache.sequences == {}
            assert_store_invariants(core)


# ----------------------------------------------------------------------
# Terminal outcome codes
# ----------------------------------------------------------------------
class TestOutcomeCodes:
    def test_reason_mapping(self):
        assert outcome_code_for("queue full") == "queue-full"
        assert (
            outcome_code_for("migration target over capacity")
            == "migration-capacity"
        )
        assert outcome_code_for("prompt exceeds capacity") == "oversized"
        assert outcome_code_for("mystery") == "other"

    def test_queue_full_surfaces_in_report(self, setup):
        _, _, _, _, rate = setup
        sharded = make_system(setup, num_shards=2, max_queue_depth=1)
        result = sharded.run(
            PoissonProcess(8 * rate), count=NUM_REQUESTS, seed=SEED
        )
        report = result.report
        assert report.outcomes.get("queue-full", 0) > 0
        row = result.as_row()
        assert row["drop_queue_full"] == report.outcomes["queue-full"]
        assert sum(report.outcomes.values()) == report.num_rejected

    def test_streaming_and_exact_outcomes_agree(self, setup):
        _, _, _, _, rate = setup
        base = run_system(setup)
        horizon = horizon_of(base)
        schedule = FaultSchedule.transient_crash(1, at=0.3 * horizon)
        exact = run_system(setup, faults=schedule)
        streaming = run_system(
            setup, faults=schedule, store_samples=False
        )
        assert streaming.report.outcomes == exact.report.outcomes
        assert streaming.report.num_retries == exact.report.num_retries

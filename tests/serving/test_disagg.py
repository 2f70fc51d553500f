"""Disaggregated serving: phase routing, KV migration, invariants, goodput.

Covers the PR's acceptance criteria at tier 1:

* a homogeneous all-unified ``DeviceSpec`` cluster reproduces the scalar
  cluster's serving timeline bit-for-bit;
* KV migration conserves bytes and refcounts and leaves no duplicate
  hash-chain entries in any shard's block store;
* under mixed chat + long-prompt traffic, disaggregated serving meets at
  least the unified goodput at equal device count, and a heterogeneous
  fast-prefill cluster beats the same-count all-slow split.
"""

import random

import pytest

from repro.cluster.spec import ClusterSpec, DeviceSpec
from repro.experiments.disagg_sweep import run_disagg_sweep
from repro.experiments.serving_sweep import offline_capacity
from repro.serving import PoissonProcess, ShardedServingSystem, default_slo
from repro.serving.queue import RequestState
from repro.serving.router import PhaseRouter
from repro.systems import MoELightningSystem
from repro.utils.errors import ConfigurationError
from repro.workloads import chat, mtbench

NUM_REQUESTS = 32
SEED = 0


@pytest.fixture(scope="module")
def setup(mixtral, t4_node):
    workload = mtbench(generation_len=8, num_requests=NUM_REQUESTS)
    backend = MoELightningSystem(mixtral, t4_node)
    policy = backend.select_policy(workload)
    slo = default_slo(backend, workload, policy)
    rate = 6.0 * offline_capacity(backend, workload, policy)
    return backend, workload, policy, slo, rate


def run_system(setup, arrivals=None, **kwargs):
    backend, workload, policy, slo, rate = setup
    sharded = ShardedServingSystem(
        backend, workload, policy=policy, slo=slo, **kwargs
    )
    return sharded.run(
        arrivals if arrivals is not None else PoissonProcess(rate),
        count=NUM_REQUESTS,
        seed=SEED,
    )


def timeline(result):
    # Request ids come from a global counter (fresh per generated stream),
    # so identity is positional: same arrival order in both runs.
    return [
        (
            r.shard_id,
            r.arrival_time,
            r.first_token_time,
            r.finish_time,
            r.state,
        )
        for r in result.requests
    ]


class TestHomogeneousDeviceClusterBitForBit:
    """Per-device pricing of identical devices changes nothing."""

    def test_unified_timeline_identical(self, setup, t4_node):
        scalar = run_system(setup, num_shards=2, router="least-loaded")
        cluster = ClusterSpec.of_devices(
            [DeviceSpec(device_id=i, node=t4_node) for i in range(2)]
        )
        devices = run_system(setup, cluster=cluster, router="least-loaded")
        assert timeline(devices) == timeline(scalar)
        assert devices.makespan == scalar.makespan
        assert devices.report.as_row() == scalar.report.as_row()
        assert devices.admission_stats == scalar.admission_stats


class TestDisaggRun:
    def test_completes_and_conserves_migrations(self, setup):
        result = run_system(setup, num_shards=4, disaggregated=True)
        assert result.router == "phase-aware"
        assert (
            result.report.num_completed + result.report.num_rejected
            == NUM_REQUESTS
        )
        prefills = [s for s in result.shard_stats if s.role == "prefill"]
        decodes = [s for s in result.shard_stats if s.role == "decode"]
        assert prefills and decodes
        out = sum(s.migrated_out for s in prefills)
        into = sum(s.migrated_in for s in decodes)
        assert out == into > 0
        assert result.admission_stats["migrated_in"] == into
        # Decode shards never see an arrival and never run a prefill;
        # prefill shards never retire a multi-token request themselves.
        assert all(s.offered == 0 for s in decodes)
        assert all(s.prefill_stream_busy == 0.0 for s in decodes)
        assert sum(s.completed for s in decodes) == result.report.num_completed
        for serving_request in result.requests:
            if serving_request.state is RequestState.FINISHED:
                assert serving_request.first_token_time is not None
                assert (
                    serving_request.finish_time
                    > serving_request.first_token_time
                )

    def test_kv_released_everywhere_after_run(self, mixtral, t4_node):
        """Drive the run core-by-core and inspect the stores afterwards."""
        workload = chat(generation_len=8, num_requests=24, turns_per_session=4)
        backend = MoELightningSystem(mixtral, t4_node)
        policy = backend.select_policy(workload)
        sharded = ShardedServingSystem(
            backend,
            workload,
            num_shards=4,
            policy=policy,
            disaggregated=True,
            prefix_cache=True,
            chunk_prefill_tokens=96,
        )
        rate = 2.0 * offline_capacity(backend, workload, policy)
        records = sharded._materialize(PoissonProcess(rate), 24, SEED)
        from repro.serving.event_loop import ServingEventLoop
        from repro.serving.sharded import _DisaggController

        cores = sharded._make_cores()
        controller = _DisaggController(sharded, cores)
        loop = ServingEventLoop(cores, controller.route)
        controller.attach(loop)
        loop.run(records)
        assert controller.transfers > 0
        for core in cores:
            # Every reservation was released: no sequence holds KV, and
            # every resident block is a cached (refcount-zero) prefix block.
            assert core.admission.kv_cache.sequences == {}
            store = core.admission.kv_cache.block_store
            assert store is not None
            for block in store.resident_blocks():
                assert block.ref_count == 0
                assert block.cached
            # The content index maps each chain hash to exactly one
            # resident block — migration re-registration never duplicated
            # an entry.
            assert len(set(store.prefix_index.values())) == len(
                store.prefix_index
            )
            for block_hash, block_id in store.prefix_index.items():
                assert store.block(block_id).block_hash == block_hash
        # Conservation: every transferred byte was priced on the link.
        assert controller.transfer_bytes >= 0.0

    def test_single_token_requests_finish_on_prefill_shard(
        self, mixtral, t4_node
    ):
        workload = mtbench(generation_len=1, num_requests=12)
        backend = MoELightningSystem(mixtral, t4_node)
        policy = backend.select_policy(workload)
        sharded = ShardedServingSystem(
            backend, workload, num_shards=2, policy=policy, disaggregated=True
        )
        rate = 2.0 * offline_capacity(backend, workload, policy)
        result = sharded.run(PoissonProcess(rate), count=12, seed=SEED)
        assert result.report.num_completed == 12
        assert result.admission_stats["migrated_in"] == 0
        prefill = next(s for s in result.shard_stats if s.role == "prefill")
        assert prefill.completed == 12


class TestDisaggConfiguration:
    def test_needs_two_shards(self, setup):
        backend, workload, policy, slo, rate = setup
        with pytest.raises(ConfigurationError, match="at least 2"):
            ShardedServingSystem(
                backend, workload, num_shards=1, disaggregated=True
            )

    def test_prefill_shards_requires_disaggregated(self, setup):
        backend, workload, policy, slo, rate = setup
        with pytest.raises(ConfigurationError, match="disaggregated"):
            ShardedServingSystem(
                backend, workload, num_shards=4, prefill_shards=2
            )

    def test_prefill_shards_must_leave_a_decode_shard(self, setup):
        backend, workload, policy, slo, rate = setup
        with pytest.raises(ConfigurationError, match="decode"):
            ShardedServingSystem(
                backend,
                workload,
                num_shards=2,
                disaggregated=True,
                prefill_shards=2,
            )

    def test_role_bearing_cluster_forces_disaggregation(self, setup, t4_node):
        backend, workload, policy, slo, rate = setup
        cluster = ClusterSpec.of_devices(
            [
                DeviceSpec(device_id=0, node=t4_node, role="prefill"),
                DeviceSpec(device_id=1, node=t4_node, role="decode"),
            ]
        )
        sharded = ShardedServingSystem(backend, workload, cluster=cluster)
        assert sharded.disaggregated
        assert sharded.shard_roles == ["prefill", "decode"]

    def test_time_sliced_rejects_disaggregation(self, setup):
        backend, workload, policy, slo, rate = setup
        sharded = ShardedServingSystem(
            backend, workload, num_shards=2, disaggregated=True
        )
        with pytest.raises(ConfigurationError, match="time_sliced"):
            sharded.run_time_sliced(PoissonProcess(rate), count=4, seed=SEED)


class TestPhaseRouter:
    def test_prefill_prefers_fast_and_idle(self):
        router = PhaseRouter([0, 1], [2], prefill_speeds=[2.0, 1.0, 1.0])

        class _Req:
            class request:
                effective_input_len = 100

            arrival_time = 0.0

        # Shard 0 is twice as fast: it absorbs two prompts (the second on
        # the id tie-break at equal finish estimates) before shard 1 wins.
        picks = [router.route_prefill(_Req(), [0, 0, 0]) for _ in range(3)]
        assert picks == [0, 0, 1]
        assert router.outstanding_tokens[0] == 200
        router.complete_prefill(0, 100)
        assert router.outstanding_tokens[0] == 100

    def test_decode_prefers_headroom(self):
        router = PhaseRouter([0], [1, 2], prefill_speeds=[1.0, 1.0, 1.0])
        assert router.route_decode([0, 50, 200], [0, 0, 0], now=0.0) == 2
        assert router.route_decode([0, 50, 50], [0, 3, 1], now=0.0) == 2

    def test_loading_shards_skipped_until_ready(self):
        router = PhaseRouter(
            [0, 1],
            [2],
            prefill_speeds=[1.0, 1.0, 1.0],
            ready_at=[100.0, 0.0, 0.0],
        )

        class _Req:
            class request:
                effective_input_len = 10

            arrival_time = 0.0

        # Shard 0 is still loading at t=0: everything goes to shard 1.
        assert router.route_prefill(_Req(), [0, 5, 0]) == 1

        class _Later:
            class request:
                effective_input_len = 10

            arrival_time = 200.0

        # Once ready (and idle), the faster queue position wins it traffic.
        assert router.route_prefill(_Later(), [0, 5, 0]) == 0

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError, match="prefill"):
            PhaseRouter([], [1], prefill_speeds=[1.0])

    def test_one_pass_picks_match_the_min_key_form(self):
        """20k random cases: the routing passes pick what ``min`` over the
        eligible shards with the original tuple keys picks, cold pools
        included, with many ties in speed, load, headroom and readiness."""

        def eligible(router, shards, now):
            if router.ready_at is None:
                return list(shards)
            ready = [s for s in shards if router.ready_at[s] <= now]
            return ready or [min(shards, key=lambda s: (router.ready_at[s], s))]

        rng = random.Random(20)
        for _ in range(20_000):
            num_shards = rng.randint(2, 7)
            shards = list(range(num_shards))
            rng.shuffle(shards)
            cut = rng.randint(1, num_shards - 1)
            prefill, decode = shards[:cut], shards[cut:]
            speeds = [rng.choice([0.5, 1.0, 2.0, 3.0]) for _ in range(num_shards)]
            ready_at = rng.choice(
                [None, [rng.choice([0.0, 5.0, 10.0]) for _ in range(num_shards)]]
            )
            router = PhaseRouter(prefill, decode, speeds, ready_at=ready_at)
            for shard in prefill:
                router.outstanding_tokens[shard] = rng.choice([0, 7, 10, 30])
            loads = [rng.randint(0, 2) for _ in range(num_shards)]
            headrooms = [rng.choice([0, 16, 64]) for _ in range(num_shards)]
            now = rng.choice([0.0, 5.0, 10.0])
            prompt = rng.choice([3, 10, 20])

            class _Req:
                class request:
                    effective_input_len = prompt

                arrival_time = now

            outstanding = dict(router.outstanding_tokens)
            expected = min(
                eligible(router, prefill, now),
                key=lambda s: ((outstanding[s] + prompt) / speeds[s], loads[s], s),
            )
            assert router.route_prefill(_Req(), loads) == expected
            assert router.outstanding_tokens[expected] == outstanding[expected] + prompt
            expected = min(
                eligible(router, decode, now),
                key=lambda s: (-headrooms[s], loads[s], s),
            )
            assert router.route_decode(headrooms, loads, now) == expected


class TestDisaggSweepAcceptance:
    """The ISSUE's goodput criteria, asserted on the shipped sweep."""

    @pytest.fixture(scope="class")
    def rows(self):
        return {
            row["config"]: row
            for row in run_disagg_sweep(seed=SEED)
        }

    def test_disagg_matches_or_beats_unified_goodput(self, rows):
        assert rows["disagg"]["goodput"] >= rows["unified"]["goodput"]

    def test_heterogeneous_beats_all_slow(self, rows):
        assert rows["disagg-het"]["goodput"] > rows["disagg"]["goodput"]

    def test_migrations_happen_only_under_disaggregation(self, rows):
        assert rows["unified"]["migrated"] == 0
        assert rows["disagg"]["migrated"] > 0
        assert rows["disagg-het"]["migrated"] > 0

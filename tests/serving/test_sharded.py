"""ShardedServingSystem: scaling, conservation, utilization, determinism."""

import pytest

from repro.cluster import ClusterSpec
from repro.experiments.serving_sweep import offline_capacity
from repro.serving import (
    PoissonProcess,
    ServingSystem,
    ShardedServingSystem,
    default_slo,
)
from repro.serving.queue import RequestState
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


def run_sharded(setup, num_shards, router="round-robin", **kwargs):
    backend, workload, policy, slo, rate = setup
    sharded = ShardedServingSystem(
        backend,
        workload,
        num_shards=num_shards,
        router=router,
        policy=policy,
        slo=slo,
        **kwargs,
    )
    return sharded.run(PoissonProcess(rate), count=NUM_REQUESTS, seed=SEED)


def test_four_shards_beat_one_on_the_same_stream(setup):
    """The acceptance criterion: strictly higher aggregate throughput."""
    backend, workload, policy, slo, rate = setup
    single = ServingSystem(backend, workload, policy=policy, slo=slo).run(
        PoissonProcess(rate), count=NUM_REQUESTS, seed=SEED
    )
    quad = run_sharded(setup, 4)
    assert quad.report.token_throughput > single.report.token_throughput
    assert quad.report.ttft[99] < single.report.ttft[99]


def test_offered_load_conserved_across_shards(setup):
    result = run_sharded(setup, 4)
    assert result.report.num_offered == NUM_REQUESTS
    assert sum(stats.offered for stats in result.shard_stats) == NUM_REQUESTS
    assert (
        result.report.num_completed + result.report.num_rejected
        == NUM_REQUESTS
    )
    for serving_request in result.requests:
        assert serving_request.shard_id is not None
        assert serving_request.state in (
            RequestState.FINISHED,
            RequestState.REJECTED,
        )


def test_per_shard_utilization_reported(setup):
    result = run_sharded(setup, 4)
    assert len(result.shard_stats) == 4
    for stats in result.shard_stats:
        assert 0.0 <= stats.utilization <= 1.0
        assert stats.busy_time <= result.makespan
    row = result.as_row()
    assert row["num_shards"] == 4
    assert row["shard_util"].count("/") == 3
    assert 0.0 < row["shard_util_min"] <= row["shard_util_mean"] <= 1.0


@pytest.mark.parametrize(
    "router", ["round-robin", "least-loaded", "session-affinity"]
)
def test_every_router_policy_serves_the_stream(setup, router):
    result = run_sharded(setup, 4, router=router)
    assert result.router == router
    assert result.report.num_completed + result.report.num_rejected == NUM_REQUESTS
    assert result.report.token_throughput > 0


def test_runs_are_deterministic(setup):
    first = run_sharded(setup, 2, router="least-loaded")
    second = run_sharded(setup, 2, router="least-loaded")
    assert first.makespan == second.makespan
    assert first.report == second.report
    assert [sr.shard_id for sr in first.requests] == [
        sr.shard_id for sr in second.requests
    ]


def test_cluster_spec_provides_shard_count(setup, t4_node):
    backend, workload, policy, slo, rate = setup
    cluster = ClusterSpec.scale_out(t4_node, 3)
    sharded = ShardedServingSystem(
        backend, workload, cluster=cluster, policy=policy, slo=slo
    )
    assert sharded.num_shards == 3
    with pytest.raises(ConfigurationError):
        ShardedServingSystem(
            backend, workload, num_shards=2, cluster=cluster, policy=policy
        )
    with pytest.raises(ConfigurationError):
        ShardedServingSystem(backend, workload, policy=policy)


def test_single_shard_matches_serving_system(setup):
    """One shard behind a router serves exactly like the plain facade."""
    backend, workload, policy, slo, rate = setup
    single = ServingSystem(backend, workload, policy=policy, slo=slo).run(
        PoissonProcess(rate), count=NUM_REQUESTS, seed=SEED
    )
    routed = run_sharded(setup, 1)
    assert routed.report == single.report
    assert routed.makespan == single.makespan


def test_simulated_pricing_serves_single_micro_batch_steps(mixtral, t4_node):
    """``use_simulator`` prices steps that hold one micro-batch.

    At 0.01 req/s most steps run a single chat request, below the policy's
    micro-batch size, so the schedule simulator sees one micro-batch.
    """
    workload = chat(generation_len=8, num_requests=50)
    backend = MoELightningSystem(mixtral, t4_node)
    policy = backend.select_policy(workload)
    assert policy.micro_batch_size > 1
    system = ShardedServingSystem(
        backend, workload, num_shards=1, policy=policy, use_simulator=True
    )
    result = system.run(PoissonProcess(0.01), count=50, seed=SEED)
    assert result.report.num_completed == 50


@pytest.mark.parametrize("system_cls", [ServingSystem, ShardedServingSystem])
@pytest.mark.parametrize(
    "param,value",
    [
        ("scheduling", "round-robin"),
        ("queue_ordering", "lifo"),
        ("max_queue_depth", 0),
        ("block_tokens", 0),
        ("chunk_prefill_tokens", 0),
        ("session_ttl", 0.0),
        ("session_ttl", -5.0),
    ],
)
def test_bad_engine_config_rejected_at_construction(setup, system_cls, param, value):
    """Engine knobs fail in the constructor, naming the parameter.

    ``run()`` is never called: a bad value must not survive until the
    cores are built (``block_tokens=0`` used to surface there as a
    ``page_bytes`` error).
    """
    backend, workload, policy, slo, rate = setup
    kwargs = {param: value}
    if system_cls is ShardedServingSystem:
        kwargs["num_shards"] = 2
    with pytest.raises(ConfigurationError, match=param):
        system_cls(
            backend, workload, policy=policy, slo=slo, prefix_cache=True, **kwargs
        )

"""Tests shared across the pipeline schedules."""

import pytest

from repro.core.policy import Policy
from repro.runtime.tasks import TaskKind
from repro.schedules import (
    SCHEDULE_REGISTRY,
    CGOPipeSchedule,
    DeepSpeedSchedule,
    FastDecodeSchedule,
    FlexGenCPUSchedule,
    FlexGenSchedule,
)
from repro.utils.errors import ConfigurationError, ScheduleError

CPU_POLICY = Policy(
    batch_size=96, micro_batch_size=32, attention_on_gpu=False,
    ffn_on_gpu=True, weights_gpu_ratio=0.1,
)
GPU_POLICY = Policy(
    batch_size=96, micro_batch_size=32, attention_on_gpu=True,
    ffn_on_gpu=True, weights_gpu_ratio=0.1, kv_cache_gpu_ratio=0.0,
)
DS_POLICY = Policy(
    batch_size=64, micro_batch_size=64, attention_on_gpu=True,
    ffn_on_gpu=True, weights_gpu_ratio=0.0, kv_cache_gpu_ratio=1.0,
)

SCHEDULE_POLICIES = [
    (CGOPipeSchedule, CPU_POLICY),
    (FastDecodeSchedule, CPU_POLICY),
    (FlexGenCPUSchedule, CPU_POLICY),
    (FlexGenSchedule, GPU_POLICY),
    (DeepSpeedSchedule, DS_POLICY),
]


def test_registry_contains_all_schedules():
    assert set(SCHEDULE_REGISTRY) == {
        "cgopipe", "fastdecode", "flexgen_cpu", "flexgen", "deepspeed",
    }


@pytest.mark.parametrize(("schedule_cls", "policy"), SCHEDULE_POLICIES)
def test_graph_builds_and_simulates(schedule_cls, policy, mixtral, t4_node):
    schedule = schedule_cls(mixtral, t4_node, max_sim_layers=3)
    result = schedule.simulate(policy, context_len=300, num_steps=2)
    assert result.makespan > 0
    result.trace.verify_exclusive()


@pytest.mark.parametrize(("schedule_cls", "policy"), SCHEDULE_POLICIES)
def test_every_step_has_one_sample_task(schedule_cls, policy, mixtral, t4_node):
    schedule = schedule_cls(mixtral, t4_node, max_sim_layers=3)
    graph = schedule.build_decode_graph(policy, context_len=300, num_steps=2)
    samples = [t for t in graph if t.kind is TaskKind.SAMPLE]
    assert len(samples) == 2
    assert {t.step for t in samples} == {0, 1}


@pytest.mark.parametrize(("schedule_cls", "policy"), SCHEDULE_POLICIES)
def test_post_attention_count_matches_layers_and_micro_batches(
    schedule_cls, policy, mixtral, t4_node
):
    schedule = schedule_cls(mixtral, t4_node, max_sim_layers=3)
    graph = schedule.build_decode_graph(policy, context_len=300, num_steps=1)
    posts = [t for t in graph if t.kind is TaskKind.POST_ATTENTION]
    expected = schedule.sim_num_layers * policy.num_micro_batches
    assert len(posts) == expected


@pytest.mark.parametrize(("schedule_cls", "policy"), SCHEDULE_POLICIES)
def test_step_timing_positive_and_scales_to_full_depth(
    schedule_cls, policy, mixtral, t4_node
):
    schedule = schedule_cls(mixtral, t4_node, max_sim_layers=3)
    timing = schedule.step_timing(policy, context_len=300)
    assert timing.step_time > 0
    # The scaled step should be close to (full depth / simulated depth) times
    # the per-layer period, i.e. much bigger than one simulated layer.
    assert timing.step_time > timing.makespan / (timing.num_steps * 4)


@pytest.mark.parametrize(("schedule_cls", "policy"), SCHEDULE_POLICIES)
def test_decode_time_increases_with_generation_length(
    schedule_cls, policy, mixtral, t4_node
):
    schedule = schedule_cls(mixtral, t4_node, max_sim_layers=2)
    short = schedule.decode_time(policy, start_context=200, generation_len=8, num_samples=2)
    long = schedule.decode_time(policy, start_context=200, generation_len=32, num_samples=2)
    assert long > 2 * short


@pytest.mark.parametrize("generation_len", [1, 16])
def test_decode_time_rejects_a_single_sample(mixtral, t4_node, generation_len):
    schedule = CGOPipeSchedule(mixtral, t4_node, max_sim_layers=2)
    with pytest.raises(ConfigurationError, match="num_samples"):
        schedule.decode_time(
            CPU_POLICY, start_context=200, generation_len=generation_len, num_samples=1
        )


def test_cpu_schedules_reject_gpu_attention_policy(mixtral, t4_node):
    schedule = CGOPipeSchedule(mixtral, t4_node, max_sim_layers=2)
    with pytest.raises(ScheduleError):
        schedule.simulate(GPU_POLICY, context_len=128)


def test_gpu_schedule_rejects_cpu_attention_policy(mixtral, t4_node):
    schedule = FlexGenSchedule(mixtral, t4_node, max_sim_layers=2)
    with pytest.raises(ScheduleError):
        schedule.simulate(CPU_POLICY, context_len=128)


def test_cgopipe_rejects_cpu_ffn_policy(mixtral, t4_node):
    schedule = CGOPipeSchedule(mixtral, t4_node, max_sim_layers=2)
    policy = Policy(
        batch_size=64, micro_batch_size=32, attention_on_gpu=False, ffn_on_gpu=False,
    )
    with pytest.raises(ScheduleError):
        schedule.simulate(policy, context_len=128)


def test_deepspeed_requires_whole_batch_and_gpu_kv(mixtral, t4_node):
    schedule = DeepSpeedSchedule(mixtral, t4_node, max_sim_layers=2)
    with pytest.raises(ScheduleError):
        schedule.simulate(GPU_POLICY, context_len=128)  # N != mu
    partial_kv = Policy(
        batch_size=64, micro_batch_size=64, attention_on_gpu=True,
        kv_cache_gpu_ratio=0.5,
    )
    with pytest.raises(ScheduleError):
        schedule.simulate(partial_kv, context_len=128)


def test_cpu_attention_tasks_only_in_cpu_schedules(mixtral, t4_node):
    for schedule_cls, policy in SCHEDULE_POLICIES:
        schedule = schedule_cls(mixtral, t4_node, max_sim_layers=2)
        graph = schedule.build_decode_graph(policy, context_len=200, num_steps=1)
        cpu_attn = [t for t in graph if t.kind is TaskKind.CPU_ATTENTION]
        if schedule.uses_cpu_attention:
            assert cpu_attn
        else:
            assert not cpu_attn


def test_kv_transfer_tasks_only_in_flexgen_schedule(mixtral, t4_node):
    flexgen = FlexGenSchedule(mixtral, t4_node, max_sim_layers=2)
    graph = flexgen.build_decode_graph(GPU_POLICY, context_len=200, num_steps=1)
    assert any(t.kind is TaskKind.KV_TRANSFER for t in graph)
    deepspeed = DeepSpeedSchedule(mixtral, t4_node, max_sim_layers=2)
    graph = deepspeed.build_decode_graph(DS_POLICY, context_len=200, num_steps=1)
    assert not any(t.kind is TaskKind.KV_TRANSFER for t in graph)


def test_weight_transfers_absent_when_fully_resident(mixtral, t4_node):
    resident = Policy(
        batch_size=96, micro_batch_size=32, attention_on_gpu=False,
        ffn_on_gpu=True, weights_gpu_ratio=1.0,
    )
    schedule = CGOPipeSchedule(mixtral, t4_node, max_sim_layers=2)
    graph = schedule.build_decode_graph(resident, context_len=200, num_steps=1)
    assert not any(t.kind is TaskKind.WEIGHT_TRANSFER for t in graph)


def test_cgopipe_paged_weight_tasks_count(mixtral, t4_node):
    """CGOPipe cuts each streamed layer into one page per micro-batch."""
    schedule = CGOPipeSchedule(mixtral, t4_node, max_sim_layers=3)
    graph = schedule.build_decode_graph(CPU_POLICY, context_len=200, num_steps=1)
    pages = [t for t in graph if t.kind is TaskKind.WEIGHT_TRANSFER]
    # Layers 1 and 2 are streamed within the step (layer 0 is the warm start).
    expected = (schedule.sim_num_layers - 1) * CPU_POLICY.num_micro_batches
    assert len(pages) == expected


def test_monolithic_weight_transfer_count_in_baselines(mixtral, t4_node):
    for schedule_cls in (FastDecodeSchedule, FlexGenCPUSchedule, FlexGenSchedule):
        policy = CPU_POLICY if schedule_cls is not FlexGenSchedule else GPU_POLICY
        schedule = schedule_cls(mixtral, t4_node, max_sim_layers=3)
        graph = schedule.build_decode_graph(policy, context_len=200, num_steps=1)
        transfers = [t for t in graph if t.kind is TaskKind.WEIGHT_TRANSFER]
        assert len(transfers) == schedule.sim_num_layers - 1

"""Tests for the end-to-end inference systems."""

import pytest

from repro.core.policy import Policy
from repro.systems import (
    SYSTEM_REGISTRY,
    DeepSpeedZeroSystem,
    FlexGenSystem,
    MoELightningSystem,
)
from repro.utils.errors import ConfigurationError
from repro.workloads import mtbench


@pytest.fixture(scope="module")
def workload():
    return mtbench(generation_len=64)


def test_registry_contains_all_systems():
    assert set(SYSTEM_REGISTRY) == {"moe-lightning", "flexgen", "deepspeed"}


def test_moe_lightning_selects_cpu_attention_on_t4(mixtral, t4_node, workload):
    system = MoELightningSystem(mixtral, t4_node, max_sim_layers=3)
    policy = system.select_policy(workload)
    assert not policy.attention_on_gpu
    assert policy.ffn_on_gpu


def test_moe_lightning_padded_variant_renamed(mixtral, t4_node):
    assert MoELightningSystem(mixtral, t4_node, padded=True).name == "moe-lightning(p)"
    assert MoELightningSystem(mixtral, t4_node, padded=False).name == "moe-lightning"


def test_flexgen_native_policy_uses_small_micro_batches(mixtral, t4_node, workload):
    system = FlexGenSystem(mixtral, t4_node, max_sim_layers=3)
    policy = system.select_policy(workload)
    assert policy.attention_on_gpu
    assert policy.micro_batch_size <= 32
    assert policy.batch_size >= 8 * policy.micro_batch_size


def test_flexgen_hrm_policy_beats_native_policy(mixtral, t4_node, workload):
    native = FlexGenSystem(mixtral, t4_node, policy_mode="native", max_sim_layers=3)
    hrm = FlexGenSystem(mixtral, t4_node, policy_mode="hrm", max_sim_layers=3)
    native_result = native.run(workload)
    hrm_result = hrm.run(workload)
    assert hrm_result.generation_throughput > native_result.generation_throughput


def test_flexgen_cpu_attention_variant_named_and_scheduled(mixtral, t4_node, workload):
    system = FlexGenSystem(mixtral, t4_node, cpu_attention=True, max_sim_layers=3)
    assert system.name == "flexgen(c)"
    policy = system.select_policy(workload)
    assert not policy.attention_on_gpu


def test_flexgen_rejects_unknown_policy_mode(mixtral, t4_node):
    with pytest.raises(ConfigurationError):
        FlexGenSystem(mixtral, t4_node, policy_mode="magic")


@pytest.mark.parametrize("decode_samples", [0, 1])
def test_systems_reject_fewer_than_two_decode_samples(mixtral, t4_node, decode_samples):
    """One sample cannot span a trapezoid; it used to divide by zero in ``run``."""
    with pytest.raises(ConfigurationError, match="decode_samples"):
        MoELightningSystem(mixtral, t4_node, decode_samples=decode_samples)


def test_deepspeed_policy_whole_batch_gpu_kv(mixtral, t4_node, workload):
    system = DeepSpeedZeroSystem(mixtral, t4_node, max_sim_layers=3)
    policy = system.select_policy(workload)
    assert policy.batch_size == policy.micro_batch_size
    assert policy.kv_cache_gpu_ratio == 1.0
    # The GPU-resident KV cache caps DeepSpeed's batch size well below the
    # CPU-memory-bound batches of the offloading systems (Table 4).
    assert policy.batch_size < 512


def test_run_reports_consistent_throughput(mixtral, t4_node, workload):
    system = MoELightningSystem(mixtral, t4_node, padded=True, max_sim_layers=3)
    result = system.run(workload)
    assert result.tokens_generated == result.policy.batch_size * workload.generation_len
    assert result.generation_throughput == pytest.approx(
        result.tokens_generated / (result.prefill_time + result.decode_time)
    )
    assert result.decode_throughput >= result.generation_throughput
    row = result.as_row()
    assert row["system"] == "moe-lightning(p)"
    assert row["throughput"] == pytest.approx(result.generation_throughput)


def test_run_with_explicit_policy_uses_it(mixtral, t4_node, workload):
    system = MoELightningSystem(mixtral, t4_node, padded=True, max_sim_layers=3)
    policy = Policy(
        batch_size=128, micro_batch_size=32, attention_on_gpu=False,
        ffn_on_gpu=True, weights_gpu_ratio=0.05,
    )
    result = system.run(workload, policy=policy)
    assert result.policy == policy


def test_analytical_fallback_close_to_simulation(mixtral, t4_node, workload):
    system = MoELightningSystem(mixtral, t4_node, padded=True, max_sim_layers=3)
    policy = system.select_policy(workload)
    simulated = system.run(workload, policy=policy, simulate=True)
    analytical = system.run(workload, policy=policy, simulate=False)
    ratio = simulated.generation_throughput / analytical.generation_throughput
    assert 0.5 < ratio < 1.5
    assert analytical.step_timing is None


def test_moe_lightning_beats_baselines_end_to_end(mixtral, t4_node, workload):
    """The headline comparison of Fig. 7 at the S1 setting."""
    lightning = MoELightningSystem(mixtral, t4_node, padded=True, max_sim_layers=3).run(workload)
    flexgen = FlexGenSystem(mixtral, t4_node, max_sim_layers=3).run(workload)
    deepspeed = DeepSpeedZeroSystem(mixtral, t4_node, max_sim_layers=3).run(workload)
    assert lightning.generation_throughput > flexgen.generation_throughput
    assert lightning.generation_throughput > deepspeed.generation_throughput


def test_unpadded_beats_padded_variant(mixtral, t4_node, workload):
    padded = MoELightningSystem(mixtral, t4_node, padded=True, max_sim_layers=3).run(workload)
    unpadded = MoELightningSystem(mixtral, t4_node, padded=False, max_sim_layers=3).run(workload)
    assert unpadded.generation_throughput > 1.5 * padded.generation_throughput


def test_flexgen_pipeline_parallel_cpu_penalty(mixtral, multi_t4_node, workload):
    """Multi-GPU FlexGen divides its usable CPU-side KV budget (§5.3)."""
    system = FlexGenSystem(mixtral, multi_t4_node, max_sim_layers=3)
    single = FlexGenSystem(mixtral, multi_t4_node.with_tensor_parallel(1), max_sim_layers=3)
    assert (
        system.memory_model(workload).usable_cpu_memory
        < single.memory_model(workload).usable_cpu_memory
    )

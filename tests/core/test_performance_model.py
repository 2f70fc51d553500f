"""Tests for the HRM-based performance model (Eqs. 12-14)."""

import pytest

from repro.core.performance_model import EfficiencyModel, LatencyBreakdown, PerformanceModel
from repro.core.policy import Policy
from repro.utils.errors import ConfigurationError, InfeasiblePolicyError


@pytest.fixture
def model(mixtral, t4_node, mtbench_workload):
    return PerformanceModel(
        model=mixtral, hardware=t4_node, workload=mtbench_workload, padded=True
    )


@pytest.fixture
def policy():
    return Policy(
        batch_size=512, micro_batch_size=64, attention_on_gpu=False,
        ffn_on_gpu=True, weights_gpu_ratio=0.05,
    )


def test_efficiency_model_rejects_out_of_range():
    with pytest.raises(ConfigurationError):
        EfficiencyModel(gpu_compute=0.0)
    with pytest.raises(ConfigurationError):
        EfficiencyModel(interconnect=1.2)


def test_derated_rates_below_peaks(model, t4_node):
    assert model.gpu_flops < t4_node.gpu_flops
    assert model.cpu_bandwidth < t4_node.cpu_bandwidth
    assert model.interconnect_bandwidth < t4_node.cpu_gpu_bandwidth


def test_breakdown_t_layer_is_max_of_terms(model, policy):
    breakdown = model.layer_decode_breakdown(policy, context_len=500)
    assert breakdown.t_layer == pytest.approx(
        max(breakdown.comm_htod, breakdown.comm_dtoh, breakdown.t_cpu, breakdown.t_gpu)
    )
    assert breakdown.bottleneck in ("htod", "dtoh", "cpu", "gpu")


def test_weight_streaming_dominates_htod_on_t4(model, policy):
    """On S1 the streamed expert weights dwarf the per-step hidden traffic."""
    breakdown = model.layer_decode_breakdown(policy, context_len=500)
    components = breakdown.components
    assert components["htod_weight_bytes"] > 10 * components["htod_hidden_bytes"]
    assert breakdown.bottleneck == "htod"


def test_cpu_attention_time_grows_with_context(model, policy):
    short = model.layer_decode_breakdown(policy, context_len=128)
    long = model.layer_decode_breakdown(policy, context_len=2048)
    assert long.t_cpu > 4 * short.t_cpu


def test_gpu_attention_policy_moves_kv_traffic_to_htod(model):
    gpu_policy = Policy(
        batch_size=512, micro_batch_size=64, attention_on_gpu=True,
        ffn_on_gpu=True, weights_gpu_ratio=0.05, kv_cache_gpu_ratio=0.0,
    )
    breakdown = model.layer_decode_breakdown(gpu_policy, context_len=500)
    assert breakdown.components["htod_kv_bytes"] > 0
    assert breakdown.t_cpu == 0.0


def test_resident_weights_reduce_htod_time(model, policy):
    resident = policy.with_weights_gpu_ratio(0.5)
    base = model.layer_decode_breakdown(policy, context_len=500)
    improved = model.layer_decode_breakdown(resident, context_len=500)
    assert improved.comm_htod < base.comm_htod


def test_larger_batch_increases_step_latency_but_improves_throughput(model, policy):
    small = model.estimate(policy.with_batch_size(128))
    large = model.estimate(policy.with_batch_size(1024))
    assert large.decode_time > small.decode_time
    assert large.throughput > small.throughput


def test_decode_time_scales_with_generation_length(mixtral, t4_node, mtbench_workload, policy):
    short = PerformanceModel(
        model=mixtral, hardware=t4_node,
        workload=mtbench_workload.with_generation_len(32), padded=True,
    ).decode_time(policy)
    long = PerformanceModel(
        model=mixtral, hardware=t4_node,
        workload=mtbench_workload.with_generation_len(128), padded=True,
    ).decode_time(policy)
    assert 3.0 < long / short < 5.0


@pytest.mark.parametrize("generation_len", [1, 16])
def test_decode_time_rejects_a_single_sample(mixtral, t4_node, mtbench_workload, policy, generation_len):
    model = PerformanceModel(
        model=mixtral, hardware=t4_node,
        workload=mtbench_workload.with_generation_len(generation_len),
    )
    with pytest.raises(ConfigurationError, match="num_samples"):
        model.decode_time(policy, num_samples=1)
    with pytest.raises(ConfigurationError, match="num_samples"):
        model.decode_times([policy], num_samples=1)
    assert model.decode_time(policy, num_samples=2) > 0


def test_prefill_time_positive_and_smaller_than_decode(model, policy):
    prefill = model.prefill_time(policy)
    decode = model.decode_time(policy)
    assert prefill > 0
    assert decode > prefill


def test_estimate_throughput_consistency(model, policy):
    estimate = model.estimate(policy)
    assert estimate.tokens_generated == policy.batch_size * model.workload.generation_len
    assert estimate.throughput == pytest.approx(
        estimate.tokens_generated / (estimate.prefill_time + estimate.decode_time)
    )
    assert estimate.decode_throughput > estimate.throughput


def test_estimate_feasible_rejects_oversized_policy(model):
    huge = Policy(batch_size=8000, micro_batch_size=64)
    with pytest.raises(InfeasiblePolicyError):
        model.estimate_feasible(huge)


def test_overlap_speedup_at_least_one():
    breakdown = LatencyBreakdown(comm_htod=1.0, comm_dtoh=0.1, t_cpu=0.5, t_gpu=0.9)
    assert breakdown.overlap_speedup >= 1.0
    assert breakdown.t_layer == 1.0


def test_padding_increases_estimated_cost(mixtral, t4_node, mtbench_workload, policy):
    padded = PerformanceModel(mixtral, t4_node, mtbench_workload, padded=True)
    unpadded = PerformanceModel(mixtral, t4_node, mtbench_workload, padded=False)
    assert padded.prefill_time(policy) > unpadded.prefill_time(policy)
    assert padded.decode_time(policy) >= unpadded.decode_time(policy)

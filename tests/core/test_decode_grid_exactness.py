"""The array decode kernel against a scalar reference of the HRM formulas.

``_reference_*`` below is the per-candidate scalar pricing the policy
search used before decode pricing became one numpy pass per placement: the
Eq. 12-14 layer terms, the per-step latency, the trapezoidal decode time
and the per-candidate ``estimate`` loop.  The kernel must reproduce it with
``==`` (not ``approx``): every candidate's throughput, every grid entry and
the selected policy.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import ClusterSpec
from repro.core.optimizer import PolicyOptimizer
from repro.core.performance_model import PerformanceModel
from repro.core.policy import Policy
from repro.hardware import get_hardware
from repro.models import get_model
from repro.models.flops import (
    attention_decode_cost,
    ffn_cost,
    layer_norm_cost,
    lm_head_cost,
    o_proj_cost,
    qkv_proj_cost,
)
from repro.models.memory import kv_cache_bytes_per_token_per_layer
from repro.systems import FlexGenSystem, MoELightningSystem
from repro.utils.errors import ConfigurationError
from repro.workloads import chat, mtbench, summarization


# ----------------------------------------------------------------------
# Scalar reference
# ----------------------------------------------------------------------
def _gpu(pm, flops, num_bytes):
    return max(flops / pm.gpu_flops, num_bytes / pm.gpu_bandwidth)


def _cpu(pm, flops, num_bytes):
    return max(flops / pm.cpu_flops, num_bytes / pm.cpu_bandwidth)


def _transfer(pm, num_bytes, num_transfers):
    latency = pm.hardware.interconnect.latency * max(num_transfers, 0)
    return num_bytes / pm.interconnect_bandwidth + latency


def _reference_layer_terms(pm: PerformanceModel, policy: Policy, context_len: int):
    """``(comm_htod, comm_dtoh, t_cpu, t_gpu)`` for one layer, one step."""
    model = pm.model
    mu = policy.micro_batch_size
    n_ub = policy.num_micro_batches
    dtype_bytes = model.dtype.num_bytes
    pre = layer_norm_cost(model, mu).combine(qkv_proj_cost(model, mu))
    attn = attention_decode_cost(model, mu, context_len)
    o_proj = o_proj_cost(model, mu)
    ffn = ffn_cost(model, mu)

    t_gpu = n_ub * _gpu(pm, pre.flops, pre.total_bytes)
    t_gpu += n_ub * _gpu(pm, o_proj.flops, o_proj.total_bytes)
    if policy.ffn_on_gpu:
        t_gpu += n_ub * _gpu(pm, ffn.flops, ffn.total_bytes)
    if policy.attention_on_gpu:
        t_gpu += n_ub * _gpu(pm, attn.flops, attn.total_bytes)

    t_cpu = 0.0
    if not policy.attention_on_gpu:
        t_cpu += n_ub * _cpu(pm, attn.flops, attn.total_bytes)
    if not policy.ffn_on_gpu:
        t_cpu += n_ub * _cpu(pm, ffn.flops, ffn.total_bytes)

    weight_bytes = pm.memory_model.streamed_layer_bytes(policy)
    htod_bytes = weight_bytes
    htod_transfers = n_ub if weight_bytes > 0 else 0
    if not policy.attention_on_gpu:
        htod_bytes += policy.batch_size * model.hidden_size * dtype_bytes
        htod_transfers += n_ub
    if policy.attention_on_gpu:
        kv_bytes = (
            policy.kv_cache_cpu_ratio
            * policy.batch_size
            * context_len
            * kv_cache_bytes_per_token_per_layer(model)
        )
        htod_bytes += kv_bytes
        htod_transfers += n_ub if kv_bytes > 0 else 0
    if not policy.ffn_on_gpu:
        htod_bytes += policy.batch_size * model.hidden_size * dtype_bytes
        htod_transfers += n_ub
    comm_htod = _transfer(pm, htod_bytes, htod_transfers)

    dtoh_bytes = 0.0
    dtoh_transfers = 0
    if not policy.attention_on_gpu:
        dtoh_bytes += (
            policy.batch_size * (model.hidden_size + 2 * model.kv_dim) * dtype_bytes
        )
        dtoh_transfers += n_ub
    else:
        kv_write = (
            policy.kv_cache_cpu_ratio * policy.batch_size * 2 * model.kv_dim * dtype_bytes
        )
        dtoh_bytes += kv_write
        dtoh_transfers += n_ub if kv_write > 0 else 0
    if not policy.ffn_on_gpu:
        dtoh_bytes += policy.batch_size * model.hidden_size * dtype_bytes
        dtoh_transfers += n_ub
    comm_dtoh = _transfer(pm, dtoh_bytes, dtoh_transfers)

    t_collective = pm._collective_decode_time(policy)
    if t_collective > 0.0:
        t_gpu += t_collective
    return comm_htod, comm_dtoh, t_cpu, t_gpu


def _reference_step_latency(pm, policy, context_len):
    layer = max(_reference_layer_terms(pm, policy, context_len))
    head = lm_head_cost(pm.model, policy.batch_size)
    return pm.model.num_layers * layer + _gpu(pm, head.flops, head.total_bytes)


def _reference_decode_time(pm, policy, num_samples=9):
    gen_len = pm.workload.generation_len
    start = pm.prompt_len()
    if gen_len == 1:
        return _reference_step_latency(pm, policy, start + 1)
    count = min(num_samples, gen_len)
    positions = [
        start + 1 + round(i * (gen_len - 1) / (count - 1)) for i in range(count)
    ]
    latencies = [_reference_step_latency(pm, policy, pos) for pos in positions]
    total = 0.0
    for i in range(count - 1):
        total += 0.5 * (latencies[i] + latencies[i + 1]) * (positions[i + 1] - positions[i])
    return total


def _reference_throughput(pm, policy):
    tokens = policy.batch_size * pm.workload.generation_len
    total = pm.prefill_time(policy) + _reference_decode_time(pm, policy)
    return tokens / total if total > 0 else 0.0


def _reference_search(optimizer: PolicyOptimizer):
    """The per-candidate ``estimate`` loop: first strictly-best candidate.

    Returns the feasible candidates, their throughputs and the winner.
    """
    pm, memory = optimizer.performance_model, optimizer.memory_model
    feasible = [c for c in optimizer.candidate_policies() if memory.is_feasible(c)]
    scores = [_reference_throughput(pm, c) for c in feasible]
    best, best_score = None, None
    for candidate, score in zip(feasible, scores):
        if best is None or score > best_score:
            best, best_score = candidate, score
    return feasible, scores, best


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
def _single(hardware, workload, **kwargs):
    return PolicyOptimizer(
        model=get_model("mixtral-8x7b"),
        hardware=get_hardware(hardware),
        workload=workload,
        **kwargs,
    )


def _partitioned(node, model, padded):
    backend = MoELightningSystem(
        get_model(model), cluster=ClusterSpec.from_hardware(get_hardware(node)), padded=padded
    )
    return backend.optimizer(mtbench(generation_len=128))


def _flexgen_hrm(hardware, cpu_attention):
    backend = FlexGenSystem(
        get_model("mixtral-8x7b"),
        get_hardware(hardware),
        policy_mode="hrm",
        cpu_attention=cpu_attention,
    )
    workload = summarization()
    # The optimizer FlexGen's HRM mode builds (see FlexGenSystem._hrm_policy).
    return PolicyOptimizer(
        model=backend.model,
        hardware=backend.hardware,
        workload=workload,
        efficiency=backend.efficiency,
        padded=True,
        allow_cpu_attention=cpu_attention,
        allow_gpu_attention=not cpu_attention,
    ), backend.select_policy(workload)


SINGLE_NODE = [
    pytest.param(hw, name, padded, id=f"{hw}-{name}-{'padded' if padded else 'varlen'}")
    for hw in ("1xT4", "1xL4")
    for name in ("chat128", "chat8", "summarization", "mtbench")
    for padded in (False, True)
]
WORKLOADS = {
    "chat128": lambda: chat(generation_len=128, num_requests=2000),
    "chat8": lambda: chat(generation_len=8, num_requests=2000),
    "summarization": summarization,
    "mtbench": lambda: mtbench(generation_len=128),
}


def _assert_matches_reference(optimizer):
    feasible, expected, reference_best = _reference_search(optimizer)
    scores = optimizer.performance_model.throughputs(feasible)
    mismatches = [
        (c.as_tuple(), float(s), e)
        for c, s, e in zip(feasible, scores, expected)
        if float(s) != e
    ]
    assert not mismatches
    result = optimizer.search()
    assert result.policy == reference_best
    assert result.feasible_candidates == len(feasible)
    assert result.throughput == max(expected)


@pytest.mark.parametrize(("hardware", "workload", "padded"), SINGLE_NODE)
def test_single_node_search_matches_scalar_reference(hardware, workload, padded):
    _assert_matches_reference(_single(hardware, WORKLOADS[workload](), padded=padded))


@pytest.mark.parametrize("hardware", ["1xT4", "1xL4"])
def test_cpu_ffn_search_matches_scalar_reference(hardware):
    _assert_matches_reference(
        _single(hardware, chat(generation_len=64), allow_cpu_ffn=True)
    )


@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("model", ["mixtral-8x7b", "mixtral-8x22b", "dbrx"])
@pytest.mark.parametrize("node", ["2xT4", "4xT4"])
def test_partitioned_search_matches_scalar_reference(node, model, padded):
    _assert_matches_reference(_partitioned(node, model, padded))


@pytest.mark.parametrize("cpu_attention", [False, True])
def test_flexgen_hrm_search_matches_scalar_reference(cpu_attention):
    optimizer, selected = _flexgen_hrm("1xT4", cpu_attention)
    _assert_matches_reference(optimizer)
    assert selected == optimizer.search().policy


def test_best_of_matches_scalar_reference(mixtral, t4_node, mtbench_workload):
    optimizer = PolicyOptimizer(
        model=mixtral, hardware=t4_node, workload=mtbench_workload, allow_cpu_ffn=True
    )
    # Mixed placements, duplicates and an infeasible entry, in no order.
    candidates = list(optimizer.candidate_policies())[::-7]
    candidates += candidates[:3] + [Policy(batch_size=10**6, micro_batch_size=64)]
    pm, memory = optimizer.performance_model, optimizer.memory_model
    feasible = [c for c in candidates if memory.is_feasible(c)]
    expected = max(feasible, key=lambda c: _reference_throughput(pm, c))
    result = optimizer.best_of(candidates)
    assert result.policy == expected
    assert result.candidates_evaluated == len(candidates)
    assert result.feasible_candidates == len(feasible)


# ----------------------------------------------------------------------
# Grid entries and the one-point methods
# ----------------------------------------------------------------------
@st.composite
def placement_groups(draw):
    """Policies sharing one placement, plus context lengths to cross them with."""
    attention_on_gpu = draw(st.booleans())
    ffn_on_gpu = draw(st.booleans())
    policies = []
    for _ in range(draw(st.integers(1, 6))):
        mu = draw(st.integers(1, 512))
        policies.append(
            Policy(
                batch_size=mu * draw(st.integers(1, 16)) + draw(st.integers(0, mu - 1)),
                micro_batch_size=mu,
                attention_on_gpu=attention_on_gpu,
                ffn_on_gpu=ffn_on_gpu,
                weights_gpu_ratio=draw(st.floats(0.0, 1.0)),
                kv_cache_gpu_ratio=draw(st.floats(0.0, 1.0)) if attention_on_gpu else 0.0,
            )
        )
    contexts = draw(st.lists(st.integers(1, 8192), min_size=1, max_size=6))
    return policies, contexts


_MODELS = {
    "single": PerformanceModel(
        model=get_model("mixtral-8x7b"),
        hardware=get_hardware("1xT4"),
        workload=mtbench(generation_len=128),
    ),
    "partitioned": _partitioned("4xT4", "dbrx", padded=True).performance_model,
}


@given(group=placement_groups(), which=st.sampled_from(sorted(_MODELS)))
@settings(deadline=None)
def test_grid_entries_equal_scalar_reference(group, which):
    pm = _MODELS[which]
    policies, contexts = group
    grid = pm.decode_grid(policies, contexts)
    for i, policy in enumerate(policies):
        for j, ctx in enumerate(contexts):
            htod, dtoh, cpu, gpu = _reference_layer_terms(pm, policy, ctx)
            assert grid.comm_htod[i, j] == htod
            assert grid.comm_dtoh[i, j] == dtoh
            assert grid.t_cpu[i, j] == cpu
            assert grid.t_gpu[i, j] == gpu
            assert grid.t_layer[i, j] == max(htod, dtoh, cpu, gpu)
            assert grid.step_latency[i, j] == _reference_step_latency(pm, policy, ctx)
            one_point = pm.layer_decode_breakdown(policy, ctx)
            assert one_point.components == {
                name: value[i, j] for name, value in grid.components.items()
            }
    times = pm.decode_times(policies)
    for policy, time in zip(policies, times):
        assert time == _reference_decode_time(pm, policy)


def test_decode_grid_rejects_mixed_placements(mixtral, t4_node, mtbench_workload):
    pm = PerformanceModel(model=mixtral, hardware=t4_node, workload=mtbench_workload)
    policies = [
        Policy(batch_size=64, micro_batch_size=16, attention_on_gpu=False),
        Policy(batch_size=64, micro_batch_size=16, attention_on_gpu=True),
    ]
    with pytest.raises(ConfigurationError, match="placement"):
        pm.decode_grid(policies, [128])
    # decode_times splits placements itself.
    assert list(pm.decode_times(policies)) == [pm.decode_time(p) for p in policies]


def test_public_hrm_methods_return_python_floats(mixtral, t4_node, mtbench_workload):
    optimizer = PolicyOptimizer(model=mixtral, hardware=t4_node, workload=mtbench_workload)
    result = optimizer.search()
    pm = optimizer.performance_model
    policy = result.policy
    breakdown = pm.layer_decode_breakdown(policy, 300)
    values = [
        breakdown.comm_htod,
        breakdown.comm_dtoh,
        breakdown.t_cpu,
        breakdown.t_gpu,
        breakdown.t_layer,
        *breakdown.components.values(),
        pm.decode_step_latency(policy, 300),
        pm.decode_time(policy),
        pm.prefill_time(policy),
        result.throughput,
        result.estimate.prefill_time,
        result.estimate.decode_time,
        result.estimate.breakdown.t_layer,
    ]
    assert all(type(value) in (float, int) for value in values), [
        type(value) for value in values
    ]
    assert type(result.throughput) is float

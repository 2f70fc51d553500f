"""Property tests for HRM decode-step pricing over batch x context grids."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import ClusterSpec
from repro.core.performance_model import PerformanceModel
from repro.core.policy import Policy
from repro.hardware import get_hardware
from repro.models import get_model
from repro.systems import MoELightningSystem
from repro.workloads import chat

_WORKLOAD = chat(generation_len=128)
_MODELS = [
    PerformanceModel(
        model=get_model(model), hardware=get_hardware(hardware), workload=_WORKLOAD
    )
    for model in ("mixtral-8x7b", "dbrx")
    for hardware in ("1xT4", "1xL4")
] + [
    MoELightningSystem(
        get_model("mixtral-8x7b"), cluster=ClusterSpec.from_hardware(get_hardware("4xT4"))
    ).performance_model(_WORKLOAD)
]


@st.composite
def grids(draw):
    """One placement, one μ, r_w and r_c; sorted batch sizes and contexts."""
    attention_on_gpu = draw(st.booleans())
    mu = draw(st.integers(1, 256))
    batches = sorted(draw(st.lists(st.integers(mu, 64 * mu), min_size=1, max_size=6)))
    contexts = sorted(draw(st.lists(st.integers(1, 16384), min_size=1, max_size=6)))
    base = Policy(
        batch_size=mu,
        micro_batch_size=mu,
        attention_on_gpu=attention_on_gpu,
        ffn_on_gpu=draw(st.booleans()),
        weights_gpu_ratio=draw(st.floats(0.0, 1.0)),
        kv_cache_gpu_ratio=draw(st.floats(0.0, 1.0)) if attention_on_gpu else 0.0,
    )
    return [base.with_batch_size(n) for n in batches], contexts


@given(grid=grids(), model=st.sampled_from(_MODELS))
@settings(deadline=None)
def test_step_latency_never_decreases_with_context_or_batch(grid, model):
    """At fixed μ, a longer context or a larger batch never makes a step faster."""
    policies, contexts = grid
    latency = model.decode_grid(policies, contexts).step_latency
    assert np.all(np.diff(latency, axis=0) >= 0)
    assert np.all(np.diff(latency, axis=1) >= 0)
    # The one-point method is the same kernel.
    assert latency[-1, -1] == model.decode_step_latency(policies[-1], contexts[-1])

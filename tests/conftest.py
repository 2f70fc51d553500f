"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.performance_model import EfficiencyModel
from repro.core.policy import Policy
from repro.hardware import get_hardware
from repro.models import get_model
from repro.workloads import mtbench, summarization, synthetic_reasoning

#: Selected with ``--hypothesis-profile=long``: the slower, deeper property
#: and state-machine slice.  Tier-1 runs hypothesis's default profile.
settings.register_profile("long", max_examples=500, deadline=None)


@pytest.fixture(scope="session")
def mixtral():
    """Mixtral 8x7B model configuration."""
    return get_model("mixtral-8x7b")


@pytest.fixture(scope="session")
def mixtral_8x22b():
    """Mixtral 8x22B model configuration."""
    return get_model("mixtral-8x22b")


@pytest.fixture(scope="session")
def dbrx():
    """DBRX model configuration."""
    return get_model("dbrx")


@pytest.fixture(scope="session")
def tiny_model():
    """The miniature MoE used by the functional engine tests."""
    return get_model("tiny-moe")


@pytest.fixture(scope="session")
def t4_node():
    """Single-T4 node (setting S1)."""
    return get_hardware("1xT4")


@pytest.fixture(scope="session")
def l4_node():
    """Single-L4 node (setting S2)."""
    return get_hardware("1xL4")


@pytest.fixture(scope="session")
def multi_t4_node():
    """4x T4 node (settings S7/S9)."""
    return get_hardware("4xT4")


@pytest.fixture(scope="session")
def mtbench_workload():
    """MTBench with the paper's default generation length of 128."""
    return mtbench(generation_len=128)


@pytest.fixture(scope="session")
def reasoning_workload():
    """HELM synthetic-reasoning workload."""
    return synthetic_reasoning()


@pytest.fixture(scope="session")
def summarization_workload():
    """HELM summarization workload."""
    return summarization()


@pytest.fixture(scope="session")
def efficiency():
    """The default efficiency (derating) model."""
    return EfficiencyModel()


@pytest.fixture
def cpu_attention_policy():
    """A CGOPipe-style policy (CPU attention, GPU FFN, streamed weights)."""
    return Policy(
        batch_size=256,
        micro_batch_size=64,
        attention_on_gpu=False,
        ffn_on_gpu=True,
        weights_gpu_ratio=0.05,
    )


@pytest.fixture
def gpu_attention_policy():
    """A FlexGen-style policy (GPU attention with KV swapping)."""
    return Policy(
        batch_size=256,
        micro_batch_size=64,
        attention_on_gpu=True,
        ffn_on_gpu=True,
        weights_gpu_ratio=0.05,
        kv_cache_gpu_ratio=0.0,
    )


@pytest.fixture
def rng():
    """Deterministic numpy random generator."""
    return np.random.default_rng(1234)

"""Behavioural tests: CGOPipe's advantage over the baseline schedules."""

import pytest

from repro.core.policy import Policy
from repro.runtime.resources import ResourceKind
from repro.schedules import (
    CGOPipeSchedule,
    FastDecodeSchedule,
    FlexGenCPUSchedule,
    FlexGenSchedule,
)


@pytest.fixture(scope="module")
def policy():
    """A memory-constrained Mixtral/T4 shape: 15 micro-batches of 64."""
    return Policy(
        batch_size=960, micro_batch_size=64, attention_on_gpu=False,
        ffn_on_gpu=True, weights_gpu_ratio=0.05,
    )


@pytest.fixture(scope="module")
def timings(mixtral, t4_node, policy):
    gpu_policy = Policy(
        batch_size=policy.batch_size, micro_batch_size=policy.micro_batch_size,
        attention_on_gpu=True, ffn_on_gpu=True,
        weights_gpu_ratio=policy.weights_gpu_ratio, kv_cache_gpu_ratio=0.0,
    )
    results = {}
    for schedule_cls, run_policy in (
        (CGOPipeSchedule, policy),
        (FastDecodeSchedule, policy),
        (FlexGenCPUSchedule, policy),
        (FlexGenSchedule, gpu_policy),
    ):
        schedule = schedule_cls(mixtral, t4_node, max_sim_layers=6)
        results[schedule_cls.name] = schedule.step_timing(run_policy, context_len=480)
    return results


def test_cgopipe_is_fastest_schedule(timings):
    """Fig. 6 / §5: CGOPipe beats every baseline schedule per decode step."""
    cgopipe = timings["cgopipe"].step_time
    for name, timing in timings.items():
        if name != "cgopipe":
            assert timing.step_time > cgopipe


def test_cgopipe_has_smallest_gpu_bubble_fraction(timings):
    cgopipe = timings["cgopipe"].gpu_bubble_fraction
    for name, timing in timings.items():
        if name != "cgopipe":
            assert timing.gpu_bubble_fraction > cgopipe


def test_cgopipe_keeps_interconnect_busy(timings):
    """Paged weights keep the HtoD channel near-saturated."""
    assert timings["cgopipe"].utilization["htod"] > 0.9


def test_paging_improves_over_unpaged_pipeline(timings):
    """CGOPipe vs FastDecode isolates the weight-paging contribution."""
    assert timings["fastdecode"].step_time > 1.2 * timings["cgopipe"].step_time


def test_flexgen_pays_for_kv_swapping(timings):
    """S4 moves the whole KV cache over PCIe each step: slowest of the four."""
    assert timings["flexgen"].step_time == max(t.step_time for t in timings.values())


def test_gpu_utilization_ordering(timings):
    assert timings["cgopipe"].utilization["gpu"] > timings["fastdecode"].utilization["gpu"]
    assert timings["cgopipe"].utilization["gpu"] > timings["flexgen_cpu"].utilization["gpu"]


def test_cgopipe_interleaves_weight_pages_with_hidden_loads(mixtral, t4_node, policy):
    """On the HtoD channel, weight pages and hidden loads alternate rather
    than the weights forming one solid block."""
    schedule = CGOPipeSchedule(mixtral, t4_node, max_sim_layers=4)
    result = schedule.simulate(policy, context_len=480, num_steps=1)
    events = result.trace.events_on(ResourceKind.HTOD)
    kinds = [event.kind.value for event in events]
    # Find positions of hidden loads; weight pages must appear both before and
    # after some hidden load (interleaving), not all clustered at one end.
    first_hidden = kinds.index("hidden_load")
    last_hidden = len(kinds) - 1 - kinds[::-1].index("hidden_load")
    weights_between = [
        kind for kind in kinds[first_hidden : last_hidden + 1]
        if kind == "weight_transfer"
    ]
    assert weights_between, "weight pages should interleave with hidden loads"


def _streamed_policy(batch_size, micro_batch_size):
    return Policy(
        batch_size=batch_size, micro_batch_size=micro_batch_size,
        attention_on_gpu=False, ffn_on_gpu=True, weights_gpu_ratio=0.05,
    )


@pytest.mark.parametrize("batch_size, micro_batch_size", [(1, 1), (2, 2)])
def test_single_micro_batch_graph_builds(mixtral, t4_node, batch_size, micro_batch_size):
    """One micro-batch: pre-attention of layer l + 1 follows layer l's post."""
    schedule = CGOPipeSchedule(mixtral, t4_node, max_sim_layers=4)
    policy = _streamed_policy(batch_size, micro_batch_size)
    assert policy.num_micro_batches == 1
    graph = schedule.build_decode_graph(policy, context_len=480)
    # Five tasks per layer, the streamed weight pages, one sample.
    assert len(graph) == 24
    assert schedule.step_timing(policy, context_len=480).step_time > 0


@pytest.mark.parametrize(
    "batch_size, micro_batch_size, tasks, step_time",
    [
        (4, 2, 47, 8.205978301647066),
        (6, 2, 70, 7.965696823947724),
        (960, 64, 346, 8.300878050788839),
    ],
)
def test_multi_micro_batch_graphs_unchanged(
    mixtral, t4_node, batch_size, micro_batch_size, tasks, step_time
):
    """Two or more micro-batches keep the two-slot lookahead graph exactly."""
    schedule = CGOPipeSchedule(mixtral, t4_node, max_sim_layers=4)
    policy = _streamed_policy(batch_size, micro_batch_size)
    assert policy.num_micro_batches >= 2
    assert len(schedule.build_decode_graph(policy, context_len=480)) == tasks
    assert schedule.step_timing(policy, context_len=480).step_time == step_time

"""Algorithm 2 and the engine's decode shape against frozen copies.

The integer kernel :func:`repro.workloads.batching.partition_lengths`, the
:func:`~repro.workloads.batching.batch_requests` wrapper over it and
``EngineCore._decode_shape`` must reproduce the original list-based code
kept in :mod:`tests.frozen_batching` exactly, compared with ``==``:

* the kernel and the wrapper give the same micro-batch membership, ids and
  aborted order, on streams with many tied lengths, finite and infinite
  cache budgets, ``n_ub`` 1–24, ``mu`` 1–300 and more requests than slots;
* every decode step of a serving engine, whose running set holds padded
  requests (``padded_len > input_len``) and changes by joins, retirements
  and decode-epoch advances, prices the micro-batch count and binding
  context the original partition and scan give.

Run the long slice with ``--hypothesis-profile=long``.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import get_hardware
from repro.models import get_model
from repro.serving.queue import ServingRequest
from repro.serving.scheduler import SCHEDULING_POLICIES
from repro.serving.server import EngineCore, EngineStepModel
from repro.systems import MoELightningSystem
from repro.workloads import Request, mtbench
from repro.workloads.batching import batch_requests, partition_lengths
from tests import frozen_batching

#: Prompt lengths from a handful of values (long runs of ties), from a tiny
#: range, and from a wide one.
LENGTHS = st.one_of(
    st.lists(st.sampled_from([1, 7, 64, 512]), max_size=200),
    st.lists(st.integers(1, 4), max_size=200),
    st.lists(st.integers(1, 2048), max_size=200),
)
BUDGETS = st.one_of(
    st.just(float("inf")),
    st.integers(0, 20_000),
    st.floats(0.0, 20_000.0, allow_nan=False),
)


def ids(micro_batches):
    return [[request.request_id for request in mb] for mb in micro_batches]


def check_against_frozen(
    lengths, pads, num_micro_batches, micro_batch_size, generation_len, budget
):
    requests = [
        Request(
            input_len=length,
            generation_len=generation_len,
            padded_len=length + pad if pad else None,
        )
        for length, pad in zip(lengths, pads)
    ]
    args = (num_micro_batches, micro_batch_size, generation_len, budget)
    frozen = frozen_batching.batch_requests(requests, *args)
    result = batch_requests(requests, *args)
    assert ids(result.micro_batches) == ids(frozen.micro_batches)
    assert [mb.micro_batch_id for mb in result.micro_batches] == [
        mb.micro_batch_id for mb in frozen.micro_batches
    ]
    assert [r.request_id for r in result.aborted] == [
        r.request_id for r in frozen.aborted
    ]
    groups, aborted = partition_lengths(lengths, *args)
    assert [[requests[i].request_id for i in group] for group in groups] == ids(
        frozen.micro_batches
    )
    assert [requests[i].request_id for i in aborted] == [
        r.request_id for r in frozen.aborted
    ]


@given(
    lengths=LENGTHS,
    pads=st.lists(st.integers(0, 64), min_size=200, max_size=200),
    num_micro_batches=st.integers(1, 24),
    micro_batch_size=st.integers(1, 300),
    generation_len=st.integers(1, 64),
    budget=BUDGETS,
)
@settings(deadline=None)
def test_kernel_and_wrapper_equal_the_frozen_batching(
    lengths, pads, num_micro_batches, micro_batch_size, generation_len, budget
):
    check_against_frozen(
        lengths, pads, num_micro_batches, micro_batch_size, generation_len, budget
    )


@given(
    lengths=st.lists(st.sampled_from([1, 2, 3, 50, 51]), min_size=40, max_size=120),
    pads=st.lists(st.integers(0, 8), min_size=120, max_size=120),
    num_micro_batches=st.integers(1, 4),
    micro_batch_size=st.integers(1, 8),
    generation_len=st.integers(1, 16),
    budget=BUDGETS,
)
@settings(deadline=None)
def test_more_requests_than_slots_abort_in_the_frozen_order(
    lengths, pads, num_micro_batches, micro_batch_size, generation_len, budget
):
    assert len(lengths) > num_micro_batches * micro_batch_size
    check_against_frozen(
        lengths, pads, num_micro_batches, micro_batch_size, generation_len, budget
    )


# ----------------------------------------------------------------------
# The engine's decode shape
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def engine_parts(batch_size: int, micro_batch_size: int):
    backend = MoELightningSystem(get_model("mixtral-8x7b"), get_hardware("1xT4"))
    workload = mtbench(generation_len=8, num_requests=32)
    policy = (
        backend.select_policy(workload)
        .with_batch_size(batch_size)
        .with_micro_batch_size(micro_batch_size)
    )
    return backend, workload, policy, EngineStepModel(backend, workload, policy)


def serve_checked(core: EngineCore, arrivals: list[ServingRequest]) -> list[tuple]:
    """Serve ``arrivals``, checking every decode shape against the frozen scan."""
    frozen = frozen_batching.FrozenScheduler(core.policy)
    original = core._decode_shape
    shapes = []

    def checked():
        shape = original()
        batch = frozen.form_micro_batches(core.running)
        expected = (
            batch.num_micro_batches,
            frozen.binding_context_len(batch, core.running),
        )
        assert shape == expected
        shapes.append(shape)
        return shape

    core._decode_shape = checked
    for serving_request in arrivals:
        core.advance_to(serving_request.arrival_time)
        core.offer(serving_request)
    core.drain()
    return shapes


REQUESTS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.05, 0.5, 3.0]),  # inter-arrival gap
        st.one_of(st.sampled_from([16, 16, 100]), st.integers(1, 300)),
        st.sampled_from([0, 0, 1, 40]),  # padding beyond the prompt
        st.integers(1, 12),
    ),
    min_size=1,
    max_size=40,
)


@given(
    requests=REQUESTS,
    sizes=st.sampled_from([(8, 1), (8, 3), (16, 4), (32, 5), (48, 8)]),
    scheduling=st.sampled_from(SCHEDULING_POLICIES),
    chunk_prefill_tokens=st.sampled_from([None, 64]),
    overlap=st.booleans(),
)
@settings(deadline=None)
def test_decode_shape_equals_the_frozen_partition_and_scan(
    requests, sizes, scheduling, chunk_prefill_tokens, overlap
):
    backend, workload, policy, step_model = engine_parts(*sizes)
    core = EngineCore(
        backend=backend,
        workload=workload,
        policy=policy,
        step_model=step_model,
        scheduling=scheduling,
        chunk_prefill_tokens=chunk_prefill_tokens,
        overlap=overlap,
    )
    arrivals = []
    now = 0.0
    for gap, input_len, pad, generation_len in requests:
        now += gap
        request = Request(
            input_len=input_len,
            generation_len=generation_len,
            padded_len=input_len + pad if pad else None,
        )
        arrivals.append(ServingRequest(request=request, arrival_time=now))
    serve_checked(core, arrivals)


def test_padded_running_set_is_checked_on_every_decode_step():
    backend, workload, policy, step_model = engine_parts(16, 4)
    core = EngineCore(
        backend=backend, workload=workload, policy=policy, step_model=step_model
    )
    arrivals = [
        ServingRequest(
            request=Request(
                input_len=10 + (i % 5) * 30,
                generation_len=3 + i % 7,
                padded_len=10 + (i % 5) * 30 + (i % 3) * 17,
            ),
            arrival_time=0.1 * (i // 4),
        )
        for i in range(24)
    ]
    shapes = serve_checked(core, arrivals)
    assert len(shapes) >= 10
    # Several group counts show up as the running set fills and drains.
    assert len({count for count, _ in shapes}) >= 2

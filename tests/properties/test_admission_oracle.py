"""One-probe admission against the frozen two-probe path.

The library admits a request with a single all-or-nothing KV registration
(:meth:`AdmissionController.admit_checked` returns ``False`` and changes
nothing when it does not fit).  The original path, frozen in
:mod:`tests.frozen_admission`, first ran a side-effect-free capacity check
and then registered.  Driven side by side through random streams of
admissions (the scheduler's wait-at-the-head style and the counting
:meth:`~AdmissionController.admit`), releases, decode appends and TTL
sweeps, the two must agree with ``==`` after every operation on:

* every verdict and decision reason;
* the controller counters, ``rejected_kv_count`` included, and the
  telemetry counters;
* each request's ``tokens_cached`` and ``tokens_prefilled`` (also for
  requests that arrive already prefilled, as migrations do);
* every live sequence's length, cached tokens and block table;
* the block store's slot columns, content index, LRU queue and counters;
* the pools' page counts.

Streams cover the prefix cache on and off, budgets of a few blocks, one
and two pools, padded requests, ``reserve_output_tokens=False``, prompts
with and without content identity, and repeated prompts.

Run the long slice with ``--hypothesis-profile=long``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import Policy
from repro.hardware import get_hardware
from repro.models import get_model
from repro.models.memory import kv_cache_bytes_per_token_per_layer
from repro.obs import Telemetry
from repro.serving import AdmissionController, ServingRequest
from repro.utils.errors import MemoryManagerError
from repro.workloads import Request, uniform_workload
from tests.frozen_admission import FrozenAdmissionController

MODEL = get_model("mixtral-8x7b")
HARDWARE = get_hardware("1xT4")
WORKLOAD = uniform_workload(prompt_len=16, generation_len=8)
BLOCK_TOKENS = 4
BLOCK_BYTES = (
    BLOCK_TOKENS * kv_cache_bytes_per_token_per_layer(MODEL) * MODEL.num_layers
)
#: Prompt families: family ``f`` is a prefix of ``FAMILY_TOKENS[f]``.
#: Families 0 and 1 share their first two blocks, so chains overlap across
#: families as well as within one.
FAMILY_TOKENS = (
    tuple(range(64)),
    tuple(range(8)) + tuple(range(100, 156)),
    tuple(range(200, 264)),
)

#: ``("admit", family, length, pad, gen, counting, migrated)``: ``family``
#: is ``-1`` for a prompt without content identity; lengths come mostly
#: from a few values, block multiples among them, so prompts repeat whole;
#: ``counting`` picks ``admit`` over the scheduler's ``admit_checked``;
#: ``migrated`` marks the prompt already prefilled elsewhere, as a
#: disaggregated decode shard receives it.  ``("release", index)``,
#: ``("append", index, tokens)`` and ``("expire", elapsed, ttl)`` act on the
#: live requests and the store clock.
ADMIT = st.tuples(
    st.just("admit"),
    st.integers(-1, len(FAMILY_TOKENS) - 1),
    st.one_of(st.sampled_from([3, 4, 8, 13, 16, 24, 40]), st.integers(1, 40)),
    st.sampled_from([0, 0, 1, 5]),
    st.integers(1, 12),
    st.booleans(),
    st.booleans(),
)
OPS = st.lists(
    st.one_of(
        ADMIT,
        ADMIT,
        st.tuples(st.just("release"), st.integers(0, 99)),
        st.tuples(st.just("append"), st.integers(0, 99), st.integers(1, 9)),
        st.tuples(
            st.just("expire"), st.sampled_from([0.0, 1.0, 3.0]), st.sampled_from([1.0, 4.0])
        ),
    ),
    min_size=20,
    max_size=80,
)


def make_controller(
    cls, prefix_cache, reserve_output_tokens, gpu_ratio, blocks, max_live
):
    if gpu_ratio:
        policy = Policy(
            batch_size=8,
            micro_batch_size=4,
            attention_on_gpu=True,
            kv_cache_gpu_ratio=gpu_ratio,
        )
    else:
        policy = Policy(batch_size=8, micro_batch_size=4, attention_on_gpu=False)
    return cls(
        model=MODEL,
        hardware=HARDWARE,
        workload=WORKLOAD,
        policy=policy,
        max_live_requests=max_live,
        block_tokens=BLOCK_TOKENS,
        cpu_kv_budget_bytes=blocks * BLOCK_BYTES,
        gpu_kv_budget_bytes=blocks * BLOCK_BYTES,
        prefix_cache=prefix_cache,
        reserve_output_tokens=reserve_output_tokens,
        telemetry=Telemetry(trace=False),
    )


def controller_state(controller) -> tuple:
    kv_cache = controller.kv_cache
    store = kv_cache.block_store
    pools = [
        (pool.free_pages, pool.used_pages, pool._reserved)
        for pool in (kv_cache.cpu_pool, kv_cache.gpu_pool)
        if pool is not None
    ]
    return (
        controller.admitted_count,
        controller.rejected_kv_count,
        controller.rejected_slots_count,
        controller.cache_hit_count,
        controller.cached_tokens_total,
        controller.prompt_tokens_total,
        controller.telemetry.registry.snapshot(),
        [
            (sequence_id, cache.num_tokens, cache.cached_tokens, cache.block_table)
            for sequence_id, cache in kv_cache.sequences.items()
        ],
        store._refs,
        store._hashes,
        store._touch_time,
        store._stamps,
        store._ids,
        store._free_slots,
        store._hash_index,
        list(store._lru),
        store._private_blocks,
        store._num_cached,
        store._stamp,
        store.version,
        store.evictions,
        store.ttl_evictions,
        pools,
    )


def make_request(family, length, pad, gen):
    return Request(
        input_len=length,
        generation_len=gen,
        padded_len=length + pad if pad else None,
        token_ids=FAMILY_TOKENS[family][:length] if family >= 0 else None,
    )


@given(
    ops=OPS,
    prefix_cache=st.booleans(),
    reserve_output_tokens=st.booleans(),
    gpu_ratio=st.sampled_from([0.0, 0.5]),
    blocks=st.integers(1, 24),
    max_live=st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_one_probe_admission_matches_frozen_two_probe(
    ops, prefix_cache, reserve_output_tokens, gpu_ratio, blocks, max_live
):
    config = (prefix_cache, reserve_output_tokens, gpu_ratio, blocks, max_live)
    library = make_controller(AdmissionController, *config)
    frozen = make_controller(FrozenAdmissionController, *config)
    #: Live ``(library request, frozen request)`` pairs, admission order.
    live: list[tuple[ServingRequest, ServingRequest]] = []
    now = 0.0
    for op in ops:
        if op[0] == "admit":
            _, family, length, pad, gen, counting, migrated = op
            request = make_request(family, length, pad, gen)
            prefilled = request.effective_input_len if migrated else 0
            ours = ServingRequest(
                request=request, arrival_time=now, tokens_prefilled=prefilled
            )
            theirs = ServingRequest(
                request=request, arrival_time=now, tokens_prefilled=prefilled
            )
            if counting:
                decision = library.admit(ours)
                assert decision == frozen.admit(theirs)
                admitted = decision.admitted
            else:
                admitted = library.admit_checked(ours)
                assert admitted is frozen.check(theirs).admitted
                if admitted:
                    frozen.admit_checked(theirs)
            if admitted:
                live.append((ours, theirs))
            assert ours.tokens_cached == theirs.tokens_cached
            assert ours.tokens_prefilled == theirs.tokens_prefilled
        elif op[0] == "release" and live:
            ours, theirs = live.pop(op[1] % len(live))
            library.release(ours)
            frozen.release(theirs)
        elif op[0] == "append" and live:
            ours, theirs = live[op[1] % len(live)]
            outcomes = []
            for controller, serving_request in ((library, ours), (frozen, theirs)):
                try:
                    controller.kv_cache.append_tokens(serving_request.request_id, op[2])
                    outcomes.append(True)
                except MemoryManagerError:
                    outcomes.append(False)
            assert outcomes[0] == outcomes[1]
        elif op[0] == "expire":
            now += op[1]
            expired = []
            for controller in (library, frozen):
                store = controller.kv_cache.block_store
                store.clock_time = now
                expired.append(store.expire_idle(now - op[2]))
            assert expired[0] == expired[1]
        assert controller_state(library) == controller_state(frozen)

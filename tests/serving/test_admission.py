"""Admission control: KV-budget boundaries, slot caps, release/reuse."""

import pytest

from repro.core.policy import Policy
from repro.models.memory import kv_cache_bytes_per_token_per_layer
from repro.serving import AdmissionController, ServingRequest
from repro.utils.errors import MemoryManagerError
from repro.workloads import Request, uniform_workload

PROMPT = 16
GEN = 16
BLOCK_TOKENS = 16  # prompt + gen = exactly two KV pages per request


def make_request(prompt=PROMPT, gen=GEN):
    return ServingRequest(
        request=Request(input_len=prompt, generation_len=gen), arrival_time=0.0
    )


@pytest.fixture
def policy():
    return Policy(batch_size=8, micro_batch_size=4, attention_on_gpu=False)


def controller_with_budget(mixtral, t4_node, policy, num_requests):
    """A controller whose CPU KV budget holds exactly ``num_requests``."""
    bytes_per_token = (
        kv_cache_bytes_per_token_per_layer(mixtral) * mixtral.num_layers
    )
    budget = num_requests * (PROMPT + GEN) * bytes_per_token
    return AdmissionController(
        model=mixtral,
        hardware=t4_node,
        workload=uniform_workload(prompt_len=PROMPT, generation_len=GEN),
        policy=policy,
        block_tokens=BLOCK_TOKENS,
        cpu_kv_budget_bytes=budget,
    )


class TestKVBoundary:
    def test_rejects_exactly_at_budget(self, mixtral, t4_node, policy):
        admission = controller_with_budget(mixtral, t4_node, policy, num_requests=3)
        admitted = [make_request() for _ in range(3)]
        for serving_request in admitted:
            assert admission.admit(serving_request).admitted
        overflow = admission.admit(make_request())
        assert not overflow.admitted
        assert "KV cache" in overflow.reason
        assert admission.rejected_kv_count == 1
        assert admission.live_requests == 3

    def test_release_frees_capacity(self, mixtral, t4_node, policy):
        admission = controller_with_budget(mixtral, t4_node, policy, num_requests=2)
        first = make_request()
        second = make_request()
        assert admission.admit(first).admitted
        assert admission.admit(second).admitted
        assert not admission.admit(make_request()).admitted
        admission.release(first)
        assert admission.admit(make_request()).admitted

    def test_reservation_covers_end_of_generation(self, mixtral, t4_node, policy):
        """A short prompt with a long generation is charged its final size."""
        admission = controller_with_budget(mixtral, t4_node, policy, num_requests=2)
        # Budget holds 2 x 32 tokens; one request growing to 64 tokens takes
        # it all, leaving no room for a second.
        big = make_request(prompt=PROMPT, gen=3 * GEN)
        assert admission.admit(big).admitted
        assert not admission.admit(make_request()).admitted

    def test_check_has_no_side_effects(self, mixtral, t4_node, policy):
        admission = controller_with_budget(mixtral, t4_node, policy, num_requests=1)
        serving_request = make_request()
        assert admission.check(serving_request).admitted
        assert admission.live_requests == 0
        assert admission.admitted_count == 0

    def test_refused_admit_checked_changes_nothing(self, mixtral, t4_node, policy):
        """A request waiting at the head of the queue is no rejection."""
        admission = controller_with_budget(mixtral, t4_node, policy, num_requests=1)
        assert admission.admit_checked(make_request())
        waiting = make_request()
        before = admission.utilization()
        assert not admission.admit_checked(waiting)
        assert admission.utilization() == before
        assert (admission.admitted_count, admission.rejected_kv_count) == (1, 0)
        decision = admission.admit(waiting)
        assert not decision.admitted
        assert "KV cache" in decision.reason
        assert admission.rejected_kv_count == 1

    def test_refused_registration_keeps_a_matched_prefix_in_place(
        self, mixtral, t4_node, policy
    ):
        """A KV-full admission whose prompt matches cached blocks leaves
        them where they were: same LRU position, stamps and touch times."""
        bytes_per_token = (
            kv_cache_bytes_per_token_per_layer(mixtral) * mixtral.num_layers
        )
        admission = AdmissionController(
            model=mixtral,
            hardware=t4_node,
            workload=uniform_workload(prompt_len=PROMPT, generation_len=GEN),
            policy=policy,
            block_tokens=BLOCK_TOKENS,
            cpu_kv_budget_bytes=3 * BLOCK_TOKENS * bytes_per_token,
            prefix_cache=True,
        )
        prompt = tuple(range(2 * BLOCK_TOKENS))

        def chat_request(gen):
            request = Request(input_len=len(prompt), generation_len=gen, token_ids=prompt)
            return ServingRequest(request=request, arrival_time=0.0)

        first = chat_request(GEN)
        assert admission.admit(first).admitted  # two hashed blocks + one private
        admission.release(first)
        assert admission.admit(make_request(prompt=8, gen=8)).admitted
        store = admission.kv_cache.block_store

        def state():
            return (
                list(store._refs),
                list(store._stamps),
                list(store._touch_time),
                list(store._lru),
                store._num_cached,
                store._stamp,
                store.version,
                store.cpu_pool.free_pages,
            )

        before = state()
        store.clock_time = 5.0
        again = chat_request(2 * GEN)  # matches the first block, needs 3 more
        assert admission.match_prefix(again.request) == BLOCK_TOKENS
        assert not admission.admit_checked(again)
        assert state() == before
        assert again.tokens_cached == 0


class TestSlotCap:
    def test_batch_size_caps_live_requests(self, mixtral, t4_node, policy):
        admission = controller_with_budget(mixtral, t4_node, policy, num_requests=100)
        admission.max_live_requests = 2
        assert admission.admit(make_request()).admitted
        assert admission.admit(make_request()).admitted
        decision = admission.admit(make_request())
        assert not decision.admitted
        assert "batch full" in decision.reason
        assert admission.rejected_slots_count == 1


class TestBudgetDerivation:
    def test_budget_derived_from_memory_model(self, mixtral, t4_node):
        """Without overrides the controller fits real CPU-memory headroom."""
        policy = Policy(batch_size=32, micro_batch_size=8, attention_on_gpu=False)
        admission = AdmissionController(
            model=mixtral,
            hardware=t4_node,
            workload=uniform_workload(prompt_len=128, generation_len=32),
            policy=policy,
        )
        # 192 GB node: plenty of KV room for one small request.
        assert admission.admit(make_request()).admitted

    def test_no_kv_headroom_raises(self, mixtral, t4_node):
        policy = Policy(batch_size=8, micro_batch_size=4, attention_on_gpu=False)
        with pytest.raises(MemoryManagerError):
            AdmissionController(
                model=mixtral,
                hardware=t4_node,
                workload=uniform_workload(prompt_len=128, generation_len=32),
                policy=policy,
                cpu_kv_budget_bytes=1.0,
            )

    def test_utilization_report(self, mixtral, t4_node, policy):
        admission = controller_with_budget(mixtral, t4_node, policy, num_requests=2)
        admission.admit(make_request())
        utilization = admission.utilization()
        assert utilization["kv_cpu"] == pytest.approx(0.5)
        assert utilization["live_requests"] == 1.0


def test_admit_of_a_token_id_request_probes_the_index_once(
    mixtral, t4_node, policy, monkeypatch
):
    """The registration is the capacity check: one prefix probe per admit."""
    from repro.runtime.block_store import SharedBlockStore

    admission = AdmissionController(
        model=mixtral,
        hardware=t4_node,
        workload=uniform_workload(prompt_len=40, generation_len=GEN),
        policy=policy,
        block_tokens=BLOCK_TOKENS,
        prefix_cache=True,
    )
    probes = []
    probe = SharedBlockStore.match_prefix_hashes

    def counting_probe(store, *args):
        probes.append(args)
        return probe(store, *args)

    monkeypatch.setattr(SharedBlockStore, "match_prefix_hashes", counting_probe)
    request = Request(input_len=40, generation_len=GEN, token_ids=tuple(range(40)))
    assert admission.admit(
        ServingRequest(request=request, arrival_time=0.0)
    ).admitted
    assert len(probes) == 1

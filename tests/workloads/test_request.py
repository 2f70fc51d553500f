"""Tests for Request / MicroBatch / Batch datatypes."""

import pytest

from repro.utils.errors import ConfigurationError
from repro.workloads.request import Batch, MicroBatch, Request, total_generated_tokens


def test_request_effective_and_total_lengths():
    request = Request(input_len=10, generation_len=5)
    assert request.effective_input_len == 10
    assert request.total_len == 15
    padded = request.padded_to(32)
    assert padded.effective_input_len == 32
    assert padded.total_len == 37
    assert padded.request_id == request.request_id


def test_request_padding_below_input_rejected():
    request = Request(input_len=10, generation_len=5)
    with pytest.raises(ConfigurationError):
        request.padded_to(5)


def test_request_rejects_non_positive_lengths():
    with pytest.raises(ConfigurationError):
        Request(input_len=0, generation_len=4)
    with pytest.raises(ConfigurationError):
        Request(input_len=4, generation_len=0)


def test_request_ids_are_unique():
    a = Request(input_len=1, generation_len=1)
    b = Request(input_len=1, generation_len=1)
    assert a.request_id != b.request_id


def test_micro_batch_aggregates():
    mb = MicroBatch(
        requests=[
            Request(input_len=10, generation_len=4),
            Request(input_len=20, generation_len=4),
        ]
    )
    assert mb.size == 2
    assert mb.total_input_tokens == 30
    assert mb.max_input_len == 20
    assert mb.max_total_len == 24
    assert mb.total_kv_tokens(decoded_tokens=2) == 34
    assert mb.total_kv_tokens(decoded_tokens=100) == 30 + 8  # capped at total_len


def test_micro_batch_add_and_iterate():
    mb = MicroBatch()
    mb.add(Request(input_len=3, generation_len=1))
    assert len(mb) == 1
    assert list(mb)[0].input_len == 3


def test_batch_from_requests_splits_evenly():
    requests = [Request(input_len=4, generation_len=2) for _ in range(10)]
    batch = Batch.from_requests(requests, micro_batch_size=4)
    assert batch.num_micro_batches == 3
    assert [mb.size for mb in batch] == [4, 4, 2]
    assert batch.num_requests == 10
    assert batch.max_micro_batch_size == 4
    assert batch.generation_len == 2
    assert len(batch.all_requests()) == 10


def test_batch_total_kv_tokens():
    requests = [Request(input_len=4, generation_len=2) for _ in range(3)]
    batch = Batch.from_requests(requests, micro_batch_size=2)
    assert batch.total_kv_tokens(decoded_tokens=1) == 3 * 5


def test_total_generated_tokens():
    requests = [Request(input_len=4, generation_len=7) for _ in range(3)]
    assert total_generated_tokens(requests) == 21


def test_session_key_namespaces_sessions_from_request_ids():
    """session_id=5 and a sessionless request_id=5 must not collide."""
    with_session = Request(
        input_len=4, generation_len=1, request_id=99, session_id=5
    )
    sessionless = Request(input_len=4, generation_len=1, request_id=5)
    assert with_session.session_key != sessionless.session_key
    # Exhaustively: the two key spaces are disjoint over a dense range.
    session_keys = {
        Request(input_len=1, generation_len=1, request_id=0, session_id=i).session_key
        for i in range(256)
    }
    request_keys = {
        Request(input_len=1, generation_len=1, request_id=i).session_key
        for i in range(256)
    }
    assert session_keys.isdisjoint(request_keys)


def test_token_ids_length_must_match_input_len():
    with pytest.raises(ConfigurationError):
        Request(input_len=3, generation_len=1, token_ids=(1, 2))


def test_padding_preserves_token_ids():
    request = Request(input_len=3, generation_len=1, token_ids=(7, 8, 9))
    assert request.padded_to(10).token_ids == (7, 8, 9)


def test_hashed_chain_is_memoised_per_block_size():
    """Eager token-id requests hand out one chain object per block size."""
    from repro.runtime.block_store import chain_block_hashes

    request = Request(input_len=40, generation_len=4, token_ids=tuple(range(40)))
    chain = request.block_hash_chain(16)
    assert request.block_hash_chain(16) is chain
    assert list(chain) == chain_block_hashes(tuple(range(40)), 16)
    other = request.block_hash_chain(8)
    assert len(other) == 5
    assert request.block_hash_chain(8) is other
    assert request.block_hash_chain(16) is chain

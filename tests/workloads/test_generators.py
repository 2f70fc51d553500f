"""Tests for the synthetic workload generators (Table 3)."""

import numpy as np
import pytest

from repro.utils.errors import ConfigurationError
from repro.workloads import get_workload, list_workloads, mtbench, summarization, synthetic_reasoning
from repro.workloads.generators import generate_requests, uniform_workload


def test_registry_lists_paper_workloads():
    names = list_workloads()
    for expected in ("mtbench", "synthetic_reasoning", "summarization"):
        assert expected in names


def test_table3_statistics():
    assert mtbench().avg_prompt_len == 77
    assert mtbench().max_prompt_len == 418
    assert synthetic_reasoning().avg_prompt_len == 242
    assert synthetic_reasoning().max_prompt_len == 256
    assert synthetic_reasoning().generation_len == 50
    assert summarization().avg_prompt_len == 1693
    assert summarization().max_prompt_len == 1984
    assert summarization().generation_len == 64


def test_get_workload_passes_kwargs():
    workload = get_workload("mtbench", generation_len=256)
    assert workload.generation_len == 256


def test_get_workload_unknown_raises():
    with pytest.raises(ConfigurationError):
        get_workload("wikitext")


def test_uniform_workload_constant_length():
    workload = uniform_workload(prompt_len=512, generation_len=32)
    assert workload.avg_prompt_len == workload.max_prompt_len == 512


def test_generate_requests_is_deterministic():
    spec = mtbench(num_requests=200)
    first = generate_requests(spec, seed=7)
    second = generate_requests(spec, seed=7)
    assert [r.input_len for r in first] == [r.input_len for r in second]


def test_generate_requests_respects_bounds_and_mean():
    spec = mtbench(num_requests=2000)
    requests = generate_requests(spec, seed=0)
    lengths = np.array([r.input_len for r in requests])
    assert lengths.max() == spec.max_prompt_len
    assert lengths.min() >= 1
    assert abs(lengths.mean() - spec.avg_prompt_len) < 0.35 * spec.avg_prompt_len


def test_generate_requests_tight_distribution_for_helm():
    spec = synthetic_reasoning(num_requests=500)
    requests = generate_requests(spec, seed=0)
    lengths = np.array([r.input_len for r in requests])
    assert lengths.max() <= spec.max_prompt_len
    assert abs(lengths.mean() - spec.avg_prompt_len) < 0.2 * spec.avg_prompt_len


def test_generate_requests_count_override():
    spec = mtbench(num_requests=1000)
    assert len(generate_requests(spec, count=17)) == 17


def test_generation_length_attached_to_requests():
    spec = mtbench(generation_len=64, num_requests=10)
    requests = generate_requests(spec)
    assert all(r.generation_len == 64 for r in requests)


# ----------------------------------------------------------------------
# Multi-turn chat workload
# ----------------------------------------------------------------------
class TestChatWorkload:
    def test_registered_and_parameterised(self):
        from repro.workloads import get_workload

        spec = get_workload("chat", generation_len=8, num_requests=12)
        assert spec.name == "chat"
        assert spec.generation_len == 8

    def test_turn_lengths_are_deterministic(self):
        from repro.workloads import chat, generate_chat_requests

        spec = chat(generation_len=8, num_requests=12, turns_per_session=3)
        requests = generate_chat_requests(spec, seed=3)
        assert len(requests) == 12
        for request in requests:
            assert request.session_id is not None
            assert request.token_ids is not None
            assert len(request.token_ids) == request.input_len
        assert max(r.input_len for r in requests) <= spec.max_prompt_len

    def test_sessions_share_the_system_prompt(self):
        from repro.workloads import chat, generate_chat_requests

        spec = chat(generation_len=8, num_requests=8, turns_per_session=2)
        requests = generate_chat_requests(spec, seed=0)
        first_turns = [r for r in requests if r.input_len == spec.prompt_len_at_turn(0)]
        prefixes = {r.token_ids[: spec.system_prompt_len] for r in first_turns}
        assert len(prefixes) == 1  # one shared system prompt across sessions

    def test_later_turns_extend_the_previous_prompt(self):
        from repro.workloads import chat, generate_chat_requests

        spec = chat(generation_len=8, num_requests=8, turns_per_session=4)
        requests = generate_chat_requests(spec, count=8, seed=1)
        by_session = {}
        for request in requests:
            by_session.setdefault(request.session_id, []).append(request)
        for turns in by_session.values():
            for earlier, later in zip(turns, turns[1:]):
                assert later.token_ids[: earlier.input_len] == earlier.token_ids

    def test_same_seed_same_tokens(self):
        from repro.workloads import chat, generate_chat_requests

        spec = chat(generation_len=4, num_requests=6)
        a = generate_chat_requests(spec, seed=7)
        b = generate_chat_requests(spec, seed=7)
        assert [r.token_ids for r in a] == [r.token_ids for r in b]
        c = generate_chat_requests(spec, seed=8)
        assert [r.token_ids for r in a] != [r.token_ids for r in c]


# ----------------------------------------------------------------------
# Columnar generation (the streaming hot path)
# ----------------------------------------------------------------------
def rows(requests):
    return [(r.input_len, r.generation_len, r.session_id) for r in requests]


class TestColumnarGeneration:
    """The vectorised generator must match the object path value-for-value."""

    def test_matches_object_path_on_length_workloads(self):
        from repro.workloads.generators import generate_request_columns

        for spec in (mtbench(num_requests=500), synthetic_reasoning(num_requests=500)):
            for seed in (0, 7):
                objects = generate_requests(spec, seed=seed)
                columns = generate_request_columns(spec, seed=seed)
                assert len(columns) == len(objects)
                assert rows(columns.materialize()) == rows(objects)
                assert columns.num_sessions is None

    def test_matches_object_path_on_chat(self):
        from repro.workloads import chat
        from repro.workloads.generators import generate_request_columns

        spec = chat(generation_len=8, num_requests=50, turns_per_session=3)
        objects = generate_requests(spec, seed=3)
        columns = generate_request_columns(spec, seed=3)
        assert rows(columns.materialize()) == rows(objects)

    def test_materialize_round_trips_lazily(self):
        from repro.workloads.generators import generate_request_columns

        spec = mtbench(num_requests=40)
        columns = generate_request_columns(spec, seed=1)
        eager = columns.materialize()
        lazy = list(columns.iter_requests())
        assert [r.input_len for r in eager] == [r.input_len for r in lazy]
        # Columnar requests omit token ids by design (prefix-cache callers
        # use the object generators instead).
        assert all(r.token_ids is None for r in eager)

    def test_streams_across_column_chunks(self):
        """Streams several column chunks long yield every row once, in
        order, as Python ints; chunked arrival times are the one-shot
        draw's floats, on the eager and the lazy path alike."""
        from repro.serving import GammaProcess, PoissonProcess
        from repro.workloads import chat
        from repro.workloads.generators import STREAM_CHUNK, generate_request_columns

        count = 2 * STREAM_CHUNK + 1
        spec = chat(generation_len=8, num_requests=count, turns_per_session=3)
        lazy = generate_request_columns(spec, seed=3).materialize()
        assert rows(lazy) == rows(generate_requests(spec, seed=3))
        assert all(type(value) is int for value in rows(lazy)[-1])
        spec = mtbench(num_requests=count)
        for process in (PoissonProcess(5.0), GammaProcess(5.0, cv=2.0)):
            one_shot = process.arrival_times(count, np.random.default_rng([3, 0xA221]))
            eager = process.generate(spec, seed=3)
            streamed = list(process.generate_lazy(spec, seed=3))
            assert [t.arrival_time for t in eager] == one_shot.tolist()
            assert [(t.arrival_time, t.request.input_len) for t in streamed] == [
                (t.arrival_time, t.request.input_len) for t in eager
            ]

    def test_count_override_and_forced_max(self):
        from repro.workloads.generators import generate_request_columns

        spec = mtbench(num_requests=1000)
        columns = generate_request_columns(spec, count=17, seed=0)
        assert len(columns) == 17
        assert int(columns.lengths.max()) == spec.max_prompt_len

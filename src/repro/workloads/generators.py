"""Synthetic workload generators matching the paper's Table 3 statistics.

The paper evaluates on MTBench (avg prompt 77, max 418), HELM synthetic
reasoning (avg 242, max 256) and HELM summarization (avg 1693, max 1984).
Those datasets enter the evaluation only through their prompt-length
distributions, so we reproduce them with deterministic synthetic samplers:
a log-normal-ish distribution for MTBench (short questions with a long
tail) and tight near-maximum distributions for the two HELM tasks.

Every generator accepts a ``seed`` so experiments are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from typing import Callable, Dict, Iterable, Iterator

import numpy as np

from repro.utils.errors import ConfigurationError
from repro.utils.validation import require_positive_int
from repro.workloads.request import Request
from repro.workloads.spec import ChatWorkloadSpec, WorkloadSpec

#: Synthetic vocabulary: token ids are drawn uniformly below this bound.
_VOCAB_SIZE = 32000

WORKLOAD_REGISTRY: Dict[str, Callable[..., WorkloadSpec]] = {}


def register_workload(name: str, factory: Callable[..., WorkloadSpec]) -> None:
    """Register a workload factory under ``name``."""
    key = name.lower()
    if key in WORKLOAD_REGISTRY:
        raise ConfigurationError(f"workload {name!r} is already registered")
    WORKLOAD_REGISTRY[key] = factory


def get_workload(name: str, **kwargs) -> WorkloadSpec:
    """Instantiate a registered workload by name."""
    key = name.lower()
    if key not in WORKLOAD_REGISTRY:
        known = ", ".join(sorted(WORKLOAD_REGISTRY))
        raise ConfigurationError(f"unknown workload {name!r}; known: {known}")
    return WORKLOAD_REGISTRY[key](**kwargs)


def list_workloads() -> list[str]:
    """Names of all registered workloads."""
    return sorted(WORKLOAD_REGISTRY)


# ----------------------------------------------------------------------
# Workload specifications (Table 3)
# ----------------------------------------------------------------------
def mtbench(generation_len: int = 128, num_requests: int = 8000) -> WorkloadSpec:
    """MTBench: avg prompt 77, max prompt 418 (Table 3)."""
    return WorkloadSpec(
        name="mtbench",
        avg_prompt_len=77,
        max_prompt_len=418,
        generation_len=generation_len,
        num_requests=num_requests,
    )


def synthetic_reasoning(
    generation_len: int = 50, num_requests: int = 4000
) -> WorkloadSpec:
    """HELM synthetic reasoning: avg prompt 242, max 256, gen len 50."""
    return WorkloadSpec(
        name="synthetic_reasoning",
        avg_prompt_len=242,
        max_prompt_len=256,
        generation_len=generation_len,
        num_requests=num_requests,
    )


def summarization(generation_len: int = 64, num_requests: int = 2000) -> WorkloadSpec:
    """HELM summarization: avg prompt 1693, max 1984, gen len 64."""
    return WorkloadSpec(
        name="summarization",
        avg_prompt_len=1693,
        max_prompt_len=1984,
        generation_len=generation_len,
        num_requests=num_requests,
    )


def uniform_workload(
    prompt_len: int = 512,
    generation_len: int = 32,
    num_requests: int = 1000,
    name: str = "uniform",
) -> WorkloadSpec:
    """A constant-prompt-length workload (used by the Fig. 10 sweep)."""
    return WorkloadSpec(
        name=name,
        avg_prompt_len=prompt_len,
        max_prompt_len=prompt_len,
        generation_len=generation_len,
        num_requests=num_requests,
    )


def chat(
    generation_len: int = 32,
    num_requests: int = 64,
    turns_per_session: int = 4,
    num_sessions: int | None = None,
    system_prompt_len: int = 64,
    user_turn_len: int = 32,
) -> ChatWorkloadSpec:
    """Multi-turn chat: shared system prompt + growing per-session history.

    Not a paper workload — it opens the scenario class the prefix cache is
    for.  Prompt lengths are deterministic per turn (only the token values
    vary with the seed), so the spec's average/maximum are exact.
    """
    require_positive_int("turns_per_session", turns_per_session)
    require_positive_int("num_requests", num_requests)
    if num_sessions is None:
        num_sessions = max(1, -(-num_requests // turns_per_session))
    lengths = [
        system_prompt_len + turn * (user_turn_len + generation_len) + user_turn_len
        for turn in range(turns_per_session)
    ]
    return ChatWorkloadSpec(
        name="chat",
        avg_prompt_len=max(1, round(sum(lengths) / len(lengths))),
        max_prompt_len=lengths[-1],
        generation_len=generation_len,
        num_requests=num_requests,
        num_sessions=num_sessions,
        turns_per_session=turns_per_session,
        system_prompt_len=system_prompt_len,
        user_turn_len=user_turn_len,
    )


register_workload("mtbench", mtbench)
register_workload("synthetic_reasoning", synthetic_reasoning)
register_workload("summarization", summarization)
register_workload("uniform", uniform_workload)
register_workload("chat", chat)


# ----------------------------------------------------------------------
# Request sampling
# ----------------------------------------------------------------------
def _sample_lengths(spec: WorkloadSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample prompt lengths whose mean/max track the workload spec.

    MTBench-like workloads (max far above mean) use a log-normal shape; the
    HELM tasks (max close to mean) use a narrow triangular distribution near
    the maximum.
    """
    spread = spec.max_prompt_len / spec.avg_prompt_len
    if spread > 1.5:
        # Long-tailed distribution: log-normal with the target mean, clipped.
        sigma = 0.6
        mu = np.log(spec.avg_prompt_len) - sigma**2 / 2
        lengths = rng.lognormal(mean=mu, sigma=sigma, size=count)
    else:
        # Tight distribution just below the maximum.
        low = max(1, 2 * spec.avg_prompt_len - spec.max_prompt_len)
        lengths = rng.triangular(
            left=low, mode=spec.avg_prompt_len, right=spec.max_prompt_len, size=count
        )
    lengths = np.clip(np.round(lengths), 1, spec.max_prompt_len).astype(int)
    return lengths


def generate_chat_requests(
    spec: ChatWorkloadSpec,
    count: int | None = None,
    seed: int = 0,
) -> list[Request]:
    """Materialise a multi-turn chat stream with real shared token prefixes.

    Every session's turn-``t`` prompt is the shared system prompt, the
    session's accumulated conversation (user turns plus the assistant
    replies synthesised for earlier turns) and a fresh user message; token
    values are deterministic in ``seed``.  Requests are emitted turn-major —
    every session's turn 0, then every session's turn 1, ... — so a
    session's turns arrive in order under any monotone arrival process.
    Streams longer than ``num_sessions * turns_per_session`` open additional
    sessions (which still share the system prompt).
    """
    count = count if count is not None else spec.num_requests
    require_positive_int("count", count)
    system_tokens = _chat_system_tokens(spec, seed)
    num_sessions = max(spec.num_sessions, -(-count // spec.turns_per_session))
    histories: list[tuple[int, ...]] = [system_tokens] * num_sessions
    session_rngs = [
        np.random.default_rng([seed, 0x5E55, session]) for session in range(num_sessions)
    ]
    requests: list[Request] = []
    for turn in range(spec.turns_per_session):
        for session in range(num_sessions):
            if len(requests) >= count:
                return requests
            rng = session_rngs[session]
            user = tuple(rng.integers(0, _VOCAB_SIZE, spec.user_turn_len).tolist())
            prompt = histories[session] + user
            requests.append(
                Request(
                    input_len=len(prompt),
                    generation_len=spec.generation_len,
                    session_id=session,
                    token_ids=prompt,
                )
            )
            assistant = tuple(
                rng.integers(0, _VOCAB_SIZE, spec.generation_len).tolist()
            )
            histories[session] = prompt + assistant
    return requests


def generate_requests(
    spec: WorkloadSpec,
    count: int | None = None,
    seed: int = 0,
) -> list[Request]:
    """Materialise ``count`` requests drawn from the workload distribution.

    The sample's maximum prompt length is forced to equal the spec's maximum
    (by assigning it to one request) so padding-based systems pay the same
    worst case the paper describes.  Chat workloads dispatch to
    :func:`generate_chat_requests`, whose per-turn lengths are deterministic.
    """
    if isinstance(spec, ChatWorkloadSpec):
        return generate_chat_requests(spec, count=count, seed=seed)
    count = count if count is not None else spec.num_requests
    require_positive_int("count", count)
    rng = np.random.default_rng(seed)
    lengths = _sample_lengths(spec, count, rng)
    if count > 1:
        lengths[0] = spec.max_prompt_len
    requests = [
        Request(input_len=int(length), generation_len=spec.generation_len)
        for length in lengths
    ]
    return requests


# ----------------------------------------------------------------------
# Columnar prefix identity (chat)
# ----------------------------------------------------------------------
#: Sessions hashed per chunk: bounds the transient token matrix to a few MB
#: regardless of stream length.
_HASH_CHUNK_SESSIONS = 2048


def _chat_system_tokens(spec: ChatWorkloadSpec, seed: int) -> tuple[int, ...]:
    """The shared system prompt — one draw, identical across sessions."""
    system_rng = np.random.default_rng([seed, 0xC047])
    return tuple(
        system_rng.integers(0, _VOCAB_SIZE, spec.system_prompt_len).tolist()
    )


def _resolve_chat_tokens(
    system_tokens: tuple[int, ...], seed: int, session: int, draw_count: int
) -> tuple[int, ...]:
    """Regenerate one chat prompt's token tuple on demand.

    A session's turn-``t`` prompt is the system prompt followed by the first
    ``t * (user + generation) + user`` values of the session RNG stream —
    drawing them in one batched call yields the same values as the object
    path's per-turn draws (numpy PCG64 output is call-shape independent).
    """
    rng = np.random.default_rng([seed, 0x5E55, session])
    return system_tokens + tuple(
        rng.integers(0, _VOCAB_SIZE, draw_count).tolist()
    )


def _hash_token_row_matrix(tokens: np.ndarray, block_tokens: int) -> np.ndarray:
    """Chained block hashes of every row of a token matrix, vectorised.

    Row-for-row equal to ``repro.runtime.block_store.chain_block_hashes``:
    the same polynomial (multiplier 1000003, seed 0x9E3779B97F4A7C15) over
    the same ``(token + 1)`` terms, with uint64 wraparound standing in for
    the mod-``2**64`` reduction.  Each block's contribution is a dot product
    with the precomputed multiplier powers; the sequential part is one
    multiply-add per *block*, vectorised across rows.
    """
    num_rows, width = tokens.shape
    num_blocks = width // block_tokens
    multiplier = 1000003
    modulus = 2**64
    powers = np.array(
        [pow(multiplier, block_tokens - 1 - j, modulus) for j in range(block_tokens)],
        dtype=np.uint64,
    )
    step = np.uint64(pow(multiplier, block_tokens, modulus))
    values = (
        tokens[:, : num_blocks * block_tokens].astype(np.uint64) + np.uint64(1)
    ).reshape(num_rows, num_blocks, block_tokens)
    contributions = (values * powers).sum(axis=2, dtype=np.uint64)
    hashes = np.empty((num_rows, num_blocks), dtype=np.uint64)
    value = np.full(num_rows, 0x9E3779B97F4A7C15, dtype=np.uint64)
    for block_index in range(num_blocks):
        value = value * step + contributions[:, block_index]
        hashes[:, block_index] = value
    return hashes


def _chat_prefix_hash_rows(
    spec: ChatWorkloadSpec,
    num_sessions: int,
    seed: int,
    block_tokens: int,
) -> np.ndarray:
    """Per-session block-hash rows covering the final turn's prompt.

    Returns a ``(num_sessions, max_prompt // block_tokens)`` uint64 matrix;
    a turn-``t`` request's chain is the first ``input_len // block_tokens``
    entries of its session's row (turn prompts are strict prefixes of one
    another).  Token matrices are built per session chunk and discarded, so
    peak transient memory is bounded by the chunk, not the stream.
    """
    max_prompt = spec.prompt_len_at_turn(spec.turns_per_session - 1)
    num_blocks = max_prompt // block_tokens
    hashes = np.empty((num_sessions, num_blocks), dtype=np.uint64)
    if num_blocks == 0:
        return hashes
    system = np.array(_chat_system_tokens(spec, seed), dtype=np.int64)
    hashed_len = num_blocks * block_tokens
    system_part = min(len(system), hashed_len)
    draw_count = hashed_len - system_part
    for start in range(0, num_sessions, _HASH_CHUNK_SESSIONS):
        stop = min(start + _HASH_CHUNK_SESSIONS, num_sessions)
        tokens = np.empty((stop - start, hashed_len), dtype=np.int64)
        tokens[:, :system_part] = system[:system_part]
        if draw_count:
            for offset, session in enumerate(range(start, stop)):
                rng = np.random.default_rng([seed, 0x5E55, session])
                tokens[offset, system_part:] = rng.integers(
                    0, _VOCAB_SIZE, draw_count
                )
        hashes[start:stop] = _hash_token_row_matrix(tokens, block_tokens)
    return hashes


# ----------------------------------------------------------------------
# Columnar generation (the streaming hot path)
# ----------------------------------------------------------------------
#: Requests turned into Python values at a time while streaming columns.
STREAM_CHUNK = 4096


@dataclass(frozen=True)
class RequestColumns:
    """A request stream as numpy columns instead of objects.

    The hot-path counterpart of :func:`generate_requests`: lengths are
    produced vectorised in one shot, and :meth:`iter_requests`
    materialises :class:`Request` objects lazily — one at a time, as the
    serving loop consumes them, converting ``STREAM_CHUNK`` rows to Python
    values at a time — so a million-long stream never exists as a million
    simultaneous objects.  Chat columns are not stored at all: request
    ``i`` is turn ``i // num_sessions`` of session ``i % num_sessions``
    (turn-major order), so ``lengths`` holds one prompt length per turn.

    Prompt *content* travels as prefix identity, not token ids: chat
    streams built with ``prefix_block_tokens`` carry one uint64 block-hash
    row per session (``prefix_hash_rows``), and each emitted request gets
    the row slice covering its prompt plus a ``token_source`` that can
    regenerate the full token tuple on demand.  The serving hot path
    (admission, prefix matching, cache-aware routing) consumes the hash
    chains directly; token ids only materialise if somebody actually reads
    ``Request.token_ids``.  Everything else (length distributions, the
    forced-max first request, chat's deterministic per-turn lengths and
    turn-major session order) matches the object path value-for-value.
    """

    count: int
    generation_len: int
    #: Prompt length of every request, or of every turn for chat.
    lengths: np.ndarray
    num_sessions: int | None = None
    prefix_hash_rows: np.ndarray | None = None
    prefix_block_tokens: int | None = None
    system_tokens: tuple[int, ...] | None = None
    seed: int | None = None

    def __len__(self) -> int:
        return self.count

    def _chunks(self) -> Iterator[tuple[list[int], Iterable[int | None]]]:
        """``(prompt lengths, session ids)``, a chunk at a time."""
        for start in range(0, self.count, STREAM_CHUNK):
            stop = min(start + STREAM_CHUNK, self.count)
            if self.num_sessions is None:
                yield self.lengths[start:stop].tolist(), repeat(None)
            else:
                turns, sessions = np.divmod(np.arange(start, stop), self.num_sessions)
                yield self.lengths[turns].tolist(), sessions.tolist()

    def iter_requests(self) -> Iterator[Request]:
        """Yield :class:`Request` objects one at a time, in stream order."""
        generation_len = self.generation_len
        hash_rows = self.prefix_hash_rows
        block_tokens = self.prefix_block_tokens
        system_tokens = self.system_tokens
        for input_lens, session_ids in self._chunks():
            if hash_rows is None:
                for input_len, session in zip(input_lens, session_ids):
                    yield Request(
                        input_len=input_len,
                        generation_len=generation_len,
                        session_id=session,
                    )
            else:
                system_len = len(system_tokens)
                for input_len, session in zip(input_lens, session_ids):
                    chain = tuple(
                        hash_rows[session, : input_len // block_tokens].tolist()
                    )
                    yield Request(
                        input_len=input_len,
                        generation_len=generation_len,
                        session_id=session,
                        prefix_hashes=chain,
                        prefix_block_tokens=block_tokens,
                        token_source=partial(
                            _resolve_chat_tokens,
                            system_tokens,
                            self.seed,
                            session,
                            input_len - system_len,
                        ),
                    )

    def materialize(self) -> list[Request]:
        """Eager list form (for tests and small streams)."""
        return list(self.iter_requests())


def generate_request_columns(
    spec: WorkloadSpec,
    count: int | None = None,
    seed: int = 0,
    prefix_block_tokens: int | None = None,
) -> RequestColumns:
    """Vectorised :func:`generate_requests`: columns, not objects.

    Non-chat workloads draw the same ``np.random.default_rng(seed)``
    length sample as the object path (and force the first request to the
    spec maximum the same way).  Chat prompt lengths are deterministic
    arithmetic in the turn index, so a chat stream keeps one length per
    turn and derives each request's turn and session from its position in
    the object path's turn-major emission order.  Passing
    ``prefix_block_tokens`` additionally hashes each
    session's token stream into a shared uint64 block-hash row (vectorised,
    chunked) so emitted chat requests carry their prefix chain plus a lazy
    token source — bit-identical content identity to the object path
    without materialising any token list up front.
    """
    count = count if count is not None else spec.num_requests
    require_positive_int("count", count)
    if isinstance(spec, ChatWorkloadSpec):
        num_sessions = max(spec.num_sessions, -(-count // spec.turns_per_session))
        turn_lens = np.array(
            [
                spec.system_prompt_len
                + turn * (spec.user_turn_len + spec.generation_len)
                + spec.user_turn_len
                for turn in range(spec.turns_per_session)
            ],
            dtype=np.int64,
        )
        columns = RequestColumns(count, spec.generation_len, turn_lens, num_sessions)
        if prefix_block_tokens is None:
            return columns
        require_positive_int("prefix_block_tokens", prefix_block_tokens)
        return replace(
            columns,
            prefix_hash_rows=_chat_prefix_hash_rows(
                spec, num_sessions, seed, prefix_block_tokens
            ),
            prefix_block_tokens=prefix_block_tokens,
            system_tokens=_chat_system_tokens(spec, seed),
            seed=seed,
        )
    rng = np.random.default_rng(seed)
    lengths = _sample_lengths(spec, count, rng)
    if count > 1:
        lengths[0] = spec.max_prompt_len
    return RequestColumns(count, spec.generation_len, lengths)

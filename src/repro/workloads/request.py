"""Request, micro-batch and batch datatypes.

A :class:`Request` is a single prompt plus a target generation length.  A
:class:`MicroBatch` is the unit that a single kernel launch processes on the
GPU (size ``μ`` in the paper); a :class:`Batch` is a collection of
micro-batches processed in one pass of the whole model (size ``N``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.utils.errors import ConfigurationError
from repro.utils.validation import require_non_negative, require_positive_int

_request_counter = itertools.count()


@dataclass(frozen=True)
class Request:
    """A single inference request.

    ``input_len`` is the prompt length in tokens; ``generation_len`` the
    number of tokens to decode.  ``padded_len`` records the length the
    request is padded to under padding-based systems (FlexGen and
    MoE-Lightning(p)); it defaults to the true ``input_len``.

    Prompt content can be carried three ways, cheapest first:

    * ``prefix_hashes`` — the chained block-hash prefix of the prompt at
      ``prefix_block_tokens`` tokens per block, as produced by
      ``repro.runtime.block_store.chain_block_hashes``.  This is the only
      content identity the serving hot path (admission, prefix matching,
      cache-aware routing) needs, and for chat workloads it is a slice of
      a per-session hash row shared across turns.
    * ``token_source`` — a zero-argument callable that regenerates the
      full token tuple on demand.  ``token_ids`` then materialises lazily
      on first read and is cached; nothing is paid if nobody reads it.
    * ``token_ids`` — the eager token tuple, as before.
    """

    input_len: int
    generation_len: int
    request_id: int = field(default_factory=lambda: next(_request_counter))
    padded_len: int | None = None
    session_id: int | None = None
    token_ids: tuple[int, ...] | None = None
    prefix_hashes: tuple[int, ...] | None = field(
        default=None, repr=False, compare=False
    )
    prefix_block_tokens: int | None = field(
        default=None, repr=False, compare=False
    )
    token_source: Callable[[], Sequence[int]] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        require_positive_int("input_len", self.input_len)
        require_positive_int("generation_len", self.generation_len)
        if self.padded_len is not None and self.padded_len < self.input_len:
            raise ConfigurationError(
                f"padded_len ({self.padded_len}) must be >= input_len "
                f"({self.input_len})"
            )
        # Read the raw slot, not the property: validation must not trigger
        # lazy materialisation.
        token_ids = self.__dict__.get("token_ids")
        if token_ids is not None and len(token_ids) != self.input_len:
            raise ConfigurationError(
                f"token_ids holds {len(token_ids)} tokens but input_len "
                f"is {self.input_len}"
            )
        if self.prefix_hashes is not None and self.prefix_block_tokens is None:
            raise ConfigurationError(
                "prefix_hashes requires prefix_block_tokens"
            )

    @property
    def session_key(self) -> int:
        """Stable key for session-affinity routing.

        Session ids and the sessionless request-id fallback live in disjoint
        key spaces (a tag bit in the LSB), so ``session_id=5`` can never
        collide with a sessionless request whose ``request_id`` is 5.
        """
        if self.session_id is not None:
            return (self.session_id << 1) | 1
        return self.request_id << 1

    @property
    def effective_input_len(self) -> int:
        """Prompt length as seen by the system (padded if padding applies)."""
        return self.padded_len if self.padded_len is not None else self.input_len

    @property
    def total_len(self) -> int:
        """Prompt plus generated tokens (final KV-cache length)."""
        return self.effective_input_len + self.generation_len

    def block_hash_chain(self, block_tokens: int) -> tuple[int, ...] | None:
        """Chained block hashes of the prompt at ``block_tokens`` per block.

        Returns the stored ``prefix_hashes`` when they were computed at the
        same block size (no token materialisation), falls back to hashing
        ``token_ids``, and returns ``None`` when the request carries no
        content identity at all.  A chain hashed from ``token_ids`` is
        memoised on the request per block size, so admission and every
        routing probe hash an eager prompt once.
        """
        if (
            self.prefix_hashes is not None
            and self.prefix_block_tokens == block_tokens
        ):
            return self.prefix_hashes
        chains = self.__dict__.get("_hashed_chains")
        if chains is not None and block_tokens in chains:
            return chains[block_tokens]
        token_ids = self.token_ids
        if token_ids is None:
            return None
        # Local import: workloads must stay importable without runtime/.
        from repro.runtime.block_store import chain_block_hashes

        chain = tuple(chain_block_hashes(token_ids, block_tokens))
        self.__dict__.setdefault("_hashed_chains", {})[block_tokens] = chain
        return chain

    def padded_to(self, length: int) -> "Request":
        """Return a copy of this request padded to ``length`` tokens."""
        if length < self.input_len:
            raise ConfigurationError(
                f"cannot pad request of length {self.input_len} to {length}"
            )
        return Request(
            input_len=self.input_len,
            generation_len=self.generation_len,
            request_id=self.request_id,
            padded_len=length,
            session_id=self.session_id,
            token_ids=self.__dict__.get("token_ids"),
            prefix_hashes=self.prefix_hashes,
            prefix_block_tokens=self.prefix_block_tokens,
            token_source=self.token_source,
        )


def _request_token_ids_get(self: Request) -> tuple[int, ...] | None:
    tokens = self.__dict__.get("token_ids")
    if tokens is None:
        source = self.__dict__.get("token_source")
        if source is not None:
            tokens = tuple(source())
            if len(tokens) != self.input_len:
                raise ConfigurationError(
                    f"token_source produced {len(tokens)} tokens but "
                    f"input_len is {self.input_len}"
                )
            self.__dict__["token_ids"] = tokens
    return tokens


def _request_token_ids_set(self: Request, value: tuple[int, ...] | None) -> None:
    self.__dict__["token_ids"] = value


# ``token_ids`` is a data descriptor so lazy requests materialise on first
# read.  The frozen dataclass ``__init__`` assigns via ``object.__setattr__``,
# which routes through the property setter into the instance dict; direct
# attribute assignment still raises FrozenInstanceError as before.
Request.token_ids = property(  # type: ignore[assignment]
    _request_token_ids_get, _request_token_ids_set
)


@dataclass
class MicroBatch:
    """A group of requests executed together by a single kernel launch."""

    requests: list[Request] = field(default_factory=list)
    micro_batch_id: int = 0

    @property
    def size(self) -> int:
        """Number of requests (= rows) in the micro-batch."""
        return len(self.requests)

    @property
    def total_input_tokens(self) -> int:
        """Sum of effective prompt lengths across requests."""
        return sum(req.effective_input_len for req in self.requests)

    @property
    def max_input_len(self) -> int:
        """Longest effective prompt in the micro-batch (0 when empty)."""
        return max((req.effective_input_len for req in self.requests), default=0)

    @property
    def max_total_len(self) -> int:
        """Longest final sequence (prompt + generation) in the micro-batch."""
        return max((req.total_len for req in self.requests), default=0)

    def total_kv_tokens(self, decoded_tokens: int = 0) -> int:
        """Tokens held in the KV cache after ``decoded_tokens`` decode steps."""
        require_non_negative("decoded_tokens", decoded_tokens)
        return sum(
            min(req.effective_input_len + decoded_tokens, req.total_len)
            for req in self.requests
        )

    def add(self, request: Request) -> None:
        """Append a request to the micro-batch."""
        self.requests.append(request)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self.requests)


@dataclass
class Batch:
    """A full batch: the micro-batches processed in one pass of the model."""

    micro_batches: list[MicroBatch] = field(default_factory=list)

    @classmethod
    def from_requests(
        cls, requests: Sequence[Request], micro_batch_size: int
    ) -> "Batch":
        """Split ``requests`` into consecutive micro-batches of equal size."""
        require_positive_int("micro_batch_size", micro_batch_size)
        micro_batches = []
        for index, start in enumerate(range(0, len(requests), micro_batch_size)):
            chunk = list(requests[start : start + micro_batch_size])
            micro_batches.append(MicroBatch(requests=chunk, micro_batch_id=index))
        return cls(micro_batches=micro_batches)

    @property
    def num_micro_batches(self) -> int:
        """Number of micro-batches in the batch."""
        return len(self.micro_batches)

    @property
    def num_requests(self) -> int:
        """Total requests across all micro-batches (the batch size ``N``)."""
        return sum(mb.size for mb in self.micro_batches)

    @property
    def max_micro_batch_size(self) -> int:
        """Largest micro-batch size (the ``μ`` the kernels must handle)."""
        return max((mb.size for mb in self.micro_batches), default=0)

    @property
    def generation_len(self) -> int:
        """Maximum generation length across all requests in the batch."""
        return max(
            (req.generation_len for mb in self.micro_batches for req in mb),
            default=0,
        )

    def all_requests(self) -> list[Request]:
        """Flat list of every request in the batch."""
        return [req for mb in self.micro_batches for req in mb]

    def total_kv_tokens(self, decoded_tokens: int = 0) -> int:
        """KV-cache tokens across the whole batch after some decode steps."""
        return sum(mb.total_kv_tokens(decoded_tokens) for mb in self.micro_batches)

    def __iter__(self) -> Iterator[MicroBatch]:
        return iter(self.micro_batches)

    def __len__(self) -> int:
        return len(self.micro_batches)


def total_generated_tokens(requests: Iterable[Request]) -> int:
    """Total number of tokens that will be generated for ``requests``."""
    return sum(req.generation_len for req in requests)

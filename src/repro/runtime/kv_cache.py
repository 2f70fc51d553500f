"""Paged KV cache split across CPU and GPU memory pools.

One ownership model: every sequence holds a
:class:`~repro.runtime.block_store.BlockTable` in one
:class:`~repro.runtime.block_store.SharedBlockStore` of fixed-size blocks
of ``block_tokens`` token positions, each split between the CPU and the
GPU pool by the policy's ``r_c`` and charged in whole pages per block.  The
functional engine uses the manager to track real tensors; the simulated
systems use it for capacity accounting and to size KV-transfer tasks.

The prefix cache only decides what is hashed.  With ``prefix_cache=True``
sequences whose prompts share a token prefix share the physical blocks
holding it (charged once), finished sequences leave their full prompt
blocks behind as reusable cache, and unreferenced cache is evicted LRU only
under allocation pressure.  With it off (the default) the store has no
prefix index: each sequence is one private run of
``ceil(tokens / block_tokens)`` blocks, returned whole at release.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.models.config import ModelConfig
from repro.models.memory import kv_cache_bytes_per_token_per_layer
from repro.runtime.block_store import BlockTable, SharedBlockStore, chain_block_hashes
from repro.runtime.memory_manager import MemoryPool
from repro.utils.errors import MemoryManagerError
from repro.utils.validation import require_non_negative, require_positive_int


@dataclass(slots=True)
class SequenceCache:
    """KV bookkeeping for one sequence: its length and block table.

    ``cached_tokens`` records how much of the prompt was a prefix-cache hit.
    """

    sequence_id: int
    num_tokens: int
    block_table: BlockTable
    cached_tokens: int = 0


class KVCacheManager:
    """Allocates and tracks the paged KV cache for a batch of sequences.

    Registration is all or nothing, so admission registers without checking
    first; :meth:`can_admit` asks the same question without registering.
    """

    def __init__(
        self,
        model: ModelConfig,
        cpu_pool: MemoryPool,
        gpu_pool: MemoryPool | None = None,
        gpu_ratio: float = 0.0,
        block_tokens: int = 16,
        prefix_cache: bool = False,
    ) -> None:
        require_non_negative("gpu_ratio", gpu_ratio)
        require_positive_int("block_tokens", block_tokens)
        if gpu_ratio > 0 and gpu_pool is None:
            raise MemoryManagerError(
                "gpu_ratio > 0 requires a GPU memory pool for the KV cache"
            )
        self.model = model
        self.cpu_pool = cpu_pool
        self.gpu_pool = gpu_pool
        self.gpu_ratio = min(1.0, gpu_ratio)
        self.block_tokens = block_tokens
        #: Whether prompts are hashed into the store's prefix index.
        self.prefix_cache_enabled = prefix_cache
        # The per-token KV footprint is a pure function of the model; cache
        # it once instead of re-deriving it on every admission check.
        self._bytes_per_token = (
            kv_cache_bytes_per_token_per_layer(model) * model.num_layers
        )
        self.sequences: dict[int, SequenceCache] = {}
        self.block_store = SharedBlockStore(
            cpu_pool=cpu_pool,
            block_bytes=block_tokens * self.bytes_per_token(),
            block_tokens=block_tokens,
            gpu_pool=gpu_pool,
            gpu_ratio=self.gpu_ratio,
        )

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    def bytes_per_token(self) -> float:
        """KV bytes per token across all layers."""
        return self._bytes_per_token

    def bytes_for_tokens(self, num_tokens: int) -> float:
        """KV bytes for ``num_tokens`` tokens across all layers."""
        require_non_negative("num_tokens", num_tokens)
        return num_tokens * self.bytes_per_token()

    def headroom_tokens(self) -> int:
        """Tokens of fresh KV the pools could still take on (routing signal).

        Evictable cache counts as available — the same accounting
        :meth:`can_admit` uses — so headroom only shrinks when pages are
        pinned by live sequences.  It is a capacity signal, not an
        admission guarantee: prefix hits make real requests cheaper than
        this projects.
        """
        return self.block_store.allocatable_blocks() * self.block_tokens

    # ------------------------------------------------------------------
    # Prefix matching
    # ------------------------------------------------------------------
    def match_prefix(self, token_ids: Sequence[int] | None) -> int:
        """Prompt tokens reusable from the shared cache (0 when disabled).

        Matches whole blocks only and never the entire prompt — prefill must
        always compute at least one token to produce the first logits.
        """
        if not self.prefix_cache_enabled or not token_ids:
            return 0
        return len(self.block_store.match_prefix(token_ids)) * self.block_tokens

    def match_prefix_hashes(
        self, block_hashes: Sequence[int], matchable_tokens: int
    ) -> int:
        """:meth:`match_prefix` over pre-computed chained block hashes.

        ``matchable_tokens`` is ``len(token_ids) - 1`` for the prompt the
        hashes came from (the never-match-the-whole-prompt cap).
        """
        if not self.prefix_cache_enabled:
            return 0
        matched = self.block_store.match_prefix_hashes(
            block_hashes, matchable_tokens
        )
        return len(matched) * self.block_tokens

    def _match(
        self,
        num_tokens: int,
        token_ids: Sequence[int] | None,
        block_hashes: Sequence[int] | None,
        matchable_tokens: int | None,
    ) -> tuple[Sequence[int], list[int]]:
        """``(chain, matched block ids)`` for a reservation of ``num_tokens``.

        The chain comes from ``block_hashes`` (with its ``matchable_tokens``
        cap) or is hashed from ``token_ids``.  Blocks beyond the
        reservation are matchable but useless (a shorter re-issue of a
        longer cached prompt), so the match is cut there.
        """
        if block_hashes is None:
            tokens = tuple(token_ids) if token_ids else ()
            block_hashes = chain_block_hashes(tokens, self.block_tokens)
            matchable_tokens = len(tokens) - 1
        elif matchable_tokens is None:
            raise MemoryManagerError("block_hashes requires matchable_tokens")
        matched = self.block_store.match_prefix_hashes(block_hashes, matchable_tokens)
        return block_hashes, matched[: num_tokens // self.block_tokens]

    # ------------------------------------------------------------------
    # Sequence lifecycle
    # ------------------------------------------------------------------
    def register_sequence(
        self,
        sequence_id: int,
        prompt_tokens: int,
        token_ids: Sequence[int] | None = None,
        block_hashes: Sequence[int] | None = None,
        matchable_tokens: int | None = None,
    ) -> SequenceCache:
        """Create bookkeeping for a sequence and allocate its prompt cache.

        ``token_ids`` (prefix cache only) identifies the prompt content for
        prefix matching; it may be shorter than ``prompt_tokens`` when the
        reservation also covers tokens to be generated, or when a padded
        system charges more positions than the prompt holds.  Alternatively
        the caller can pass the prompt's pre-computed chained
        ``block_hashes`` plus ``matchable_tokens`` (``prompt length - 1``)
        directly — bit-identical matching and block tagging without token
        ids ever existing.  A reservation that does not fit raises
        :class:`~repro.utils.errors.KVCapacityError` and changes nothing.
        """
        require_positive_int("prompt_tokens", prompt_tokens)
        if sequence_id in self.sequences:
            raise MemoryManagerError(f"sequence {sequence_id} already registered")
        table = BlockTable()
        cached_tokens = 0
        if self.prefix_cache_enabled:
            chain, matched = self._match(
                prompt_tokens, token_ids, block_hashes, matchable_tokens
            )
            cached_tokens = self.block_store.register_chain(
                matched, prompt_tokens, chain, table
            )
        else:
            # Nothing to match or hash: the sequence is one private run.
            self.block_store.extend_table(table, prompt_tokens)
        cache = SequenceCache(sequence_id, prompt_tokens, table, cached_tokens)
        self.sequences[sequence_id] = cache
        return cache

    def append_tokens(self, sequence_id: int, num_tokens: int) -> None:
        """Grow a sequence's cache by ``num_tokens`` decode/prefill tokens."""
        require_positive_int("num_tokens", num_tokens)
        cache = self._get(sequence_id)
        self.block_store.extend_table(cache.block_table, num_tokens)
        cache.num_tokens += num_tokens

    def release_sequence(self, sequence_id: int) -> None:
        """Free a finished sequence's KV.

        Its private run returns to the pools at once; content-indexed
        prompt blocks stay resident as prefix cache until eviction selects
        them.
        """
        cache = self.sequences.pop(sequence_id, None)
        if cache is None:
            raise MemoryManagerError(f"unknown sequence {sequence_id}")
        self.block_store.release_table(cache.block_table)

    def release_all(self) -> None:
        """Free every sequence (end of a batch)."""
        for sequence_id in list(self.sequences):
            self.release_sequence(sequence_id)

    def _get(self, sequence_id: int) -> SequenceCache:
        if sequence_id not in self.sequences:
            raise MemoryManagerError(f"unknown sequence {sequence_id}")
        return self.sequences[sequence_id]

    # ------------------------------------------------------------------
    # Aggregate accounting
    # ------------------------------------------------------------------
    @property
    def total_tokens(self) -> int:
        """Tokens cached across all live sequences."""
        return sum(cache.num_tokens for cache in self.sequences.values())

    @property
    def cpu_bytes(self) -> float:
        """Total CPU bytes held by live sequences (shared blocks counted once)."""
        return self.block_store.bytes_in_use(live_only=True)[0]

    @property
    def gpu_bytes(self) -> float:
        """Total GPU bytes held by live sequences (shared blocks counted once)."""
        return self.block_store.bytes_in_use(live_only=True)[1]

    def occupancy(self) -> dict[str, float]:
        """Point-in-time cache occupancy for the telemetry sampler: the
        block store's resident and cached block counts and byte totals,
        plus the live token count."""
        report = self.block_store.occupancy()
        report["tokens"] = float(self.total_tokens)
        return report

    def can_admit(
        self,
        prompt_tokens: int,
        generation_len: int,
        token_ids: Sequence[int] | None = None,
        block_hashes: Sequence[int] | None = None,
        matchable_tokens: int | None = None,
    ) -> bool:
        """Whether a new request fits the pools at its end-of-generation size.

        Pages held by evictable (unreferenced) cache count as available.
        With the prefix cache on the footprint is *incremental*: blocks
        covered by a cached prefix of ``token_ids`` (or of the pre-hashed
        ``block_hashes`` chain with its ``matchable_tokens`` cap) cost
        nothing new.
        """
        require_positive_int("prompt_tokens", prompt_tokens)
        require_non_negative("generation_len", generation_len)
        num_tokens = prompt_tokens + generation_len
        total_blocks = -(-num_tokens // self.block_tokens)
        if not self.prefix_cache_enabled:
            return total_blocks <= self.block_store.allocatable_blocks()
        _, matched = self._match(num_tokens, token_ids, block_hashes, matchable_tokens)
        return self.block_store.can_allocate_blocks(
            total_blocks - len(matched), reserved_block_ids=matched
        )

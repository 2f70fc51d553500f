"""Paged KV cache split across CPU and GPU memory pools.

Each sequence owns a block table mapping logical KV blocks (a fixed number
of token positions per layer) to physical pages in either the CPU or the GPU
pool, following the policy's ``r_c`` split.  The functional engine uses the
manager to track real tensors; the simulated systems use it for capacity
accounting and to size KV-transfer tasks.

With ``prefix_cache=True`` the ownership model changes from per-sequence
allocations to the shared, reference-counted block store of
:mod:`repro.runtime.block_store`: sequences whose prompts share a token
prefix share the physical blocks holding it (charged once), finished
sequences leave their full prompt blocks behind as reusable cache, and
unreferenced cache is evicted LRU only under allocation pressure.  With the
flag off (the default) behaviour is bit-for-bit the original per-sequence
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.models.config import ModelConfig
from repro.models.memory import kv_cache_bytes_per_token_per_layer
from repro.runtime.block_store import BlockTable, SharedBlockStore, chain_block_hashes
from repro.runtime.memory_manager import MemoryPool, PagedAllocation
from repro.utils.errors import MemoryManagerError
from repro.utils.validation import require_non_negative, require_positive_int


@dataclass
class SequenceCache:
    """KV bookkeeping for one sequence: its length and page allocations.

    In the per-sequence regime the sequence owns ``cpu_allocations`` /
    ``gpu_allocations`` outright; in the shared regime ``block_table``
    references (possibly shared) blocks in the store and ``cached_tokens``
    records how much of the prompt was a prefix-cache hit.
    """

    sequence_id: int
    num_tokens: int = 0
    cpu_allocations: list[PagedAllocation] = field(default_factory=list)
    gpu_allocations: list[PagedAllocation] = field(default_factory=list)
    block_table: BlockTable | None = None
    cached_tokens: int = 0

    @property
    def cpu_bytes(self) -> float:
        """Bytes of this sequence's cache held in CPU memory."""
        return sum(allocation.total_bytes for allocation in self.cpu_allocations)

    @property
    def gpu_bytes(self) -> float:
        """Bytes of this sequence's cache held in GPU memory."""
        return sum(allocation.total_bytes for allocation in self.gpu_allocations)


class KVCacheManager:
    """Allocates and tracks the paged KV cache for a batch of sequences."""

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
        # The per-token KV footprint is a pure function of the model; cache
        # it once instead of re-deriving it on every admission check.
        self._bytes_per_token = (
            kv_cache_bytes_per_token_per_layer(model) * model.num_layers
        )
        self.sequences: dict[int, SequenceCache] = {}
        # One-entry match memo: the admission path matches the same hash
        # chain twice back-to-back (capacity check, then registration) with
        # no store mutation in between.  Keyed on chain identity and the
        # store's content-index version so any insert/evict invalidates it.
        self._match_memo: tuple | None = None
        self.block_store: SharedBlockStore | None = None
        if prefix_cache:
            self.block_store = SharedBlockStore(
                cpu_pool=cpu_pool,
                block_bytes=block_tokens * self.bytes_per_token(),
                block_tokens=block_tokens,
                gpu_pool=gpu_pool,
                gpu_ratio=self.gpu_ratio,
            )

    @property
    def prefix_cache_enabled(self) -> bool:
        """Whether the shared block store backs this manager."""
        return self.block_store is not None

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

    def _blocks_for_tokens(self, num_tokens: int) -> int:
        return -(-num_tokens // self.block_tokens)

    def headroom_tokens(self) -> int:
        """Tokens of fresh KV the pools could still take on (routing signal).

        In the shared regime this counts evictable cache as available — the
        same accounting :meth:`can_admit` uses — so headroom only shrinks
        when pages are pinned by live sequences.  It is a capacity signal,
        not an admission guarantee: prefix hits make real requests cheaper
        than this projects.
        """
        if self.block_store is not None:
            return self.block_store.allocatable_blocks() * self.block_tokens
        per_token = self.bytes_per_token()
        gpu_share = per_token * self.gpu_ratio
        cpu_share = per_token - gpu_share
        limit = float("inf")
        if cpu_share > 0:
            free = self.cpu_pool.free_pages * self.cpu_pool.page_bytes
            limit = free / cpu_share
        if gpu_share > 0:
            assert self.gpu_pool is not None  # guaranteed by the constructor
            free = self.gpu_pool.free_pages * self.gpu_pool.page_bytes
            limit = min(limit, free / gpu_share)
        return int(limit) if limit != float("inf") else 0

    # ------------------------------------------------------------------
    # Prefix matching
    # ------------------------------------------------------------------
    def match_prefix(self, token_ids: Sequence[int] | None) -> int:
        """Prompt tokens reusable from the shared cache (0 when disabled).

        Matches whole blocks only and never the entire prompt — prefill must
        always compute at least one token to produce the first logits.
        """
        if self.block_store is None or not token_ids:
            return 0
        return len(self.block_store.match_prefix(token_ids)) * self.block_tokens

    def match_prefix_hashes(
        self, block_hashes: Sequence[int], matchable_tokens: int
    ) -> int:
        """:meth:`match_prefix` over pre-computed chained block hashes.

        ``matchable_tokens`` is ``len(token_ids) - 1`` for the prompt the
        hashes came from (the never-match-the-whole-prompt cap).
        """
        if self.block_store is None:
            return 0
        matched = self.block_store.match_prefix_hashes(
            block_hashes, matchable_tokens
        )
        return len(matched) * self.block_tokens

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

        ``token_ids`` (shared regime only) identifies the prompt content for
        prefix matching; it may be shorter than ``prompt_tokens`` when the
        reservation also covers tokens to be generated, or when a padded
        system charges more positions than the prompt holds.  Alternatively
        the caller can pass the prompt's pre-computed chained
        ``block_hashes`` plus ``matchable_tokens`` (``prompt length - 1``)
        directly — bit-identical matching and block tagging without token
        ids ever existing.
        """
        require_positive_int("prompt_tokens", prompt_tokens)
        if sequence_id in self.sequences:
            raise MemoryManagerError(f"sequence {sequence_id} already registered")
        if self.block_store is not None:
            return self._register_shared(
                sequence_id,
                prompt_tokens,
                token_ids,
                block_hashes=block_hashes,
                matchable_tokens=matchable_tokens,
            )
        cache = SequenceCache(sequence_id=sequence_id)
        self.sequences[sequence_id] = cache
        self.append_tokens(sequence_id, prompt_tokens)
        return cache

    def _register_shared(
        self,
        sequence_id: int,
        num_tokens: int,
        token_ids: Sequence[int] | None,
        block_hashes: Sequence[int] | None = None,
        matchable_tokens: int | None = None,
    ) -> SequenceCache:
        store = self.block_store
        assert store is not None  # caller guarantees the shared regime
        table = BlockTable()
        cache = SequenceCache(
            sequence_id=sequence_id, block_table=table, cached_tokens=0
        )
        if block_hashes is None:
            tokens = tuple(token_ids) if token_ids else ()
            block_hashes = chain_block_hashes(tokens, self.block_tokens)
            matchable_tokens = len(tokens) - 1
        elif matchable_tokens is None:
            raise MemoryManagerError(
                "block_hashes requires matchable_tokens"
            )
        matched_ids = self._match_hashes_memo(block_hashes, matchable_tokens)
        # Blocks beyond the reservation are matchable but useless here
        # (shorter re-issue of a longer cached prompt).
        matched_ids = matched_ids[: num_tokens // self.block_tokens]
        cache.cached_tokens = store.register_chain(
            matched_ids, num_tokens, block_hashes, table.block_ids
        )
        cache.num_tokens = num_tokens
        self.sequences[sequence_id] = cache
        return cache

    def _match_hashes_memo(
        self, block_hashes: Sequence[int], matchable_tokens: int
    ) -> list[int]:
        """Prefix match with a one-entry memo over the admit double-probe.

        :meth:`can_admit` and :meth:`register_sequence` run back-to-back on
        the same chain with nothing mutating the store between them; the
        memo hits on chain *identity* (columnar requests carry one stored
        tuple) and is invalidated by the store's content-index ``version``,
        which bumps on every insert or eviction — so a hit is always
        exactly what a fresh probe would return.
        """
        store = self.block_store
        assert store is not None  # callers guarantee the shared regime
        memo = self._match_memo
        if (
            memo is not None
            and memo[0] is block_hashes
            and memo[1] == matchable_tokens
            and memo[2] == store.version
        ):
            return memo[3]
        matched = store.match_prefix_hashes(block_hashes, matchable_tokens)
        self._match_memo = (block_hashes, matchable_tokens, store.version, matched)
        return matched

    def append_tokens(self, sequence_id: int, num_tokens: int) -> None:
        """Grow a sequence's cache by ``num_tokens`` decode/prefill tokens."""
        require_positive_int("num_tokens", num_tokens)
        cache = self._get(sequence_id)
        if self.block_store is not None:
            assert cache.block_table is not None  # shared sequences carry one
            self.block_store.extend_table(cache.block_table.block_ids, num_tokens)
            cache.num_tokens += num_tokens
            return
        total_bytes = self.bytes_for_tokens(num_tokens)
        gpu_bytes = total_bytes * self.gpu_ratio
        cpu_bytes = total_bytes - gpu_bytes
        if cpu_bytes > 0:
            cache.cpu_allocations.append(self.cpu_pool.allocate(cpu_bytes))
        if gpu_bytes > 0:
            assert self.gpu_pool is not None  # guaranteed by the constructor
            cache.gpu_allocations.append(self.gpu_pool.allocate(gpu_bytes))
        cache.num_tokens += num_tokens

    def release_sequence(self, sequence_id: int) -> None:
        """Free every page owned by a finished sequence.

        In the shared regime this drops one reference per block: private
        blocks free immediately, content-indexed prompt blocks stay resident
        as prefix cache until eviction selects them.
        """
        cache = self._get(sequence_id)
        if self.block_store is not None:
            assert cache.block_table is not None
            self.block_store.release_many(cache.block_table.block_ids)
            del self.sequences[sequence_id]
            return
        for allocation in cache.cpu_allocations:
            self.cpu_pool.free(allocation)
        if self.gpu_pool is not None:
            for allocation in cache.gpu_allocations:
                self.gpu_pool.free(allocation)
        del self.sequences[sequence_id]

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
        if self.block_store is not None:
            return self.block_store.bytes_in_use(live_only=True)[0]
        return sum(cache.cpu_bytes for cache in self.sequences.values())

    @property
    def gpu_bytes(self) -> float:
        """Total GPU bytes held by live sequences (shared blocks counted once)."""
        if self.block_store is not None:
            return self.block_store.bytes_in_use(live_only=True)[1]
        return sum(cache.gpu_bytes for cache in self.sequences.values())

    def occupancy(self) -> dict[str, float]:
        """Point-in-time cache occupancy for the telemetry sampler.

        In the shared regime this is the block store's view (resident and
        cached block counts plus byte totals); otherwise block counts are
        zero and bytes come from the live per-sequence caches.
        """
        if self.block_store is not None:
            report = self.block_store.occupancy()
        else:
            report = {
                "blocks": 0.0,
                "cached_blocks": 0.0,
                "cpu_bytes": self.cpu_bytes,
                "gpu_bytes": self.gpu_bytes,
            }
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

        In the shared regime the footprint is *incremental*: blocks covered
        by a cached prefix of ``token_ids`` (or of the pre-hashed
        ``block_hashes`` chain with its ``matchable_tokens`` cap) cost
        nothing new, and pages held by evictable (unreferenced) cache count
        as available.
        """
        require_positive_int("prompt_tokens", prompt_tokens)
        require_non_negative("generation_len", generation_len)
        if self.block_store is not None:
            total_blocks = self._blocks_for_tokens(prompt_tokens + generation_len)
            if block_hashes is not None:
                if matchable_tokens is None:
                    raise MemoryManagerError(
                        "block_hashes requires matchable_tokens"
                    )
                matched = self._match_hashes_memo(block_hashes, matchable_tokens)
            else:
                matched = self.block_store.match_prefix(token_ids or ())
            matched = matched[: (prompt_tokens + generation_len) // self.block_tokens]
            return self.block_store.can_allocate_blocks(
                total_blocks - len(matched), reserved_block_ids=matched
            )
        total_bytes = self.bytes_for_tokens(prompt_tokens + generation_len)
        gpu_bytes = total_bytes * self.gpu_ratio
        cpu_bytes = total_bytes - gpu_bytes
        cpu_ok = self.cpu_pool.can_allocate(cpu_bytes)
        gpu_ok = True
        if gpu_bytes > 0:
            gpu_ok = self.gpu_pool is not None and self.gpu_pool.can_allocate(gpu_bytes)
        return cpu_ok and gpu_ok

"""Shared, reference-counted KV block store with prefix caching.

The per-sequence paged KV cache of :mod:`repro.runtime.kv_cache` gives every
sequence exclusive ownership of its pages.  This module replaces that
ownership model with a *shared block store* in the style of vLLM's prefix
caching / SGLang's RadixAttention:

* the KV cache is divided into fixed-size **blocks** of ``block_tokens``
  token positions (all layers of one block are stored together);
* a *full* block whose content is a pure function of the token prefix it
  holds carries a **chained content hash** (the hash of its tokens combined
  with the previous block's hash), so two sequences with the same prompt
  prefix map to the *same physical block*;
* blocks are **reference counted**: a block is shared by every sequence
  whose block table points at it, charged to the memory pools exactly once,
  and becomes evictable — not freed — when its refcount drops to zero;
* refcount-zero hashed blocks form the **prefix cache** and are reclaimed
  in LRU order only when an allocation actually needs their pages;
* a sequence that needs to *write into* a shared block (divergence below a
  cached prefix) triggers **copy-on-write**: it gets a private copy and
  drops its reference to the shared original.

Invariants (property-tested in ``tests/properties``):

* a refcount is never negative;
* bytes in use equal the sum over *unique* resident blocks — sharers are
  never double counted;
* eviction only ever selects blocks with a zero refcount;
* with no matching prefixes the store degenerates to per-sequence
  allocation: every block is private and freed as soon as its one owner
  releases it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from repro.runtime.memory_manager import MemoryPool
from repro.utils.errors import MemoryManagerError
from repro.utils.validation import require_positive, require_positive_int

#: Multiplier of the polynomial rolling hash chaining tokens into block
#: hashes (CPython's own string-hash multiplier; any odd constant works).
_HASH_MULTIPLIER = 1000003
_HASH_MODULUS = 2**64


def chain_block_hashes(
    token_ids: Sequence[int], block_tokens: int
) -> list[int]:
    """Chained content hashes of every *full* block of ``token_ids``.

    Hash ``i`` covers tokens ``[0, (i + 1) * block_tokens)``: it mixes block
    ``i``'s tokens into block ``i - 1``'s hash, so equal hashes imply equal
    whole prefixes, not merely equal block contents.  The hash is a plain
    deterministic polynomial — stable across processes and runs.
    """
    require_positive_int("block_tokens", block_tokens)
    return list(_chain_block_hashes_cached(tuple(token_ids), block_tokens))


@lru_cache(maxsize=8192)
def _chain_block_hashes_cached(
    token_ids: tuple[int, ...], block_tokens: int
) -> tuple[int, ...]:
    """Memoised hashing: one admission hashes the same prompt several times
    (capacity check, registration, per-shard routing probes)."""
    hashes: list[int] = []
    value = 0x9E3779B97F4A7C15  # non-zero seed so a zero-token prefix hashes apart
    full_blocks = len(token_ids) // block_tokens
    for block_index in range(full_blocks):
        start = block_index * block_tokens
        for token in token_ids[start : start + block_tokens]:
            value = (value * _HASH_MULTIPLIER + int(token) + 1) % _HASH_MODULUS
        hashes.append(value)
    return tuple(hashes)


#: A block id is ``generation << _SLOT_BITS | slot``: the low bits index the
#: store's slot columns, the high bits count how often the slot was reused,
#: so an id outlives neither its release nor its eviction.
_SLOT_BITS = 32
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_NEXT_GENERATION = 1 << _SLOT_BITS


@dataclass(frozen=True, slots=True)
class KVBlock:
    """Read-only snapshot of one resident block (introspection only).

    The store keeps no per-block objects; :meth:`SharedBlockStore.block`
    assembles this view from its slot columns on demand.
    """

    block_id: int
    num_tokens: int
    ref_count: int
    block_hash: int | None
    last_use: int
    #: Whether the block sits in the reusable cache (refcount zero,
    #: retained for prefix matching).
    cached: bool
    #: Simulated instant the block last entered the cache (idleness start).
    last_touch_time: float
    #: Bytes charged for this block (page-rounded), per pool.
    cpu_bytes: float
    gpu_bytes: float

    @property
    def is_shareable(self) -> bool:
        """Whether the block is indexed by content (a full prefix block)."""
        return self.block_hash is not None


class SharedBlockStore:
    """Ref-counted KV blocks over CPU/GPU memory pools with LRU reuse.

    ``block_bytes`` is the full KV footprint of one block across all layers;
    ``gpu_ratio`` splits every block between the pools exactly as the
    policy's ``r_c`` splits per-sequence allocations in the unshared path.

    Blocks live in parallel slot columns (refcount, content hash, tokens,
    LRU stamp, cached flag, cache-entry time, id) that grow on demand and
    recycle freed slots through a stack.  Every block charges the same
    pages, so the pools only count them (:meth:`MemoryPool.reserve`).
    """

    def __init__(
        self,
        cpu_pool: MemoryPool,
        block_bytes: float,
        block_tokens: int,
        gpu_pool: MemoryPool | None = None,
        gpu_ratio: float = 0.0,
    ) -> None:
        require_positive("block_bytes", block_bytes)
        require_positive_int("block_tokens", block_tokens)
        if gpu_ratio > 0 and gpu_pool is None:
            raise MemoryManagerError(
                "gpu_ratio > 0 requires a GPU memory pool for the block store"
            )
        self.cpu_pool = cpu_pool
        self.gpu_pool = gpu_pool
        self.gpu_ratio = min(1.0, gpu_ratio)
        self.block_bytes = float(block_bytes)
        self.block_tokens = block_tokens
        # Every block charges the same byte split and hence the same page
        # counts (zero for a pool the split does not touch).
        gpu_block_bytes = self.block_bytes * self.gpu_ratio
        self._block_cpu_pages = cpu_pool.pages_needed(
            self.block_bytes - gpu_block_bytes
        )
        self._block_gpu_pages = (
            gpu_pool.pages_needed(gpu_block_bytes) if gpu_pool is not None else 0
        )
        # Slot columns.  ``_ids[slot]`` is the id the slot answers to; a
        # free slot holds its last id complemented (negative), so the next
        # tenant's generation follows from it and no live id matches.
        self._refs: list[int] = []
        self._hashes: list[int | None] = []
        self._tokens: list[int] = []
        self._last_use: list[int] = []
        self._cached: list[bool] = []
        self._touch_time: list[float] = []
        self._ids: list[int] = []
        self._free_slots: list[int] = []
        self._hash_index: dict[int, int] = {}
        self._clock = 0
        self._num_cached = 0
        self.evictions = 0
        self.ttl_evictions = 0
        self.crash_drops = 0
        self.cow_copies = 0
        #: Simulated time, advanced (monotonically) by the engine that owns
        #: the store; only consulted by TTL eviction, so stores driven
        #: without a clock behave exactly as before.
        self.clock_time = 0.0
        #: Bumped on every content-index mutation (block registered or
        #: evicted); routers memoise prefix matches against this, so a
        #: stale memo can never survive an index change.
        self.version = 0
        # LRU eviction order with lazy deletion: ``(last_use, slot)`` is
        # pushed when a block enters the cache.  ``last_use`` comes from a
        # unique monotone clock, so an entry is live exactly when its slot
        # is still cached at that stamp; anything else is skipped on pop.
        self._lru_heap: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Introspection / accounting
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Resident blocks, referenced or cached."""
        return len(self._ids) - len(self._free_slots)

    @property
    def num_cached_blocks(self) -> int:
        """Resident blocks with no referents (the reusable prefix cache)."""
        return self._num_cached

    def __contains__(self, block_id: int) -> bool:
        """Whether ``block_id`` names a resident block."""
        slot = block_id & _SLOT_MASK
        return slot < len(self._ids) and self._ids[slot] == block_id

    def block(self, block_id: int) -> KVBlock:
        """A snapshot of one resident block."""
        slot = self._slot(block_id)
        gpu_pool = self.gpu_pool
        return KVBlock(
            block_id=block_id,
            num_tokens=self._tokens[slot],
            ref_count=self._refs[slot],
            block_hash=self._hashes[slot],
            last_use=self._last_use[slot],
            cached=self._cached[slot],
            last_touch_time=self._touch_time[slot],
            cpu_bytes=self._block_cpu_pages * self.cpu_pool.page_bytes,
            gpu_bytes=(
                self._block_gpu_pages * gpu_pool.page_bytes if gpu_pool else 0.0
            ),
        )

    def resident_blocks(self) -> list[KVBlock]:
        """Snapshots of every resident block, in slot order."""
        return [self.block(block_id) for block_id in self._ids if block_id >= 0]

    def bytes_in_use(self, live_only: bool = False) -> tuple[float, float]:
        """(cpu, gpu) bytes charged across unique resident blocks.

        ``live_only`` restricts the sum to blocks with a positive refcount;
        either way each block is counted exactly once no matter how many
        sequences share it.  Every block charges the same whole pages, so
        block counts reproduce the per-block byte sum exactly.
        """
        blocks = self.num_blocks
        if live_only:
            blocks -= self._num_cached
        cpu = blocks * self._block_cpu_pages * self.cpu_pool.page_bytes
        gpu = (
            blocks * self._block_gpu_pages * self.gpu_pool.page_bytes
            if self.gpu_pool
            else 0.0
        )
        return cpu, gpu

    def occupancy(self) -> dict[str, float]:
        """Point-in-time occupancy snapshot (the telemetry sampler's view).

        ``blocks``/``cached_blocks`` count resident and reusable (refcount
        zero) blocks; byte totals count each unique block once, with the
        ``live_*`` pair restricted to referenced blocks.
        """
        cpu_bytes, gpu_bytes = self.bytes_in_use()
        live_cpu, live_gpu = self.bytes_in_use(live_only=True)
        return {
            "blocks": float(self.num_blocks),
            "cached_blocks": float(self.num_cached_blocks),
            "cpu_bytes": cpu_bytes,
            "gpu_bytes": gpu_bytes,
            "live_cpu_bytes": live_cpu,
            "live_gpu_bytes": live_gpu,
        }

    def allocatable_blocks(self) -> int:
        """Fresh blocks allocatable right now, counting evictable cache.

        The capacity half of :meth:`can_allocate_blocks` as a count instead
        of a verdict: how many blocks could be carved out of free pages plus
        everything LRU eviction could reclaim.  Routers use this as a KV
        headroom signal, so it runs in O(1).
        """
        return min(
            pool.free_pages // pages + self._num_cached
            for pool, pages in (
                (self.cpu_pool, self._block_cpu_pages),
                (self.gpu_pool, self._block_gpu_pages),
            )
            if pages
        )

    def can_allocate_blocks(
        self, num_blocks: int, reserved_block_ids: Iterable[int] = ()
    ) -> bool:
        """Whether ``num_blocks`` fresh blocks could be carved out right now.

        Counts both free pages and the pages eviction could reclaim, minus
        the cached blocks in ``reserved_block_ids`` (a prefix match about to
        be acquired must not be double-counted as reclaimable).  Runs in
        O(reserved) — this sits on the admission hot path, once per arrival.
        """
        if num_blocks <= 0:
            return True
        reserved_cached = sum(
            1
            for block_id in set(reserved_block_ids)
            if block_id in self and self._cached[block_id & _SLOT_MASK]
        )
        return num_blocks <= self.allocatable_blocks() - reserved_cached

    # ------------------------------------------------------------------
    # Prefix matching
    # ------------------------------------------------------------------
    def match_prefix(self, token_ids: Sequence[int]) -> list[int]:
        """Resident block ids matching the longest cached prefix of a prompt.

        Only consecutive leading matches count (block ``i + 1`` can never be
        reused under a differing block ``i`` — its chained hash differs), and
        the match is capped one token short of the full prompt so prefill
        always has at least one token left to compute the first logits from.
        """
        if not token_ids:
            return []
        return self.match_prefix_hashes(
            chain_block_hashes(token_ids, self.block_tokens),
            len(token_ids) - 1,
        )

    @property
    def prefix_index(self) -> dict[int, int]:
        """The live content index (chained block hash -> resident block id).

        Exposed for read-only probing: routers that fan one prompt's hash
        chain across many shards walk this directly instead of paying a
        method call per shard.  Membership here is exactly what
        :meth:`match_prefix_hashes` tests, so ``hash in prefix_index`` per
        chain position reproduces its match depth.  Callers must never
        mutate it.
        """
        return self._hash_index

    def match_prefix_hashes(
        self, block_hashes: Sequence[int], matchable_tokens: int
    ) -> list[int]:
        """:meth:`match_prefix` over pre-computed chained block hashes.

        Routers probing many shards hash the prompt once and probe each
        shard's index with this, instead of re-hashing per shard.
        ``matchable_tokens`` carries :meth:`match_prefix`'s cap of one
        token short of the full prompt — the match depends on the prompt
        length, not just its hashes.
        """
        matched: list[int] = []
        for block_hash in block_hashes:
            if len(matched) * self.block_tokens + self.block_tokens > matchable_tokens:
                break
            block_id = self._hash_index.get(block_hash)
            if block_id is None:
                break
            matched.append(block_id)
        return matched

    # ------------------------------------------------------------------
    # Block lifecycle
    # ------------------------------------------------------------------
    def acquire(self, block_id: int) -> None:
        """Take a reference on a resident block (a prefix-cache hit)."""
        self.acquire_many((block_id,))

    def acquire_many(self, block_ids: Iterable[int]) -> None:
        """:meth:`acquire` a whole prefix match (same order, one loop)."""
        ids = self._ids
        refs = self._refs
        last_use = self._last_use
        cached = self._cached
        clock = self._clock
        try:
            for block_id in block_ids:
                slot = block_id & _SLOT_MASK
                if slot >= len(ids) or ids[slot] != block_id:
                    raise MemoryManagerError(f"unknown block {block_id}")
                refs[slot] += 1
                if cached[slot]:
                    cached[slot] = False
                    self._num_cached -= 1
                clock += 1
                last_use[slot] = clock
        finally:
            self._clock = clock

    def allocate_block(self, num_tokens: int, block_hash: int | None = None) -> int:
        """Allocate a fresh block (refcount 1), evicting LRU cache if needed.

        ``block_hash`` registers the block in the content index so later
        prompts can share it; a hash collision with a resident block keeps
        the incumbent (the new block stays private).  Returns the block id.
        """
        require_positive_int("num_tokens", num_tokens)
        if num_tokens > self.block_tokens:
            raise MemoryManagerError(
                f"block holds at most {self.block_tokens} tokens, got {num_tokens}"
            )
        out: list[int] = []
        self._allocate((num_tokens,), (block_hash,), out)
        return out[0]

    def allocate_run(
        self,
        sizes: Sequence[int],
        hashes: Sequence[int | None],
        out_block_ids: list[int],
    ) -> None:
        """One prompt's worth of fresh blocks, as sequential allocations.

        Observably identical to calling :meth:`allocate_block` once per
        ``(size, hash)`` pair — same eviction points, ids, index/clock
        transitions.  Each committed block id is appended to
        ``out_block_ids`` immediately, so a mid-run pool failure leaves
        the committed prefix visible for the caller to release.  Callers
        guarantee every size lies in ``(0, block_tokens]``.
        """
        self._allocate(sizes, hashes, out_block_ids)

    def register_chain(
        self,
        matched_ids: Sequence[int],
        num_tokens: int,
        block_hashes: Sequence[int | None],
        out_block_ids: list[int],
    ) -> int:
        """Register one sequence's whole prefix chain in a single call.

        Pins the prefix match (``matched_ids``), then carves the remaining
        ``num_tokens`` minus cached tokens into fresh blocks; every full
        block still covered by ``block_hashes`` is tagged with its chained
        hash.  Observably identical to :meth:`acquire_many` followed by
        :meth:`allocate_block` per block.  On a mid-run pool failure every
        block this call pinned or committed is released before re-raising,
        so no reference leaks.  Returns the cached (matched) token count.
        """
        start = len(out_block_ids)
        block_tokens = self.block_tokens
        try:
            if matched_ids:
                self.acquire_many(matched_ids)
                out_block_ids.extend(matched_ids)
            first = len(matched_ids)
            cached_tokens = first * block_tokens
            remaining = num_tokens - cached_tokens
            if remaining > 0:
                sizes = self._block_sizes(remaining)
                # Only full blocks covered by the chain are content-indexed.
                hashes = list(block_hashes[first : first + remaining // block_tokens])
                hashes += [None] * (len(sizes) - len(hashes))
                self._allocate(sizes, hashes, out_block_ids)
        except MemoryManagerError:
            self.release_many(out_block_ids[start:])
            del out_block_ids[start:]
            raise
        return cached_tokens

    def _allocate(
        self,
        sizes: Iterable[int],
        hashes: Iterable[int | None],
        out_block_ids: list[int],
    ) -> None:
        """The one allocation body behind every public allocation path.

        Blocks are committed one at a time in order.  Exactly when the next
        block does not fit, one LRU cached block is evicted first (it frees
        exactly one block's pages); with nothing evictable the pool's own
        capacity error propagates.
        """
        refs = self._refs
        block_hashes = self._hashes
        tokens = self._tokens
        last_use = self._last_use
        ids = self._ids
        free_slots = self._free_slots
        hash_index = self._hash_index
        cpu_pool = self.cpu_pool
        gpu_pool = self.gpu_pool
        cpu_pages = self._block_cpu_pages
        gpu_pages = self._block_gpu_pages
        next_generation = _NEXT_GENERATION
        clock = self._clock
        try:
            for num_tokens, block_hash in zip(sizes, hashes):
                slot = None
                if cpu_pages > cpu_pool.free_pages or (
                    gpu_pages and gpu_pages > gpu_pool.free_pages
                ):
                    slot = self._pop_lru()
                if slot is not None:
                    # The victim's pages and slot pass straight to the new
                    # block, exactly as freeing it onto the (LIFO) free-slot
                    # stack and allocating again would leave them.
                    self._forget(slot)
                    self.evictions += 1
                    block_id = ids[slot] + next_generation
                else:
                    if cpu_pages:
                        cpu_pool.reserve(cpu_pages)
                    if gpu_pages:
                        try:
                            gpu_pool.reserve(gpu_pages)
                        except MemoryManagerError:
                            # The block never becomes visible, so nothing
                            # else could return its CPU share.
                            if cpu_pages:
                                cpu_pool.unreserve(cpu_pages)
                            raise
                    if free_slots:
                        slot = free_slots.pop()
                        block_id = ~ids[slot] + next_generation
                    else:
                        slot = block_id = len(ids)
                        ids.append(block_id)
                        refs.append(0)
                        tokens.append(0)
                        last_use.append(0)
                        block_hashes.append(None)
                        self._cached.append(False)
                        self._touch_time.append(0.0)
                clock += 1
                ids[slot] = block_id
                refs[slot] = 1
                tokens[slot] = num_tokens
                last_use[slot] = clock
                if block_hash is not None and block_hash not in hash_index:
                    block_hashes[slot] = block_hash
                    hash_index[block_hash] = block_id
                    self.version += 1
                out_block_ids.append(block_id)
        finally:
            self._clock = clock

    def append_to_block(self, block_id: int, num_tokens: int) -> None:
        """Grow a *private* partial block in place (decode-token append).

        Shared or content-indexed blocks are immutable; callers must
        copy-on-write first (:meth:`copy_on_write`).
        """
        require_positive_int("num_tokens", num_tokens)
        slot = self._slot(block_id)
        if self._refs[slot] != 1 or self._hashes[slot] is not None:
            raise MemoryManagerError(
                f"block {block_id} is shared or content-indexed; "
                "copy-on-write before appending"
            )
        used = self._tokens[slot]
        if used + num_tokens > self.block_tokens:
            raise MemoryManagerError(
                f"append of {num_tokens} tokens overflows block {block_id} "
                f"({used}/{self.block_tokens} used)"
            )
        self._tokens[slot] = used + num_tokens
        self._clock += 1
        self._last_use[slot] = self._clock

    def extend_table(self, block_ids: list[int], num_tokens: int) -> None:
        """Grow one sequence's block table by ``num_tokens`` tokens.

        The tail block is filled first: in place when it is private, after
        :meth:`copy_on_write` when it is shared or content-indexed.  The
        rest goes into fresh private blocks appended to ``block_ids``.
        """
        if block_ids:
            slot = self._slot(block_ids[-1])
            room = self.block_tokens - self._tokens[slot]
            if room and num_tokens > 0:
                if self._refs[slot] > 1 or self._hashes[slot] is not None:
                    # Divergence below a shared block.  Registration only
                    # ever shares *full* blocks, so today this is
                    # defensive; it becomes load-bearing once partial or
                    # decode blocks enter the content index.
                    block_ids[-1] = self.copy_on_write(block_ids[-1])
                take = min(room, num_tokens)
                self.append_to_block(block_ids[-1], take)
                num_tokens -= take
        if num_tokens > 0:
            sizes = self._block_sizes(num_tokens)
            self._allocate(sizes, [None] * len(sizes), block_ids)

    def copy_on_write(self, block_id: int) -> int:
        """Diverge from a shared block: private copy, drop the shared ref.

        The copy charges its own pages (the defining cost of divergence);
        the original keeps its other sharers and its place in the content
        index.  Returns the copy's id.
        """
        slot = self._slot(block_id)
        if self._refs[slot] <= 0:
            raise MemoryManagerError(
                f"copy-on-write of unreferenced block {block_id}"
            )
        copy = self.allocate_block(self._tokens[slot])
        self.release(block_id)
        self.cow_copies += 1
        return copy

    def release(self, block_id: int) -> None:
        """Drop one reference; free or retain the block at refcount zero.

        Hashed blocks are *retained* as prefix cache (freed only by LRU
        eviction under allocation pressure); private blocks can never be
        re-matched, so they are freed immediately.
        """
        self.release_many((block_id,))

    def release_many(self, block_ids: Iterable[int]) -> None:
        """Release a sequence's whole block table (same order, one loop)."""
        ids = self._ids
        refs = self._refs
        block_hashes = self._hashes
        last_use = self._last_use
        cached = self._cached
        touch_time = self._touch_time
        free_slots = self._free_slots
        heap = self._lru_heap
        heappush = heapq.heappush
        now = self.clock_time
        cpu_pool = self.cpu_pool
        gpu_pool = self.gpu_pool
        cpu_pages = self._block_cpu_pages
        gpu_pages = self._block_gpu_pages
        clock = self._clock
        newly_cached = 0
        try:
            for block_id in block_ids:
                slot = block_id & _SLOT_MASK
                if slot >= len(ids) or ids[slot] != block_id:
                    raise MemoryManagerError(f"unknown block {block_id}")
                count = refs[slot]
                if count <= 0:
                    raise MemoryManagerError(
                        f"refcount underflow: block {block_id} released at "
                        f"refcount {count}"
                    )
                refs[slot] = count - 1
                if count > 1:
                    continue
                if block_hashes[slot] is not None:
                    # Retained as prefix cache, most recently used.
                    clock += 1
                    last_use[slot] = clock
                    cached[slot] = True
                    touch_time[slot] = now
                    newly_cached += 1
                    heappush(heap, (clock, slot))
                else:
                    # Private and unindexed: only pages and the slot return.
                    if cpu_pages:
                        cpu_pool.unreserve(cpu_pages)
                    if gpu_pages:
                        gpu_pool.unreserve(gpu_pages)
                    ids[slot] = ~block_id
                    free_slots.append(slot)
        finally:
            self._clock = clock
            self._num_cached += newly_cached

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _pop_lru(self) -> int | None:
        """The least-recently-used cached slot, skipping stale heap entries."""
        heap = self._lru_heap
        cached = self._cached
        last_use = self._last_use
        while heap:
            stamp, slot = heapq.heappop(heap)
            if cached[slot] and last_use[slot] == stamp:
                return slot
        return None

    def expire_idle(self, cutoff: float) -> int:
        """Free cached blocks idle since before ``cutoff`` (TTL eviction).

        A chat session that went quiet leaves its whole prefix chain parked
        in the cache; TTL eviction reclaims those pages ahead of allocation
        pressure.  Blocks are freed in LRU order off the existing lazy
        heap: the integer use clock is monotone in simulated time, so the
        heap head is also the oldest block by cache-entry time and the
        scan stops at the first survivor — O(evicted), not O(cached).
        Returns the number of blocks expired (also accumulated on
        ``ttl_evictions``).
        """
        expired = 0
        heap = self._lru_heap
        cached = self._cached
        last_use = self._last_use
        while heap:
            stamp, slot = heap[0]
            if not cached[slot] or last_use[slot] != stamp:
                heapq.heappop(heap)  # stale entry (re-acquired or freed)
                continue
            if self._touch_time[slot] > cutoff:
                break
            heapq.heappop(heap)
            self._free(slot)
            expired += 1
        self.ttl_evictions += expired
        return expired

    def drop_all_cached(self) -> int:
        """Free every cached (refcount-zero) block: crash teardown.

        A crashed shard's prefix cache does not survive the device — after
        live sequences are released, this sweep frees the remaining cached
        blocks so the store's resident bytes return to zero and no dangling
        ``prefix_index`` entries survive.  Counted separately from capacity
        and TTL evictions (``crash_drops``).  Returns the number of blocks
        dropped.
        """
        dropped = 0
        while (slot := self._pop_lru()) is not None:
            self._free(slot)
            dropped += 1
        self.crash_drops += dropped
        return dropped

    def _forget(self, slot: int) -> None:
        """Take a cached slot out of the cache and the content index."""
        self._cached[slot] = False
        self._num_cached -= 1
        del self._hash_index[self._hashes[slot]]
        self._hashes[slot] = None
        self.version += 1

    def _free(self, slot: int) -> None:
        """Free a cached slot: its pages, index entry and id."""
        self._forget(slot)
        if self._block_cpu_pages:
            self.cpu_pool.unreserve(self._block_cpu_pages)
        if self._block_gpu_pages:
            assert self.gpu_pool is not None  # guaranteed by the constructor
            self.gpu_pool.unreserve(self._block_gpu_pages)
        self._ids[slot] = ~self._ids[slot]
        self._free_slots.append(slot)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _slot(self, block_id: int) -> int:
        if block_id not in self:
            raise MemoryManagerError(f"unknown block {block_id}")
        return block_id & _SLOT_MASK

    def _block_sizes(self, num_tokens: int) -> list[int]:
        """Token counts of the blocks ``num_tokens`` fresh tokens fill."""
        full, partial = divmod(num_tokens, self.block_tokens)
        return [self.block_tokens] * full + ([partial] if partial else [])


@dataclass
class BlockTable:
    """One sequence's ordered view into the shared store."""

    block_ids: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.block_ids)

    def __iter__(self):
        return iter(self.block_ids)

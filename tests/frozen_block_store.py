"""Frozen reference copy of the per-block ``SharedBlockStore``.

The store as it was before hashed blocks were grouped into segments: one
slot per hashed block in parallel columns, a per-block LRU deque, and
block-at-a-time matching, placement, release and eviction.  Everything
below this docstring is a verbatim copy of that module.  It is the oracle
the segment store must reproduce observably
(``tests/properties/test_block_store_oracle.py``); do not edit it to
follow the library.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from repro.runtime.memory_manager import MemoryPool
from repro.utils.errors import KVCapacityError, MemoryManagerError
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


@dataclass
class BlockTable:
    """One sequence's view into the store.

    ``block_ids`` are its hashed blocks in order (shared or shareable);
    ``private_blocks`` counts its private run and ``tail_tokens`` is the
    fill of the run's last block.
    """

    block_ids: list[int] = field(default_factory=list)
    private_blocks: int = 0
    tail_tokens: int = 0

    def __len__(self) -> int:
        return len(self.block_ids) + self.private_blocks


@dataclass(frozen=True, slots=True)
class KVBlock:
    """Read-only snapshot of one resident hashed block (introspection only).

    The store keeps no per-block objects; :meth:`SharedBlockStore.block`
    assembles this view from its slot columns on demand.
    """

    block_id: int
    ref_count: int
    block_hash: int
    #: Whether the block sits in the reusable cache (refcount zero,
    #: retained for prefix matching).
    cached: bool
    #: Simulated instant the block last entered the cache (idleness start).
    last_touch_time: float
    #: Bytes charged for this block (page-rounded), per pool.
    cpu_bytes: float
    gpu_bytes: float


class SharedBlockStore:
    """Ref-counted hashed blocks and counted private runs over two pools.

    ``block_bytes`` is the full KV footprint of one block across all layers;
    ``gpu_ratio`` splits every block between the pools as the policy's
    ``r_c`` splits the KV cache.

    Hashed blocks live in parallel slot columns (refcount, content hash,
    cache-entry time, release stamp, id) that grow on demand and recycle
    freed slots through a stack; a resident block is cached exactly when
    its refcount is zero.  Every block charges the same
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
        #: ``(pool, pages per block)`` for each pool a block charges.
        self._charges = tuple(
            (pool, pages)
            for pool, pages in (
                (cpu_pool, self._block_cpu_pages),
                (gpu_pool, self._block_gpu_pages),
            )
            if pages
        )
        # Slot columns.  ``_ids[slot]`` is the id the slot answers to; a
        # free slot holds its last id complemented (negative), so the next
        # tenant's generation follows from it and no live id matches.
        self._refs: list[int] = []
        self._hashes: list[int | None] = []
        self._touch_time: list[float] = []
        self._stamps: list[int] = []
        self._ids: list[int] = []
        self._free_slots: list[int] = []
        self._hash_index: dict[int, int] = {}
        self._private_blocks = 0
        self._num_cached = 0
        self._stamp = 0
        self.evictions = 0
        self.ttl_evictions = 0
        self.crash_drops = 0
        #: Simulated time, advanced (monotonically) by the engine that owns
        #: the store; only consulted by TTL eviction, so stores driven
        #: without a clock behave exactly as before.
        self.clock_time = 0.0
        #: Bumped on every content-index mutation (block registered or
        #: evicted): a prefix match memoised against it can never survive
        #: an index change.
        self.version = 0
        # LRU order with lazy deletion: ``(stamp, slot)`` is queued when a
        # block enters the cache.  Stamps only grow, so the queue is in LRU
        # order, and an entry is live exactly when its slot is still cached
        # at that stamp; anything else is skipped at the head.
        self._lru: deque[tuple[int, int]] = deque()

    # ------------------------------------------------------------------
    # Introspection / accounting
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Resident blocks: hashed (referenced or cached) plus private."""
        return len(self._ids) - len(self._free_slots) + self._private_blocks

    @property
    def num_private_blocks(self) -> int:
        """Blocks held in private runs."""
        return self._private_blocks

    @property
    def num_cached_blocks(self) -> int:
        """Resident blocks with no referents (the reusable prefix cache)."""
        return self._num_cached

    def __contains__(self, block_id: int) -> bool:
        """Whether ``block_id`` names a resident hashed block."""
        slot = block_id & _SLOT_MASK
        return slot < len(self._ids) and self._ids[slot] == block_id

    def block(self, block_id: int) -> KVBlock:
        """A snapshot of one resident hashed block."""
        if block_id not in self:
            raise MemoryManagerError(f"unknown block {block_id}")
        slot = block_id & _SLOT_MASK
        gpu_pool = self.gpu_pool
        return KVBlock(
            block_id=block_id,
            ref_count=self._refs[slot],
            block_hash=self._hashes[slot],
            cached=self._refs[slot] == 0,
            last_touch_time=self._touch_time[slot],
            cpu_bytes=self._block_cpu_pages * self.cpu_pool.page_bytes,
            gpu_bytes=(
                self._block_gpu_pages * gpu_pool.page_bytes if gpu_pool else 0.0
            ),
        )

    def resident_blocks(self) -> list[KVBlock]:
        """Snapshots of every resident hashed block, in slot order."""
        return [self.block(block_id) for block_id in self._ids if block_id >= 0]

    def bytes_in_use(self, live_only: bool = False) -> tuple[float, float]:
        """(cpu, gpu) bytes charged across unique resident blocks.

        ``live_only`` leaves out cached (refcount-zero) blocks; either way
        each block is counted exactly once no matter how many sequences
        share it.  Every block charges the same whole pages, so block counts
        reproduce the per-block byte sum exactly.
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

    def _free_fit(self) -> int:
        """Fresh blocks the free pages alone could hold."""
        fit = -1
        for pool, pages in self._charges:
            blocks = pool.free_pages // pages
            if fit < 0 or blocks < fit:
                fit = blocks
        return fit

    def allocatable_blocks(self) -> int:
        """Fresh blocks allocatable right now, counting evictable cache.

        The capacity half of :meth:`can_allocate_blocks` as a count instead
        of a verdict: how many blocks could be carved out of free pages plus
        everything LRU eviction could reclaim.  Routers use this as a KV
        headroom signal, so it runs in O(1).
        """
        return self._free_fit() + self._num_cached

    def can_allocate_blocks(
        self, num_blocks: int, reserved_block_ids: Iterable[int] = ()
    ) -> bool:
        """Whether ``num_blocks`` fresh blocks could be carved out right now.

        Counts both free pages and the pages eviction could reclaim, minus
        the cached blocks in ``reserved_block_ids`` (a prefix match about to
        be acquired must not be double-counted as reclaimable).  Runs in
        O(1) when free pages suffice and in O(reserved) otherwise — this
        sits on the admission hot path, once per arrival.
        """
        fit = self._free_fit()
        if num_blocks <= fit:
            return True
        ids = self._ids
        refs = self._refs
        reserved_cached = 0
        for block_id in set(reserved_block_ids):
            slot = block_id & _SLOT_MASK
            if slot < len(ids) and ids[slot] == block_id and not refs[slot]:
                reserved_cached += 1
        return num_blocks <= fit + self._num_cached - reserved_cached

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
        # Block ``n`` matches only if ``(n + 1) * block_tokens`` tokens fit
        # under the cap.
        limit = matchable_tokens // self.block_tokens
        if limit <= 0:
            return matched
        lookup = self._hash_index.get
        for block_hash in block_hashes[:limit]:
            block_id = lookup(block_hash)
            if block_id is None:
                break
            matched.append(block_id)
        return matched

    # ------------------------------------------------------------------
    # Table lifecycle
    # ------------------------------------------------------------------
    def acquire(self, block_id: int) -> None:
        """Take a reference on a resident block (a prefix-cache hit)."""
        self.acquire_many((block_id,))

    def acquire_many(self, block_ids: Iterable[int]) -> None:
        """:meth:`acquire` a whole prefix match (same order, one loop)."""
        ids = self._ids
        refs = self._refs
        for block_id in block_ids:
            slot = block_id & _SLOT_MASK
            if slot >= len(ids) or ids[slot] != block_id:
                raise MemoryManagerError(f"unknown block {block_id}")
            if not refs[slot]:
                self._num_cached -= 1
            refs[slot] += 1

    def register_chain(
        self,
        matched_ids: Sequence[int],
        num_tokens: int,
        block_hashes: Sequence[int],
        table: BlockTable,
    ) -> int:
        """Register one sequence's prompt (and reservation) in one call.

        Pins the prefix match (``matched_ids``) onto ``table``, then places
        the remaining ``num_tokens`` minus cached tokens in fresh blocks:
        every full block still covered by ``block_hashes`` whose hash no
        resident block owns becomes a hashed block, every other one joins
        the table's private run.  Returns the cached (matched) token count.

        When the fresh blocks cannot be placed it raises
        :class:`KVCapacityError` with the store exactly as it was (admission
        relies on this): the match is unpinned by undoing the acquire, not
        by a release, which would restamp the blocks most recently used.
        """
        block_tokens = self.block_tokens
        block_ids = table.block_ids
        first = len(matched_ids)
        if first:
            self.acquire_many(matched_ids)
            block_ids.extend(matched_ids)
        remaining = num_tokens - first * block_tokens
        if remaining > 0:
            try:
                self._grow(
                    table,
                    remaining,
                    block_hashes[first : first + remaining // block_tokens],
                )
            except KVCapacityError:
                if first:
                    del block_ids[-first:]
                    refs = self._refs
                    for block_id in matched_ids:
                        slot = block_id & _SLOT_MASK
                        refs[slot] -= 1
                        if not refs[slot]:
                            self._num_cached += 1
                raise
        return first * block_tokens

    def extend_table(self, table: BlockTable, num_tokens: int) -> None:
        """Grow one sequence's table by ``num_tokens`` private tokens.

        The private run's tail block fills first; the rest spills into
        fresh private blocks.  All or nothing: a growth that does not fit
        raises and leaves the table as it was.
        """
        room = self.block_tokens - table.tail_tokens if table.private_blocks else 0
        if num_tokens > room:
            self._grow(table, num_tokens - room, ())
        else:
            table.tail_tokens += num_tokens

    def _grow(
        self,
        table: BlockTable,
        num_tokens: int,
        hashes: Sequence[int],
    ) -> None:
        """Place ``num_tokens`` fresh tokens in new blocks behind ``table``.

        Fresh block ``i`` is hashed with ``hashes[i]`` when that hash is
        not indexed yet; every other block joins the private run.  Blocks
        are placed in order: while free pages last a block takes them,
        after that each block evicts one LRU victim just before it is
        placed.  Feasibility is checked up front, so a failure raises
        :class:`KVCapacityError` having changed nothing.
        """
        count = -(-num_tokens // self.block_tokens)
        fresh = self._free_fit()
        if count > fresh + self._num_cached:
            raise KVCapacityError(
                f"block store: {count} blocks requested but only "
                f"{fresh} fit in free pages and {self._num_cached} are evictable"
            )
        if fresh > count:
            fresh = count
        if fresh:
            for pool, pages in self._charges:
                pool.reserve(fresh * pages)
        hashed = len(hashes)
        private = count - hashed
        if hashed:
            private += self._place_hashed(table.block_ids, hashes, fresh)
        # The private tail sits at positions ``hashed .. count - 1``; every
        # position past the free pages evicts one victim.
        for _ in range(count - max(hashed, fresh)):
            self._free(self._pop_lru())
            self.evictions += 1
        if private:
            table.private_blocks += private
            self._private_blocks += private
            table.tail_tokens = (
                (num_tokens - 1) % self.block_tokens + 1
                if count > hashed
                else self.block_tokens
            )

    def _place_hashed(
        self, block_ids: list[int], hashes: Sequence[int], fresh: int
    ) -> int:
        """Place the hashed positions of :meth:`_grow`; returns collisions.

        A hash another resident block already owns keeps its incumbent, and
        the colliding block stays private (counted, not placed).
        """
        refs = self._refs
        block_hashes = self._hashes
        ids = self._ids
        free_slots = self._free_slots
        hash_index = self._hash_index
        collisions = 0
        for position, block_hash in enumerate(hashes):
            if position >= fresh:
                # The victim's pages pass to this block.
                self._free(self._pop_lru())
                self.evictions += 1
            if block_hash in hash_index:
                collisions += 1
                continue
            if free_slots:
                slot = free_slots.pop()
                block_id = ~ids[slot] + _NEXT_GENERATION
                ids[slot] = block_id
                refs[slot] = 1
                block_hashes[slot] = block_hash
            else:
                block_id = len(ids)
                ids.append(block_id)
                refs.append(1)
                block_hashes.append(block_hash)
                self._touch_time.append(0.0)
                self._stamps.append(0)
            hash_index[block_hash] = block_id
            block_ids.append(block_id)
        self.version += len(hashes) - collisions
        return collisions

    def release(self, block_id: int) -> None:
        """Drop one reference; at refcount zero the block joins the cache."""
        self.release_many((block_id,))

    def release_many(self, block_ids: Iterable[int]) -> None:
        """Drop one reference on each hashed block, in order.

        A block whose refcount reaches zero is retained as prefix cache,
        most recently used, until eviction or a sweep frees it.
        """
        ids = self._ids
        refs = self._refs
        stamps = self._stamps
        touch_time = self._touch_time
        push = self._lru.append
        now = self.clock_time
        stamp = self._stamp
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
                if count == 1:
                    stamp += 1
                    stamps[slot] = stamp
                    touch_time[slot] = now
                    newly_cached += 1
                    push((stamp, slot))
        finally:
            self._stamp = stamp
            self._num_cached += newly_cached

    def release_table(self, table: BlockTable) -> None:
        """Release a sequence's whole table: its hashed blocks through
        :meth:`release_many`, then its private run back to the pools."""
        if table.block_ids:
            self.release_many(table.block_ids)
        private = table.private_blocks
        if private > self._private_blocks:
            raise MemoryManagerError(
                f"releasing {private} private blocks but only "
                f"{self._private_blocks} are held"
            )
        self._private_blocks -= private
        self._return_pages(private)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _pop_lru(self) -> int | None:
        """The least-recently-used cached slot, skipping stale entries."""
        lru = self._lru
        refs = self._refs
        stamps = self._stamps
        while lru:
            stamp, slot = lru.popleft()
            if stamps[slot] == stamp and not refs[slot]:
                return slot
        return None

    def expire_idle(self, cutoff: float) -> int:
        """Free cached blocks idle since before ``cutoff`` (TTL eviction).

        A chat session that went quiet leaves its whole prefix chain parked
        in the cache; TTL eviction reclaims those pages ahead of allocation
        pressure.  Blocks are freed in LRU order off the queue: release
        stamps are monotone in simulated time, so the queue head is also
        the oldest block by cache-entry time and the scan stops at the
        first survivor — O(evicted), not O(cached).  Returns the number of
        blocks expired (also accumulated on ``ttl_evictions``).
        """
        expired = 0
        lru = self._lru
        refs = self._refs
        stamps = self._stamps
        while lru:
            stamp, slot = lru[0]
            if stamps[slot] != stamp or refs[slot]:
                lru.popleft()  # stale entry (re-acquired or freed)
                continue
            if self._touch_time[slot] > cutoff:
                break
            lru.popleft()
            self._free(slot)
            expired += 1
        self._return_pages(expired)
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
        self._return_pages(dropped)
        self.crash_drops += dropped
        return dropped

    def _free(self, slot: int) -> None:
        """Take a cached slot out of the cache and the index, and free it.

        Its pages stay charged: eviction hands them to the block being
        placed, and the sweeps return them with :meth:`_return_pages`.
        """
        self._num_cached -= 1
        del self._hash_index[self._hashes[slot]]
        self._hashes[slot] = None
        self.version += 1
        self._ids[slot] = ~self._ids[slot]
        self._free_slots.append(slot)

    def _return_pages(self, num_blocks: int) -> None:
        if num_blocks:
            for pool, pages in self._charges:
                pool.unreserve(num_blocks * pages)

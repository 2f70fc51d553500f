"""Reference-counted KV block store: prefix-cache segments and private runs.

MoE-Lightning keeps the KV cache in fixed-size pages.  This store divides
it into **blocks** of ``block_tokens`` token positions (all layers of one
block stored together), each charged the same whole pages on the CPU and
GPU pools, and backs every :class:`~repro.runtime.kv_cache.KVCacheManager`
with the prefix cache on or off.  A sequence's :class:`BlockTable` holds:

* **hashed blocks** — a *full* prompt block carries a **chained content
  hash** (its tokens mixed into the previous block's hash), so sequences
  with the same prompt prefix share the *same physical block*, charged
  once, as in vLLM's prefix caching (Kwon et al., arXiv:2309.06180).
  They are held in **segments**, as in SGLang's RadixAttention (Zheng et
  al., arXiv:2312.07104): a contiguous run of chain positions placed by
  one registration, with one refcount, one cache-entry time and one place
  in LRU order.  A match that ends inside a segment splits it, so the
  refcount is uniform inside each one.  At refcount zero a segment joins
  the **prefix cache**: evictable, reclaimed in LRU order only when an
  allocation needs its pages (or by the TTL and crash sweeps);
* one **private run** — every other block: the partial prompt tail, full
  blocks whose hash another block already owns, and every reserved
  generation block.  Nothing can match them, so the run is a block count
  plus the fill of its last block, charged and returned with one page
  reservation per pool.  Only the run grows, so shared blocks are never
  written.  With the prefix cache off each sequence is one private run.

A table reaches its segments through **links** ``(segment, blocks)``: a
split keeps the head in the original segment and chains the tail behind it
(``segment.next``), so a split never rewrites a table.  The content index
maps every resident block's hash to its segment, so routers probe it by
membership, and a match compares a whole segment's hashes with the chain
at once: registration, release and matching cost O(segments).

Eviction order is block-at-a-time LRU.  A registration's first blocks take
free pages, and each later block, hashed or private, evicts one LRU block
just before it is placed, so a victim owning a hash the registration is
about to claim leaves exactly when that block arrives.  A release stamps
newly cached blocks in table order from a counter that only grows, so LRU
eviction eats the oldest segment from its head, one block at a time;
blocks whose chain parent was evicted stay indexed (orphaned tails).

Invariants (property-tested in ``tests/properties``): refcounts are never
negative; pool pages in use equal hashed blocks plus live private blocks,
each charged once; eviction only selects refcount-zero blocks.  The hashes
of one chain are distinct, as chained hashes are (equal hashes mean equal
whole prefixes), and a hashed block's id is its hash.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from math import inf
from typing import Iterable, Sequence

from repro.runtime.memory_manager import MemoryPool
from repro.utils.errors import KVCapacityError, MemoryManagerError
from repro.utils.validation import require_positive, require_positive_int

#: Multiplier of the polynomial rolling hash chaining tokens into block
#: hashes (CPython's own string-hash multiplier; any odd constant works).
_HASH_MULTIPLIER = 1000003
_HASH_MODULUS = 2**64

#: Consume an iterator at C speed; make a list subclass without ``__init__``.
_exhaust = deque(maxlen=0).extend
_new_list = list.__new__


def chain_block_hashes(token_ids: Sequence[int], block_tokens: int) -> list[int]:
    """Chained content hashes of every *full* block of ``token_ids``.

    Hash ``i`` covers tokens ``[0, (i + 1) * block_tokens)``: it mixes block
    ``i``'s tokens into block ``i - 1``'s hash, so equal hashes imply equal
    whole prefixes, not merely equal block contents.  The hash is a plain
    deterministic polynomial — stable across processes and runs.
    """
    require_positive_int("block_tokens", block_tokens)
    return list(_chain_block_hashes_cached(tuple(token_ids), block_tokens))


@lru_cache(maxsize=8192)
def _chain_block_hashes_cached(token_ids: tuple[int, ...], block_tokens: int) -> tuple[int, ...]:
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


class _Segment:
    """Hashed blocks ``hashes[lo:hi]``, placed together, sharing one refcount.

    ``stamp`` is block ``lo``'s release stamp (the next blocks follow it),
    ``touch`` when the segment last entered the cache and ``key`` its live
    LRU entry; ``next`` is the segment split off this one's tail.
    """

    __slots__ = ("hashes", "lo", "hi", "refs", "touch", "stamp", "key", "next")

    def __init__(self, hashes: tuple[int, ...], lo: int, hi: int) -> None:
        self.hashes = hashes
        self.lo = lo
        self.hi = hi
        self.refs = 1
        self.touch = 0.0
        self.stamp = 0
        self.key = -1
        self.next: _Segment | None = None


class PrefixMatch(list):
    """A chain's resident prefix: its ``(segment, start, stop)`` spans in
    chain order, ``blocks`` blocks in all, ``cached`` of them refcount zero
    (valid until the store next changes)."""

    __slots__ = ("blocks", "cached")

    def __init__(self, spans: Iterable = (), blocks: int = 0, cached: int = 0) -> None:
        super().__init__(spans)
        self.blocks = blocks
        self.cached = cached

    @property
    def block_ids(self) -> list[int]:
        """The matched block ids (their hashes), in chain order."""
        return [h for segment, start, stop in self for h in segment.hashes[start:stop]]


@dataclass(slots=True)
class BlockTable:
    """One sequence's view into the store.

    ``links`` reach its hashed blocks in order, as ``(segment, blocks)``
    pairs that walk ``segment.next``; ``private_blocks`` counts its private
    run and ``tail_tokens`` is the fill of the run's last block.
    """

    links: list[tuple[_Segment, int]] = field(default_factory=list)
    private_blocks: int = 0
    tail_tokens: int = 0

    def __len__(self) -> int:
        return sum(blocks for _, blocks in self.links) + self.private_blocks

    @property
    def block_ids(self) -> list[int]:
        """The hashed block ids (their hashes), in table order."""
        ids: list[int] = []
        for segment, blocks in self.links:
            while blocks > 0:
                ids.extend(segment.hashes[segment.lo : segment.hi])
                blocks -= segment.hi - segment.lo
                segment = segment.next
        return ids


@dataclass(frozen=True, slots=True)
class KVBlock:
    """Read-only snapshot of one resident hashed block (introspection only),
    assembled from its segment by :meth:`SharedBlockStore.block`."""

    #: A hashed block's id is its chained hash (no other resident block's).
    block_id: int
    ref_count: int
    block_hash: int
    #: Whether the block sits in the reusable cache (refcount zero).
    cached: bool
    #: Simulated instant the block last entered the cache (idleness start;
    #: 0.0 for a block never cached).
    last_touch_time: float
    #: Bytes charged for this block (page-rounded), per pool.
    cpu_bytes: float
    gpu_bytes: float


class SharedBlockStore:
    """Ref-counted hashed segments and counted private runs over two pools.

    ``block_bytes`` is the full KV footprint of one block across all layers;
    ``gpu_ratio`` splits every block between the pools as the policy's
    ``r_c`` splits the KV cache.  Every block charges the same pages, so the
    pools only count them (:meth:`MemoryPool.reserve`).
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
            raise MemoryManagerError("gpu_ratio > 0 requires a GPU memory pool for the block store")
        self.cpu_pool = cpu_pool
        self.gpu_pool = gpu_pool
        self.gpu_ratio = min(1.0, gpu_ratio)
        self.block_bytes = float(block_bytes)
        self.block_tokens = block_tokens
        # Every block charges the same byte split and hence the same page
        # counts (zero for a pool the split does not touch).
        gpu_block_bytes = self.block_bytes * self.gpu_ratio
        self._block_cpu_pages = cpu_pool.pages_needed(self.block_bytes - gpu_block_bytes)
        self._block_gpu_pages = gpu_pool.pages_needed(gpu_block_bytes) if gpu_pool else 0
        #: ``(pool, pages per block)`` for each pool a block charges.
        self._charges = tuple(
            (pool, pages)
            for pool, pages in (
                (cpu_pool, self._block_cpu_pages),
                (gpu_pool, self._block_gpu_pages),
            )
            if pages
        )
        #: Chained block hash -> the segment holding that resident block.
        self._hash_index: dict[int, _Segment] = {}
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
        # LRU order with lazy deletion: ``(stamp, segment)`` is queued when a
        # segment enters the cache (a cached segment's split-off tail is
        # inserted at its place), so the queue is in block stamp order.  An
        # entry is live while its segment is cached under that key.
        self._lru: deque[tuple[int, _Segment]] = deque()

    # ------------------------------------------------------------------
    # Introspection / accounting
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Resident blocks: hashed (referenced or cached) plus private."""
        return len(self._hash_index) + self._private_blocks

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
        return block_id in self._hash_index

    def block(self, block_id: int) -> KVBlock:
        """A snapshot of one resident hashed block."""
        segment, position, _ = self._locate(block_id)
        gpu_pool = self.gpu_pool
        return KVBlock(
            block_id=segment.hashes[position],
            ref_count=segment.refs,
            block_hash=segment.hashes[position],
            cached=segment.refs == 0,
            last_touch_time=segment.touch,
            cpu_bytes=self._block_cpu_pages * self.cpu_pool.page_bytes,
            gpu_bytes=self._block_gpu_pages * gpu_pool.page_bytes if gpu_pool else 0.0,
        )

    def resident_blocks(self) -> list[KVBlock]:
        """Snapshots of every resident hashed block, in index order."""
        return [self.block(block_id) for block_id in self._hash_index]

    def _locate(self, block_id: int) -> tuple[_Segment, int, int]:
        """A resident hashed block's span ``(segment, position, position + 1)``."""
        segment = self._hash_index.get(block_id)
        if segment is None:
            raise MemoryManagerError(f"unknown block {block_id}")
        position = segment.hashes.index(block_id, segment.lo, segment.hi)
        return segment, position, position + 1

    def bytes_in_use(self, live_only: bool = False) -> tuple[float, float]:
        """(cpu, gpu) bytes charged across unique resident blocks, each once
        however many sequences share it; ``live_only`` leaves out cached
        (refcount-zero) blocks."""
        blocks = self.num_blocks
        if live_only:
            blocks -= self._num_cached
        cpu = blocks * self._block_cpu_pages * self.cpu_pool.page_bytes
        gpu = blocks * self._block_gpu_pages * self.gpu_pool.page_bytes if self.gpu_pool else 0.0
        return cpu, gpu

    def occupancy(self) -> dict[str, float]:
        """Point-in-time occupancy snapshot (the telemetry sampler's view):
        resident and cached block counts, and bytes in use in all and live."""
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
        """Fresh blocks allocatable right now: free pages plus everything
        LRU eviction could reclaim (the routers' O(1) KV headroom signal)."""
        return self._free_fit() + self._num_cached

    def can_allocate_blocks(self, num_blocks: int, reserved_cached: int = 0) -> bool:
        """Whether ``num_blocks`` fresh blocks fit in free pages plus evictable
        cache, less the ``reserved_cached`` cached blocks a prefix match is
        about to pin (:attr:`PrefixMatch.cached`).  O(1)."""
        return num_blocks <= self.allocatable_blocks() - reserved_cached

    # ------------------------------------------------------------------
    # Prefix matching
    # ------------------------------------------------------------------
    def match_prefix(self, token_ids: Sequence[int]) -> PrefixMatch:
        """The resident blocks matching the longest cached prefix of a prompt.

        Only consecutive leading matches count (block ``i + 1`` can never be
        reused under a differing block ``i`` — its chained hash differs), and
        the match is capped one token short of the full prompt so prefill
        always has at least one token left to compute the first logits from.
        """
        chain = chain_block_hashes(token_ids, self.block_tokens)
        return self.match_prefix_hashes(chain, len(token_ids) - 1)

    @property
    def prefix_index(self) -> dict[int, _Segment]:
        """The live content index (chained block hash -> its segment).

        Read-only: routers fanning one prompt's chain across many shards
        probe it directly.  ``hash in prefix_index`` per chain position
        reproduces :meth:`match_prefix_hashes`'s depth.
        """
        return self._hash_index

    def match_prefix_hashes(
        self, block_hashes: Sequence[int], matchable_tokens: int
    ) -> PrefixMatch:
        """:meth:`match_prefix` over pre-computed chained block hashes.

        ``matchable_tokens`` carries :meth:`match_prefix`'s cap of one token
        short of the full prompt (the match depends on the prompt length, not
        just its hashes).  Each segment reached is compared with the chain as
        one slice, by its two ends.
        """
        # Block ``n`` matches only if ``(n + 1) * block_tokens`` tokens fit.
        limit = matchable_tokens // self.block_tokens
        if limit > len(block_hashes):
            limit = len(block_hashes)
        match = _new_list(PrefixMatch)  # skips the Python ``__init__``
        depth = cached = 0
        lookup = self._hash_index.get
        while depth < limit and (segment := lookup(block_hashes[depth])) is not None:
            hashes = segment.hashes
            start = segment.lo
            stop = segment.hi
            if stop - start > limit - depth:
                stop = start + limit - depth
            # Equal chained hashes mean equal prefixes: a span entered at its
            # head matches through its last block when that block matches.
            if (
                hashes[start] != block_hashes[depth]
                or hashes[stop - 1] != block_hashes[depth + stop - 1 - start]
            ):
                # Enter where the chain does; stop where the two part.
                start = hashes.index(block_hashes[depth], start, segment.hi)
                end = min(segment.hi, start + limit - depth)
                stop = start + 1
                while stop < end and hashes[stop] == block_hashes[depth + stop - start]:
                    stop += 1
            match.append((segment, start, stop))
            depth += stop - start
            if not segment.refs:
                cached += stop - start
        match.blocks = depth
        match.cached = cached
        return match

    # ------------------------------------------------------------------
    # Table lifecycle
    # ------------------------------------------------------------------
    def acquire(self, block_id: int) -> None:
        """Take a reference on one resident block (a prefix-cache hit)."""
        self.acquire_many([self._locate(block_id)])

    def acquire_many(self, spans: Iterable[tuple]) -> list[tuple[_Segment, int]]:
        """Take a reference on every block of a match's spans; returns their
        table links.  A span covering part of a segment splits it."""
        links = []
        for segment, start, stop in spans:
            if start != segment.lo or stop != segment.hi:
                segment = self._isolate(segment, start, stop)
            if not segment.refs:
                self._num_cached -= stop - start
            segment.refs += 1
            links.append((segment, stop - start))
        return links

    def _isolate(self, segment: _Segment, start: int, stop: int) -> _Segment:
        """The segment holding exactly ``start .. stop - 1``, split out."""
        if not segment.lo <= start < stop <= segment.hi:
            raise MemoryManagerError(f"blocks {start}..{stop - 1} are not in one segment")
        if start > segment.lo:
            segment = self._split(segment, start)
        if stop < segment.hi:
            self._split(segment, stop)
        return segment

    def _split(self, segment: _Segment, at: int) -> _Segment:
        """Cut ``segment`` before position ``at``; returns the new tail.

        Links into the head walk on to the tail, which keeps its blocks'
        refcount, cache-entry time, stamps and so its place in LRU order.
        """
        tail = _Segment(segment.hashes, at, segment.hi)
        tail.refs = segment.refs
        tail.touch = segment.touch
        tail.stamp = segment.stamp + at - segment.lo
        tail.next = segment.next
        segment.next = tail
        segment.hi = at
        self._hash_index.update(zip(segment.hashes[at : tail.hi], repeat(tail)))
        if not tail.refs:
            tail.key = tail.stamp
            insort(self._lru, (tail.key, tail))
        return tail

    def register_chain(
        self, matched: PrefixMatch, num_tokens: int, block_hashes: Sequence[int], table: BlockTable
    ) -> int:
        """Register one sequence's prompt (and reservation) in one call.

        Pins the prefix match onto ``table``, then places the rest of the
        ``num_tokens`` in fresh blocks: each run of full blocks covered by
        ``block_hashes`` whose hashes no resident block owns becomes a
        segment, every other block joins the private run.  Returns the cached
        token count.  When the fresh blocks do not fit (the match's cached
        blocks are not evictable) it raises :class:`KVCapacityError` before
        changing anything, which admission relies on.
        """
        block_tokens = self.block_tokens
        first = matched.blocks
        remaining = num_tokens - first * block_tokens
        if remaining > 0:
            self._grow(
                table,
                remaining,
                block_hashes[first : first + remaining // block_tokens],
                matched if first else None,
            )
        elif first:
            table.links += self.acquire_many(matched)
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
        self, table: BlockTable, num_tokens: int, hashes: Sequence[int], matched=None
    ) -> None:
        """Pin ``matched``, then place ``num_tokens`` fresh tokens behind it.

        Fresh block ``i`` is hashed with ``hashes[i]`` when no resident
        block owns it, else it joins the private run.  While free pages last
        a block takes them; each later one evicts one LRU block just before
        it is placed.  Feasibility is checked first, so a failure raises
        :class:`KVCapacityError` having changed nothing.
        """
        count = -(-num_tokens // self.block_tokens)
        fresh = self._free_fit()
        evictable = self._num_cached
        if matched is not None:
            evictable -= matched.cached
        if count > fresh + evictable:
            raise KVCapacityError(
                f"block store: {count} blocks requested but only {fresh} fit in "
                f"free pages and {evictable} are evictable"
            )
        links = table.links
        if matched is not None:
            links += self.acquire_many(matched)
        if fresh > count:
            fresh = count
        if fresh:
            for pool, pages in self._charges:
                pool.reserve(fresh * pages)
        hashed = len(hashes)
        private = count - hashed
        # Evictions have run up to position ``done``: each position from
        # ``fresh`` on evicts one block just before it is placed.
        done = fresh
        if hashed:
            if type(hashes) is not tuple:
                hashes = tuple(hashes)
            segment = _Segment(hashes, 0, hashed)
            # Claim every hash no resident block owns.  If none was owned,
            # none can collide (evictions only shrink the index): one segment.
            index = self._hash_index
            indexed = len(index)
            _exhaust(map(index.setdefault, hashes, repeat(segment)))
            if len(index) - indexed == hashed:
                links.append((segment, hashed))
            else:
                collisions, done = self._place_around(links, hashes, fresh, segment)
                private += collisions
        # No position from ``done`` on can collide, up to the private tail.
        if count > done:
            self.evictions += self._drop_lru(count - done)
        if private:
            table.private_blocks += private
            self._private_blocks += private
            tail = (num_tokens - 1) % self.block_tokens + 1
            table.tail_tokens = tail if count > hashed else self.block_tokens

    def _place_around(self, links: list, hashes: tuple, fresh: int, claim: _Segment):
        """Place hashed positions some resident blocks own.

        Undoes :meth:`_grow`'s claim and walks the owned positions in order:
        the victims of every position from ``fresh`` on leave before its
        check, a hash still owned keeps its incumbent (the block stays
        private), and the runs between collisions become segments.  Returns
        the collisions and the position evictions have run up to.
        """
        index = self._hash_index
        owned = [position for position, h in enumerate(hashes) if index[h] is not claim]
        _exhaust(map(index.__delitem__, [h for h in hashes if index[h] is claim]))
        collisions = start = 0
        done = fresh
        for position in owned:
            if position >= done:
                self.evictions += self._drop_lru(position + 1 - done)
                done = position + 1
            if hashes[position] in index:
                if position > start:
                    links.append(self._new_segment(hashes, start, position))
                collisions += 1
                start = position + 1
        if start < len(hashes):
            links.append(self._new_segment(hashes, start, len(hashes)))
        return collisions, done

    def _new_segment(self, hashes: tuple, lo: int, hi: int) -> tuple[_Segment, int]:
        """Index ``hashes[lo:hi]`` as one new referenced segment; its link."""
        segment = _Segment(hashes, lo, hi)
        self._hash_index.update(zip(hashes[lo:hi], repeat(segment)))
        return segment, hi - lo

    def release(self, block_id: int) -> None:
        """Drop one reference on one block; at zero it joins the cache."""
        self.release_many([(self._isolate(*self._locate(block_id)), 1)])

    def release_many(self, links: Iterable[tuple[_Segment, int]]) -> None:
        """Drop one reference on every block a table's links reach, in order.

        A segment whose refcount reaches zero is retained as prefix cache,
        most recently used, until eviction or a sweep frees it; its blocks
        take the next stamps, head first.
        """
        push = self._lru.append
        now = self.clock_time
        stamp = self._stamp
        newly_cached = 0
        try:
            for segment, blocks in links:
                while blocks > 0:
                    count = segment.refs
                    if count <= 0:
                        block = segment.hashes[segment.lo]
                        raise MemoryManagerError(
                            f"refcount underflow: block {block} released at refcount {count}"
                        )
                    size = segment.hi - segment.lo
                    segment.refs = count - 1
                    if count == 1:
                        segment.touch = now
                        segment.stamp = segment.key = stamp
                        push((stamp, segment))
                        stamp += size
                        newly_cached += size
                    blocks -= size
                    segment = segment.next
        finally:
            self._stamp = stamp
            self._num_cached += newly_cached

    def release_table(self, table: BlockTable) -> None:
        """Release a sequence's whole table: its hashed blocks through
        :meth:`release_many`, then its private run back to the pools."""
        if table.links:
            self.release_many(table.links)
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
    def _drop_lru(self, blocks: float = inf, cutoff: float = inf) -> int:
        """Free up to ``blocks`` cached blocks in LRU order; returns how many.

        Segments are eaten from their head, and the sweep stops at the first
        one cached after ``cutoff``.  The pages stay charged: eviction hands
        them to the blocks being placed, the sweeps return them.
        """
        lru = self._lru
        delete = self._hash_index.__delitem__
        dropped = 0
        while dropped < blocks and lru:
            key, segment = lru[0]
            if segment.key != key or segment.refs:
                lru.popleft()  # stale entry (re-acquired or freed)
                continue
            if segment.touch > cutoff:
                break
            lo = segment.lo
            hi = segment.hi
            if hi - lo > blocks - dropped:
                hi = lo + blocks - dropped
            else:
                lru.popleft()
                segment.key = -1
            _exhaust(map(delete, segment.hashes[lo:hi]))
            segment.stamp += hi - lo
            segment.lo = hi
            dropped += hi - lo
        self._num_cached -= dropped
        return dropped

    def expire_idle(self, cutoff: float) -> int:
        """Free cached blocks idle since before ``cutoff`` (TTL eviction).

        A chat session that went quiet leaves its prefix chain parked in the
        cache; TTL eviction reclaims it ahead of allocation pressure.  Release
        stamps are monotone in simulated time, so the LRU head is the oldest
        segment and the scan stops at the first survivor.  Returns the blocks
        expired (also accumulated on ``ttl_evictions``).
        """
        expired = self._drop_lru(cutoff=cutoff)
        self._return_pages(expired)
        self.ttl_evictions += expired
        return expired

    def drop_all_cached(self) -> int:
        """Free every cached (refcount-zero) block: crash teardown.

        A crashed shard's prefix cache does not survive the device: after its
        live sequences are released, this frees the rest, so resident bytes
        return to zero and no ``prefix_index`` entry dangles.  Returns the
        blocks dropped (also accumulated on ``crash_drops``).
        """
        dropped = self._drop_lru()
        self._return_pages(dropped)
        self.crash_drops += dropped
        return dropped

    def _return_pages(self, num_blocks: int) -> None:
        if num_blocks:
            for pool, pages in self._charges:
                pool.unreserve(num_blocks * pages)

"""Stateful test: the shared block store against a compact reference model.

A hypothesis ``RuleBasedStateMachine`` drives one :class:`SharedBlockStore`
(split across a CPU and a GPU pool) and a dict-and-list model of the same
semantics through random interleavings of chain registration, release,
TTL expiry, crash teardown and the allocate -> copy-on-write -> append path.
After every rule the two must agree on refcounts, cached and resident
counts, pool pages, the content-index key set, the eviction counters and
prefix-match depths.  Block ids are the store's business, so the model
matches by hash and tracks its own ids.

Run the long slice with ``--hypothesis-profile=long``.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.runtime.block_store import SharedBlockStore
from repro.runtime.memory_manager import MemoryPool
from repro.utils.errors import MemoryManagerError

BLOCK_TOKENS = 4
BLOCK_BYTES = 1024.0
GPU_RATIO = 0.5
CPU_BLOCKS = 18
GPU_BLOCKS = 16  # the binding pool
FAMILIES = 4
CHAIN_DEPTH = 6


def family_chain(family: int) -> list[int]:
    """Chained hashes of one prompt family.

    Families pair up on their first block (0 and 1 share it, as do 2 and
    3), so chains overlap across families as well as within one.
    """
    return [1 + family // 2] + [
        100 * (family + 1) + depth for depth in range(1, CHAIN_DEPTH)
    ]


class ReferenceStore:
    """The store's semantics in plain dicts plus an explicit LRU order."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        #: model id -> [refs, hash, tokens]
        self.blocks: dict[int, list] = {}
        self.index: dict[int, int] = {}
        #: Cached model ids, least recently used first, with cache times.
        self.lru: dict[int, float] = {}
        self.next_id = 0
        self.now = 0.0
        self.evictions = 0
        self.ttl_evictions = 0
        self.crash_drops = 0

    def _free(self, mid: int) -> None:
        _, block_hash, _ = self.blocks.pop(mid)
        self.lru.pop(mid, None)
        if block_hash is not None:
            del self.index[block_hash]

    def match(self, hashes: list[int], matchable_tokens: int) -> list[int]:
        matched = []
        for block_hash in hashes:
            if (len(matched) + 1) * BLOCK_TOKENS > matchable_tokens:
                break
            if block_hash not in self.index:
                break
            matched.append(self.index[block_hash])
        return matched

    def acquire(self, mid: int) -> None:
        block = self.blocks[mid]
        block[0] += 1
        self.lru.pop(mid, None)

    def allocate(self, tokens: int, block_hash: int | None) -> int:
        if len(self.blocks) >= self.capacity:
            if not self.lru:
                raise MemoryManagerError("model pool full")
            self._free(next(iter(self.lru)))
            self.evictions += 1
        mid = self.next_id
        self.next_id += 1
        owned = block_hash is not None and block_hash not in self.index
        self.blocks[mid] = [1, block_hash if owned else None, tokens]
        if owned:
            self.index[block_hash] = mid
        return mid

    def release(self, mid: int) -> None:
        block = self.blocks[mid]
        assert block[0] > 0
        block[0] -= 1
        if block[0] == 0:
            if block[1] is not None:
                self.lru[mid] = self.now
            else:
                self._free(mid)

    def register_chain(
        self, matched: list[int], num_tokens: int, hashes: list[int]
    ) -> list[int]:
        taken: list[int] = []
        try:
            for mid in matched:
                self.acquire(mid)
                taken.append(mid)
            remaining = num_tokens - len(matched) * BLOCK_TOKENS
            depth = len(matched)
            while remaining > 0:
                take = min(BLOCK_TOKENS, remaining)
                full = take == BLOCK_TOKENS and depth < len(hashes)
                taken.append(self.allocate(take, hashes[depth] if full else None))
                remaining -= take
                depth += 1
        except MemoryManagerError:
            for mid in taken:
                self.release(mid)
            raise
        return taken

    def expire_idle(self, cutoff: float) -> int:
        expired = [mid for mid, since in self.lru.items() if since <= cutoff]
        # LRU order is cache-time order, so expiry is a prefix of it.
        assert expired == list(self.lru)[: len(expired)]
        for mid in expired:
            self._free(mid)
        self.ttl_evictions += len(expired)
        return len(expired)

    def drop_all_cached(self) -> int:
        dropped = list(self.lru)
        for mid in dropped:
            self._free(mid)
        self.crash_drops += len(dropped)
        return len(dropped)


def make_store() -> SharedBlockStore:
    cpu_share = BLOCK_BYTES * (1 - GPU_RATIO)
    gpu_share = BLOCK_BYTES * GPU_RATIO
    return SharedBlockStore(
        cpu_pool=MemoryPool("cpu", CPU_BLOCKS * cpu_share, cpu_share),
        block_bytes=BLOCK_BYTES,
        block_tokens=BLOCK_TOKENS,
        gpu_pool=MemoryPool("gpu", GPU_BLOCKS * gpu_share, gpu_share),
        gpu_ratio=GPU_RATIO,
    )


class BlockStoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = make_store()
        self.model = ReferenceStore(capacity=min(CPU_BLOCKS, GPU_BLOCKS))
        #: Live sequences: (store block ids, model block ids), aligned.
        self.sequences: list[tuple[list[int], list[int]]] = []

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(
        family=st.integers(0, FAMILIES - 1),
        depth=st.integers(0, CHAIN_DEPTH),
        tail=st.integers(0, BLOCK_TOKENS + 2),
    )
    def register_chain(self, family, depth, tail):
        hashes = family_chain(family)[:depth]
        num_tokens = depth * BLOCK_TOKENS + tail
        if num_tokens == 0:
            return
        matchable = num_tokens - 1
        cap = num_tokens // BLOCK_TOKENS
        matched = self.store.match_prefix_hashes(hashes, matchable)[:cap]
        model_matched = self.model.match(hashes, matchable)[:cap]
        assert len(matched) == len(model_matched)
        ids: list[int] = []
        try:
            cached = self.store.register_chain(matched, num_tokens, hashes, ids)
        except MemoryManagerError:
            assert ids == []
            try:
                self.model.register_chain(model_matched, num_tokens, hashes)
            except MemoryManagerError:
                return
            raise AssertionError("store refused a chain the model accepts")
        assert cached == len(matched) * BLOCK_TOKENS
        model_ids = self.model.register_chain(model_matched, num_tokens, hashes)
        assert len(ids) == len(model_ids)
        self.sequences.append((ids, model_ids))

    @precondition(lambda self: self.sequences)
    @rule(data=st.data())
    def release_many(self, data):
        self._release(data.draw(st.integers(0, len(self.sequences) - 1)))

    @precondition(lambda self: self.sequences)
    @rule()
    def release_oldest(self):
        # A second release rule keeps the live set from only ever growing.
        self._release(0)

    def _release(self, index: int) -> None:
        ids, model_ids = self.sequences.pop(index)
        self.store.release_many(ids)
        for mid in model_ids:
            self.model.release(mid)

    @rule(elapsed=st.sampled_from([0.0, 1.0, 4.0]), ttl=st.sampled_from([2.0, 6.0]))
    def expire_idle(self, elapsed, ttl):
        self.model.now += elapsed
        self.store.clock_time = self.model.now
        cutoff = self.model.now - ttl
        assert self.store.expire_idle(cutoff) == self.model.expire_idle(cutoff)

    @rule()
    def drop_all_cached(self):
        assert self.store.drop_all_cached() == self.model.drop_all_cached()

    @rule(tokens=st.integers(1, BLOCK_TOKENS - 1), data=st.data())
    def allocate_cow_append(self, tokens, data):
        try:
            block_id = self.store.allocate_block(tokens)
        except MemoryManagerError:
            self._expect_model_full(lambda: self.model.allocate(tokens, None))
            return
        mid = self.model.allocate(tokens, None)
        try:
            copy = self.store.copy_on_write(block_id)
        except MemoryManagerError:
            self._expect_model_full(lambda: self.model.allocate(tokens, None))
            self.sequences.append(([block_id], [mid]))
            return
        model_copy = self.model.allocate(tokens, None)
        self.model.release(mid)
        assert block_id not in self.store  # a private original is freed
        assert self.store.block(copy).num_tokens == tokens
        extra = data.draw(st.integers(1, BLOCK_TOKENS - tokens))
        self.store.append_to_block(copy, extra)
        self.model.blocks[model_copy][2] += extra
        self.sequences.append(([copy], [model_copy]))

    def _expect_model_full(self, allocate) -> None:
        try:
            allocate()
        except MemoryManagerError:
            return
        raise AssertionError("store refused a block the model accepts")

    # ------------------------------------------------------------------
    # Agreement after every rule
    # ------------------------------------------------------------------
    @invariant()
    def refcounts_agree(self):
        assert all(block.ref_count >= 0 for block in self.store.resident_blocks())
        for ids, model_ids in self.sequences:
            for block_id, mid in zip(ids, model_ids):
                block = self.store.block(block_id)
                refs, block_hash, tokens = self.model.blocks[mid]
                assert block.ref_count == refs >= 1
                assert block.block_hash == block_hash
                assert block.num_tokens == tokens

    @invariant()
    def counts_and_pages_agree(self):
        store = self.store
        assert store.num_blocks == len(self.model.blocks)
        assert store.num_cached_blocks == len(self.model.lru)
        assert store.cpu_pool.used_pages == store.num_blocks
        assert store.gpu_pool.used_pages == store.num_blocks
        assert store.bytes_in_use() == (
            store.cpu_pool.used_bytes,
            store.gpu_pool.used_bytes,
        )

    @invariant()
    def index_and_counters_agree(self):
        store = self.store
        assert set(store.prefix_index) == set(self.model.index)
        assert store.evictions == self.model.evictions
        assert store.ttl_evictions == self.model.ttl_evictions
        assert store.crash_drops == self.model.crash_drops

    @invariant()
    def match_depths_agree(self):
        unlimited = CHAIN_DEPTH * BLOCK_TOKENS + 1
        for family in range(FAMILIES):
            chain = family_chain(family)
            matched = self.store.match_prefix_hashes(chain, unlimited)
            assert len(matched) == len(self.model.match(chain, unlimited))
            for block_id, block_hash in zip(matched, chain):
                assert self.store.block(block_id).block_hash == block_hash


BlockStoreMachine.TestCase.settings = settings(
    stateful_step_count=30, deadline=None
)
TestBlockStoreStateMachine = BlockStoreMachine.TestCase

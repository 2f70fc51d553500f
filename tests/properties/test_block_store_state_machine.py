"""Stateful test: the block store against a compact reference model.

A hypothesis ``RuleBasedStateMachine`` drives one :class:`SharedBlockStore`
(split across a CPU and a GPU pool) and a dict-and-list model of the same
semantics through random interleavings of chain registration (with and
without a private tail), over-capacity chain registration, purely private
registration, tail growth across block boundaries, release, TTL expiry and
crash teardown.  After every
rule the two must agree on refcounts, private runs, cached and resident
counts, pool pages, the content-index key set, the eviction counters,
prefix-match depths, and the cache's touch times and eviction order.
Everything is read through the store's public surface
(:mod:`tests.block_store_view`); the model matches by hash and tracks its
own ids.

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

from repro.runtime.block_store import BlockTable, SharedBlockStore
from repro.runtime.memory_manager import MemoryPool
from repro.utils.errors import KVCapacityError, MemoryManagerError
from tests.block_store_view import lru_order, resident, store_state

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


class ModelSequence:
    """One live sequence in the model: hashed block ids and a private run."""

    def __init__(self) -> None:
        self.mids: list[int] = []
        self.private = 0
        self.tail = 0


class ReferenceStore:
    """The store's semantics in plain dicts plus an explicit LRU order.

    Blocks are placed one at a time: a block takes a free page while any
    is left, otherwise it first evicts the least recently cached block.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        #: model id -> [refs, hash] for hashed blocks.
        self.blocks: dict[int, list] = {}
        #: Live private blocks, over all sequences.
        self.private = 0
        self.index: dict[int, int] = {}
        #: Cached model ids, least recently used first, with cache times.
        self.lru: dict[int, float] = {}
        self.next_id = 0
        self.now = 0.0
        self.evictions = 0
        self.ttl_evictions = 0
        self.crash_drops = 0

    @property
    def used(self) -> int:
        return len(self.blocks) + self.private

    def _free(self, mid: int) -> None:
        _, block_hash = self.blocks.pop(mid)
        del self.lru[mid]
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

    def release_mid(self, mid: int) -> None:
        block = self.blocks[mid]
        assert block[0] > 0
        block[0] -= 1
        if block[0] == 0:
            self.lru[mid] = self.now

    def _place(self, sequence: ModelSequence, block_hash: int | None) -> None:
        if self.used >= self.capacity:
            self._free(next(iter(self.lru)))
            self.evictions += 1
        if block_hash is None or block_hash in self.index:
            self.private += 1
            sequence.private += 1
            return
        mid = self.next_id
        self.next_id += 1
        self.blocks[mid] = [1, block_hash]
        self.index[block_hash] = mid
        sequence.mids.append(mid)

    def _grow(
        self, sequence: ModelSequence, num_tokens: int, hashes: list[int]
    ) -> None:
        """Place fresh blocks for ``num_tokens``; all or nothing."""
        count = -(-num_tokens // BLOCK_TOKENS)
        if count > self.capacity - self.used + len(self.lru):
            raise MemoryManagerError("model pool full")
        for position in range(count):
            self._place(sequence, hashes[position] if position < len(hashes) else None)
        if count > len(hashes):
            sequence.tail = (num_tokens - 1) % BLOCK_TOKENS + 1
        elif sequence.private:
            sequence.tail = BLOCK_TOKENS

    def register_chain(
        self, matched: list[int], num_tokens: int, hashes: list[int]
    ) -> ModelSequence:
        sequence = ModelSequence()
        lru = dict(self.lru)
        for mid in matched:
            self.blocks[mid][0] += 1
            self.lru.pop(mid, None)
        remaining = num_tokens - len(matched) * BLOCK_TOKENS
        if remaining > 0:
            first = len(matched)
            try:
                self._grow(
                    sequence,
                    remaining,
                    hashes[first : first + remaining // BLOCK_TOKENS],
                )
            except MemoryManagerError:
                # A refused registration unpins its match exactly: the
                # blocks keep their LRU places and cache times.
                for mid in matched:
                    self.blocks[mid][0] -= 1
                self.lru = lru
                raise
        sequence.mids[:0] = matched
        return sequence

    def extend(self, sequence: ModelSequence, num_tokens: int) -> None:
        room = BLOCK_TOKENS - sequence.tail if sequence.private else 0
        if num_tokens > room:
            self._grow(sequence, num_tokens - room, [])
        else:
            sequence.tail += num_tokens

    def release(self, sequence: ModelSequence) -> None:
        for mid in sequence.mids:
            self.release_mid(mid)
        self.private -= sequence.private

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
        #: Live sequences: (store table, model sequence), aligned.
        self.sequences: list[tuple[BlockTable, ModelSequence]] = []

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(
        family=st.integers(0, FAMILIES - 1),
        depth=st.integers(0, CHAIN_DEPTH),
        tail=st.integers(0, 2 * BLOCK_TOKENS + 2),
    )
    def register_chain(self, family, depth, tail):
        """A prompt chain, with a private tail past its hashed blocks."""
        hashes = family_chain(family)[:depth]
        num_tokens = depth * BLOCK_TOKENS + tail
        if num_tokens == 0:
            return
        matchable = num_tokens - 1
        cap = num_tokens // BLOCK_TOKENS
        matched = self.store.match_prefix_hashes(
            hashes, min(matchable, cap * BLOCK_TOKENS)
        )
        model_matched = self.model.match(hashes, matchable)[:cap]
        assert matched.blocks == len(model_matched)
        self._register(
            lambda table: self.store.register_chain(matched, num_tokens, hashes, table),
            lambda: self.model.register_chain(model_matched, num_tokens, hashes),
            cached_tokens=matched.blocks * BLOCK_TOKENS,
        )

    @precondition(lambda self: self.store.num_cached_blocks)
    @rule(
        depth=st.integers(1, CHAIN_DEPTH),
        extra=st.integers(1, 2 * BLOCK_TOKENS),
    )
    def register_chain_over_capacity(self, depth, extra):
        """A matched chain whose fresh blocks cannot fit changes nothing.

        Each family's reservation needs every block the pools could ever
        free (the whole pool less the match) and ``extra`` tokens more, so
        it must be refused whatever the store holds, and the refusal must
        leave every refcount and touch time, the eviction order, the
        counters and the pools exactly as they were.  It runs
        only while some block is cached, so matches often include blocks a
        release would restamp.
        """
        capacity = min(CPU_BLOCKS, GPU_BLOCKS)
        num_tokens = capacity * BLOCK_TOKENS + extra
        matchable = depth * BLOCK_TOKENS
        for family in range(FAMILIES):
            hashes = family_chain(family)[:depth]
            matched = self.store.match_prefix_hashes(hashes, matchable)
            assert matched.blocks == len(self.model.match(hashes, matchable))
            before = store_state(self.store)
            table = BlockTable()
            try:
                self.store.register_chain(matched, num_tokens, hashes, table)
            except KVCapacityError:
                pass
            else:
                raise AssertionError("an over-capacity registration was accepted")
            assert table == BlockTable()
            assert store_state(self.store) == before

    @rule(num_tokens=st.integers(1, 3 * BLOCK_TOKENS + 1))
    def register_private(self, num_tokens):
        """A cache-off registration: one private run, nothing hashed."""
        self._register(
            lambda table: self.store.extend_table(table, num_tokens),
            lambda: self.model.register_chain([], num_tokens, []),
        )

    def _register(self, store_register, model_register, cached_tokens=None):
        table = BlockTable()
        try:
            cached = store_register(table)
        except MemoryManagerError:
            assert table == BlockTable()
            try:
                model_register()
            except MemoryManagerError:
                return
            raise AssertionError("store refused a sequence the model accepts")
        if cached_tokens is not None:
            assert cached == cached_tokens
        self.sequences.append((table, model_register()))

    @precondition(lambda self: self.sequences)
    @rule(data=st.data(), num_tokens=st.integers(1, 2 * BLOCK_TOKENS + 1))
    def extend_tail(self, data, num_tokens):
        """Tail growth, crossing block boundaries (evicting when full)."""
        index = data.draw(st.integers(0, len(self.sequences) - 1))
        table, sequence = self.sequences[index]
        before = (list(table.block_ids), table.private_blocks, table.tail_tokens)
        try:
            self.store.extend_table(table, num_tokens)
        except MemoryManagerError:
            assert (table.block_ids, table.private_blocks, table.tail_tokens) == before
            try:
                self.model.extend(sequence, num_tokens)
            except MemoryManagerError:
                return
            raise AssertionError("store refused a growth the model accepts")
        self.model.extend(sequence, num_tokens)

    @precondition(lambda self: self.sequences)
    @rule(data=st.data())
    def release_table(self, data):
        self._release(data.draw(st.integers(0, len(self.sequences) - 1)))

    @precondition(lambda self: self.sequences)
    @rule()
    def release_oldest(self):
        # A second release rule keeps the live set from only ever growing.
        self._release(0)

    def _release(self, index: int) -> None:
        table, sequence = self.sequences.pop(index)
        self.store.release_table(table)
        self.model.release(sequence)

    @rule(elapsed=st.sampled_from([0.0, 1.0, 4.0]), ttl=st.sampled_from([2.0, 6.0]))
    def expire_idle(self, elapsed, ttl):
        self.model.now += elapsed
        self.store.clock_time = self.model.now
        cutoff = self.model.now - ttl
        assert self.store.expire_idle(cutoff) == self.model.expire_idle(cutoff)

    @rule()
    def drop_all_cached(self):
        assert self.store.drop_all_cached() == self.model.drop_all_cached()

    # ------------------------------------------------------------------
    # Agreement after every rule
    # ------------------------------------------------------------------
    @invariant()
    def tables_agree(self):
        assert all(block.ref_count >= 0 for block in self.store.resident_blocks())
        for table, sequence in self.sequences:
            assert len(table.block_ids) == len(sequence.mids)
            for block_id, mid in zip(table.block_ids, sequence.mids):
                block = self.store.block(block_id)
                refs, block_hash = self.model.blocks[mid]
                assert block.ref_count == refs >= 1
                assert block.block_hash == block_hash
            assert table.private_blocks == sequence.private
            assert table.tail_tokens == sequence.tail

    @invariant()
    def counts_and_pages_agree(self):
        store = self.store
        slotted = len(store.resident_blocks())
        private = sum(table.private_blocks for table, _ in self.sequences)
        assert store.num_private_blocks == private == self.model.private
        # ``num_blocks`` counts both kinds, and every block holds its pages.
        assert store.num_blocks == slotted + private == self.model.used
        assert store.num_cached_blocks == len(self.model.lru)
        assert store.cpu_pool.used_pages == slotted + private
        assert store.gpu_pool.used_pages == slotted + private
        assert store.bytes_in_use() == (
            store.cpu_pool.used_bytes,
            store.gpu_pool.used_bytes,
        )

    @invariant()
    def cache_order_agrees(self):
        """Cached blocks' touch times, and the order eviction takes them."""
        model = self.model
        cached = {
            model.blocks[mid][1]: (0, True, since) for mid, since in model.lru.items()
        }
        assert {h: v for h, v in resident(self.store).items() if v[1]} == cached
        assert lru_order(self.store) == [model.blocks[mid][1] for mid in model.lru]

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
            assert matched.blocks == len(self.model.match(chain, unlimited))
            for block_id, block_hash in zip(matched.block_ids, chain):
                assert self.store.block(block_id).block_hash == block_hash


BlockStoreMachine.TestCase.settings = settings(
    stateful_step_count=30, deadline=None
)
TestBlockStoreStateMachine = BlockStoreMachine.TestCase

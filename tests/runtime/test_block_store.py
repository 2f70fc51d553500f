"""Block store: hashing, sharing, refcounts, private runs, LRU eviction."""

import pytest

from repro.runtime.block_store import (
    BlockTable,
    PrefixMatch,
    SharedBlockStore,
    chain_block_hashes,
)
from repro.runtime.memory_manager import MemoryPool
from repro.utils.errors import MemoryManagerError

BLOCK_TOKENS = 4
BLOCK_BYTES = 1024.0


def make_store(num_blocks=8, gpu_ratio=0.0, gpu_blocks=8):
    # Pool pages hold exactly each pool's share of one block, as the
    # serving admission controller sizes them.
    cpu_share = BLOCK_BYTES * (1 - gpu_ratio)
    cpu_pool = MemoryPool("cpu", num_blocks * cpu_share, cpu_share)
    gpu_pool = None
    if gpu_ratio > 0:
        gpu_pool = MemoryPool(
            "gpu", gpu_blocks * BLOCK_BYTES * gpu_ratio, BLOCK_BYTES * gpu_ratio
        )
    return SharedBlockStore(
        cpu_pool=cpu_pool,
        block_bytes=BLOCK_BYTES,
        block_tokens=BLOCK_TOKENS,
        gpu_pool=gpu_pool,
        gpu_ratio=gpu_ratio,
    )


def hashed_block(store, block_hash):
    """One full block registered under ``block_hash``; returns its id."""
    table = BlockTable()
    store.register_chain(PrefixMatch(), BLOCK_TOKENS, [block_hash], table)
    (block_id,) = table.block_ids
    return block_id


def private_run(store, num_tokens):
    """A table holding ``num_tokens`` private tokens (no hashes)."""
    table = BlockTable()
    store.register_chain(PrefixMatch(), num_tokens, [], table)
    return table


class TestHashing:
    def test_only_full_blocks_hash(self):
        assert chain_block_hashes((1, 2, 3), BLOCK_TOKENS) == []
        assert len(chain_block_hashes((1, 2, 3, 4), BLOCK_TOKENS)) == 1
        assert len(chain_block_hashes(tuple(range(11)), BLOCK_TOKENS)) == 2

    def test_hash_chains_through_earlier_blocks(self):
        a = chain_block_hashes((1, 2, 3, 4, 5, 6, 7, 8), BLOCK_TOKENS)
        b = chain_block_hashes((9, 2, 3, 4, 5, 6, 7, 8), BLOCK_TOKENS)
        # Same second-block tokens, different first block: both hashes differ.
        assert a[0] != b[0]
        assert a[1] != b[1]

    def test_hash_is_deterministic(self):
        tokens = tuple(range(16))
        assert chain_block_hashes(tokens, BLOCK_TOKENS) == chain_block_hashes(
            tokens, BLOCK_TOKENS
        )


class TestSharing:
    def test_match_requires_residency(self):
        store = make_store()
        tokens = (1, 2, 3, 4, 5)
        assert store.match_prefix(tokens).block_ids == []
        hashes = chain_block_hashes(tokens, BLOCK_TOKENS)
        block_id = hashed_block(store, hashes[0])
        assert store.match_prefix(tokens).block_ids == [block_id]

    def test_match_never_covers_whole_prompt(self):
        """Prefill must keep at least one token to compute first logits."""
        store = make_store()
        tokens = (1, 2, 3, 4, 5, 6, 7, 8)
        for h in chain_block_hashes(tokens, BLOCK_TOKENS):
            hashed_block(store, h)
        # Both blocks resident, but an 8-token prompt may match only one.
        assert store.match_prefix(tokens).blocks == 1
        assert store.match_prefix(tokens + (9,)).blocks == 2

    def test_acquire_shares_without_double_charge(self):
        store = make_store()
        block_id = hashed_block(store, 123)
        used_before = store.cpu_pool.used_pages
        store.acquire(block_id)
        assert store.block(block_id).ref_count == 2
        assert store.cpu_pool.used_pages == used_before

    def test_release_retains_hashed_blocks_as_cache(self):
        store = make_store()
        block_id = hashed_block(store, 7)
        store.release(block_id)
        assert block_id in store  # resident, evictable
        assert store.num_cached_blocks == 1
        assert store.cpu_pool.used_pages == 1

    def test_release_frees_private_blocks_immediately(self):
        store = make_store()
        table = private_run(store, BLOCK_TOKENS)
        store.release_table(table)
        assert store.num_blocks == 0
        assert store.cpu_pool.used_pages == 0

    def test_refcount_underflow_raises(self):
        store = make_store()
        block_id = hashed_block(store, 7)
        store.release(block_id)
        with pytest.raises(MemoryManagerError):
            store.release(block_id)


class TestPrivateRuns:
    def test_run_is_counted_not_slotted(self):
        store = make_store()
        table = private_run(store, 2 * BLOCK_TOKENS + 1)
        assert table.block_ids == []
        assert (table.private_blocks, table.tail_tokens) == (3, 1)
        assert store.num_blocks == store.num_private_blocks == 3
        assert store.cpu_pool.used_pages == 3
        assert store.resident_blocks() == []

    def test_extend_fills_the_tail_then_spills(self):
        store = make_store()
        table = private_run(store, BLOCK_TOKENS - 1)
        store.extend_table(table, 1)  # fills the tail block in place
        assert (table.private_blocks, table.tail_tokens) == (1, BLOCK_TOKENS)
        assert store.cpu_pool.used_pages == 1
        store.extend_table(table, BLOCK_TOKENS + 2)  # one full, one partial
        assert (table.private_blocks, table.tail_tokens) == (3, 2)
        assert store.cpu_pool.used_pages == 3

    def test_extend_never_writes_a_shared_block(self):
        """A table ending in a (full) hashed block grows a fresh run."""
        store = make_store()
        table = BlockTable()
        store.register_chain(PrefixMatch(), BLOCK_TOKENS, [11], table)
        store.acquire(table.block_ids[0])  # a second sharer
        store.extend_table(table, 3)
        assert (table.private_blocks, table.tail_tokens) == (1, 3)
        assert store.block(table.block_ids[0]).ref_count == 2
        assert store.num_blocks == 2

    def test_failed_extend_leaves_the_table_unchanged(self):
        store = make_store(num_blocks=2)
        table = private_run(store, BLOCK_TOKENS + 1)
        with pytest.raises(MemoryManagerError):
            store.extend_table(table, 2 * BLOCK_TOKENS)
        assert (table.private_blocks, table.tail_tokens) == (2, 1)
        assert store.cpu_pool.used_pages == 2

    def test_release_table_returns_the_run_and_caches_hashed_blocks(self):
        store = make_store()
        table = BlockTable()
        store.register_chain(PrefixMatch(), 3 * BLOCK_TOKENS + 2, [1, 2], table)
        assert len(table) == 4
        store.release_table(table)
        assert store.num_blocks == store.num_cached_blocks == 2
        assert store.num_private_blocks == 0
        assert store.cpu_pool.used_pages == 2


class TestEviction:
    def test_lru_eviction_frees_oldest_cache(self):
        store = make_store(num_blocks=2)
        first = hashed_block(store, 1)
        second = hashed_block(store, 2)
        store.release(first)
        store.release(second)
        store.acquire(second)  # refresh: second is now MRU + pinned
        store.release(second)
        private_run(store, BLOCK_TOKENS)  # needs one page -> evict LRU
        assert first not in store
        assert second in store
        assert store.evictions == 1

    def test_eviction_interleaves_with_allocation(self):
        """A run evicts each victim only when its next block does not fit.

        Evicting a run's victims up front would free the cached holder of
        hash 2 before the run's own hash-2 block is allocated, letting that
        block claim the hash; interleaved, the incumbent still owns it then
        and the new block stays private.
        """
        store = make_store(num_blocks=4)
        for block_hash in (10, 2, 11):  # cached LRU order: 10, 2, 11
            store.release(hashed_block(store, block_hash))
        table = BlockTable()
        store.register_chain(PrefixMatch(), 3 * BLOCK_TOKENS, [1, 2, 3], table)
        # Block 0 takes the free page; block 1 evicts hash 10 and finds
        # hash 2 still resident; block 2 evicts the hash-2 incumbent.
        assert store.evictions == 2
        assert set(store.prefix_index) == {1, 3, 11}
        assert [store.block(b).block_hash for b in table.block_ids] == [1, 3]
        assert table.private_blocks == 1

    def test_private_tail_evicts_in_lru_order_after_hashed_blocks(self):
        """A run's hashed blocks take the free pages; its private tail then
        evicts one LRU victim per block, oldest first.

        Hash 10 is the oldest cached block and also the run's second hash.
        Interleaved, that hashed position takes the last free page while
        the incumbent still owns 10, so it stays private, and only then do
        the tail's three blocks evict 10, 20 and 30.  Evicting the tail's
        victims up front would free 10 first and let the run claim it.
        """
        store = make_store(num_blocks=6)
        for block_hash in (10, 20, 30, 50):  # cached LRU order
            store.release(hashed_block(store, block_hash))
        table = BlockTable()
        store.register_chain(PrefixMatch(), 4 * BLOCK_TOKENS + 2, [40, 10], table)
        assert store.evictions == 3
        assert set(store.prefix_index) == {40, 50}
        assert [store.block(b).block_hash for b in table.block_ids] == [40]
        assert (table.private_blocks, table.tail_tokens) == (4, 2)
        assert store.cpu_pool.used_pages == 6

    def test_failed_gpu_allocation_rolls_back_cpu_pages(self):
        """A split-store allocation that dies on the GPU pool leaks nothing."""
        store = make_store(num_blocks=8, gpu_ratio=0.5, gpu_blocks=2)
        private_run(store, BLOCK_TOKENS)
        private_run(store, BLOCK_TOKENS)  # GPU pool now full, CPU has room
        cpu_used = store.cpu_pool.used_pages
        with pytest.raises(MemoryManagerError):
            private_run(store, BLOCK_TOKENS)
        assert store.cpu_pool.used_pages == cpu_used
        assert store.num_blocks == 2

    def test_eviction_never_removes_referenced_blocks(self):
        store = make_store(num_blocks=2)
        pinned = hashed_block(store, 1)
        hashed_block(store, 2)
        # Pool full, nothing evictable: the allocation must be refused.
        with pytest.raises(MemoryManagerError):
            private_run(store, BLOCK_TOKENS)
        assert pinned in store

    def test_evicted_blocks_leave_the_hash_index(self):
        store = make_store(num_blocks=1)
        tokens = (1, 2, 3, 4, 5)
        block_id = hashed_block(store, chain_block_hashes(tokens, BLOCK_TOKENS)[0])
        store.release(block_id)
        assert store.match_prefix(tokens)
        private_run(store, BLOCK_TOKENS)  # forces eviction
        assert store.match_prefix(tokens).block_ids == []

    def test_can_allocate_counts_evictable_but_not_reserved(self):
        store = make_store(num_blocks=2)
        a = hashed_block(store, 1)
        b = hashed_block(store, 2)
        store.release(a)
        store.release(b)
        assert store.can_allocate_blocks(2)
        # Reserving one matched block leaves room for only one new block.
        matched = store.match_prefix_hashes([1], BLOCK_TOKENS)
        assert matched.block_ids == [a]
        assert matched.cached == 1
        assert store.can_allocate_blocks(1, matched.cached)
        assert not store.can_allocate_blocks(2, matched.cached)


class TestAccounting:
    def test_bytes_count_unique_blocks_once(self):
        store = make_store()
        block_id = hashed_block(store, 5)
        for _ in range(3):
            store.acquire(block_id)
        cpu, gpu = store.bytes_in_use()
        assert cpu == BLOCK_BYTES
        assert gpu == 0.0

    def test_gpu_split_charges_both_pools(self):
        store = make_store(gpu_ratio=0.5)
        private_run(store, BLOCK_TOKENS)
        cpu, gpu = store.bytes_in_use()
        assert cpu == pytest.approx(BLOCK_BYTES * 0.5)
        assert gpu == pytest.approx(BLOCK_BYTES * 0.5)

    def test_live_only_excludes_cached(self):
        store = make_store()
        block_id = hashed_block(store, 9)
        store.release(block_id)
        assert store.bytes_in_use(live_only=True) == (0.0, 0.0)
        assert store.bytes_in_use() == (BLOCK_BYTES, 0.0)

    def test_bytes_count_private_runs(self):
        store = make_store()
        table = private_run(store, 2 * BLOCK_TOKENS)
        assert store.bytes_in_use(live_only=True) == (2 * BLOCK_BYTES, 0.0)
        store.release_table(table)
        assert store.bytes_in_use() == (0.0, 0.0)


class TestRegisterChain:
    """Bulk chain registration: one call, same store state as the loops."""

    def _chain(self, prompt_tokens):
        return chain_block_hashes(tuple(prompt_tokens), BLOCK_TOKENS)

    def test_fresh_chain_matches_manual_allocation(self):
        tokens = tuple(range(16))
        hashes = self._chain(tokens)
        manual = make_store()
        manual_ids = [hashed_block(manual, block_hash) for block_hash in hashes]
        bulk = make_store()
        table = BlockTable()
        cached = bulk.register_chain(PrefixMatch(), 16, hashes, table)
        assert cached == 0
        assert table.block_ids == manual_ids
        assert list(bulk.prefix_index) == list(manual.prefix_index)
        assert bulk.resident_blocks() == manual.resident_blocks()
        assert bulk.bytes_in_use() == manual.bytes_in_use()

    def test_matched_prefix_pinned_not_reallocated(self):
        """The migration-landing path: a fully cached chain re-registers."""
        store = make_store()
        tokens = tuple(range(16))
        hashes = self._chain(tokens)
        first = BlockTable()
        store.register_chain(PrefixMatch(), 16, hashes, first)
        store.release_table(first)
        assert store.num_cached_blocks == len(first.block_ids)
        second = BlockTable()
        matched = store.match_prefix_hashes(hashes, 16)
        assert matched.block_ids == first.block_ids
        cached = store.register_chain(matched, 16, hashes, second)
        assert cached == 16
        assert second.block_ids == first.block_ids  # same blocks, re-acquired
        # Re-registration added no blocks and no duplicate hash entries.
        assert store.num_blocks == len(first.block_ids)
        assert len(store.prefix_index) == len(hashes)
        for block_id in second.block_ids:
            assert store.block(block_id).ref_count == 1

    def test_failure_leaves_the_store_unchanged(self):
        store = make_store(num_blocks=2)
        tokens = tuple(range(16))  # needs 4 blocks; only 2 fit
        hashes = self._chain(tokens)
        table = BlockTable()
        with pytest.raises(MemoryManagerError):
            store.register_chain(PrefixMatch(), 16, hashes, table)
        # Registration is all or nothing: no block was placed.
        assert table == BlockTable()
        assert store.num_blocks == 0
        assert store.prefix_index == {}
        assert store.cpu_pool.used_pages == 0

    def test_failure_unpins_the_match(self):
        store = make_store(num_blocks=3)
        hashes = self._chain(tuple(range(8)))
        cached = BlockTable()
        store.register_chain(PrefixMatch(), 8, hashes, cached)
        store.release_table(cached)
        table = BlockTable()
        matched = store.match_prefix_hashes(hashes, 8)
        assert matched.block_ids == cached.block_ids
        with pytest.raises(MemoryManagerError):
            store.register_chain(matched, 4 * BLOCK_TOKENS, hashes, table)
        assert table.block_ids == []
        assert store.num_cached_blocks == 2
        assert store.bytes_in_use(live_only=True) == (0.0, 0.0)


class TestTTLEviction:
    def _cached_block(self, store, block_hash, at_time):
        store.clock_time = at_time
        block_id = hashed_block(store, block_hash)
        store.release(block_id)  # shareable -> parks in the cache
        return block_id

    def test_expires_only_blocks_idle_past_cutoff(self):
        store = make_store()
        old = self._cached_block(store, block_hash=1, at_time=0.0)
        fresh = self._cached_block(store, block_hash=2, at_time=100.0)
        expired = store.expire_idle(cutoff=50.0)
        assert expired == 1
        assert store.ttl_evictions == 1
        assert old not in store
        assert fresh in store

    def test_referenced_blocks_never_expire(self):
        store = make_store()
        block_id = hashed_block(store, 3)
        store.clock_time = 100.0
        assert store.expire_idle(cutoff=200.0) == 0
        assert block_id in store

    def test_reacquired_block_survives_stale_queue_entry(self):
        store = make_store()
        block_id = self._cached_block(store, block_hash=4, at_time=0.0)
        store.acquire(block_id)  # back in use: its queue entry is stale
        store.clock_time = 100.0
        assert store.expire_idle(cutoff=50.0) == 0
        assert block_id in store
        store.release(block_id)  # re-cached at t=100
        assert store.expire_idle(cutoff=50.0) == 0
        assert store.expire_idle(cutoff=150.0) == 1

    def test_expiry_is_lru_ordered_and_stops_at_survivor(self):
        store = make_store()
        blocks = [
            self._cached_block(store, block_hash=10 + i, at_time=10.0 * i)
            for i in range(4)
        ]
        assert store.expire_idle(cutoff=15.0) == 2  # t=0 and t=10 expire
        assert blocks[0] not in store
        assert blocks[1] not in store
        assert blocks[2] in store
        assert blocks[3] in store


class TestSegments:
    """Hashed blocks placed together form one segment, split by matches."""

    def _cached_chain(self, store, hashes):
        table = BlockTable()
        store.register_chain(PrefixMatch(), len(hashes) * BLOCK_TOKENS, hashes, table)
        return table

    def test_partial_match_splits_and_the_first_table_walks_both_halves(self):
        store = make_store()
        first = self._cached_chain(store, [1, 2, 3, 4])
        assert len(first.links) == 1  # one registration, one segment
        second = BlockTable()
        matched = store.match_prefix_hashes([1, 2, 7], 3 * BLOCK_TOKENS)
        assert matched.block_ids == [1, 2]
        store.register_chain(matched, 2 * BLOCK_TOKENS, [1, 2], second)
        refs = {b.block_hash: b.ref_count for b in store.resident_blocks()}
        assert refs == {1: 2, 2: 2, 3: 1, 4: 1}
        # The first table's one link still reaches all four blocks.
        assert first.block_ids == [1, 2, 3, 4]
        store.release_table(first)
        refs = {b.block_hash: b.ref_count for b in store.resident_blocks()}
        assert refs == {1: 1, 2: 1, 3: 0, 4: 0}
        assert store.num_cached_blocks == 2

    def test_cached_tail_keeps_its_place_in_lru_order(self):
        store = make_store(num_blocks=6)
        store.release_table(self._cached_chain(store, [1, 2, 3, 4]))
        store.release_table(self._cached_chain(store, [9]))
        table = BlockTable()
        matched = store.match_prefix_hashes([1, 2, 5], 3 * BLOCK_TOKENS)
        store.register_chain(matched, 2 * BLOCK_TOKENS, [1, 2], table)
        private_run(store, BLOCK_TOKENS)  # takes the last free page
        private_run(store, BLOCK_TOKENS)  # evicts the split-off tail's head
        assert set(store.prefix_index) == {1, 2, 4, 9}
        assert store.evictions == 1

    def test_match_enters_a_segment_where_the_chain_does(self):
        """Hash lists that are not prefix chains still match block by block."""
        store = make_store()
        held = self._cached_chain(store, [1, 2, 3])
        matched = store.match_prefix_hashes([2, 3], 2 * BLOCK_TOKENS)
        assert matched.block_ids == [2, 3]
        table = BlockTable()
        store.register_chain(matched, 2 * BLOCK_TOKENS, [2, 3], table)
        refs = {b.block_hash: b.ref_count for b in store.resident_blocks()}
        assert refs == {1: 1, 2: 2, 3: 2}
        store.release_table(held)
        store.release_table(table)
        assert store.num_cached_blocks == 3

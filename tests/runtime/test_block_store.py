"""Shared block store: hashing, sharing, refcounts, COW, LRU eviction."""

import pytest

from repro.runtime.block_store import SharedBlockStore, chain_block_hashes
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
        assert store.match_prefix(tokens) == []
        hashes = chain_block_hashes(tokens, BLOCK_TOKENS)
        block_id = store.allocate_block(BLOCK_TOKENS, block_hash=hashes[0])
        assert store.match_prefix(tokens) == [block_id]

    def test_match_never_covers_whole_prompt(self):
        """Prefill must keep at least one token to compute first logits."""
        store = make_store()
        tokens = (1, 2, 3, 4, 5, 6, 7, 8)
        for h in chain_block_hashes(tokens, BLOCK_TOKENS):
            store.allocate_block(BLOCK_TOKENS, block_hash=h)
        # Both blocks resident, but an 8-token prompt may match only one.
        assert len(store.match_prefix(tokens)) == 1
        assert len(store.match_prefix(tokens + (9,))) == 2

    def test_acquire_shares_without_double_charge(self):
        store = make_store()
        block_id = store.allocate_block(BLOCK_TOKENS, block_hash=123)
        used_before = store.cpu_pool.used_pages
        store.acquire(block_id)
        assert store.block(block_id).ref_count == 2
        assert store.cpu_pool.used_pages == used_before

    def test_release_retains_hashed_blocks_as_cache(self):
        store = make_store()
        block_id = store.allocate_block(BLOCK_TOKENS, block_hash=7)
        store.release(block_id)
        assert block_id in store  # resident, evictable
        assert store.num_cached_blocks == 1
        assert store.cpu_pool.used_pages == 1

    def test_release_frees_private_blocks_immediately(self):
        store = make_store()
        block_id = store.allocate_block(BLOCK_TOKENS)
        store.release(block_id)
        assert block_id not in store
        assert store.cpu_pool.used_pages == 0

    def test_refcount_underflow_raises(self):
        store = make_store()
        block_id = store.allocate_block(BLOCK_TOKENS, block_hash=7)
        store.release(block_id)
        with pytest.raises(MemoryManagerError):
            store.release(block_id)


class TestCopyOnWrite:
    def test_cow_gives_private_copy(self):
        store = make_store()
        shared = store.allocate_block(BLOCK_TOKENS, block_hash=11)
        store.acquire(shared)  # two sharers
        copy = store.copy_on_write(shared)
        assert copy != shared
        assert store.block(copy).ref_count == 1
        assert not store.block(copy).is_shareable
        assert store.block(shared).ref_count == 1
        assert store.cow_copies == 1

    def test_append_to_shared_block_rejected(self):
        store = make_store()
        shared = store.allocate_block(BLOCK_TOKENS - 1)
        store.acquire(shared)  # a second sharer
        with pytest.raises(MemoryManagerError):
            store.append_to_block(shared, 1)

    def test_extend_table_copies_a_shared_tail_before_writing(self):
        store = make_store()
        shared = store.allocate_block(BLOCK_TOKENS - 1)
        store.acquire(shared)  # a second sharer
        table = [shared]
        store.extend_table(table, 3)
        # The tail was copied, filled to a full block, then one fresh
        # block took the remaining two tokens.
        assert store.cow_copies == 1
        assert table[0] != shared
        assert store.block(shared).ref_count == 1
        assert [store.block(b).num_tokens for b in table] == [BLOCK_TOKENS, 2]


class TestEviction:
    def test_lru_eviction_frees_oldest_cache(self):
        store = make_store(num_blocks=2)
        first = store.allocate_block(BLOCK_TOKENS, block_hash=1)
        second = store.allocate_block(BLOCK_TOKENS, block_hash=2)
        store.release(first)
        store.release(second)
        store.acquire(second)  # refresh: second is now MRU + pinned
        store.release(second)
        store.allocate_block(BLOCK_TOKENS)  # needs one page -> evict LRU
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
            store.release(store.allocate_block(BLOCK_TOKENS, block_hash=block_hash))
        out: list[int] = []
        store.register_chain([], 3 * BLOCK_TOKENS, [1, 2, 3], out)
        # Block 0 takes the free page; block 1 evicts hash 10 and finds
        # hash 2 still resident; block 2 evicts the hash-2 incumbent.
        assert store.evictions == 2
        assert set(store.prefix_index) == {1, 3, 11}
        assert store.block(out[1]).block_hash is None

    def test_failed_gpu_allocation_rolls_back_cpu_pages(self):
        """A split-store allocation that dies on the GPU pool leaks nothing."""
        store = make_store(num_blocks=8, gpu_ratio=0.5, gpu_blocks=2)
        store.allocate_block(BLOCK_TOKENS)
        store.allocate_block(BLOCK_TOKENS)  # GPU pool now full, CPU has room
        cpu_used = store.cpu_pool.used_pages
        with pytest.raises(MemoryManagerError):
            store.allocate_block(BLOCK_TOKENS)
        assert store.cpu_pool.used_pages == cpu_used
        assert store.num_blocks == 2

    def test_eviction_never_removes_referenced_blocks(self):
        store = make_store(num_blocks=2)
        pinned = store.allocate_block(BLOCK_TOKENS, block_hash=1)
        store.allocate_block(BLOCK_TOKENS, block_hash=2)
        # Pool full, nothing evictable: the pool itself must refuse.
        with pytest.raises(MemoryManagerError):
            store.allocate_block(BLOCK_TOKENS)
        assert pinned in store

    def test_evicted_blocks_leave_the_hash_index(self):
        store = make_store(num_blocks=1)
        tokens = (1, 2, 3, 4, 5)
        block_id = store.allocate_block(
            BLOCK_TOKENS, block_hash=chain_block_hashes(tokens, BLOCK_TOKENS)[0]
        )
        store.release(block_id)
        assert store.match_prefix(tokens)
        store.allocate_block(BLOCK_TOKENS)  # forces eviction
        assert store.match_prefix(tokens) == []

    def test_can_allocate_counts_evictable_but_not_reserved(self):
        store = make_store(num_blocks=2)
        a = store.allocate_block(BLOCK_TOKENS, block_hash=1)
        b = store.allocate_block(BLOCK_TOKENS, block_hash=2)
        store.release(a)
        store.release(b)
        assert store.can_allocate_blocks(2)
        # Reserving one matched block leaves room for only one new block.
        assert store.can_allocate_blocks(1, reserved_block_ids=[a])
        assert not store.can_allocate_blocks(2, reserved_block_ids=[a])


class TestAccounting:
    def test_bytes_count_unique_blocks_once(self):
        store = make_store()
        block_id = store.allocate_block(BLOCK_TOKENS, block_hash=5)
        for _ in range(3):
            store.acquire(block_id)
        cpu, gpu = store.bytes_in_use()
        assert cpu == BLOCK_BYTES
        assert gpu == 0.0

    def test_gpu_split_charges_both_pools(self):
        store = make_store(gpu_ratio=0.5)
        store.allocate_block(BLOCK_TOKENS)
        cpu, gpu = store.bytes_in_use()
        assert cpu == pytest.approx(BLOCK_BYTES * 0.5)
        assert gpu == pytest.approx(BLOCK_BYTES * 0.5)

    def test_live_only_excludes_cached(self):
        store = make_store()
        block_id = store.allocate_block(BLOCK_TOKENS, block_hash=9)
        store.release(block_id)
        assert store.bytes_in_use(live_only=True) == (0.0, 0.0)
        assert store.bytes_in_use() == (BLOCK_BYTES, 0.0)


class TestRegisterChain:
    """Bulk chain registration: one call, same store state as the loops."""

    def _chain(self, prompt_tokens):
        return chain_block_hashes(tuple(prompt_tokens), BLOCK_TOKENS)

    def test_fresh_chain_matches_manual_allocation(self):
        tokens = tuple(range(16))
        hashes = self._chain(tokens)
        manual = make_store()
        manual_ids = []
        remaining = 16
        for block_hash in hashes:
            size = min(BLOCK_TOKENS, remaining)
            manual_ids.append(
                manual.allocate_block(size, block_hash=block_hash)
            )
            remaining -= size
        bulk = make_store()
        out: list[int] = []
        cached = bulk.register_chain([], 16, hashes, out)
        assert cached == 0
        assert out == manual_ids
        assert bulk.prefix_index == manual.prefix_index
        assert bulk.bytes_in_use() == manual.bytes_in_use()

    def test_matched_prefix_pinned_not_reallocated(self):
        """The migration-landing path: a fully cached chain re-registers."""
        store = make_store()
        tokens = tuple(range(16))
        hashes = self._chain(tokens)
        out_first: list[int] = []
        store.register_chain([], 16, hashes, out_first)
        for block_id in out_first:
            store.release(block_id)
        assert store.num_cached_blocks == len(out_first)
        out_second: list[int] = []
        cached = store.register_chain(out_first, 16, hashes, out_second)
        assert cached == 16
        assert out_second == out_first  # same resident blocks, re-acquired
        # Re-registration added no blocks and no duplicate hash entries.
        assert store.num_blocks == len(out_first)
        assert len(store.prefix_index) == len(hashes)
        for block_id in out_second:
            assert store.block(block_id).ref_count == 1

    def test_failure_releases_every_block_it_took(self):
        store = make_store(num_blocks=2)
        tokens = tuple(range(16))  # needs 4 blocks; only 2 fit
        hashes = self._chain(tokens)
        out: list[int] = []
        with pytest.raises(MemoryManagerError):
            store.register_chain([], 16, hashes, out)
        # The out list is rolled back; the blocks it did commit are fully
        # released — hashed blocks park in the cache (as the unfused
        # release path leaves them), holding no live references.
        assert out == []
        assert store.bytes_in_use(live_only=True) == (0.0, 0.0)
        assert all(b.ref_count == 0 for b in store.resident_blocks())


class TestTTLEviction:
    def _cached_block(self, store, block_hash, at_time):
        store.clock_time = at_time
        block_id = store.allocate_block(BLOCK_TOKENS, block_hash=block_hash)
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
        block_id = store.allocate_block(BLOCK_TOKENS, block_hash=3)
        store.clock_time = 100.0
        assert store.expire_idle(cutoff=200.0) == 0
        assert block_id in store

    def test_reacquired_block_survives_stale_heap_entry(self):
        store = make_store()
        block_id = self._cached_block(store, block_hash=4, at_time=0.0)
        store.acquire(block_id)  # back in use: lazy heap entry stale
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

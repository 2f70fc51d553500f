"""Tests for the paged KV-cache manager."""

import pytest

from repro.runtime.kv_cache import KVCacheManager
from repro.runtime.memory_manager import MemoryPool
from repro.utils.errors import MemoryManagerError


@pytest.fixture
def cpu_pool():
    return MemoryPool(name="cpu", capacity_bytes=64e6, page_bytes=64e3)


@pytest.fixture
def gpu_pool():
    return MemoryPool(name="gpu", capacity_bytes=16e6, page_bytes=64e3)


def test_bytes_per_token_matches_memory_model(tiny_model, cpu_pool):
    from repro.models.memory import kv_cache_bytes_per_token

    manager = KVCacheManager(tiny_model, cpu_pool)
    assert manager.bytes_per_token() == pytest.approx(kv_cache_bytes_per_token(tiny_model))


def test_register_and_grow_sequence(tiny_model, cpu_pool):
    manager = KVCacheManager(tiny_model, cpu_pool)
    manager.register_sequence(0, prompt_tokens=100)
    assert manager.total_tokens == 100
    manager.append_tokens(0, 10)
    assert manager.total_tokens == 110
    assert manager.cpu_bytes > 0
    assert manager.gpu_bytes == 0


def test_gpu_ratio_splits_allocation(tiny_model, cpu_pool, gpu_pool):
    manager = KVCacheManager(tiny_model, cpu_pool, gpu_pool=gpu_pool, gpu_ratio=0.5)
    manager.register_sequence(0, prompt_tokens=200)
    assert manager.gpu_bytes > 0
    assert manager.cpu_bytes > 0
    # Pages are rounded up, so the split is approximate.
    assert manager.gpu_bytes == pytest.approx(manager.cpu_bytes, rel=0.2)


def test_gpu_ratio_without_pool_rejected(tiny_model, cpu_pool):
    with pytest.raises(MemoryManagerError):
        KVCacheManager(tiny_model, cpu_pool, gpu_ratio=0.5)


def test_duplicate_sequence_rejected(tiny_model, cpu_pool):
    manager = KVCacheManager(tiny_model, cpu_pool)
    manager.register_sequence(0, prompt_tokens=10)
    with pytest.raises(MemoryManagerError):
        manager.register_sequence(0, prompt_tokens=10)


def test_release_sequence_frees_pool(tiny_model, cpu_pool):
    manager = KVCacheManager(tiny_model, cpu_pool)
    manager.register_sequence(0, prompt_tokens=500)
    used = cpu_pool.used_pages
    assert used > 0
    manager.release_sequence(0)
    assert cpu_pool.used_pages == 0
    with pytest.raises(MemoryManagerError):
        manager.release_sequence(0)


def test_release_all(tiny_model, cpu_pool):
    manager = KVCacheManager(tiny_model, cpu_pool)
    for sequence_id in range(5):
        manager.register_sequence(sequence_id, prompt_tokens=50)
    manager.release_all()
    assert manager.total_tokens == 0
    assert cpu_pool.used_pages == 0


def test_can_admit_respects_capacity(tiny_model):
    small_pool = MemoryPool(name="cpu", capacity_bytes=256e3, page_bytes=16e3)
    manager = KVCacheManager(tiny_model, small_pool)
    per_token = manager.bytes_per_token()
    capacity_tokens = int(small_pool.capacity_bytes / per_token)
    assert manager.can_admit(prompt_tokens=capacity_tokens // 2, generation_len=0)
    assert not manager.can_admit(prompt_tokens=capacity_tokens * 2, generation_len=0)


# ----------------------------------------------------------------------
# Shared-prefix regime (prefix_cache=True)
# ----------------------------------------------------------------------
class TestPrefixCacheRegime:
    def make_manager(self, model, capacity_blocks=64):
        from repro.models.memory import kv_cache_bytes_per_token_per_layer

        block_tokens = 16
        block_bytes = (
            block_tokens * kv_cache_bytes_per_token_per_layer(model) * model.num_layers
        )
        pool = MemoryPool("cpu", capacity_blocks * block_bytes, block_bytes)
        return KVCacheManager(
            model, pool, block_tokens=block_tokens, prefix_cache=True
        )

    def test_identical_prompts_share_blocks(self, tiny_model):
        manager = self.make_manager(tiny_model)
        tokens = tuple(range(64))
        manager.register_sequence(0, 64, token_ids=tokens)
        used_after_first = manager.cpu_pool.used_pages
        cache = manager.register_sequence(1, 64, token_ids=tokens)
        # Three full blocks shared (the fourth must be recomputed/owned).
        assert cache.cached_tokens == 48
        assert manager.cpu_pool.used_pages == used_after_first + 1

    def test_released_prompts_stay_matchable(self, tiny_model):
        manager = self.make_manager(tiny_model)
        tokens = tuple(range(64))
        manager.register_sequence(0, 64, token_ids=tokens)
        manager.release_sequence(0)
        assert manager.match_prefix(tokens) == 48
        cache = manager.register_sequence(1, 64, token_ids=tokens)
        assert cache.cached_tokens == 48

    def test_growing_prompt_reuses_shorter_history(self, tiny_model):
        """A chat turn's prompt reuses the previous turn's cached blocks."""
        manager = self.make_manager(tiny_model)
        turn1 = tuple(range(48))
        manager.register_sequence(0, 48, token_ids=turn1)
        manager.release_sequence(0)
        turn2 = turn1 + tuple(range(100, 148))
        cache = manager.register_sequence(1, 96, token_ids=turn2)
        assert cache.cached_tokens == 48

    def test_reservation_beyond_prompt_is_private(self, tiny_model):
        """Generated-token blocks never enter the content index."""
        manager = self.make_manager(tiny_model)
        tokens = tuple(range(32))
        manager.register_sequence(0, 32 + 32, token_ids=tokens)  # +generation
        manager.release_sequence(0)
        # Only the prompt's 2 full blocks remain cached; generation blocks
        # freed outright.
        assert manager.block_store.num_cached_blocks == 2

    def test_unique_prompts_degenerate_to_private_accounting(self, tiny_model):
        manager = self.make_manager(tiny_model)
        manager.register_sequence(0, 64, token_ids=tuple(range(64)))
        manager.register_sequence(1, 64, token_ids=tuple(range(1000, 1064)))
        assert manager.cpu_pool.used_pages == 8
        manager.release_all()
        # Hashed prompt blocks linger as cache; the store still frees the
        # pool once eviction reclaims them.
        assert manager.total_tokens == 0

    def test_append_tokens_fills_private_tail(self, tiny_model):
        manager = self.make_manager(tiny_model)
        manager.register_sequence(0, 40, token_ids=tuple(range(40)))
        used = manager.cpu_pool.used_pages
        manager.append_tokens(0, 8)  # fits the half-full tail block
        assert manager.cpu_pool.used_pages == used
        manager.append_tokens(0, 16)  # spills into a fresh block
        assert manager.cpu_pool.used_pages == used + 1
        assert manager.sequences[0].num_tokens == 64

    def test_can_admit_is_incremental_under_hits(self, tiny_model):
        manager = self.make_manager(tiny_model, capacity_blocks=5)
        tokens = tuple(range(64))
        manager.register_sequence(0, 64, token_ids=tokens)  # 4 blocks
        # A cold prompt of 4 blocks cannot fit alongside (5 - 4 = 1 free).
        assert not manager.can_admit(64, 0, token_ids=tuple(range(500, 564)))
        # The same-size cached prompt needs only its final block.
        assert manager.can_admit(64, 0, token_ids=tokens)

    def test_register_rollback_on_capacity_error(self, tiny_model):
        manager = self.make_manager(tiny_model, capacity_blocks=4)
        manager.register_sequence(0, 48, token_ids=tuple(range(48)))
        with pytest.raises(MemoryManagerError):
            manager.register_sequence(1, 48, token_ids=tuple(range(500, 548)))
        # The failed registration left nothing behind.
        assert 1 not in manager.sequences
        live = [
            b for b in manager.block_store.resident_blocks() if b.ref_count > 0
        ]
        assert len(live) == 3


# ----------------------------------------------------------------------
# Cache-off regime: one private run per sequence, rounded per block
# ----------------------------------------------------------------------
class TestCacheOffRounding:
    BLOCK_TOKENS = 16

    def make_manager(self, model, gpu_ratio, page_share, prefix_cache=False):
        """Pools of 32 blocks whose pages hold ``page_share`` of a block's
        bytes on each side (``True``: exactly that side's share, as the
        serving admission controller sizes them; ``False``: a whole block)."""
        from repro.models.memory import kv_cache_bytes_per_token_per_layer

        block_bytes = (
            self.BLOCK_TOKENS
            * kv_cache_bytes_per_token_per_layer(model)
            * model.num_layers
        )
        gpu_page = block_bytes * gpu_ratio if page_share else block_bytes
        cpu_page = block_bytes - block_bytes * gpu_ratio if page_share else block_bytes
        return KVCacheManager(
            model,
            MemoryPool("cpu", 32 * cpu_page, cpu_page),
            gpu_pool=MemoryPool("gpu", 32 * gpu_page, gpu_page),
            gpu_ratio=gpu_ratio,
            block_tokens=self.BLOCK_TOKENS,
            prefix_cache=prefix_cache,
        )

    def test_split_blocks_charge_one_page_per_pool(self, tiny_model):
        manager = self.make_manager(tiny_model, 0.25, page_share=True)
        manager.register_sequence(0, 3 * self.BLOCK_TOKENS + 1)  # 4 blocks
        assert manager.cpu_pool.used_pages == 4
        assert manager.gpu_pool.used_pages == 4
        assert manager.cpu_bytes == 4 * manager.cpu_pool.page_bytes
        assert manager.gpu_bytes == 4 * manager.gpu_pool.page_bytes

    def test_split_shares_round_up_per_block_not_per_sequence(self, tiny_model):
        """With whole-block pages each share of each block rounds up to a
        page: 49 tokens at r_c = 0.25 cost 4 pages per pool, where rounding
        the sequence's byte total would have cost 3 CPU and 1 GPU page."""
        manager = self.make_manager(tiny_model, 0.25, page_share=False)
        manager.register_sequence(0, 3 * self.BLOCK_TOKENS + 1)
        assert manager.cpu_pool.used_pages == 4
        assert manager.gpu_pool.used_pages == 4

    def test_cache_off_charges_as_cache_on_does(self, tiny_model):
        off = self.make_manager(tiny_model, 0.25, page_share=True)
        on = self.make_manager(tiny_model, 0.25, page_share=True, prefix_cache=True)
        for manager in (off, on):
            manager.register_sequence(0, 3 * self.BLOCK_TOKENS + 1)
            manager.append_tokens(0, self.BLOCK_TOKENS)
        assert off.cpu_pool.used_pages == on.cpu_pool.used_pages == 5
        assert off.gpu_pool.used_pages == on.gpu_pool.used_pages == 5
        assert off.headroom_tokens() == on.headroom_tokens()

"""Property-based invariants of the shared KV block store.

Driven as a random interleaving of sequence registrations (with randomly
overlapping token prefixes) and releases, the store must maintain, at every
step:

* no refcount is ever negative (violations raise inside the store);
* pool bytes in use equal the byte sum over *unique* resident blocks — a
  block shared by many sequences is charged exactly once;
* eviction only ever reclaims refcount-zero blocks: every block referenced
  by a live sequence stays resident until that sequence releases it;
* with no prefix overlap at all, pool usage matches the per-sequence
  regime's accounting block for block.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import get_model
from repro.models.memory import kv_cache_bytes_per_token_per_layer
from repro.runtime.kv_cache import KVCacheManager
from repro.runtime.memory_manager import MemoryPool

MODEL = get_model("tiny-moe")
BLOCK_TOKENS = 8
BLOCK_BYTES = (
    BLOCK_TOKENS * kv_cache_bytes_per_token_per_layer(MODEL) * MODEL.num_layers
)
CAPACITY_BLOCKS = 48

#: One op: (prefix_family, prefix_blocks, total_blocks). Sequences of the
#: same family share their leading tokens, so prefix_blocks of overlap is
#: available for reuse whenever an earlier family member is resident.
OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=24,
)


def make_manager() -> KVCacheManager:
    pool = MemoryPool("cpu", CAPACITY_BLOCKS * BLOCK_BYTES, BLOCK_BYTES)
    return KVCacheManager(
        MODEL, pool, block_tokens=BLOCK_TOKENS, prefix_cache=True
    )


def family_tokens(family: int, num_tokens: int) -> tuple[int, ...]:
    base = family * 1_000_000
    return tuple(base + i for i in range(num_tokens))


def check_invariants(manager: KVCacheManager) -> None:
    store = manager.block_store
    # Refcounts are never negative, and every live sequence's blocks reside.
    for block in store.resident_blocks():
        assert block.ref_count >= 0
    for cache in manager.sequences.values():
        for block_id in cache.block_table.block_ids:
            assert block_id in store
            assert store.block(block_id).ref_count >= 1
    # Unique-block byte accounting matches the pool exactly.
    cpu_resident, _ = store.bytes_in_use()
    assert cpu_resident == manager.cpu_pool.used_bytes
    # No sequence double-counts a sharer: summing per-sequence would
    # overcount, summing unique blocks must not.
    unique_blocks = {
        block_id
        for cache in manager.sequences.values()
        for block_id in cache.block_table.block_ids
    }
    # Private runs are never shared: each live one adds its own blocks.
    private_blocks = sum(
        cache.block_table.private_blocks for cache in manager.sequences.values()
    )
    assert store.num_private_blocks == private_blocks
    live_cpu, _ = store.bytes_in_use(live_only=True)
    assert live_cpu == sum(
        store.block(block_id).cpu_bytes for block_id in unique_blocks
    ) + private_blocks * BLOCK_BYTES


@given(ops=OPS, data=st.data())
@settings(max_examples=60, deadline=None)
def test_store_invariants_hold_under_random_interleavings(ops, data):
    manager = make_manager()
    live: list[int] = []
    for seq_id, (family, prefix_blocks, extra_blocks) in enumerate(ops):
        total_tokens = (prefix_blocks + extra_blocks) * BLOCK_TOKENS
        # The prefix is shared within the family; the tail is unique.
        tokens = family_tokens(family, prefix_blocks * BLOCK_TOKENS) + tuple(
            10_000_000 + seq_id * 1000 + i for i in range(extra_blocks * BLOCK_TOKENS)
        )
        if manager.can_admit(total_tokens, 0, token_ids=tokens):
            manager.register_sequence(seq_id, total_tokens, token_ids=tokens)
            live.append(seq_id)
        check_invariants(manager)
        # Randomly retire one live sequence.
        if live and data.draw(st.booleans()):
            victim = live.pop(data.draw(st.integers(0, len(live) - 1)))
            manager.release_sequence(victim)
            check_invariants(manager)
    for seq_id in live:
        manager.release_sequence(seq_id)
    check_invariants(manager)
    assert manager.total_tokens == 0


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=12)
)
@settings(max_examples=40, deadline=None)
def test_zero_overlap_matches_per_sequence_accounting(sizes):
    """Disjoint prompts: shared-store pool usage == per-sequence pool usage."""
    shared = make_manager()
    plain = KVCacheManager(
        MODEL,
        MemoryPool("cpu", CAPACITY_BLOCKS * BLOCK_BYTES, BLOCK_BYTES),
        block_tokens=BLOCK_TOKENS,
    )
    for seq_id, num_tokens in enumerate(sizes):
        tokens = tuple(seq_id * 1_000_000 + i for i in range(num_tokens))
        if not (
            shared.can_admit(num_tokens, 0, token_ids=tokens)
            and plain.can_admit(num_tokens, 0)
        ):
            continue
        shared.register_sequence(seq_id, num_tokens, token_ids=tokens)
        plain.register_sequence(seq_id, num_tokens)
        assert shared.cpu_pool.used_pages == plain.cpu_pool.used_pages
        assert shared.cpu_bytes == plain.cpu_bytes
    # Releases converge too: live bytes drop to zero in both regimes.
    shared.release_all()
    plain.release_all()
    assert shared.cpu_bytes == plain.cpu_bytes == 0.0

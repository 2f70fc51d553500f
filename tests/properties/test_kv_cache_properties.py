"""Cache-off KV accounting against a per-sequence reference.

With the prefix cache off every sequence is one private run in the block
store.  Driven through random register / append / release streams at
``r_c = 0``, the manager's admission verdicts, rejections, headroom and
live bytes must equal those of a plain per-sequence model that charges
each sequence ``ceil(tokens / block_tokens)`` whole-block pages.

Run the long slice with ``--hypothesis-profile=long``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import get_model
from repro.models.memory import kv_cache_bytes_per_token_per_layer
from repro.runtime.kv_cache import KVCacheManager
from repro.runtime.memory_manager import MemoryPool
from repro.utils.errors import MemoryManagerError

MODEL = get_model("tiny-moe")
BLOCK_TOKENS = 8
BLOCK_BYTES = (
    BLOCK_TOKENS * kv_cache_bytes_per_token_per_layer(MODEL) * MODEL.num_layers
)
CAPACITY_BLOCKS = 24

#: ``(op, a, b)``: register ``a`` prompt + ``b`` generation tokens; append
#: ``b`` tokens to live sequence ``a`` (modulo the live count); release
#: live sequence ``a``.
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("register"),
            st.integers(1, 6 * BLOCK_TOKENS),
            st.integers(0, 3 * BLOCK_TOKENS),
        ),
        st.tuples(st.just("append"), st.integers(0, 99), st.integers(1, 3 * BLOCK_TOKENS)),
        st.tuples(st.just("release"), st.integers(0, 99), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)


def pages(tokens: int) -> int:
    return -(-tokens // BLOCK_TOKENS)


@given(ops=OPS)
@settings(max_examples=60, deadline=None)
def test_cache_off_matches_per_sequence_reference(ops):
    pool = MemoryPool("cpu", CAPACITY_BLOCKS * BLOCK_BYTES, BLOCK_BYTES)
    manager = KVCacheManager(MODEL, pool, block_tokens=BLOCK_TOKENS)
    #: The reference: live sequence id -> tokens held.
    live: dict[int, int] = {}

    def free_pages() -> int:
        return CAPACITY_BLOCKS - sum(pages(tokens) for tokens in live.values())

    for next_id, (op, a, b) in enumerate(ops):
        if op == "register":
            fits = pages(a + b) <= free_pages()
            assert manager.can_admit(a, b) == fits
            if fits:
                manager.register_sequence(next_id, a + b)
                live[next_id] = a + b
            else:
                with pytest.raises(MemoryManagerError):
                    manager.register_sequence(next_id, a + b)
                assert next_id not in manager.sequences
        elif live:
            sequence_id = sorted(live)[a % len(live)]
            if op == "release":
                manager.release_sequence(sequence_id)
                del live[sequence_id]
            elif pages(live[sequence_id] + b) - pages(live[sequence_id]) <= free_pages():
                manager.append_tokens(sequence_id, b)
                live[sequence_id] += b
            else:
                with pytest.raises(MemoryManagerError):
                    manager.append_tokens(sequence_id, b)
        used = CAPACITY_BLOCKS - free_pages()
        assert pool.used_pages == used
        assert manager.headroom_tokens() == free_pages() * BLOCK_TOKENS
        assert manager.cpu_bytes == used * BLOCK_BYTES
        assert manager.gpu_bytes == 0.0
        assert manager.total_tokens == sum(live.values())
    manager.release_all()
    assert pool.used_pages == 0

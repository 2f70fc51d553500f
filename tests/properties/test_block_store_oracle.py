"""The segment block store against the frozen per-block store.

:class:`~repro.runtime.block_store.SharedBlockStore` holds hashed blocks as
refcounted segments; the store it replaced, one slot per block, is frozen
in :mod:`tests.frozen_block_store`.  Both are driven with the same random
streams of operations, and after every operation they must agree with
``==`` on everything observable (:mod:`tests.block_store_view`):

* the outcome of the operation (accepted or refused, cached tokens);
* every live table: its hashed blocks as hashes, its private run and fill;
* every resident block's refcount, cache flag and touch time;
* the content-index keys, the order eviction would take the cache in, and
  the order hashes left the index during the operation;
* the block counts, ``evictions``, ``ttl_evictions``, ``crash_drops`` and
  the pool pages;
* the match depth of every prompt family's chain.

Streams register prompt chains with a full, partial or empty prefix match
(an unmatched resident prefix collides), reserve past the pools so the
registration is refused or exactly at the edge of what fits once the match
is pinned (and one block past it), extend tables, release them in any order, expire
idle cache and drop it all.  Small pools make eviction constant, so chains
lose their heads and later registrations collide with the orphaned tails.
Chains are real chained hashes of token prompts that share prefixes, as
the segment store requires.

Run the long slice with ``--hypothesis-profile=long``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.block_store import (
    BlockTable,
    PrefixMatch,
    SharedBlockStore,
    chain_block_hashes,
)
from repro.runtime.memory_manager import MemoryPool
from repro.utils.errors import KVCapacityError
from tests import frozen_block_store as frozen
from tests.block_store_view import lru_order, match_depth, store_state, table_view

BLOCK_TOKENS = 2
BLOCK_BYTES = 1024.0
#: Prompt families as token tuples (8 blocks each).  Family 1 shares
#: family 0's first two blocks and family 2 its first five; family 3
#: shares family 1's first three; family 4 shares nothing.
TRUNK = tuple(range(16))
FAMILY_TOKENS = (
    TRUNK,
    TRUNK[:4] + tuple(range(100, 112)),
    TRUNK[:10] + tuple(range(200, 206)),
    TRUNK[:4] + tuple(range(100, 102)) + tuple(range(300, 310)),
    tuple(range(400, 416)),
)
CHAINS = [chain_block_hashes(tokens, BLOCK_TOKENS) for tokens in FAMILY_TOKENS]
DEPTH = len(CHAINS[0])

#: ``("register", family, blocks, extra, matched)``: the prompt is the
#: family's first ``blocks`` blocks, the reservation ``extra`` tokens
#: more; ``matched`` caps the prefix match in blocks (``None`` matches as
#: far as it goes, 0 passes no match).
REGISTER = st.tuples(
    st.just("register"),
    st.integers(0, len(CHAINS) - 1),
    st.integers(0, DEPTH),
    st.integers(0, 3 * BLOCK_TOKENS),
    st.one_of(st.none(), st.none(), st.integers(0, DEPTH)),
)
OPS = st.lists(
    st.one_of(
        REGISTER,
        REGISTER,
        REGISTER,
        st.tuples(st.just("refused"), st.integers(0, len(CHAINS) - 1), st.integers(1, DEPTH)),
        st.tuples(
            st.just("tight"),
            st.integers(0, len(CHAINS) - 1),
            st.integers(1, DEPTH),
            st.integers(0, 1),
        ),
        st.tuples(st.just("extend"), st.integers(0, 99), st.integers(1, 2 * BLOCK_TOKENS + 1)),
        st.tuples(st.just("release"), st.integers(0, 99), st.sampled_from([0.0, 1.0, 2.5])),
        st.tuples(st.just("release"), st.integers(0, 99), st.sampled_from([0.0, 1.0, 2.5])),
        st.tuples(st.just("expire"), st.sampled_from([0.0, 1.0, 4.0]), st.sampled_from([1.0, 3.0])),
        st.tuples(st.just("drop")),
    ),
    min_size=10,
    max_size=60,
)


def make_stores(blocks: int, two_pools: bool):
    """The segment store and the frozen store over identical fresh pools."""
    stores = []
    for cls in (SharedBlockStore, frozen.SharedBlockStore):
        if two_pools:
            half = BLOCK_BYTES / 2
            stores.append(
                cls(
                    cpu_pool=MemoryPool("cpu", (blocks + 2) * half, half),
                    block_bytes=BLOCK_BYTES,
                    block_tokens=BLOCK_TOKENS,
                    gpu_pool=MemoryPool("gpu", blocks * half, half),
                    gpu_ratio=0.5,
                )
            )
        else:
            stores.append(
                cls(
                    cpu_pool=MemoryPool("cpu", blocks * BLOCK_BYTES, BLOCK_BYTES),
                    block_bytes=BLOCK_BYTES,
                    block_tokens=BLOCK_TOKENS,
                )
            )
    return stores


def register(store, table, chain, num_tokens, matchable, capped):
    """Match ``chain`` (capped at ``capped`` blocks) and register it."""
    if capped == 0:
        matched = PrefixMatch() if isinstance(store, SharedBlockStore) else []
    else:
        limit = matchable if capped is None else min(matchable, capped * BLOCK_TOKENS)
        matched = store.match_prefix_hashes(chain, min(limit, num_tokens))
    try:
        return store.register_chain(matched, num_tokens, chain, table)
    except KVCapacityError:
        return "refused"


class Pair:
    """The two stores and their live tables, in registration order."""

    def __init__(self, blocks: int, two_pools: bool) -> None:
        self.ours, self.theirs = make_stores(blocks, two_pools)
        self.tables: list[tuple[BlockTable, frozen.BlockTable]] = []
        self.lru = self.lru_orders()

    def lru_orders(self) -> tuple[list[int], list[int]]:
        return lru_order(self.ours), lru_order(self.theirs)

    def apply(self, op) -> None:
        kind = op[0]
        ours, theirs = self.ours, self.theirs
        if kind in ("register", "refused", "tight"):
            family, blocks = op[1], op[2]
            prompt = blocks * BLOCK_TOKENS
            capped = None
            if kind == "register":
                extra, capped = op[3], op[4]
                num_tokens = prompt + extra
            elif kind == "refused":
                num_tokens = 10**6  # more than either pool could ever hold
            else:
                # Every fresh block the pools could take once the match is
                # pinned (its cached blocks are no longer evictable), plus
                # ``op[3]`` more.
                matched = ours.match_prefix_hashes(CHAINS[family][:blocks], prompt - 1)
                fits = ours.allocatable_blocks() - matched.cached
                num_tokens = (matched.blocks + fits + op[3]) * BLOCK_TOKENS
            if num_tokens == 0:
                return
            chain = CHAINS[family][:blocks]
            tables = (BlockTable(), frozen.BlockTable())
            outcomes = [
                register(store, table, chain, num_tokens, prompt - 1, capped)
                for store, table in zip((ours, theirs), tables)
            ]
            assert outcomes[0] == outcomes[1]
            if kind == "refused" or op[-1] == 1 and kind == "tight":
                assert outcomes[0] == "refused"
            elif kind == "tight":
                assert outcomes[0] != "refused"
            if outcomes[0] == "refused":
                assert tables[0] == BlockTable()
            else:
                self.tables.append(tables)
        elif kind == "extend" and self.tables:
            pair = self.tables[op[1] % len(self.tables)]
            outcomes = []
            for store, table in zip((ours, theirs), pair):
                try:
                    store.extend_table(table, op[2])
                    outcomes.append(True)
                except KVCapacityError:
                    outcomes.append(False)
            assert outcomes[0] == outcomes[1]
        elif kind == "release" and self.tables:
            pair = self.tables.pop(op[1] % len(self.tables))
            for store, table in zip((ours, theirs), pair):
                store.clock_time += op[2]
                store.release_table(table)
        elif kind == "expire":
            for store in (ours, theirs):
                store.clock_time += op[1]
            assert ours.expire_idle(ours.clock_time - op[2]) == theirs.expire_idle(
                theirs.clock_time - op[2]
            )
        elif kind == "drop":
            assert ours.drop_all_cached() == theirs.drop_all_cached()
        self.check()

    def check(self) -> None:
        ours, theirs = self.ours, self.theirs
        # The hashes that left the index, in the order they left: eviction
        # only ever takes cached blocks, oldest first.
        left = []
        for store, order in zip((ours, theirs), self.lru):
            index = store.prefix_index
            left.append([block_hash for block_hash in order if block_hash not in index])
        assert left[0] == left[1]
        assert store_state(ours) == store_state(theirs)
        self.lru = self.lru_orders()
        for table, frozen_table in self.tables:
            assert table_view(ours, table) == table_view(theirs, frozen_table)
        for chain in CHAINS:
            unlimited = (len(chain) + 1) * BLOCK_TOKENS
            assert match_depth(ours, chain, unlimited) == match_depth(
                theirs, chain, unlimited
            )


@given(ops=OPS, blocks=st.integers(2, 20), two_pools=st.booleans())
@settings(deadline=None)
def test_segment_store_matches_frozen_per_block_store(ops, blocks, two_pools):
    pair = Pair(blocks, two_pools)
    for op in ops:
        pair.apply(op)


#: Hand-built streams, with their pool size in blocks, that each hit the
#: case they name.
SCENARIOS = {
    # Family 0's head is evicted and its tail stays cached.  Registering
    # family 0 again places a fresh head on the last free page, then its
    # second block collides with the orphaned tail, which leaves only when
    # the private block after it needs the page.
    "orphan-tail-collision": (
        8,
        [
            ("register", 0, 2, 0, None),
            ("release", 0, 1.0),
            ("register", 4, 5, 4, None),
            ("release", 0, 1.0),
            ("register", 0, 2, 2, None),
        ],
    ),
    # Family 2 matches five blocks of family 0's cached segment, splitting
    # it: the cached tail keeps its place in LRU order and is evicted, head
    # first, before the younger family 4 blocks.
    "split-cached-segment": (
        12,
        [
            ("register", 0, 8, 0, None),
            ("release", 0, 1.0),
            ("register", 4, 2, 0, None),
            ("release", 0, 1.0),
            ("register", 2, 8, 0, None),
            ("register", 3, 4, 2, None),
            ("expire", 1.0, 1.5),
        ],
    ),
    # Family 0 registers again with no match while its whole chain is
    # cached and the pool is full: each position evicts the LRU head, which
    # is the incumbent of its own hash, just before its check, so every
    # block is placed afresh.
    "victims-leave-at-their-turn": (
        8,
        [
            ("register", 0, 8, 0, None),
            ("release", 0, 1.0),
            ("register", 0, 8, 0, 0),
        ],
    ),
    # A refused reservation whose prompt matches cached blocks, after the
    # clock moved: the match keeps its touch times and place.
    "refused-keeps-match": (
        12,
        [
            ("register", 1, 8, 0, None),
            ("release", 0, 1.0),
            ("register", 4, 3, 0, None),
            ("release", 0, 2.5),
            ("refused", 1, 8),
            ("expire", 0.0, 3.0),
            ("register", 0, 8, 4, None),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_match_frozen_store(name):
    blocks, ops = SCENARIOS[name]
    pair = Pair(blocks, two_pools=False)
    for op in ops:
        pair.apply(op)

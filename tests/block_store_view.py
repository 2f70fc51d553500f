"""The observable state of a block store, for comparing implementations.

Everything here goes through the store's public surface (``resident_blocks``,
``prefix_index`` membership, ``match_prefix_hashes``, the counters and the
pools), so two stores built differently inside — the segment store and the
frozen per-block store in :mod:`tests.frozen_block_store` — can be compared
with ``==``:

* :func:`resident` — every resident hashed block as ``hash -> (refcount,
  cached, touch time)``; the touch time counts only for cached blocks (a
  block never cached has none to speak of);
* :func:`lru_order` — the order the cached blocks would be evicted in,
  found by evicting them one at a time from a deep copy;
* :func:`table_view` — a table's hashed blocks (as hashes, in order), its
  private run and its tail fill;
* :func:`store_state` — all of the above plus the index keys, the counters
  and the pool pages.
"""

from __future__ import annotations

import copy
from typing import Sequence

from repro.runtime.block_store import BlockTable, PrefixMatch


def resident(store) -> dict[int, tuple]:
    return {
        block.block_hash: (
            block.ref_count,
            block.cached,
            block.last_touch_time if block.cached else None,
        )
        for block in store.resident_blocks()
    }


def lru_order(store) -> list[int]:
    """Cached block hashes in eviction order, oldest first.

    A deep copy fills its free pages with one private run, then grows the
    run one block at a time: each block evicts exactly one LRU block, and
    the hash that leaves the index names it.
    """
    probe = copy.deepcopy(store)
    table = BlockTable()
    free = probe.allocatable_blocks() - probe.num_cached_blocks
    if free:
        probe.extend_table(table, free * probe.block_tokens)
    order = []
    keys = set(probe.prefix_index)
    for _ in range(probe.num_cached_blocks):
        probe.extend_table(table, probe.block_tokens)
        now = set(probe.prefix_index)
        (gone,) = keys - now
        order.append(gone)
        keys = now
    return order


def table_view(store, table) -> tuple:
    hashes = [store.block(block_id).block_hash for block_id in table.block_ids]
    return hashes, table.private_blocks, table.tail_tokens


def match_depth(store, chain: Sequence[int], matchable_tokens: int) -> int:
    """Blocks of ``chain`` the store matches (either store's match type)."""
    matched = store.match_prefix_hashes(chain, matchable_tokens)
    return matched.blocks if isinstance(matched, PrefixMatch) else len(matched)


def pages(store) -> list[tuple[int, int]]:
    return [
        (pool.free_pages, pool.used_pages)
        for pool in (store.cpu_pool, store.gpu_pool)
        if pool is not None
    ]


def store_state(store) -> tuple:
    """Everything observable about a store, as comparable values."""
    return (
        resident(store),
        sorted(store.prefix_index),
        lru_order(store),
        store.num_blocks,
        store.num_cached_blocks,
        store.num_private_blocks,
        store.evictions,
        store.ttl_evictions,
        store.crash_drops,
        pages(store),
    )

"""Tests for the paged memory pools and page tables."""

import pytest

from repro.runtime.memory_manager import MemoryPool, PageTable
from repro.utils.errors import MemoryManagerError


def test_pool_page_count_and_capacity():
    pool = MemoryPool(name="gpu", capacity_bytes=1000, page_bytes=100)
    assert pool.num_pages == 10
    assert pool.capacity_bytes == 1000
    assert pool.free_pages == 10


def test_pool_rejects_capacity_smaller_than_a_page():
    with pytest.raises(MemoryManagerError):
        MemoryPool(name="p", capacity_bytes=50, page_bytes=100)


def test_allocate_rounds_up_to_pages():
    pool = MemoryPool(name="p", capacity_bytes=1000, page_bytes=100)
    allocation = pool.allocate(250)
    assert allocation.num_pages == 3
    assert pool.used_pages == 3
    assert pool.used_bytes == 300
    assert 0.0 < pool.utilization < 1.0


def test_allocation_and_free_round_trip():
    pool = MemoryPool(name="p", capacity_bytes=1000, page_bytes=100)
    allocation = pool.allocate(500)
    pool.free(allocation)
    assert pool.free_pages == 10
    with pytest.raises(MemoryManagerError):
        pool.free(allocation)  # double free


def test_out_of_memory_raises():
    pool = MemoryPool(name="p", capacity_bytes=300, page_bytes=100)
    pool.allocate(300)
    assert not pool.can_allocate(100)
    with pytest.raises(MemoryManagerError):
        pool.allocate(1)


def test_pages_are_reused_after_free():
    pool = MemoryPool(name="p", capacity_bytes=200, page_bytes=100)
    first = pool.allocate(200)
    pool.free(first)
    second = pool.allocate(200)
    assert set(second.pages) == set(first.pages)


def test_free_foreign_allocation_rejected():
    a = MemoryPool(name="a", capacity_bytes=200, page_bytes=100)
    b = MemoryPool(name="b", capacity_bytes=200, page_bytes=100)
    allocation = a.allocate(100)
    with pytest.raises(MemoryManagerError):
        b.free(allocation)


def test_reset_clears_all_allocations():
    pool = MemoryPool(name="p", capacity_bytes=400, page_bytes=100)
    pool.allocate(400)
    pool.reset()
    assert pool.free_pages == 4


def test_lazy_free_list_keeps_page_order_errors_and_reset():
    """The free list is built on first use, with the eager list's order:
    pages go out lowest first and freed pages are reused last-in first-out;
    double frees still raise, before and after the first allocation."""
    pool = MemoryPool(name="p", capacity_bytes=600, page_bytes=100)
    assert pool._free is None
    pool.reserve(2)
    assert pool._free is None
    assert pool.free_pages == 4
    first = pool.allocate(200)
    second = pool.allocate(100)
    assert (first.pages, second.pages) == ((0, 1), (2,))
    pool.free(first)
    assert pool.allocate(100).pages == (1,)
    assert pool.free_pages == 2
    with pytest.raises(MemoryManagerError, match="double free"):
        pool.free(first)
    pool.reset()
    assert pool._free is None
    assert pool.free_pages == 6
    with pytest.raises(MemoryManagerError, match="double free"):
        pool.free(second)
    assert pool.allocate(300).pages == (0, 1, 2)


def test_zero_byte_allocation_uses_no_pages():
    pool = MemoryPool(name="p", capacity_bytes=400, page_bytes=100)
    allocation = pool.allocate(0)
    assert allocation.num_pages == 0
    assert pool.used_pages == 0


def test_reserve_counts_pages_without_indices():
    pool = MemoryPool(name="p", capacity_bytes=1000, page_bytes=100)
    pool.reserve(3)
    allocation = pool.allocate(200)
    assert pool.used_pages == 5
    assert pool.free_pages == 5
    assert pool.used_bytes == 500
    assert pool.utilization == 0.5
    assert not pool.can_allocate(600)
    pool.unreserve(3)
    pool.free(allocation)
    assert pool.free_pages == 10


def test_over_reserve_and_over_release_raise():
    pool = MemoryPool(name="p", capacity_bytes=300, page_bytes=100)
    pool.allocate(100)
    with pytest.raises(MemoryManagerError):
        pool.reserve(3)
    pool.reserve(2)
    with pytest.raises(MemoryManagerError):
        pool.allocate(1)
    with pytest.raises(MemoryManagerError):
        pool.unreserve(3)  # only 2 reserved; the allocation is not a reservation
    assert pool.used_pages == 3


def test_page_table_map_lookup_unmap():
    pool = MemoryPool(name="p", capacity_bytes=400, page_bytes=100)
    table = PageTable()
    allocation = pool.allocate(200)
    table.map(("expert", 3), allocation)
    assert ("expert", 3) in table
    assert table.lookup(("expert", 3)) == allocation.pages
    table.unmap(("expert", 3))
    assert ("expert", 3) not in table
    with pytest.raises(MemoryManagerError):
        table.lookup(("expert", 3))


def test_used_pages_tracks_allocations_plus_reservations():
    pool = MemoryPool(name="p", capacity_bytes=2000, page_bytes=100)
    allocations = []
    reserved = 0
    for step in range(12):
        if step % 3 == 0:
            allocations.append(pool.allocate(100 * (1 + step % 4)))
        elif step % 3 == 1:
            pool.reserve(1)
            reserved += 1
        elif step % 4 == 2:
            pool.free(allocations.pop(0))
        else:
            pool.unreserve(1)
            reserved -= 1
        allocated = sum(a.num_pages for a in allocations)
        assert pool.used_pages == allocated + reserved
        assert pool.free_pages == pool.num_pages - allocated - reserved
    with pytest.raises(AttributeError):
        pool.free_pages = 0

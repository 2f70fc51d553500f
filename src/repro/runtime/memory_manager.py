"""Paged memory pools and page tables (paper Appendix A.1).

MoE-Lightning stores streamed weights and the KV cache in fixed-size pages:
kernels address them through a page table (Fig. 11), transfers move whole
pages, and the allocator never needs to find large contiguous regions.  This
module provides a deliberately simple but fully functional paged allocator
that the weight manager, the KV cache and the functional engine share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.errors import MemoryManagerError
from repro.utils.validation import require_positive


@dataclass(frozen=True, slots=True)
class PagedAllocation:
    """A set of pages handed out by a :class:`MemoryPool`."""

    pool_name: str
    pages: tuple[int, ...]
    page_bytes: float

    @property
    def num_pages(self) -> int:
        """Number of pages in the allocation."""
        return len(self.pages)

    @property
    def total_bytes(self) -> float:
        """Capacity of the allocation in bytes."""
        return self.num_pages * self.page_bytes


class MemoryPool:
    """A fixed-capacity pool of equally sized pages.

    Models one physical memory (GPU HBM, CPU DRAM or the pinned staging
    area).  Allocation returns page indices; freeing returns them to the
    free list.  Double frees and foreign pages raise
    :class:`MemoryManagerError`.  Callers that never address individual
    pages (the shared KV block store) charge bare counts through
    :meth:`reserve` / :meth:`unreserve` instead.
    """

    def __init__(self, name: str, capacity_bytes: float, page_bytes: float) -> None:
        require_positive("capacity_bytes", capacity_bytes)
        require_positive("page_bytes", page_bytes)
        self.name = name
        self.page_bytes = float(page_bytes)
        self.num_pages = int(capacity_bytes // page_bytes)
        if self.num_pages <= 0:
            raise MemoryManagerError(
                f"pool {name!r}: capacity {capacity_bytes} is smaller than one "
                f"page of {page_bytes} bytes"
            )
        self._free: list[int] = list(range(self.num_pages - 1, -1, -1))
        self._allocated: set[int] = set()
        #: Pages charged by count, without page indices.
        self._reserved = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> float:
        """Total pool capacity in bytes."""
        return self.num_pages * self.page_bytes

    @property
    def free_pages(self) -> int:
        """Number of pages neither allocated nor reserved."""
        return len(self._free) - self._reserved

    @property
    def used_pages(self) -> int:
        """Number of pages currently allocated or reserved."""
        return self.num_pages - self.free_pages

    @property
    def used_bytes(self) -> float:
        """Bytes currently allocated."""
        return self.used_pages * self.page_bytes

    @property
    def utilization(self) -> float:
        """Fraction of the pool currently allocated."""
        return self.used_pages / self.num_pages

    def pages_needed(self, num_bytes: float) -> int:
        """Pages required to hold ``num_bytes``."""
        if num_bytes <= 0:
            return 0
        return int(-(-num_bytes // self.page_bytes))

    def can_allocate(self, num_bytes: float) -> bool:
        """Whether an allocation of ``num_bytes`` would currently succeed."""
        return self.pages_needed(num_bytes) <= self.free_pages

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, num_bytes: float) -> PagedAllocation:
        """Allocate enough pages for ``num_bytes``.

        Raises :class:`MemoryManagerError` when the pool cannot satisfy the
        request — the paged design means fragmentation can never be the
        reason, only true capacity exhaustion.
        """
        needed = self.pages_needed(num_bytes)
        if needed > self.free_pages:
            raise MemoryManagerError(
                f"pool {self.name!r}: requested {needed} pages "
                f"({num_bytes / 1e6:.1f} MB) but only {self.free_pages} free"
            )
        # One slice instead of ``needed`` pops — same pages in the same
        # (reverse-of-free-list) order, without the per-page call overhead.
        free = self._free
        start = len(free) - needed
        pages = tuple(reversed(free[start:]))
        del free[start:]
        self._allocated.update(pages)
        return PagedAllocation(pool_name=self.name, pages=pages, page_bytes=self.page_bytes)

    def reserve(self, num_pages: int) -> None:
        """Charge ``num_pages`` pages by count, without handing out indices.

        For callers whose pages are pure bookkeeping: every unit they hold
        costs the same page count, so a counter replaces page tuples.
        """
        if num_pages > self.free_pages:
            raise MemoryManagerError(
                f"pool {self.name!r}: requested {num_pages} pages "
                f"but only {self.free_pages} free"
            )
        self._reserved += num_pages

    def unreserve(self, num_pages: int) -> None:
        """Return ``num_pages`` pages charged through :meth:`reserve`."""
        if num_pages > self._reserved:
            raise MemoryManagerError(
                f"pool {self.name!r}: releasing {num_pages} reserved pages "
                f"but only {self._reserved} are reserved"
            )
        self._reserved -= num_pages

    def free(self, allocation: PagedAllocation) -> None:
        """Return an allocation's pages to the pool."""
        if allocation.pool_name != self.name:
            raise MemoryManagerError(
                f"allocation belongs to pool {allocation.pool_name!r}, "
                f"not {self.name!r}"
            )
        for page in allocation.pages:
            if page not in self._allocated:
                raise MemoryManagerError(
                    f"pool {self.name!r}: double free of page {page}"
                )
            self._allocated.remove(page)
            self._free.append(page)

    def reset(self) -> None:
        """Free every allocation (used between batches)."""
        self._allocated.clear()
        self._reserved = 0
        self._free = list(range(self.num_pages - 1, -1, -1))


@dataclass
class PageTable:
    """Maps logical keys (e.g. expert index, sequence block) to physical pages.

    This is the structure the MoE FFN kernel reads in Fig. 11: "each expert
    ... requires two pages, and the kernel accesses the appropriate pages
    using a page table".
    """

    entries: dict[object, tuple[int, ...]] = field(default_factory=dict)

    def map(self, key: object, allocation: PagedAllocation) -> None:
        """Bind ``key`` to the pages of ``allocation``."""
        self.entries[key] = allocation.pages

    def lookup(self, key: object) -> tuple[int, ...]:
        """Physical pages bound to ``key``."""
        if key not in self.entries:
            raise MemoryManagerError(f"page table has no entry for {key!r}")
        return self.entries[key]

    def unmap(self, key: object) -> None:
        """Remove the binding for ``key``."""
        self.entries.pop(key, None)

    def __contains__(self, key: object) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)

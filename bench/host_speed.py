"""How fast the host runs right now, from a fixed pure-Python kernel.

On a shared host, other tenants slow every process for seconds to
minutes at a time, by up to 1.8x.  The benchmark times this kernel next
to every set-up and pass and scales their wall times to a host that runs
the kernel in ``REFERENCE_S``: a slow spell stretches the kernel and the
pass alike, and cancels.  The kernel calls nothing in the simulator, so
a change to the simulator moves only the pass.
"""

from __future__ import annotations

import array
import heapq
import time

#: Kernel seconds on the calibration host (a 2-vCPU x86-64 VM, Python
#: 3.11) when no other tenant slows it.
REFERENCE_S = 0.021

_ITERATIONS = 20_000
_REPEATS = 3


class HostSpeed:
    """Times the kernel: interpreter dispatch, a dict, a heap, array reads."""

    def __init__(self) -> None:
        self._values = array.array("d", (i * 0.618034 % 1.0 for i in range(1 << 17)))

    def kernel_s(self) -> float:
        """The fastest of ``_REPEATS`` timings of the kernel."""
        values = self._values
        size = len(values)
        best = float("inf")
        for _ in range(_REPEATS):
            start = time.perf_counter()
            heap: list[tuple[float, int]] = []
            table: dict[int, float] = {}
            index = 7
            for step in range(_ITERATIONS):
                index = (index * 1103515245 + 12345) % size
                value = values[index]
                table[index & 8191] = value
                heapq.heappush(heap, (value, step))
                if len(heap) > 4096:
                    heapq.heappop(heap)
            best = min(best, time.perf_counter() - start)
        return best

    def scale(self) -> float:
        """Factor from this moment's wall seconds to the reference host's."""
        return REFERENCE_S / self.kernel_s()

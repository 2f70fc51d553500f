"""Streaming metric primitives: counters, gauges and P² histograms.

Exact reports recompute percentiles from every stored latency sample
(``numpy.percentile`` over a list); million-request streams cannot afford
one Python object per latency.  This module provides the streaming
alternative:

* :class:`P2Quantile` — the P² algorithm of Jain & Chlamtáč (CACM 1985):
  one quantile estimated from five markers updated in O(1) per
  observation, no samples stored;
* :class:`StreamingHistogram` — count/sum/min/max plus one
  :class:`P2Quantile` per requested quantile (p50/p95/p99 by default);
* :class:`MetricRegistry` — a flat name-keyed registry of counters,
  gauges and histograms with a JSON-able :meth:`~MetricRegistry.snapshot`.

Everything here is deterministic: the same observation stream produces the
same estimates, so telemetry-enabled runs are as reproducible as the
simulator itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.utils.errors import ConfigurationError

#: Quantiles a histogram tracks unless told otherwise (the report trio).
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


class P2Quantile:
    """One streaming quantile via the P² algorithm (no samples stored).

    Five markers track the running minimum, the target quantile, the
    quantile's half-way neighbours and the running maximum; each
    observation shifts marker positions and adjusts heights with a
    piecewise-parabolic (falling back to linear) interpolation.  Until
    five observations arrive the estimate is the exact interpolated
    percentile of the buffered values, so small streams stay exact.

    There is one update, :meth:`add_many`: a fold over the batch with the
    marker state in locals.  :meth:`add` is a one-value batch, and any
    chunking of a stream leaves bit-identical state.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ConfigurationError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def add(self, value: float) -> None:
        """Fold one observation into the estimate (O(1))."""
        self.add_many((value,))

    def add_many(self, values: Iterable[float]) -> None:
        """Fold a batch of observations, in order (O(1) memory)."""
        heights = self._heights
        if self.count < 5:
            values = iter(values)
            # Exact regime: plain append.  The buffer is only sorted when a
            # value is read (see :meth:`value`) and when the sixth value
            # arrives, so tiny streams pay no per-observation sort.
            for value in values:
                heights.append(float(value))
                self.count += 1
                if self.count == 5:
                    break
            else:
                return
        # The sketch update relies on the initial markers being in height
        # order; sorting a copy leaves a five-value buffer untouched when
        # no sixth value follows.
        h0, h1, h2, h3, h4 = sorted(heights) if self.count == 5 else heights
        n0, n1, n2, n3, n4 = self._positions
        _, d1, d2, d3, _ = self._desired
        _, i1, i2, i3, _ = self._increments
        start = n4
        try:
            for value in values:
                value = float(value)
                # Shift the positions of the markers above the value's cell
                # (``not h <= value`` puts a NaN in cell 0, as a left-to-right
                # cell search does).
                if value < h0:
                    h0 = value
                    n1 += 1.0
                    n2 += 1.0
                    n3 += 1.0
                elif value >= h4:
                    h4 = value
                elif not h1 <= value:
                    n1 += 1.0
                    n2 += 1.0
                    n3 += 1.0
                elif not h2 <= value:
                    n2 += 1.0
                    n3 += 1.0
                elif not h3 <= value:
                    n3 += 1.0
                n4 += 1.0
                d1 += i1
                d2 += i2
                d3 += i3
                # Move each inner marker one position towards its desired
                # one when it is off by a whole step and its neighbour is
                # not adjacent: the parabolic height, or the linear one
                # where the parabola leaves the neighbours' bracket.
                delta = d1 - n1
                if (delta >= 1.0 and n2 - n1 > 1.0) or (delta <= -1.0 and n0 - n1 < -1.0):
                    s = 1.0 if delta > 0.0 else -1.0
                    c = h1 + s / (n2 - n0) * (
                        (n1 - n0 + s) * (h2 - h1) / (n2 - n1)
                        + (n2 - n1 - s) * (h1 - h0) / (n1 - n0)
                    )
                    if not h0 < c < h2:
                        if s > 0.0:
                            c = h1 + s * (h2 - h1) / (n2 - n1)
                        else:
                            c = h1 + s * (h0 - h1) / (n0 - n1)
                    h1 = c
                    n1 += s
                delta = d2 - n2
                if (delta >= 1.0 and n3 - n2 > 1.0) or (delta <= -1.0 and n1 - n2 < -1.0):
                    s = 1.0 if delta > 0.0 else -1.0
                    c = h2 + s / (n3 - n1) * (
                        (n2 - n1 + s) * (h3 - h2) / (n3 - n2)
                        + (n3 - n2 - s) * (h2 - h1) / (n2 - n1)
                    )
                    if not h1 < c < h3:
                        if s > 0.0:
                            c = h2 + s * (h3 - h2) / (n3 - n2)
                        else:
                            c = h2 + s * (h1 - h2) / (n1 - n2)
                    h2 = c
                    n2 += s
                delta = d3 - n3
                if (delta >= 1.0 and n4 - n3 > 1.0) or (delta <= -1.0 and n2 - n3 < -1.0):
                    s = 1.0 if delta > 0.0 else -1.0
                    c = h3 + s / (n4 - n2) * (
                        (n3 - n2 + s) * (h4 - h3) / (n4 - n3)
                        + (n4 - n3 - s) * (h3 - h2) / (n3 - n2)
                    )
                    if not h2 < c < h4:
                        if s > 0.0:
                            c = h3 + s * (h4 - h3) / (n4 - n3)
                        else:
                            c = h3 + s * (h2 - h3) / (n2 - n3)
                    h3 = c
                    n3 += s
        finally:
            # Write back once per batch (also when a value fails float()),
            # by item stores: under tracemalloc every new object, even a
            # tuple or slice, pays a scan of this long function's line
            # table.  The maximum's position, like its desired position,
            # starts at 5.0 and gains 1.0 per value: both equal the count.
            if n4 != start:
                self.count = int(n4)
                heights[0] = h0
                heights[1] = h1
                heights[2] = h2
                heights[3] = h3
                heights[4] = h4
                positions = self._positions
                positions[1] = n1
                positions[2] = n2
                positions[3] = n3
                positions[4] = n4
                desired = self._desired
                desired[1] = d1
                desired[2] = d2
                desired[3] = d3
                desired[4] = n4

    def value(self) -> float:
        """The current quantile estimate (NaN before any observation)."""
        if self.count == 0:
            return math.nan
        if self.count <= 5:
            # Exact linear-interpolated percentile of the sorted buffer
            # (numpy's default method), so tiny streams report exactly.
            self._heights.sort()
            rank = self.q * (len(self._heights) - 1)
            low = int(rank)
            high = min(low + 1, len(self._heights) - 1)
            frac = rank - low
            return self._heights[low] * (1.0 - frac) + self._heights[high] * frac
        return self._heights[2]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ConfigurationError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class StreamingHistogram:
    """Count/sum/min/max plus P² sketches for a fixed set of quantiles."""

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        if not quantiles:
            raise ConfigurationError("histogram needs at least one quantile")
        self.quantiles = tuple(quantiles)
        self._sketches = {q: P2Quantile(q) for q in self.quantiles}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Fold one observation into every sketch."""
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold a batch of observations into the moments and every sketch.

        The sum accumulates left to right, so any chunking of a stream
        gives bit-identical statistics.
        """
        batch = [float(value) for value in values]
        if not batch:
            return
        self.count += len(batch)
        total = self.total
        for value in batch:
            total += value
        self.total = total
        low = min(batch)
        high = max(batch)
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        for sketch in self._sketches.values():
            sketch.add_many(batch)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (NaN when empty)."""
        if self.count == 0:
            return math.nan
        return self.total / self.count

    def quantile(self, q: float) -> float:
        """The tracked quantile estimate for ``q`` (must be tracked)."""
        if q not in self._sketches:
            tracked = ", ".join(str(t) for t in self.quantiles)
            raise ConfigurationError(f"quantile {q} not tracked (tracked: {tracked})")
        return self._sketches[q].value()

    def summary(self) -> dict[str, float]:
        """Flat dict of the histogram's headline statistics."""
        stats: dict[str, float] = {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
        }
        for q in self.quantiles:
            stats[f"p{q * 100:g}"] = self._sketches[q].value()
        return stats


@dataclass
class MetricRegistry:
    """Name-keyed counters, gauges and histograms for one run."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, StreamingHistogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self.counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self.gauges.setdefault(name, Gauge())

    def histogram(
        self, name: str, quantiles: Sequence[float] = DEFAULT_QUANTILES
    ) -> StreamingHistogram:
        """Get or create the histogram called ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = StreamingHistogram(quantiles)
            self.histograms[name] = histogram
        return histogram

    def snapshot(self) -> dict[str, object]:
        """JSON-able view of every metric's current value."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def names(self) -> Iterable[str]:
        """Every registered metric name, sorted."""
        return sorted([*self.counters, *self.gauges, *self.histograms])

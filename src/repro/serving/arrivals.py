"""Arrival processes: timestamped request streams for online serving.

The offline harness feeds each system one static, pre-formed batch; online
serving replaces that with a *stream* of requests arriving over simulated
wall-clock time.  An :class:`ArrivalProcess` wraps the prompt-length
samplers of :mod:`repro.workloads.generators` and attaches arrival
timestamps drawn from a point process:

* :class:`PoissonProcess` — memoryless arrivals (exponential gaps), the
  standard open-loop load model;
* :class:`GammaProcess` — gamma-distributed gaps whose coefficient of
  variation controls burstiness (cv > 1 is burstier than Poisson, cv < 1
  smoother);
* :class:`DeterministicProcess` — evenly spaced arrivals (cv = 0);
* :class:`ReplayProcess` — replays an explicit timestamp trace.

Every process is fully determined by its parameters plus the ``seed``
passed to :meth:`ArrivalProcess.generate`, so serving experiments are
reproducible run-to-run.  Request bodies and arrival gaps use independent
seeded streams: changing the arrival process never changes *which*
requests are issued, only *when*.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.utils.errors import ConfigurationError
from repro.utils.validation import require_positive, require_positive_int
from repro.workloads.generators import (
    STREAM_CHUNK,
    generate_request_columns,
    generate_requests,
)
from repro.workloads.request import Request
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class TimedRequest:
    """A request paired with the simulated wall-clock time it arrives at."""

    request: Request
    arrival_time: float

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ConfigurationError(
                f"arrival_time must be >= 0, got {self.arrival_time}"
            )


class ArrivalProcess(abc.ABC):
    """Base class: draws inter-arrival gaps for a request stream."""

    #: Registry / report name; subclasses override.
    name: str = "base"

    @abc.abstractmethod
    def arrival_times(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``count`` sorted, non-negative arrival timestamps."""

    def generate(
        self,
        spec: WorkloadSpec,
        count: int | None = None,
        seed: int = 0,
    ) -> list[TimedRequest]:
        """Materialise a timestamped request stream for ``spec``.

        Prompt lengths come from :func:`generate_requests` seeded with
        ``seed``; arrival gaps use an independent stream derived from the
        same seed, so two processes at the same seed issue identical
        requests on different timelines.
        """
        count = count if count is not None else spec.num_requests
        require_positive_int("count", count)
        requests = generate_requests(spec, count=count, seed=seed)
        times = self.stream_times(count, np.random.default_rng([seed, 0xA221]))
        return [
            TimedRequest(request=request, arrival_time=time)
            for request, time in zip(requests, times)
        ]

    def generate_lazy(
        self,
        spec: WorkloadSpec,
        count: int | None = None,
        seed: int = 0,
        token_ids: bool = False,
        prefix_block_tokens: int = 16,
    ) -> Iterator[TimedRequest]:
        """Lazily yield the stream :meth:`generate` would materialise.

        Arrival times come from :meth:`stream_times` (same rng stream as
        :meth:`generate`, so timestamps match exactly), and
        request bodies come from the columnar generator and turn into
        :class:`Request` objects only as the consumer pulls them — the
        peak footprint of a million-request stream is one request, not a
        million.  ``token_ids=True`` attaches prompt-content identity for
        the prefix cache: chat requests carry columnar block-hash chains
        (at ``prefix_block_tokens`` tokens per block, matching the
        consumer's block store) plus a lazy token source, so the stream
        stays columnar — no eager token-id materialisation even on the
        cache-aware path.
        """
        count = count if count is not None else spec.num_requests
        require_positive_int("count", count)
        times = self.stream_times(count, np.random.default_rng([seed, 0xA221]))
        requests = generate_request_columns(
            spec,
            count=count,
            seed=seed,
            prefix_block_tokens=prefix_block_tokens if token_ids else None,
        ).iter_requests()
        for request, time in zip(requests, times):
            yield TimedRequest(request=request, arrival_time=time)

    def stream_times(self, count: int, rng: np.random.Generator) -> Iterator[float]:
        """:meth:`arrival_times` as Python floats, checked for ``count``."""
        times = self.arrival_times(count, rng)
        if len(times) != count:
            raise ConfigurationError(
                f"{self.name}: expected {count} arrival times, got {len(times)}"
            )
        return iter(times.tolist())


class RenewalProcess(ArrivalProcess):
    """Arrivals whose inter-arrival gaps are independent draws."""

    @abc.abstractmethod
    def gaps(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``count`` non-negative inter-arrival gaps."""

    def arrival_times(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.cumsum(self.gaps(count, rng))

    def stream_times(self, count: int, rng: np.random.Generator) -> Iterator[float]:
        """:meth:`arrival_times` drawn and summed ``STREAM_CHUNK`` at a time.

        Chunked draws consume the rng exactly as one draw does, and each
        chunk's running sum starts from the previous chunk's last time, so
        every timestamp is the same float while the stream stays O(chunk).
        """
        last = np.zeros(1)
        for start in range(0, count, STREAM_CHUNK):
            gaps = self.gaps(min(STREAM_CHUNK, count - start), rng)
            times = np.cumsum(np.concatenate((last, gaps)))[1:]
            last = times[-1:]
            yield from times.tolist()


class PoissonProcess(RenewalProcess):
    """Open-loop Poisson arrivals at ``rate`` requests per second."""

    name = "poisson"

    def __init__(self, rate: float) -> None:
        require_positive("rate", rate)
        self.rate = float(rate)

    def gaps(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(scale=1.0 / self.rate, size=count)


class GammaProcess(RenewalProcess):
    """Gamma-renewal arrivals: ``rate`` requests/s with burstiness ``cv``.

    The coefficient of variation ``cv`` of the inter-arrival gap controls
    clustering: ``cv = 1`` recovers Poisson, ``cv > 1`` produces bursts
    separated by lulls (the regime production traces such as Azure LLM
    inference exhibit), ``cv < 1`` approaches a metronome.
    """

    name = "gamma"

    def __init__(self, rate: float, cv: float = 2.0) -> None:
        require_positive("rate", rate)
        require_positive("cv", cv)
        self.rate = float(rate)
        self.cv = float(cv)

    def gaps(self, count: int, rng: np.random.Generator) -> np.ndarray:
        shape = 1.0 / (self.cv**2)
        scale = 1.0 / (self.rate * shape)
        return rng.gamma(shape=shape, scale=scale, size=count)


class DeterministicProcess(ArrivalProcess):
    """Evenly spaced arrivals at exactly ``rate`` requests per second."""

    name = "deterministic"

    def __init__(self, rate: float) -> None:
        require_positive("rate", rate)
        self.rate = float(rate)

    def arrival_times(self, count: int, rng: np.random.Generator) -> np.ndarray:
        gap = 1.0 / self.rate
        return gap * np.arange(1, count + 1, dtype=float)


class ReplayProcess(ArrivalProcess):
    """Replays an explicit, pre-recorded arrival-timestamp trace."""

    name = "replay"

    def __init__(self, timestamps: Sequence[float]) -> None:
        if not timestamps:
            raise ConfigurationError("replay trace must contain at least one timestamp")
        ordered = [float(t) for t in timestamps]
        if any(t < 0 for t in ordered):
            raise ConfigurationError("replay timestamps must be non-negative")
        if any(b < a for a, b in zip(ordered, ordered[1:])):
            raise ConfigurationError("replay timestamps must be non-decreasing")
        self.timestamps = ordered

    def arrival_times(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count > len(self.timestamps):
            raise ConfigurationError(
                f"replay trace has {len(self.timestamps)} timestamps but "
                f"{count} requests were asked for"
            )
        return np.asarray(self.timestamps[:count], dtype=float)

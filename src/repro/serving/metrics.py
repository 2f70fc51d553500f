"""Per-request latency metrics, percentiles and SLO-goodput.

Online serving is judged on latency *distributions*, not the single batch
throughput number of the offline harness:

* **TTFT** — time to first token (arrival to end of prefill), the metric
  interactive users feel;
* **TPOT** — time per output token over the decode phase, the streaming
  smoothness metric;
* **E2E latency** — arrival to final token;
* **SLO-goodput** — completed requests per second that met *both* the TTFT
  and TPOT SLOs: the quantity a capacity planner actually provisions for,
  since tokens delivered late count for nothing.

Percentiles use linear interpolation (numpy's default) so reports are
deterministic and comparable across runs.

Aggregation runs in one of two modes (:class:`ReportBuilder`):

* ``store_samples=True`` — every latency sample is kept and percentiles
  are exact (``numpy.percentile``); this is the historical path and the
  one regression tests pin bit-for-bit;
* ``store_samples=False`` — the streaming mode: each latency metric feeds
  P² quantile sketches (:class:`repro.obs.P2Quantile`, O(1) memory per
  metric) and running sums, so million-request streams aggregate with
  flat memory.  Estimates are exact below five samples and within the
  tested P² tolerance beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.obs.metrics import P2Quantile
from repro.serving.queue import OUTCOME_CODES, RequestState, ServingRequest
from repro.utils.validation import require_positive

#: Percentiles reported for each latency metric.
REPORT_PERCENTILES: tuple[int, ...] = (50, 95, 99)


_RAISE = object()


def percentile(
    values: Sequence[float], q: float, default: float = _RAISE
) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation.

    An empty sample has no percentile: it raises :class:`ValueError` unless
    an explicit ``default`` is supplied.  (The old behaviour of silently
    returning ``0.0`` made an empty run's p99 indistinguishable from a
    genuinely instant one — callers that want a sentinel must now say so.)
    """
    if not values:
        if default is _RAISE:
            raise ValueError(
                f"percentile(q={q}) of an empty sample is undefined; "
                "pass default= to choose a sentinel"
            )
        return default
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass(frozen=True)
class SLO:
    """A latency service-level objective, in simulated seconds."""

    ttft: float
    tpot: float

    def __post_init__(self) -> None:
        require_positive("ttft", self.ttft)
        require_positive("tpot", self.tpot)

    def is_met(self, serving_request: ServingRequest) -> bool:
        """Whether a finished request met both latency targets."""
        ttft = serving_request.ttft
        tpot = serving_request.tpot
        if ttft is None or tpot is None:
            return False
        return ttft <= self.ttft and tpot <= self.tpot

    def scaled(self, factor: float) -> "SLO":
        """A copy with both targets multiplied by ``factor``."""
        require_positive("factor", factor)
        return SLO(ttft=self.ttft * factor, tpot=self.tpot * factor)


@dataclass(frozen=True)
class ServingReport:
    """Aggregate metrics for one serving run."""

    num_offered: int
    num_completed: int
    num_rejected: int
    makespan: float
    tokens_generated: int
    ttft: dict[int, float]
    tpot: dict[int, float]
    e2e: dict[int, float]
    mean_ttft: float
    mean_tpot: float
    slo_met: int
    goodput: float
    #: Prefix-cache statistics (all zero when the cache is off or cold).
    cache_hits: int = 0
    hit_rate: float = 0.0
    cached_token_fraction: float = 0.0
    mean_ttft_hit: float = 0.0
    mean_ttft_miss: float = 0.0
    #: Rejections by canonical outcome code (``queue-full``, ``crash``,
    #: ``timeout``, ``shed``, ...) — the per-class breakdown of
    #: ``num_rejected``, so drops never vanish into one opaque total.
    outcomes: dict[str, int] = field(default_factory=dict)
    #: Offered requests that were resilience-layer re-submissions
    #: (``attempt > 0``); 0 on every run without retries.
    num_retries: int = 0

    @property
    def completion_rate(self) -> float:
        """Fraction of offered requests that completed."""
        if self.num_offered == 0:
            return 0.0
        return self.num_completed / self.num_offered

    @property
    def token_throughput(self) -> float:
        """Generated tokens per second over the whole run."""
        if self.makespan <= 0:
            return 0.0
        return self.tokens_generated / self.makespan

    @property
    def request_throughput(self) -> float:
        """Completed requests per second over the whole run."""
        if self.makespan <= 0:
            return 0.0
        return self.num_completed / self.makespan

    @property
    def goodput_fraction(self) -> float:
        """Fraction of *offered* requests that completed within the SLO.

        Rejected and SLO-violating requests both count against this, so it
        is the end-user success probability under the offered load.
        """
        if self.num_offered == 0:
            return 0.0
        return self.slo_met / self.num_offered

    def as_row(self) -> dict[str, object]:
        """Flat dictionary for the table renderer."""
        row: dict[str, object] = {
            "offered": self.num_offered,
            "completed": self.num_completed,
            "rejected": self.num_rejected,
            "makespan_s": self.makespan,
            "token_throughput": self.token_throughput,
            "ttft_p50": self.ttft[50],
            "ttft_p95": self.ttft[95],
            "ttft_p99": self.ttft[99],
            "tpot_p50": self.tpot[50],
            "tpot_p95": self.tpot[95],
            "tpot_p99": self.tpot[99],
            "e2e_p50": self.e2e[50],
            "e2e_p95": self.e2e[95],
            "e2e_p99": self.e2e[99],
            "mean_ttft": self.mean_ttft,
            "mean_tpot": self.mean_tpot,
            "slo_met": self.slo_met,
            "goodput": self.goodput,
            "goodput_fraction": self.goodput_fraction,
            "hit_rate": self.hit_rate,
            "cached_token_fraction": self.cached_token_fraction,
        }
        row["retries"] = self.num_retries
        for code in OUTCOME_CODES:
            row[f"drop_{code.replace('-', '_')}"] = self.outcomes.get(code, 0)
        return row


class ReportBuilder:
    """Incremental :class:`ServingReport` aggregation over request records.

    ``store_samples=True`` keeps every latency sample and computes exact
    ``numpy.percentile`` / ``numpy.mean`` values — byte-identical to the
    historical :func:`summarize` (which now delegates here).

    ``store_samples=False`` is the streaming mode: O(1) memory regardless
    of stream length.  Percentiles come from P² sketches (exact below five
    samples, within tested tolerance beyond) and means from running sums
    (which can differ from numpy's pairwise summation in the last few
    ulps — acceptable only in this mode).

    Both modes run one fold, :meth:`observe_many`; :meth:`observe` is a
    one-request batch, and any split of a stream into batches builds a
    bit-identical report.
    """

    #: The latency metrics with percentiles; samples add TTFT by cache outcome.
    _LATENCIES = ("ttft", "tpot", "e2e")
    _SAMPLES = _LATENCIES + ("hit_ttft", "miss_ttft")
    #: The streaming mode's running sums and counts behind the four means.
    _MEANS = ("ttft", "tpot", "hit_ttft", "miss_ttft")

    def __init__(self, slo: SLO, *, store_samples: bool = False) -> None:
        self.slo = slo
        self.store_samples = store_samples
        self.num_offered = 0
        self.num_completed = 0
        self.num_rejected = 0
        self.tokens_generated = 0
        self.slo_met = 0
        self.cache_hits = 0
        self.prompt_tokens = 0
        self.cached_tokens = 0
        self.outcomes: dict[str, int] = {}
        self.num_retries = 0
        if store_samples:
            self._samples: dict[str, list[float]] = {
                name: [] for name in self._SAMPLES
            }
        else:
            self._sketches: dict[str, dict[int, P2Quantile]] = {
                name: {q: P2Quantile(q / 100.0) for q in REPORT_PERCENTILES}
                for name in self._LATENCIES
            }
            # One tuple of sketches per latency metric, zipped with the
            # batch lists by the fold.
            self._sketch_rows = tuple(
                tuple(row.values()) for row in self._sketches.values()
            )
            self._sums = dict.fromkeys(self._MEANS, 0.0)
            self._counts = dict.fromkeys(self._MEANS, 0)

    def observe(self, sr: ServingRequest) -> None:
        """Fold one terminal (or still-live, at stream end) request in."""
        self.observe_many((sr,))

    def observe_many(self, serving_requests: Iterable[ServingRequest]) -> None:
        """Fold a batch of terminal (or still-live) requests in, in order.

        Each request's timestamps are read once.  Exact mode appends the
        latencies to its sample lists; streaming mode folds the batch's
        lists into each P² sketch and adds them to the running sums left
        to right, in request order.
        """
        if self.store_samples:
            ttfts, tpots, e2es, hits, misses = self._samples.values()
        else:
            ttfts, tpots, e2es, hits, misses = [], [], [], [], []
        slo_ttft = self.slo.ttft
        slo_tpot = self.slo.tpot
        outcomes = self.outcomes
        rejected_state = RequestState.REJECTED
        finished_state = RequestState.FINISHED
        offered = retries = rejected = completed = 0
        tokens = met = cache_hits = prompt_tokens = cached_tokens = 0
        for sr in serving_requests:
            offered += 1
            if sr.attempt:
                retries += 1
            state = sr.state
            if state is not finished_state:
                if state is rejected_state:
                    rejected += 1
                    code = sr.outcome_code or "other"
                    outcomes[code] = outcomes.get(code, 0) + 1
                continue
            completed += 1
            tokens += sr.tokens_decoded
            request = sr.request
            prompt_tokens += request.effective_input_len
            cached = sr.tokens_cached
            cached_tokens += cached
            if cached > 0:
                cache_hits += 1
            arrival = sr.arrival_time
            first = sr.first_token_time
            finish = sr.finish_time
            if first is not None:
                ttft = first - arrival
                ttfts.append(ttft)
                (hits if cached > 0 else misses).append(ttft)
            if finish is not None:
                e2es.append(finish - arrival)
                if first is not None:
                    decode_tokens = request.generation_len - 1
                    tpot = (finish - first) / decode_tokens if decode_tokens > 0 else 0.0
                    tpots.append(tpot)
                    if ttft <= slo_ttft and tpot <= slo_tpot:
                        met += 1
        self.num_offered += offered
        self.num_retries += retries
        self.num_rejected += rejected
        self.num_completed += completed
        self.tokens_generated += tokens
        self.slo_met += met
        self.cache_hits += cache_hits
        self.prompt_tokens += prompt_tokens
        self.cached_tokens += cached_tokens
        if self.store_samples or not completed:
            return
        for sketches, batch in zip(self._sketch_rows, (ttfts, tpots, e2es)):
            for sketch in sketches:
                sketch.add_many(batch)
        sums, counts = self._sums, self._counts
        for name, batch in zip(self._MEANS, (ttfts, tpots, hits, misses)):
            total = sums[name]
            for value in batch:
                total += value
            sums[name] = total
            counts[name] += len(batch)

    def _percentiles(self, name: str) -> dict[int, float]:
        # A run that completed nothing reports 0.0 percentiles (the
        # historical sentinel), chosen explicitly here.
        if self.store_samples:
            values = self._samples[name]
            return {
                q: percentile(values, q, default=0.0)
                for q in REPORT_PERCENTILES
            }
        out: dict[int, float] = {}
        for q, sketch in self._sketches[name].items():
            value = sketch.value()
            out[q] = 0.0 if math.isnan(value) else float(value)
        return out

    def _mean(self, key: str) -> float:
        if self.store_samples:
            values = self._samples[key]
            return float(np.mean(values)) if values else 0.0
        count = self._counts[key]
        return self._sums[key] / count if count else 0.0

    def build(self, makespan: float) -> ServingReport:
        """Freeze the aggregates into a :class:`ServingReport`."""
        return ServingReport(
            num_offered=self.num_offered,
            num_completed=self.num_completed,
            num_rejected=self.num_rejected,
            makespan=makespan,
            tokens_generated=self.tokens_generated,
            ttft=self._percentiles("ttft"),
            tpot=self._percentiles("tpot"),
            e2e=self._percentiles("e2e"),
            mean_ttft=self._mean("ttft"),
            mean_tpot=self._mean("tpot"),
            slo_met=self.slo_met,
            goodput=self.slo_met / makespan if makespan > 0 else 0.0,
            cache_hits=self.cache_hits,
            hit_rate=(
                self.cache_hits / self.num_completed
                if self.num_completed else 0.0
            ),
            cached_token_fraction=(
                self.cached_tokens / self.prompt_tokens
                if self.prompt_tokens > 0 else 0.0
            ),
            mean_ttft_hit=self._mean("hit_ttft"),
            mean_ttft_miss=self._mean("miss_ttft"),
            outcomes=dict(self.outcomes),
            num_retries=self.num_retries,
        )


def summarize(
    requests: Iterable[ServingRequest],
    makespan: float,
    slo: SLO,
) -> ServingReport:
    """Aggregate per-request records into a :class:`ServingReport`.

    Exact (stored-sample) aggregation; for streams too large to hold,
    feed a streaming :class:`ReportBuilder` instead.
    """
    builder = ReportBuilder(slo, store_samples=True)
    builder.observe_many(requests)
    return builder.build(makespan)

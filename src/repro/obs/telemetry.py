"""The telemetry facade the serving stack emits into.

One :class:`Telemetry` object owns up to three sinks — a
:class:`~repro.obs.trace.TraceRecorder`, a
:class:`~repro.obs.metrics.MetricRegistry` and a
:class:`~repro.obs.sampler.TimeSeriesSampler` — and exposes the hook
methods the serving stack calls at its emission points:

* the **router** records routing instants per arrival;
* **admission** bumps verdict counters and the engine records
  admit/reject/drop instants;
* the **engine core** records per-step lane spans (decode / prefill /
  weight-stream) and, at retirement, each request's gapless lifecycle
  chain plus its latency histograms;
* the **event loop** drives the time-series sampler as simulated time
  advances.

Every hook is a no-op when its sink is absent, and the serving stack only
calls hooks behind ``if telemetry is not None`` — so a run with telemetry
disabled executes exactly the pre-telemetry code path and its results are
bit-for-bit identical (asserted at tier 1).

The module is deliberately decoupled from :mod:`repro.serving`: hooks are
duck-typed against the engine's step and request objects, so ``obs`` never
imports the stack it instruments.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.obs.metrics import MetricRegistry
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.trace import TraceRecorder


def shard_label(shard_id: int) -> str:
    """Lane prefix for one engine core."""
    return f"shard{shard_id}"


def collect_core_stats(cores: Sequence[object]) -> dict[str, float]:
    """Snapshot the sampler's signals from the live engine cores.

    Per shard: queue depth, in-flight population, outstanding load and KV
    pool occupancy.  Aggregates: totals of those, the cumulative prefix
    cache hit rate, the cumulative overlap fraction and the block store's
    resident/cached block counts (with the cache off every resident block
    is private and none is cached).
    """
    values: dict[str, float] = {}
    total_queue = total_running = total_load = 0.0
    kv_fracs: list[float] = []
    admitted = hits = 0.0
    busy = overlapped = 0.0
    blocks = cached_blocks = 0.0
    for core in cores:
        label = shard_label(core.shard_id)
        queue_depth = float(len(core.queue))
        running = float(len(core.running) + len(core.prefilling))
        load = float(core.load())
        kv_frac = core.admission.utilization()["kv_cpu"]
        values[f"{label}.queue_depth"] = queue_depth
        values[f"{label}.running"] = running
        values[f"{label}.load"] = load
        values[f"{label}.kv_frac"] = kv_frac
        total_queue += queue_depth
        total_running += running
        total_load += load
        kv_fracs.append(kv_frac)
        admitted += core.admission.admitted_count
        hits += core.admission.cache_hit_count
        busy += core.busy_time
        overlapped += core.overlapped_time
        occupancy = core.admission.kv_cache.occupancy()
        blocks += occupancy["blocks"]
        cached_blocks += occupancy["cached_blocks"]
    values["queue_depth"] = total_queue
    values["running"] = total_running
    values["load"] = total_load
    values["kv_frac"] = sum(kv_fracs) / len(kv_fracs) if kv_fracs else 0.0
    values["hit_rate"] = hits / admitted if admitted > 0 else 0.0
    values["overlap_fraction"] = overlapped / busy if busy > 0 else 0.0
    values["blocks"] = blocks
    values["cached_blocks"] = cached_blocks
    return values


#: Aggregate series the sampler mirrors into the trace as counter tracks.
_MIRRORED_SERIES: tuple[str, ...] = ("queue_depth", "load", "kv_frac")


class Telemetry:
    """Opt-in observability for one serving run.

    ``trace`` and ``metrics`` toggle the recorder and the registry;
    ``sample_interval`` (simulated seconds) enables the time-series
    sampler.  Attach one fresh instance per run — recorders accumulate.
    """

    def __init__(
        self,
        trace: bool = True,
        metrics: bool = True,
        sample_interval: float | None = None,
    ) -> None:
        self.trace = TraceRecorder() if trace else None
        self.registry = MetricRegistry() if metrics else None
        self.sampler = (
            TimeSeriesSampler(sample_interval) if sample_interval is not None else None
        )

    # ------------------------------------------------------------------
    # Registry shorthands (no-ops without a registry)
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Bump a counter."""
        if self.registry is not None:
            self.registry.counter(name).inc(amount)

    def observe(self, name: str, value: float | None) -> None:
        """Fold one observation into a histogram (``None`` is skipped)."""
        if self.registry is not None and value is not None:
            self.registry.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Emission hooks (called by the serving stack)
    # ------------------------------------------------------------------
    def record_step(self, shard_id: int, step: object) -> None:
        """One completed engine step: lane spans + step metrics.

        The decode and prefill lanes carry each stream's share of the step
        (so their span sums reproduce ``decode_busy_s`` and
        ``prefill_busy_s`` exactly); the weight lane carries the whole step
        — the shared weight-streaming pass both streams serialize on.
        """
        label = shard_label(shard_id)
        if self.trace is not None:
            args = {
                "num_requests": step.num_requests,
                "num_micro_batches": step.num_micro_batches,
            }
            if step.decode_time > 0:
                self.trace.add_span(
                    f"{label}/decode", step.kind, step.start, step.decode_time, **args
                )
            if step.prefill_time > 0:
                self.trace.add_span(
                    f"{label}/prefill", step.kind, step.start, step.prefill_time, **args
                )
            self.trace.add_span(
                f"{label}/weight", step.kind, step.start, step.duration, **args
            )
        self.count(f"steps.{step.kind}")
        self.observe("step_duration", step.duration)

    def record_route(
        self, serving_request: object, shard: int, now: float
    ) -> None:
        """One routing decision at the arrival instant."""
        if self.trace is not None:
            self.trace.add_instant(
                "router",
                "route",
                now,
                request_id=serving_request.request_id,
                shard=shard,
            )
        self.count("requests.routed")

    def record_admit(self, serving_request: object, now: float) -> None:
        """One successful admission (KV reserved, prefill imminent)."""
        if self.trace is not None:
            self.trace.add_instant(
                "admission",
                "admit",
                now,
                request_id=serving_request.request_id,
                cached_tokens=serving_request.tokens_cached,
            )

    def record_reject(
        self, serving_request: object, now: float, reason: str
    ) -> None:
        """One terminal rejection (oversized request or queue-full drop)."""
        if self.trace is not None:
            self.trace.add_instant(
                "admission",
                "reject",
                now,
                request_id=serving_request.request_id,
                reason=reason,
            )
        self.count("requests.rejected")

    def record_fault(
        self, shard_id: int | None, kind: str, now: float, **args
    ) -> None:
        """One injected fault event (crash / recover / straggle / link)."""
        if self.trace is not None:
            payload = dict(args)
            if shard_id is not None:
                payload["shard"] = shard_id
            self.trace.add_instant("faults", kind, now, **payload)
        self.count(f"faults.{kind}")

    def record_unavailability(
        self, shard_id: int, start: float, end: float
    ) -> None:
        """One shard's full downtime window (crash to serving-again)."""
        if self.trace is not None:
            self.trace.add_span(
                f"{shard_label(shard_id)}/fault", "unavailable", start, end - start
            )
        self.observe("unavailability", end - start)

    def record_finish(self, serving_request: object) -> None:
        """One retired request: its gapless lifecycle chain + latencies."""
        sr = serving_request
        if (
            self.trace is not None
            and sr.admit_time is not None
            and sr.first_token_time is not None
            and sr.finish_time is not None
        ):
            shard = shard_label(sr.shard_id)
            self.trace.add_request_span(
                sr.request_id, "queue", sr.arrival_time, sr.admit_time, shard=shard
            )
            self.trace.add_request_span(
                sr.request_id,
                "prefill",
                sr.admit_time,
                sr.first_token_time,
                cached_tokens=sr.tokens_cached,
            )
            self.trace.add_request_span(
                sr.request_id,
                "decode",
                sr.first_token_time,
                sr.finish_time,
                tokens=sr.tokens_decoded,
            )
        self.count("requests.finished")
        self.count("tokens.generated", sr.tokens_decoded)
        self.observe("ttft", sr.ttft)
        self.observe("tpot", sr.tpot)
        self.observe("e2e", sr.e2e_latency)
        if sr.admit_time is not None:
            self.observe("queue_wait", sr.admit_time - sr.arrival_time)

    # ------------------------------------------------------------------
    # Time-series sampling (driven by the run loops)
    # ------------------------------------------------------------------
    def sample(self, now: float, cores: Sequence[object]) -> None:
        """Emit samples for every interval boundary crossed before ``now``."""
        if self.sampler is None:
            return
        emitted = self.sampler.observe(now, lambda: collect_core_stats(cores))
        self._mirror_counters(emitted)

    def finish_run(self, now: float, cores: Sequence[object]) -> None:
        """Flush the sampler through the end of the run (``now`` = makespan)."""
        if self.sampler is None:
            return
        emitted = self.sampler.flush(now, lambda: collect_core_stats(cores))
        self._mirror_counters(emitted)

    def _mirror_counters(self, samples: Iterable[Mapping[str, float]]) -> None:
        if self.trace is None:
            return
        for sample in samples:
            for name in _MIRRORED_SERIES:
                if name in sample:
                    self.trace.add_counter(name, sample["t"], {name: sample[name]})

    # ------------------------------------------------------------------
    # Rollups
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, object]:
        """JSON-able rollup of everything this run recorded."""
        document: dict[str, object] = {}
        if self.registry is not None:
            document["metrics"] = self.registry.snapshot()
        if self.trace is not None:
            document["lanes"] = [
                {
                    "lane": lane,
                    "spans": len(self.trace.spans_on(lane)),
                    "busy_s": self.trace.lane_busy(lane),
                }
                for lane in self.trace.lanes()
            ]
            document["requests_traced"] = len(
                {rs.request_id for rs in self.trace.request_spans}
            )
        if self.sampler is not None:
            document["samples"] = len(self.sampler.samples)
        return document

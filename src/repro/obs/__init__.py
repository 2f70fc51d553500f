"""End-to-end serving telemetry: tracing, streaming metrics, time series.

The serving stack's internal signals — queue depth, per-stream busy time,
cache hit rate, per-shard load — existed only as end-of-run aggregates;
this package makes them observable *as the run unfolds*, at event
granularity, without perturbing the simulation:

* :mod:`repro.obs.trace` — request-lifecycle and per-lane span recording
  with Chrome trace-event JSON export (Perfetto-loadable) and validation;
* :mod:`repro.obs.metrics` — counters, gauges and histograms backed by
  the streaming P² percentile sketch (p50/p95/p99 without storing
  samples);
* :mod:`repro.obs.sampler` — fixed-interval time series over simulated
  time, exported as JSONL and rendered as ASCII sparklines;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade the serving
  stack emits into (``ShardedServingSystem.run(..., telemetry=...)``, and
  so ``ServingSystem.run``, its one-shard case);
* :mod:`repro.obs.trace_cli` — the ``repro-trace`` CLI: validate and
  summarise exported traces.

Telemetry is strictly opt-in: with no :class:`Telemetry` attached the
serving stack takes its historical code path and produces bit-for-bit
identical results.
"""

from repro.obs.metrics import (
    DEFAULT_QUANTILES,
    Counter,
    Gauge,
    MetricRegistry,
    P2Quantile,
    StreamingHistogram,
)
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.telemetry import Telemetry, collect_core_stats, shard_label
from repro.obs.trace import (
    REQUEST_PHASES,
    CounterSample,
    Instant,
    RequestSpan,
    Span,
    TraceRecorder,
    load_chrome_trace,
    summarize_chrome_trace,
    validate_chrome_trace,
)

__all__ = [
    "DEFAULT_QUANTILES",
    "Counter",
    "CounterSample",
    "Gauge",
    "Instant",
    "MetricRegistry",
    "P2Quantile",
    "REQUEST_PHASES",
    "RequestSpan",
    "Span",
    "StreamingHistogram",
    "Telemetry",
    "TimeSeriesSampler",
    "TraceRecorder",
    "collect_core_stats",
    "load_chrome_trace",
    "shard_label",
    "summarize_chrome_trace",
    "validate_chrome_trace",
]

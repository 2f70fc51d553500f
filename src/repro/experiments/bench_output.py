"""Machine-readable benchmark artifacts (``BENCH_*.json``).

The bench suite and the examples print human tables; CI and trend tooling
need stable JSON.  This module owns the schema so every emitter (the
``repro-serve`` CLI, ``examples/serving_demo.py`` and
``benchmarks/test_bench_serving.py``) writes the same shape:

```json
{
  "benchmark": "serving",
  "schema_version": 2,
  "git_sha": "...",                   # emitting checkout (or "unknown")
  "created_at": "...",                # UTC ISO-8601 run timestamp
  "meta": {...},                      # workload / hardware / sweep knobs
  "summary": {                        # one entry per system, measured at
    "moe-lightning": {                # the load factor closest to 1.0
      "token_throughput": ..., "ttft_p50": ..., "ttft_p99": ...,
      "tpot_p50": ..., "tpot_p99": ..., "goodput": ...,
      "goodput_fraction": ...
    }
  },
  "rows": [...]                       # every sweep row, verbatim
}
```

Only JSON-serialisable row values survive (numbers, strings, bools); the
writer drops anything else rather than failing mid-benchmark.
"""

from __future__ import annotations

import json
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

#: Bumped whenever the artifact shape changes.  2: provenance stamps
#: (``git_sha``, ``created_at``) and p50/p99 E2E percentiles in summaries.
BENCH_SCHEMA_VERSION = 2

#: Metrics copied from a sweep row into the per-system summary when the row
#: carries them.  Serving rows always report hit_rate/cached_token_fraction
#: (0.0 under cache-off); num_shards appears only in sharded sweeps.
SUMMARY_METRICS: tuple[str, ...] = (
    "token_throughput",
    "ttft_p50",
    "ttft_p95",
    "ttft_p99",
    "tpot_p50",
    "tpot_p95",
    "tpot_p99",
    "e2e_p50",
    "e2e_p95",
    "e2e_p99",
    "mean_ttft",
    "mean_tpot",
    "goodput",
    "goodput_fraction",
    "hit_rate",
    "cached_token_fraction",
    "overlap_fraction",
    "num_shards",
)


def _jsonable(value: object) -> bool:
    return isinstance(value, (int, float, str, bool)) or value is None


def _clean_row(row: Mapping[str, object]) -> dict[str, object]:
    return {key: value for key, value in row.items() if _jsonable(value)}


def serving_summary(
    rows: Sequence[Mapping[str, object]],
) -> dict[str, dict[str, object]]:
    """Per-system headline metrics of one sweep.

    Load sweeps (rows that differ in ``load_factor``) summarise at the
    factor closest to 1.0 — the point provisioned capacity is judged at.
    Shard-scaling sweeps (rows that differ in ``num_shards``) summarise at
    the highest shard count — the configuration the sweep argues for.
    Prefix-cache sweeps (rows that differ in ``prefix_cache``) get one
    summary entry per cache setting, keyed ``"system (cache on|off)"``, so
    the artifact captures the cache win, not just one side of it; sweeps
    over overlapped prefill/decode streams (rows that differ in
    ``overlap``) are keyed ``"system (overlap on|off)"`` the same way.
    """
    by_system: dict[str, list[Mapping[str, object]]] = {}
    cache_settings = {str(row.get("prefix_cache", "off")) for row in rows}
    overlap_settings = {str(row.get("overlap", "off")) for row in rows}
    for row in rows:
        system = str(row.get("system", "unknown"))
        if len(cache_settings) > 1:
            system = f"{system} (cache {row.get('prefix_cache', 'off')})"
        if len(overlap_settings) > 1:
            system = f"{system} (overlap {row.get('overlap', 'off')})"
        by_system.setdefault(system, []).append(row)

    summary: dict[str, dict[str, object]] = {}
    for system, points in by_system.items():
        shard_counts = {int(row.get("num_shards", 1)) for row in points}
        if len(shard_counts) > 1:
            chosen = max(points, key=lambda row: int(row.get("num_shards", 1)))
        else:
            chosen = min(
                points,
                key=lambda row: abs(float(row.get("load_factor", 1.0)) - 1.0),
            )
        summary[system] = {
            metric: chosen[metric] for metric in SUMMARY_METRICS if metric in chosen
        }
    return summary


def _git_sha() -> str:
    """The working tree's commit SHA, or ``"unknown"`` outside a checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_bench_serving_json(
    path: str | Path,
    rows: Sequence[Mapping[str, object]],
    meta: Mapping[str, object] | None = None,
    benchmark: str = "serving",
) -> dict[str, object]:
    """Write a serving-family benchmark artifact; returns the written document.

    ``benchmark`` names the artifact's family (``"disagg"`` for the
    disaggregation sweep).  Every artifact is stamped with its schema
    version, the emitting checkout's git SHA and a UTC run timestamp, so
    trend tooling can bucket results by code version without trusting file
    mtimes.
    """
    document: dict[str, object] = {
        "benchmark": benchmark,
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "created_at": datetime.now(timezone.utc).isoformat(),
        "meta": _clean_row(meta or {}),
        "summary": serving_summary(rows),
        "rows": [_clean_row(row) for row in rows],
    }
    target = Path(path)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


#: Metrics copied into the simperf summary from its headline row (the
#: largest streaming point of the sweep).
SIMPERF_SUMMARY_METRICS: tuple[str, ...] = (
    "num_requests",
    "num_shards",
    "wall_time_s",
    "num_events",
    "events_per_sec",
    "requests_per_sec",
    "peak_mem_mb",
)


def simperf_summary(
    rows: Sequence[Mapping[str, object]],
) -> dict[str, object]:
    """Headline metrics of one simulator-speed sweep.

    The headline point is the largest streaming-mode run (most requests,
    then most shards) — the scale the sweep exists to defend.  Reference
    rows (``mode != "streaming"``) never headline; they exist to compute
    speedups against.  Prefix-cache rows form their own family: they never
    headline either, but the largest one contributes
    ``prefix_cache_events_per_sec`` so the cache-aware hot path gates
    separately from the plain-routing headline.
    """
    streaming = [
        row
        for row in rows
        if row.get("mode") == "streaming" and not row.get("prefix_cache")
    ]
    if not streaming:
        return {}

    def scale(row: Mapping[str, object]) -> tuple[int, int]:
        return (
            int(row.get("num_requests", 0)),
            int(row.get("num_shards", 0)),
        )

    chosen = max(streaming, key=scale)
    summary = {
        metric: chosen[metric] for metric in SIMPERF_SUMMARY_METRICS if metric in chosen
    }
    cached = [
        row
        for row in rows
        if row.get("mode") == "streaming"
        and row.get("prefix_cache")
        and row.get("peak_mem_mb") is None
    ]
    if cached:
        summary["prefix_cache_events_per_sec"] = max(cached, key=scale)[
            "events_per_sec"
        ]
    return summary


def write_bench_simperf_json(
    path: str | Path,
    rows: Sequence[Mapping[str, object]],
    meta: Mapping[str, object] | None = None,
    speedup_vs_time_sliced: float | None = None,
    speedup_vs_pre_pr: float | None = None,
    cache_aware_vs_least_loaded: float | None = None,
) -> dict[str, object]:
    """Write the simulator-speed benchmark artifact (``BENCH_simperf.json``).

    Same stamping discipline as :func:`write_bench_serving_json`;
    ``speedup_vs_time_sliced`` records the streaming hot path's measured
    events/sec multiple over the retained time-sliced reference loop on
    the same stream, ``speedup_vs_pre_pr`` its machine-normalised
    multiple over the pre-optimization baseline recorded at the seed
    commit, and ``cache_aware_vs_least_loaded`` the paired calibration
    ratio of cache-aware routing over least-loaded on the same stream.
    """
    summary = simperf_summary(rows)
    if speedup_vs_time_sliced is not None:
        summary["speedup_vs_time_sliced"] = speedup_vs_time_sliced
    if speedup_vs_pre_pr is not None:
        summary["speedup_vs_pre_pr"] = speedup_vs_pre_pr
    if cache_aware_vs_least_loaded is not None:
        summary["cache_aware_vs_least_loaded"] = cache_aware_vs_least_loaded
    document: dict[str, object] = {
        "benchmark": "simperf",
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "created_at": datetime.now(timezone.utc).isoformat(),
        "meta": _clean_row(meta or {}),
        "summary": summary,
        "rows": [_clean_row(row) for row in rows],
    }
    target = Path(path)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


#: Metrics copied per scenario into the chaos summary.
CHAOS_SUMMARY_METRICS: tuple[str, ...] = (
    "goodput",
    "goodput_fraction",
    "completed",
    "rejected",
    "retries",
    "crashes",
    "recoveries",
    "unavailability_s",
    "drop_crash",
    "drop_timeout",
    "drop_shed",
)


def chaos_summary(
    rows: Sequence[Mapping[str, object]],
) -> dict[str, dict[str, object]]:
    """Per-scenario headline metrics of one chaos sweep."""
    summary: dict[str, dict[str, object]] = {}
    for row in rows:
        scenario = str(row.get("scenario", "unknown"))
        summary[scenario] = {
            metric: row[metric]
            for metric in CHAOS_SUMMARY_METRICS
            if metric in row
        }
    return summary


def write_bench_chaos_json(
    path: str | Path,
    rows: Sequence[Mapping[str, object]],
    gates: Mapping[str, object] | None = None,
    meta: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """Write the chaos benchmark artifact (``BENCH_chaos.json``).

    Same stamping discipline as :func:`write_bench_serving_json`; the
    ``gates`` block records the sweep's acceptance verdicts (empty-schedule
    determinism, retry-vs-no-retry goodput win, post-recovery goodput
    ratio) so CI trend tooling gates on the artifact alone.
    """
    document: dict[str, object] = {
        "benchmark": "chaos",
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "created_at": datetime.now(timezone.utc).isoformat(),
        "meta": _clean_row(meta or {}),
        "summary": chaos_summary(rows),
        "gates": _clean_row(gates or {}),
        "rows": [_clean_row(row) for row in rows],
    }
    target = Path(path)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document

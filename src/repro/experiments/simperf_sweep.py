"""Simulator raw-speed sweep: events/sec across stream lengths and shards.

Not a paper artifact — this measures the *simulator itself*.  The serving
engine's hot path (streaming reports, lazy columnar arrivals, O(1) event
accounting) claims million-request streams at flat memory; this harness is
the evidence.  Each point serves one seeded multi-turn chat stream through
:class:`~repro.serving.sharded.ShardedServingSystem` in streaming mode and
reports wall-clock events/sec, where an *event* is one arrival or one
engine step — the two units of work the discrete-event loop dispatches.

The arrival rate scales proportionally with the shard count, so per-shard
load (and therefore per-shard step count) is roughly constant across
points and events/sec should scale near-linearly in both stream length and
shard count; :func:`check_near_linear_scaling` asserts the length axis.

:func:`measure_reference` times the retained pre-optimization loop
(:meth:`~repro.serving.sharded.ShardedServingSystem.run_time_sliced`, with
polling routing and exact stored-sample reports) on a calibration-sized
stream in the flagship configuration — cache-aware routing over a shared
prefix cache — where the polling router re-hashes every prompt once per
shard per arrival.  A matched streaming point at the same configuration
gives the speedup ``BENCH_simperf.json`` records and CI gates on.
"""

from __future__ import annotations

import argparse
import time
import tracemalloc
from typing import Sequence

from repro.experiments.bench_output import write_bench_simperf_json
from repro.experiments.serving_sweep import offline_capacity
from repro.hardware import get_hardware
from repro.models import get_model
from repro.serving.arrivals import PoissonProcess
from repro.serving.sharded import ShardedServingResult, ShardedServingSystem
from repro.systems import MoELightningSystem
from repro.utils.errors import ConfigurationError
from repro.utils.validation import require_positive, require_positive_int
from repro.workloads import chat

#: Offered load as a fraction of the shards' aggregate offline capacity:
#: high enough to keep every shard continuously batching, low enough that
#: queues stay bounded so memory and tails reflect steady state rather
#: than an ever-growing backlog.
DEFAULT_LOAD_FACTOR = 0.8

#: Stream lengths and shard counts of the default sweep grid.
DEFAULT_STREAM_LENGTHS: tuple[int, ...] = (5_000, 20_000, 50_000)
DEFAULT_SHARD_COUNTS: tuple[int, ...] = (4, 16)

#: Calibration size for the reference pair: large enough that the pre-PR
#: baseline's super-linear costs are visible, small enough that CI can
#: re-measure the retained time-sliced loop in a couple of seconds.
REFERENCE_REQUESTS = 10_000
REFERENCE_SHARDS = 16

#: The pre-optimization hot path, measured once at the seed commit
#: (660a6e3) on the calibration stream: 16-shard multi-turn chat with the
#: shared prefix cache and cache-aware routing, 10,000 requests at a 0.8
#: load factor, seed 0.  That code scanned every resident KV block per
#: admission check and re-sorted the eviction candidates per eviction, so
#: its per-request cost grew with the stream (757.8 requests/s at 5,000
#: requests, 295.9 at 10,000 — and minutes-long runs by 25,000).  The
#: simulated timeline is bit-for-bit identical before and after the
#: overhaul (verified: identical makespans on the same seeded streams),
#: so events/sec ratios compare code paths only.  ``anchor_events_per_sec``
#: is the retained time-sliced loop measured on the *same machine* as the
#: pre-PR number; re-measuring it fresh gives a machine-speed scale that
#: transfers the baseline to other hardware.
PRE_PR_BASELINE: dict[str, float] = {
    "events_per_sec": 297.3,
    "anchor_events_per_sec": 4604.0,
}

#: Events/sec at the largest stream length must stay within this factor of
#: the smallest length's (per shard count): flat-memory streaming means
#: per-event cost must not grow with stream length.
SCALING_TOLERANCE = 0.5

#: Cache-aware routing over the shared prefix cache must stay within 2x of
#: plain least-loaded routing on the same stream (events/sec ratio >= 0.5):
#: prefix hashing, shard index probes and shared-store registration are
#: allowed to cost real work per arrival, but not to dominate the loop.
CACHE_RATIO_FLOOR = 0.5


def _make_backend(model_name: str = "mixtral-8x7b", hardware_name: str = "1xT4"):
    return MoELightningSystem(get_model(model_name), get_hardware(hardware_name))


def _rate_per_shard(backend, workload, load_factor: float) -> float:
    """Offered per-shard arrival rate: ``load_factor`` x offline capacity."""
    policy = backend.select_policy(workload)
    return load_factor * offline_capacity(backend, workload, policy)


def _num_events(result: ShardedServingResult, num_requests: int) -> int:
    """Arrivals plus engine steps: the loop's dispatched work units."""
    return num_requests + sum(stats.num_steps for stats in result.shard_stats)


def measure_point(
    backend,
    num_requests: int,
    num_shards: int,
    load_factor: float = DEFAULT_LOAD_FACTOR,
    router: str = "least-loaded",
    prefix_cache: bool = False,
    generation_len: int = 8,
    seed: int = 0,
    mode: str = "streaming",
    trace_memory: bool = False,
) -> dict[str, object]:
    """Serve one chat stream and report its wall-clock event rate.

    ``mode`` selects the code path under measurement: ``"streaming"`` (the
    hot path: lazy arrivals, sketch reports, incremental routing) or
    ``"time-sliced"`` (the retained pre-optimization reference loop).
    The offered arrival rate is ``load_factor`` x the shards' aggregate
    offline capacity for this workload, keeping queues bounded.
    ``trace_memory`` adds a ``tracemalloc`` peak — it roughly doubles the
    wall time, so memory rows are measured separately from speed rows.
    """
    require_positive_int("num_requests", num_requests)
    require_positive_int("num_shards", num_shards)
    require_positive("load_factor", load_factor)
    if mode not in ("streaming", "time-sliced"):
        raise ConfigurationError(f"unknown simperf mode {mode!r}")
    workload = chat(generation_len=generation_len, num_requests=num_requests)
    rate_per_shard = _rate_per_shard(backend, workload, load_factor)
    system = ShardedServingSystem(
        backend,
        workload,
        num_shards=num_shards,
        router=router,
        prefix_cache=prefix_cache,
        store_samples=mode != "streaming",
    )
    process = PoissonProcess(rate_per_shard * num_shards)
    peak_mem_mb = None
    if trace_memory:
        tracemalloc.start()
    start = time.perf_counter()
    if mode == "time-sliced":
        result = system.run_time_sliced(process, count=num_requests, seed=seed)
    else:
        result = system.run(process, count=num_requests, seed=seed)
    wall_time_s = time.perf_counter() - start
    if trace_memory:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak_mem_mb = peak / 1e6
    num_events = _num_events(result, num_requests)
    return {
        "mode": mode,
        "router": router,
        "prefix_cache": prefix_cache,
        "num_requests": num_requests,
        "num_shards": num_shards,
        "load_factor": load_factor,
        "rate_rps": rate_per_shard * num_shards,
        "wall_time_s": wall_time_s,
        "makespan_s": result.makespan,
        "num_events": num_events,
        "events_per_sec": num_events / wall_time_s if wall_time_s > 0 else 0.0,
        "requests_per_sec": (
            num_requests / wall_time_s if wall_time_s > 0 else 0.0
        ),
        "completed": result.report.num_completed,
        "rejected": result.report.num_rejected,
        "peak_mem_mb": peak_mem_mb,
    }


def measure_reference(
    backend,
    num_requests: int = REFERENCE_REQUESTS,
    num_shards: int = REFERENCE_SHARDS,
    load_factor: float = DEFAULT_LOAD_FACTOR,
    seed: int = 0,
    repeats: int = 3,
) -> list[dict[str, object]]:
    """Time the pre-optimization loop against the streaming hot path.

    Both rows serve the same calibration stream in the flagship
    configuration (cache-aware routing over a shared prefix cache), so
    their events/sec ratio contrasts code paths — polling routing, eager
    arrivals and stored samples versus incremental routing, lazy arrivals
    and sketch reports — on identical simulated timelines.

    Each mode is timed ``repeats`` times and the fastest run kept
    (best-of-N; the runs are deterministic, so rows differ only in their
    timing fields).  Wall-clock ratios between two single-shot runs swing
    by tens of percent on shared CI machines — the gates downstream need
    the noise floor, not one sample of it.
    """
    common = dict(
        num_requests=num_requests,
        num_shards=num_shards,
        load_factor=load_factor,
        router="cache-aware",
        prefix_cache=True,
        seed=seed,
    )
    rows = []
    for mode in ("time-sliced", "streaming"):
        trials = [
            measure_point(backend, mode=mode, **common)
            for _ in range(max(1, repeats))
        ]
        rows.append(min(trials, key=lambda row: row["wall_time_s"]))
    return rows


def measure_cache_ratio(
    backend,
    num_requests: int = REFERENCE_REQUESTS,
    num_shards: int = REFERENCE_SHARDS,
    load_factor: float = DEFAULT_LOAD_FACTOR,
    seed: int = 0,
    repeats: int = 5,
) -> tuple[float, list[dict[str, object]]]:
    """Cache-aware vs. least-loaded events/sec on the calibration stream.

    Runs ``repeats`` paired trials — one cache-aware (shared prefix cache)
    and one least-loaded run back to back — and returns the *median* paired
    ratio plus the median trial's two rows.  Pairing within a trial and
    taking the median ratio cancels machine-speed drift that best-of-N on
    each side cannot: the sides' fastest runs rarely coincide, so one
    lucky run on either side skews a best-of ratio in that side's favor.

    The calibration size is deliberate: it is the largest stream whose
    per-shard working set still fits the shards' block pools.  On longer
    streams the *simulated* prefix cache itself thrashes — eviction churn,
    falling hit rates, longer prefills — which is modeled physics the
    simulator must faithfully spend cycles on, not hot-path overhead the
    ratio is meant to police.
    """
    common = dict(
        num_requests=num_requests,
        num_shards=num_shards,
        load_factor=load_factor,
        seed=seed,
    )
    trials = []
    for _ in range(max(1, repeats)):
        cached = measure_point(
            backend, router="cache-aware", prefix_cache=True, **common
        )
        plain = measure_point(
            backend, router="least-loaded", prefix_cache=False, **common
        )
        ratio = float(cached["events_per_sec"]) / float(plain["events_per_sec"])
        trials.append((ratio, cached, plain))
    trials.sort(key=lambda trial: trial[0])
    ratio, cached, plain = trials[len(trials) // 2]
    return ratio, [cached, plain]


def run_simperf_sweep(
    stream_lengths: Sequence[int] = DEFAULT_STREAM_LENGTHS,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    load_factor: float = DEFAULT_LOAD_FACTOR,
    router: str = "least-loaded",
    seed: int = 0,
    with_reference: bool = True,
    with_prefix_cache: bool = False,
    trace_memory_at: int | None = None,
    backend=None,
) -> list[dict[str, object]]:
    """The full grid: streaming points, plus reference and memory rows.

    ``with_reference`` appends the matched calibration pair from
    :func:`measure_reference` (time-sliced and streaming on the same
    cache-aware stream).  ``with_prefix_cache`` sweeps the grid a second
    time with cache-aware routing over the shared prefix cache, then
    appends the paired calibration rows of :func:`measure_cache_ratio`
    (:func:`cache_aware_ratio` reads the ratio back off those rows).
    ``trace_memory_at`` additionally measures one streaming point of that
    stream length (at the largest shard count) under ``tracemalloc`` and
    emits it as an extra row with ``peak_mem_mb`` set — for each row
    family being swept.
    """
    if not stream_lengths or not shard_counts:
        raise ConfigurationError("sweep axes must not be empty")
    if backend is None:
        backend = _make_backend()
    families = [(router, False)]
    if with_prefix_cache:
        families.append(("cache-aware", True))
    rows: list[dict[str, object]] = []
    for family_router, family_cache in families:
        for num_shards in sorted(shard_counts):
            for num_requests in sorted(stream_lengths):
                rows.append(
                    measure_point(
                        backend,
                        num_requests=num_requests,
                        num_shards=num_shards,
                        load_factor=load_factor,
                        router=family_router,
                        prefix_cache=family_cache,
                        seed=seed,
                    )
                )
    if with_reference:
        rows.extend(
            measure_reference(backend, load_factor=load_factor, seed=seed)
        )
    if with_prefix_cache:
        _, ratio_rows = measure_cache_ratio(
            backend, load_factor=load_factor, seed=seed
        )
        rows.extend(ratio_rows)
    if trace_memory_at is not None:
        for family_router, family_cache in families:
            rows.append(
                measure_point(
                    backend,
                    num_requests=trace_memory_at,
                    num_shards=max(shard_counts),
                    load_factor=load_factor,
                    router=family_router,
                    prefix_cache=family_cache,
                    seed=seed,
                    trace_memory=True,
                )
            )
    return rows


def cache_aware_ratio(rows: Sequence[dict[str, object]]) -> float | None:
    """Cache-aware over least-loaded events/sec at the calibration point.

    Reads the paired rows :func:`measure_cache_ratio` appended — the last
    streaming row of each configuration at the calibration size.  Later
    rows deliberately win: the sweep may also carry a best-of reference
    streaming row at the same cache-aware configuration, but the ratio
    must divide the *paired* trial, measured back to back so machine
    speed cancels.
    """
    cached = plain = None
    for row in rows:
        if (
            row["mode"] != "streaming"
            or row.get("peak_mem_mb") is not None
            or int(row["num_requests"]) != REFERENCE_REQUESTS
            or int(row["num_shards"]) != REFERENCE_SHARDS
        ):
            continue
        if row["router"] == "cache-aware" and row.get("prefix_cache"):
            cached = row
        elif row["router"] == "least-loaded" and not row.get("prefix_cache"):
            plain = row
    if cached is None or plain is None:
        return None
    return float(cached["events_per_sec"]) / float(plain["events_per_sec"])


def speedup_vs_reference(rows: Sequence[dict[str, object]]) -> float | None:
    """Streaming events/sec over the time-sliced reference's.

    Compared at the reference's own configuration (shard count, router,
    prefix cache) using the closest streaming stream length, so the ratio
    contrasts code paths rather than configurations.
    """
    references = [row for row in rows if row["mode"] == "time-sliced"]
    if not references:
        return None
    reference = references[0]
    candidates = [
        row
        for row in rows
        if row["mode"] == "streaming"
        and row["num_shards"] == reference["num_shards"]
        and row["router"] == reference["router"]
        and row.get("prefix_cache") == reference.get("prefix_cache")
    ]
    if not candidates:
        return None
    closest = min(
        candidates,
        key=lambda row: abs(
            int(row["num_requests"]) - int(reference["num_requests"])
        ),
    )
    return float(closest["events_per_sec"]) / float(reference["events_per_sec"])


def speedup_vs_pre_pr(rows: Sequence[dict[str, object]]) -> float | None:
    """Streaming events/sec over the pre-optimization baseline's.

    The baseline (:data:`PRE_PR_BASELINE`) was measured once at the seed
    commit on the calibration stream and cannot be re-run in CI, so raw
    machine speed is normalised out through the retained time-sliced
    loop: the fresh time-sliced measurement over its recorded
    same-machine anchor scales the baseline to the current hardware.
    """
    references = [row for row in rows if row["mode"] == "time-sliced"]
    if not references:
        return None
    reference = references[0]
    candidates = [
        row
        for row in rows
        if row["mode"] == "streaming"
        and row["num_shards"] == reference["num_shards"]
        and row["router"] == reference["router"]
        and row.get("prefix_cache") == reference.get("prefix_cache")
        and row["num_requests"] == reference["num_requests"]
    ]
    if not candidates:
        return None
    machine_scale = (
        float(reference["events_per_sec"])
        / PRE_PR_BASELINE["anchor_events_per_sec"]
    )
    scaled_pre_pr = PRE_PR_BASELINE["events_per_sec"] * machine_scale
    return float(candidates[0]["events_per_sec"]) / scaled_pre_pr


def check_near_linear_scaling(
    rows: Sequence[dict[str, object]], tolerance: float = SCALING_TOLERANCE
) -> None:
    """Assert per-event cost stays flat as streams grow (per shard count).

    A per-event cost that grows with stream length means an O(n) scan or
    accumulation survived somewhere in the hot path; the flat-memory
    design promises there is none.
    """
    by_shards: dict[tuple, list[dict[str, object]]] = {}
    for row in rows:
        if row["mode"] != "streaming" or row.get("peak_mem_mb") is not None:
            continue
        key = (
            int(row["num_shards"]),
            row["router"],
            bool(row.get("prefix_cache")),
        )
        by_shards.setdefault(key, []).append(row)
    for (num_shards, _, _), points in by_shards.items():
        if len(points) < 2:
            continue
        points = sorted(points, key=lambda row: int(row["num_requests"]))
        smallest, largest = points[0], points[-1]
        floor = tolerance * float(smallest["events_per_sec"])
        if float(largest["events_per_sec"]) < floor:
            raise ConfigurationError(
                f"simperf scaling regression at {num_shards} shards: "
                f"{largest['num_requests']} requests ran at "
                f"{largest['events_per_sec']:.0f} events/s vs "
                f"{smallest['events_per_sec']:.0f} at "
                f"{smallest['num_requests']} (floor {floor:.0f})"
            )


#: CI regression floor: fresh events/sec must reach this fraction of the
#: baseline's after normalising for machine speed.
GATE_FLOOR = 0.7


def _reference_events_per_sec(document: dict) -> float | None:
    references = [
        row
        for row in document.get("rows", [])
        if row.get("mode") == "time-sliced"
    ]
    if not references:
        return None
    return float(references[0]["events_per_sec"])


def gate_against_baseline(
    fresh: dict, baseline: dict, floor: float = GATE_FLOOR
) -> dict[str, float]:
    """Fail if the fresh sweep regressed below ``floor`` x the baseline.

    Both documents are ``BENCH_simperf.json`` artifacts over the same
    grid.  Raw events/sec is machine-dependent, so the comparison is
    normalised by each run's time-sliced reference measurement: the
    reference exercises the same Python interpreter and simulator core on
    the same stream, making the ratio of references a machine-speed
    factor that cancels hardware differences between the CI runner and
    the machine that produced the committed baseline.
    """
    fresh_eps = float(fresh["summary"]["events_per_sec"])
    baseline_eps = float(baseline["summary"]["events_per_sec"])
    scale = 1.0
    fresh_ref = _reference_events_per_sec(fresh)
    baseline_ref = _reference_events_per_sec(baseline)
    if fresh_ref and baseline_ref:
        scale = fresh_ref / baseline_ref
    floor_eps = floor * baseline_eps * scale
    verdict = {
        "fresh_events_per_sec": fresh_eps,
        "baseline_events_per_sec": baseline_eps,
        "machine_scale": scale,
        "floor_events_per_sec": floor_eps,
    }
    if fresh_eps < floor_eps:
        raise ConfigurationError(
            f"simperf regression: measured {fresh_eps:.0f} events/s vs "
            f"required {floor_eps:.0f} events/s — ratio "
            f"{fresh_eps / floor_eps:.2f}, need >= 1.00 ({floor:.0%} of "
            f"baseline {baseline_eps:.0f} x machine scale {scale:.2f})"
        )
    fresh_cache = fresh["summary"].get("prefix_cache_events_per_sec")
    baseline_cache = baseline["summary"].get("prefix_cache_events_per_sec")
    if fresh_cache is not None and baseline_cache is not None:
        # The prefix-cache family gates separately: its hot path (columnar
        # hash probes, shared-store registration) can regress while the
        # plain-routing headline stays flat.  Same machine-speed
        # normalisation — the time-sliced reference covers both families.
        cache_floor_eps = floor * float(baseline_cache) * scale
        verdict["prefix_cache_events_per_sec"] = float(fresh_cache)
        verdict["prefix_cache_floor_events_per_sec"] = cache_floor_eps
        if float(fresh_cache) < cache_floor_eps:
            raise ConfigurationError(
                f"simperf prefix-cache regression: measured "
                f"{float(fresh_cache):.0f} events/s vs required "
                f"{cache_floor_eps:.0f} events/s — ratio "
                f"{float(fresh_cache) / cache_floor_eps:.2f}, need >= 1.00 "
                f"({floor:.0%} of baseline {float(baseline_cache):.0f} x "
                f"machine scale {scale:.2f})"
            )
    return verdict


#: Columns for the printed sweep table.
SIMPERF_COLUMNS: tuple[str, ...] = (
    "mode",
    "router",
    "prefix_cache",
    "num_shards",
    "num_requests",
    "wall_time_s",
    "num_events",
    "events_per_sec",
    "requests_per_sec",
    "peak_mem_mb",
)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: ``repro-simperf`` — measure and optionally persist the sweep."""
    parser = argparse.ArgumentParser(
        description="Simulator raw-speed sweep (events/sec)."
    )
    parser.add_argument(
        "--lengths",
        type=int,
        nargs="+",
        default=list(DEFAULT_STREAM_LENGTHS),
        help="stream lengths (requests) to sweep",
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=list(DEFAULT_SHARD_COUNTS),
        help="shard counts to sweep",
    )
    parser.add_argument(
        "--load-factor",
        type=float,
        default=DEFAULT_LOAD_FACTOR,
        help="offered load as a fraction of aggregate offline capacity",
    )
    parser.add_argument(
        "--router", default="least-loaded", help="router policy to measure"
    )
    parser.add_argument(
        "--prefix-cache",
        choices=("on", "off"),
        default="off",
        help=(
            "also sweep cache-aware routing over the shared prefix cache "
            "and record its calibration ratio vs least-loaded"
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-reference",
        action="store_true",
        help="skip the time-sliced reference measurement",
    )
    parser.add_argument(
        "--memory-at",
        type=int,
        default=None,
        metavar="N",
        help="also trace peak memory on an N-request streaming run",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write BENCH_simperf.json to PATH",
    )
    parser.add_argument(
        "--gate",
        nargs=2,
        default=None,
        metavar=("FRESH", "BASELINE"),
        help=(
            "skip the sweep; fail if FRESH's events/sec regressed below "
            f"{GATE_FLOOR:.0%} of BASELINE's (machine-normalised)"
        ),
    )
    args = parser.parse_args(argv)

    if args.gate is not None:
        import json

        fresh_path, baseline_path = args.gate
        with open(fresh_path) as handle:
            fresh = json.load(handle)
        with open(baseline_path) as handle:
            baseline = json.load(handle)
        verdict = gate_against_baseline(fresh, baseline)
        print(
            f"simperf gate OK: {verdict['fresh_events_per_sec']:.0f} events/s "
            f">= floor {verdict['floor_events_per_sec']:.0f} "
            f"(machine scale {verdict['machine_scale']:.2f})"
        )
        return 0

    rows = run_simperf_sweep(
        stream_lengths=args.lengths,
        shard_counts=args.shards,
        load_factor=args.load_factor,
        router=args.router,
        seed=args.seed,
        with_reference=not args.no_reference,
        with_prefix_cache=args.prefix_cache == "on",
        trace_memory_at=args.memory_at,
    )
    header = " ".join(f"{column:>15}" for column in SIMPERF_COLUMNS)
    print(header)
    for row in rows:
        cells = []
        for column in SIMPERF_COLUMNS:
            value = row.get(column)
            if isinstance(value, float):
                cells.append(f"{value:>15.1f}")
            elif value is None:
                cells.append(f"{'-':>15}")
            else:
                cells.append(f"{value!s:>15}")
        print(" ".join(cells))
    speedup = speedup_vs_reference(rows)
    if speedup is not None:
        print(f"streaming vs time-sliced reference: {speedup:.1f}x events/sec")
    pre_pr = speedup_vs_pre_pr(rows)
    if pre_pr is not None:
        print(f"streaming vs pre-PR hot path: {pre_pr:.1f}x events/sec")
    cache_ratio = cache_aware_ratio(rows)
    if cache_ratio is not None:
        print(
            f"cache-aware vs least-loaded: {cache_ratio:.2f}x events/sec "
            f"(floor {CACHE_RATIO_FLOOR:.2f})"
        )
    check_near_linear_scaling(rows)
    if args.output:
        write_bench_simperf_json(
            args.output,
            rows,
            meta={
                "router": args.router,
                "load_factor": args.load_factor,
                "seed": args.seed,
            },
            speedup_vs_time_sliced=speedup,
            speedup_vs_pre_pr=pre_pr,
            cache_aware_vs_least_loaded=cache_ratio,
        )
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

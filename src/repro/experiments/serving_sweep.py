"""Online-serving load sweep: throughput versus tail latency under load.

The paper's evaluation compares systems on static batches; this experiment
compares them *online*: a Poisson (or bursty Gamma, or deterministic)
request stream is swept across arrival rates expressed as multiples of the
reference system's offline capacity, and every (system, rate) point reports
TTFT / TPOT p50/p99, end-to-end p99, token throughput and SLO-goodput.

All systems at a sweep point see the same absolute arrival rate, the same
request bodies (the arrival seed fixes both prompt lengths and timestamps)
and the same SLO (anchored to the first system's unloaded latencies), so
the resulting throughput-vs-p99-latency curves are directly comparable.
Runs are fully deterministic under a fixed ``seed``.
"""

from __future__ import annotations

import argparse
from typing import Callable, Sequence

from repro.hardware import get_hardware
from repro.models import get_model
from repro.serving.arrivals import (
    ArrivalProcess,
    DeterministicProcess,
    GammaProcess,
    PoissonProcess,
)
from repro.serving.metrics import SLO
from repro.serving.scheduler import SCHEDULING_POLICIES
from repro.serving.server import default_slo
from repro.serving.sharded import ServingSystem
from repro.systems import DeepSpeedZeroSystem, FlexGenSystem, MoELightningSystem
from repro.systems.base import OffloadingSystem
from repro.utils.errors import ConfigurationError
from repro.workloads import get_workload

#: Factories for the serving backends the sweep can compare.
SERVING_SYSTEMS: dict[str, Callable[..., OffloadingSystem]] = {
    "moe-lightning": lambda model, hardware: MoELightningSystem(model, hardware),
    "moe-lightning(p)": lambda model, hardware: MoELightningSystem(
        model, hardware, padded=True
    ),
    "flexgen": lambda model, hardware: FlexGenSystem(model, hardware),
    "flexgen(c)": lambda model, hardware: FlexGenSystem(
        model, hardware, cpu_attention=True
    ),
    "deepspeed": lambda model, hardware: DeepSpeedZeroSystem(model, hardware),
}

#: Arrival-process factories keyed by name; each takes the absolute rate.
ARRIVAL_PROCESSES: dict[str, Callable[[float], ArrivalProcess]] = {
    "poisson": PoissonProcess,
    "gamma": lambda rate: GammaProcess(rate, cv=3.0),
    "deterministic": DeterministicProcess,
}


def offline_capacity(backend: OffloadingSystem, workload, policy) -> float:
    """Requests per second the backend sustains on a static batch."""
    estimate = backend.performance_model(workload).estimate(policy)
    if estimate.total_time <= 0:
        return 0.0
    return policy.batch_size / estimate.total_time


def run_serving_sweep(
    load_factors: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    system_names: Sequence[str] = ("moe-lightning", "flexgen"),
    model_name: str = "mixtral-8x7b",
    hardware_name: str = "1xT4",
    workload_name: str = "mtbench",
    generation_len: int = 16,
    num_requests: int = 48,
    scheduling: str = "fcfs",
    arrival: str = "poisson",
    seed: int = 0,
    slo: SLO | None = None,
    use_simulator: bool = False,
    chunk_prefill_tokens: int | None = None,
    prefix_cache: bool = False,
    overlap: bool = False,
    session_ttl: float | None = None,
    telemetry=None,
    store_samples: bool = True,
) -> list[dict[str, object]]:
    """Sweep arrival rates across serving systems; one row per point.

    Rates are ``load_factor`` multiples of the *first* system's offline
    capacity so every system is measured at identical absolute load.  The
    shared SLO defaults to the first system's unloaded latencies (see
    :func:`repro.serving.server.default_slo`).

    ``store_samples=False`` switches every point to streaming P² report
    aggregation (flat memory in the stream length; percentiles within
    sketch tolerance, all other metrics exact).  The library default stays
    exact; the ``repro-serve`` CLI defaults to streaming and restores this
    with ``--exact-report``.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) observes the *final*
    sweep point — the last listed system at the highest load factor — so
    one trace/metrics artifact describes one well-defined run rather than
    a blur of all of them.
    """
    if not load_factors:
        raise ConfigurationError("load_factors must not be empty")
    if arrival not in ARRIVAL_PROCESSES:
        known = ", ".join(sorted(ARRIVAL_PROCESSES))
        raise ConfigurationError(f"unknown arrival process {arrival!r}; known: {known}")
    unknown = [name for name in system_names if name not in SERVING_SYSTEMS]
    if unknown:
        known = ", ".join(sorted(SERVING_SYSTEMS))
        raise ConfigurationError(f"unknown systems {unknown}; known: {known}")

    model = get_model(model_name)
    hardware = get_hardware(hardware_name)
    workload = get_workload(
        workload_name, generation_len=generation_len, num_requests=num_requests
    )

    backends = [SERVING_SYSTEMS[name](model, hardware) for name in system_names]
    policies = [backend.select_policy(workload) for backend in backends]
    shared_slo = slo or default_slo(backends[0], workload, policies[0])
    reference_rate = offline_capacity(backends[0], workload, policies[0])
    # One ServingSystem per backend across all rate points: run() holds no
    # cross-run state, and reusing the instance keeps its step-time memo
    # caches warm (the dominant cost with use_simulator=True).
    servers = [
        ServingSystem(
            backend,
            workload,
            policy=policy,
            scheduling=scheduling,
            slo=shared_slo,
            use_simulator=use_simulator,
            chunk_prefill_tokens=chunk_prefill_tokens,
            prefix_cache=prefix_cache,
            overlap=overlap,
            session_ttl=session_ttl,
            store_samples=store_samples,
        )
        for backend, policy in zip(backends, policies)
    ]

    rows: list[dict[str, object]] = []
    total_runs = len(load_factors) * len(servers)
    run_index = 0
    for load_factor in load_factors:
        rate = load_factor * reference_rate
        process = ARRIVAL_PROCESSES[arrival](rate)
        for serving in servers:
            run_index += 1
            attach = telemetry if run_index == total_runs else None
            result = serving.run(
                process, count=num_requests, seed=seed, telemetry=attach
            )
            row: dict[str, object] = {
                "load_factor": load_factor,
                "rate_rps": rate,
                "arrival": arrival,
                "scheduling": scheduling,
                "prefix_cache": "on" if prefix_cache else "off",
                "overlap": "on" if overlap else "off",
            }
            row.update(result.as_row())
            row["slo_ttft"] = shared_slo.ttft
            row["slo_tpot"] = shared_slo.tpot
            rows.append(row)
    return rows


#: Columns for the printed throughput-vs-tail-latency table.
SWEEP_COLUMNS: tuple[str, ...] = (
    "system",
    "load_factor",
    "rate_rps",
    "completed",
    "rejected",
    "token_throughput",
    "ttft_p50",
    "ttft_p99",
    "tpot_p50",
    "tpot_p99",
    "e2e_p99",
    "goodput",
    "goodput_fraction",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Online continuous-batching load sweep across serving systems; "
            "with --shards N, a sharded throughput-vs-shards sweep instead."
        ),
    )
    parser.add_argument(
        "--systems",
        nargs="+",
        default=["moe-lightning", "flexgen"],
        choices=sorted(SERVING_SYSTEMS),
    )
    parser.add_argument(
        "--load-factors",
        nargs="+",
        type=float,
        default=None,
        help=(
            "arrival rates as multiples of the first system's offline "
            "capacity (default: 0.25 0.5 1 2 4); sharded mode uses the "
            "single --load-factor instead, or max(--load-factors) if only "
            "those are given"
        ),
    )
    parser.add_argument("--model", default="mixtral-8x7b")
    parser.add_argument("--hardware", default="1xT4")
    parser.add_argument("--workload", default="mtbench")
    parser.add_argument("--generation-len", type=int, default=16)
    parser.add_argument("--num-requests", type=int, default=48)
    parser.add_argument(
        "--policy",
        "--scheduling",
        dest="scheduling",
        default="fcfs",
        metavar="POLICY",
        help="scheduling policy: fcfs, prefill-first or decode-first",
    )
    parser.add_argument(
        "--arrival",
        default="poisson",
        metavar="PROCESS",
        help="arrival process: poisson, gamma or deterministic",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--simulate",
        action="store_true",
        help="sample step times from the discrete-event schedule simulator",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "serve with data-parallel shards: sweeps 1..N shard counts over "
            "one identical request stream (first listed system only)"
        ),
    )
    parser.add_argument(
        "--router",
        default="round-robin",
        metavar="POLICY",
        help=(
            "shard router: round-robin, least-loaded, session-affinity or "
            "cache-aware"
        ),
    )
    parser.add_argument(
        "--chunk-prefill",
        type=int,
        default=0,
        metavar="TOKENS",
        help="chunked-prefill token budget per engine step (0 disables)",
    )
    parser.add_argument(
        "--prefix-cache",
        choices=("on", "off"),
        default="off",
        help=(
            "share KV blocks across requests with matching prompt prefixes "
            "(ref-counted block store with LRU reuse); pairs naturally with "
            "--workload chat"
        ),
    )
    parser.add_argument(
        "--overlap",
        choices=("on", "off"),
        default="off",
        help=(
            "overlapped prefill/decode streams: whole-prompt prefills ride "
            "decode iterations on the shared weight-streaming pass instead "
            "of stalling them (off reproduces the serialized timeline)"
        ),
    )
    parser.add_argument(
        "--load-factor",
        type=float,
        default=None,
        help=(
            "sharded mode: arrival rate as a multiple of one shard's "
            "capacity (default 4.0)"
        ),
    )
    parser.add_argument(
        "--disagg",
        action="store_true",
        help=(
            "compare disaggregated prefill/decode pools (priced KV "
            "migration, phase-aware routing) against unified serving at "
            "equal device count under mixed chat + long-prompt traffic "
            "(see repro-disagg for the full set of knobs)"
        ),
    )
    parser.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "evict prefix-cache sessions idle longer than this simulated "
            "duration (requires --prefix-cache on; sharded/disagg modes)"
        ),
    )
    parser.add_argument(
        "--exact-report",
        action="store_true",
        help=(
            "store per-request samples and compute exact percentiles "
            "instead of the default streaming P² report (streaming keeps "
            "memory flat on long streams; percentiles agree within sketch "
            "tolerance and every other metric is exact either way)"
        ),
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the sweep as a machine-readable BENCH_serving.json",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "record the final sweep point as Chrome trace-event JSON "
            "(open in Perfetto, or summarise with repro-trace)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "write the final sweep point's time-series samples as JSONL "
            "(one {\"t\": ...} object per line; last line carries the "
            "metric-registry summary) and print sparklines"
        ),
    )
    parser.add_argument(
        "--sample-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "simulated-time spacing of the time-series samples "
            "(default: 1.0 when --metrics-out is set)"
        ),
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point (installed as ``repro-serve``).

    Returns a process exit status: 0 on success, 2 on invalid
    configuration (unknown policy/arrival/model/... values), so scripts and
    CI can rely on the exit code instead of scraping tracebacks.
    """
    import sys

    from repro.experiments.bench_output import write_bench_serving_json
    from repro.experiments.report import render_rows
    from repro.experiments.shard_scaling import (
        SHARD_SCALING_COLUMNS,
        run_shard_scaling,
        shard_counts_up_to,
    )
    from repro.utils.errors import ReproError

    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.chunk_prefill < 0:
            raise ConfigurationError(
                f"--chunk-prefill must be >= 0 (0 disables), got "
                f"{args.chunk_prefill}"
            )
        chunk_prefill = args.chunk_prefill if args.chunk_prefill > 0 else None
        if args.scheduling not in SCHEDULING_POLICIES:
            known = ", ".join(SCHEDULING_POLICIES)
            raise ConfigurationError(
                f"unknown scheduling policy {args.scheduling!r}; known: {known}"
            )
        if args.arrival not in ARRIVAL_PROCESSES:
            known = ", ".join(sorted(ARRIVAL_PROCESSES))
            raise ConfigurationError(
                f"unknown arrival process {args.arrival!r}; known: {known}"
            )
        if args.shards < 1:
            raise ConfigurationError(f"--shards must be >= 1, got {args.shards}")
        if args.session_ttl is not None and args.prefix_cache != "on":
            raise ConfigurationError(
                "--session-ttl requires --prefix-cache on: without the "
                "shared block store there are no idle cached sessions to "
                "expire"
            )

        meta = {
            "model": args.model,
            "hardware": args.hardware,
            "workload": args.workload,
            "generation_len": args.generation_len,
            "num_requests": args.num_requests,
            "scheduling": args.scheduling,
            "arrival": args.arrival,
            "seed": args.seed,
            "shards": args.shards,
            "router": args.router,
            "chunk_prefill": args.chunk_prefill,
            "prefix_cache": args.prefix_cache,
            "overlap": args.overlap,
            "session_ttl": args.session_ttl,
            "disagg": args.disagg,
            "report": "exact" if args.exact_report else "streaming",
        }
        prefix_cache = args.prefix_cache == "on"
        overlap = args.overlap == "on"
        # Telemetry is strictly opt-in: with none of the flags set the
        # serving loops take their historical code paths untouched.
        telemetry = None
        if args.trace or args.metrics_out or args.sample_interval is not None:
            from repro.obs import Telemetry

            if args.sample_interval is not None and args.sample_interval <= 0:
                raise ConfigurationError(
                    f"--sample-interval must be > 0, got {args.sample_interval}"
                )
            interval = args.sample_interval
            if interval is None and args.metrics_out:
                interval = 1.0
            telemetry = Telemetry(
                trace=args.trace is not None,
                metrics=True,
                sample_interval=interval,
            )
        if args.disagg:
            # Disaggregation comparison: unified vs prefill/decode pools
            # (vs a fast-prefill heterogeneous cluster) at equal device
            # count, under the mixed traffic the split exists for.
            from repro.experiments.disagg_sweep import (
                DISAGG_COLUMNS,
                run_disagg_sweep,
            )

            num_shards = args.shards if args.shards > 1 else 4
            rows = run_disagg_sweep(
                system_name=args.systems[0],
                model_name=args.model,
                hardware_name=args.hardware,
                num_shards=num_shards,
                load_factor=args.load_factor or 3.0,
                seed=args.seed,
                prefix_cache=prefix_cache,
                session_ttl=args.session_ttl,
                use_simulator=args.simulate,
            )
            columns = list(DISAGG_COLUMNS)
            if args.session_ttl is not None:
                columns.append("ttl_evictions")
            title = (
                f"Disaggregation sweep: mixed traffic @ {args.model} / "
                f"{args.hardware} x{num_shards} (seed {args.seed})"
            )
        elif args.shards > 1:
            # Sharded mode sweeps shard counts at one load point: take it
            # from --load-factor, falling back to the strongest requested
            # --load-factors rate rather than silently dropping them.
            if args.load_factor is not None:
                load_factor = args.load_factor
            elif args.load_factors:
                load_factor = max(args.load_factors)
            else:
                load_factor = 4.0
            rows = run_shard_scaling(
                shard_counts=shard_counts_up_to(args.shards),
                router=args.router,
                system_name=args.systems[0],
                model_name=args.model,
                hardware_name=args.hardware,
                workload_name=args.workload,
                generation_len=args.generation_len,
                num_requests=args.num_requests,
                load_factor=load_factor,
                scheduling=args.scheduling,
                arrival=args.arrival,
                chunk_prefill_tokens=chunk_prefill,
                seed=args.seed,
                use_simulator=args.simulate,
                prefix_cache=prefix_cache,
                overlap=overlap,
                session_ttl=args.session_ttl,
                telemetry=telemetry,
                store_samples=args.exact_report,
            )
            columns = list(SHARD_SCALING_COLUMNS)
            if prefix_cache:
                columns += ["hit_rate", "cached_token_fraction"]
            if overlap:
                columns += ["overlap_fraction"]
            title = (
                f"Shard scaling: {args.workload} @ {args.model} / "
                f"{args.hardware} x{args.shards} ({args.router} routing, "
                f"{load_factor:g}x single-shard load, seed {args.seed})"
            )
        else:
            rows = run_serving_sweep(
                load_factors=args.load_factors or (0.25, 0.5, 1.0, 2.0, 4.0),
                system_names=args.systems,
                model_name=args.model,
                hardware_name=args.hardware,
                workload_name=args.workload,
                generation_len=args.generation_len,
                num_requests=args.num_requests,
                scheduling=args.scheduling,
                arrival=args.arrival,
                seed=args.seed,
                use_simulator=args.simulate,
                chunk_prefill_tokens=chunk_prefill,
                prefix_cache=prefix_cache,
                overlap=overlap,
                session_ttl=args.session_ttl,
                telemetry=telemetry,
                store_samples=args.exact_report,
            )
            columns = list(SWEEP_COLUMNS)
            if prefix_cache:
                columns += ["hit_rate", "cached_token_fraction"]
            if overlap:
                columns += ["overlap_fraction"]
            title = (
                f"Serving sweep: {args.workload} @ {args.model} / {args.hardware} "
                f"({args.arrival} arrivals, {args.scheduling} scheduling, "
                f"seed {args.seed})"
            )
    except ReproError as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 2

    print(render_rows(rows, columns=columns, title=title))
    if args.json:
        write_bench_serving_json(args.json, rows, meta=meta)
        print(f"wrote {args.json}")
    if telemetry is not None:
        _write_telemetry(telemetry, args)
    return 0


def _write_telemetry(telemetry, args) -> None:
    """Export the recorded trace / metrics and print the sparklines."""
    import json as json_module

    if args.trace and telemetry.trace is not None:
        telemetry.trace.write_chrome(args.trace)
        print(f"wrote {args.trace} ({len(telemetry.trace.spans)} lane spans)")
    if args.metrics_out:
        lines = []
        if telemetry.sampler is not None:
            text = telemetry.sampler.to_jsonl()
            if text:
                lines.append(text)
        if telemetry.registry is not None:
            lines.append(
                json_module.dumps(
                    {"summary": telemetry.registry.snapshot()}, sort_keys=True
                )
            )
        with open(args.metrics_out, "w") as handle:
            handle.write("\n".join(lines) + "\n" if lines else "")
        print(f"wrote {args.metrics_out}")
    if telemetry.sampler is not None and telemetry.sampler.samples:
        print("time series (final sweep point):")
        print(
            telemetry.sampler.render(
                [
                    name
                    for name in (
                        "queue_depth",
                        "running",
                        "load",
                        "kv_frac",
                        "hit_rate",
                        "overlap_fraction",
                    )
                    if any(
                        name in sample for sample in telemetry.sampler.samples
                    )
                ]
            )
        )


if __name__ == "__main__":
    raise SystemExit(main())

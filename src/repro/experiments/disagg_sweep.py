"""Prefill/decode disaggregation sweep: disagg vs unified, fast vs slow.

DistServe-style disaggregation splits a serving cluster into a prefill
pool and a decode pool: prompts are computed on prefill shards, the KV
cache migrates over the cluster link (a priced transfer event), and every
decode iteration runs on shards that never execute a prompt.  The win
shows up under *mixed* traffic — chat requests interleaved with
long-prompt summarization jobs — where a unified engine's monster
prefills ride the same iterations as everyone else's decodes and blow up
TPOT tails.  The cost is paid in link transfers and in splitting the
device count across the two pools.

This experiment makes that trade measurable.  One merged arrival stream
(short-prompt chat + long-prompt summarization, both Poisson) is served
by matched configurations at **equal device count**:

* ``unified`` — every shard serves both phases (least-loaded routing);
* ``disagg`` — the same shards split into prefill/decode pools with
  phase-aware routing and priced KV migration;
* ``disagg-het`` — the prefill pool upgraded to a faster device type
  (prefill is compute-bound, so the fast part goes where the FLOPs are),
  versus the same-count all-slow pool above.

All configurations see the identical request bodies and timestamps (same
seeds) and are scored against one shared SLO, so goodput is directly
comparable across rows.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.cluster.spec import ClusterSpec, DeviceSpec
from repro.hardware import get_hardware
from repro.models import get_model
from repro.serving.arrivals import PoissonProcess, TimedRequest
from repro.serving.metrics import SLO
from repro.serving.server import default_slo
from repro.serving.sharded import ShardedServingSystem
from repro.utils.errors import ConfigurationError
from repro.utils.validation import require_positive_int
from repro.workloads import get_workload
from repro.workloads.spec import WorkloadSpec


def mixed_workload(chat: WorkloadSpec, long: WorkloadSpec) -> WorkloadSpec:
    """One spec covering a merged chat + long-prompt stream.

    The serving system sizes admission budgets, padding and the SLO from
    its workload spec, so the merged stream needs a spec whose maximum
    covers both components; the average is request-count weighted.
    """
    total = chat.num_requests + long.num_requests
    avg = (
        chat.avg_prompt_len * chat.num_requests
        + long.avg_prompt_len * long.num_requests
    ) / total
    return WorkloadSpec(
        name="mixed",
        avg_prompt_len=max(1, round(avg)),
        max_prompt_len=max(chat.max_prompt_len, long.max_prompt_len),
        generation_len=max(chat.generation_len, long.generation_len),
        num_requests=total,
    )


def mixed_traffic(
    chat: WorkloadSpec,
    long: WorkloadSpec,
    chat_rate: float,
    long_rate: float,
    seed: int = 0,
) -> list[TimedRequest]:
    """Merge two Poisson streams into one arrival list, time-ordered.

    Each component keeps its own request bodies and timeline (derived
    seeds, so the merged stream is deterministic); request ids are
    globally unique, so the merged list is a valid single stream.
    """
    chat_stream = PoissonProcess(chat_rate).generate(
        chat, count=chat.num_requests, seed=seed
    )
    long_stream = PoissonProcess(long_rate).generate(
        long, count=long.num_requests, seed=seed + 1
    )
    return sorted(
        chat_stream + long_stream,
        key=lambda timed: (timed.arrival_time, timed.request.request_id),
    )


def _heterogeneous_cluster(
    fast_node, slow_node, num_shards: int, n_prefill: int
) -> ClusterSpec:
    """Fast prefill pool + slow decode pool, one device per shard."""
    devices = [
        DeviceSpec(device_id=i, node=fast_node, role="prefill")
        for i in range(n_prefill)
    ] + [
        DeviceSpec(device_id=i, node=slow_node, role="decode")
        for i in range(n_prefill, num_shards)
    ]
    return ClusterSpec.of_devices(
        devices, name=f"{n_prefill}x{fast_node.gpu.name}+"
        f"{num_shards - n_prefill}x{slow_node.gpu.name}"
    )


def run_disagg_sweep(
    system_name: str = "moe-lightning",
    model_name: str = "mixtral-8x7b",
    hardware_name: str = "1xT4",
    fast_hardware_name: str = "1xL4",
    num_shards: int = 4,
    prefill_shards: int | None = None,
    load_factor: float = 3.0,
    chat_requests: int = 48,
    long_requests: int = 8,
    chat_generation_len: int = 64,
    long_generation_len: int = 32,
    seed: int = 0,
    slo: SLO | None = None,
    ttft_factor: float = 5.0,
    tpot_factor: float = 1.1,
    prefix_cache: bool = False,
    session_ttl: float | None = None,
    use_simulator: bool = False,
    include_heterogeneous: bool = True,
) -> list[dict[str, object]]:
    """Serve one mixed stream on matched clusters; one row per config.

    ``load_factor`` scales the merged arrival rate as a multiple of the
    whole cluster's offline capacity on the mixed workload; the rate is
    split across the chat and long components by request count.  Every
    configuration has exactly ``num_shards`` devices and shares the SLO
    anchored to the unified baseline, so goodput rows compare the
    architectures, not the load.

    The default SLO is deliberately *TPOT-tight* (``tpot_factor=1.1``
    against the unloaded mid-generation decode step): disaggregation
    exists to hold per-token latency at the decode pool's native step
    time, which a unified engine cannot do while whole long-prompt
    prefills ride the same weight-streaming iterations as its decodes.
    A loose TPOT target (the unified default of 2.5x) absorbs that
    interference and reduces the comparison to raw makespan.
    """
    from repro.experiments.serving_sweep import (
        SERVING_SYSTEMS,
        offline_capacity,
    )

    if system_name not in SERVING_SYSTEMS:
        known = ", ".join(sorted(SERVING_SYSTEMS))
        raise ConfigurationError(
            f"unknown system {system_name!r}; known: {known}"
        )
    require_positive_int("num_shards", num_shards)
    if num_shards < 2:
        raise ConfigurationError(
            "the disaggregation sweep needs at least 2 shards"
        )

    model = get_model(model_name)
    slow_node = get_hardware(hardware_name)
    chat = get_workload(
        "mtbench",
        generation_len=chat_generation_len,
        num_requests=chat_requests,
    )
    long = get_workload(
        "summarization",
        generation_len=long_generation_len,
        num_requests=long_requests,
    )
    workload = mixed_workload(chat, long)

    backend = SERVING_SYSTEMS[system_name](model, slow_node)
    policy = backend.select_policy(workload)
    shared_slo = slo or default_slo(
        backend,
        workload,
        policy,
        ttft_factor=ttft_factor,
        tpot_factor=tpot_factor,
    )

    per_shard = offline_capacity(backend, workload, policy)
    rate = load_factor * num_shards * per_shard
    total = chat.num_requests + long.num_requests
    chat_rate = rate * chat.num_requests / total
    long_rate = rate * long.num_requests / total
    arrivals = mixed_traffic(chat, long, chat_rate, long_rate, seed=seed)

    n_prefill = (
        prefill_shards if prefill_shards is not None else max(1, num_shards // 2)
    )

    common = dict(
        workload=workload,
        policy=policy,
        slo=shared_slo,
        use_simulator=use_simulator,
        prefix_cache=prefix_cache,
        session_ttl=session_ttl,
    )
    configs: list[tuple[str, ShardedServingSystem]] = [
        (
            "unified",
            ShardedServingSystem(
                backend,
                num_shards=num_shards,
                router="least-loaded",
                **common,
            ),
        ),
        (
            "disagg",
            ShardedServingSystem(
                backend,
                num_shards=num_shards,
                disaggregated=True,
                prefill_shards=n_prefill,
                **common,
            ),
        ),
    ]
    if include_heterogeneous:
        fast_node = get_hardware(fast_hardware_name)
        cluster = _heterogeneous_cluster(
            fast_node, slow_node, num_shards, n_prefill
        )
        configs.append(
            (
                "disagg-het",
                ShardedServingSystem(
                    backend,
                    cluster=cluster,
                    **common,
                ),
            )
        )

    rows: list[dict[str, object]] = []
    for label, server in configs:
        result = server.run(arrivals, seed=seed)
        cluster_name = (
            server.cluster.name
            if server.cluster is not None
            else f"{num_shards}x[{slow_node.name}]"
        )
        row: dict[str, object] = {
            "config": label,
            # Key the BENCH_*.json summary by serving architecture, not by
            # backend: all three configs share the backend system.
            "system": f"{system_name} ({label})",
            "cluster": cluster_name,
            "router": result.router,
            "num_shards": result.num_shards,
            "prefill_shards": sum(
                1 for s in result.shard_stats if s.role == "prefill"
            ),
            "load_factor": load_factor,
            "rate_rps": rate,
        }
        row.update(result.report.as_row())
        row["migrated"] = result.admission_stats.get("migrated_in", 0)
        row["migration_rejected"] = result.admission_stats.get(
            "migration_rejected", 0
        )
        if session_ttl is not None:
            row["ttl_evictions"] = result.admission_stats.get(
                "ttl_evictions", 0
            )
        row["slo_ttft"] = shared_slo.ttft
        row["slo_tpot"] = shared_slo.tpot
        rows.append(row)
    return rows


#: Columns for the printed disagg-vs-unified comparison table.
DISAGG_COLUMNS: tuple[str, ...] = (
    "config",
    "cluster",
    "router",
    "prefill_shards",
    "completed",
    "rejected",
    "token_throughput",
    "ttft_p99",
    "tpot_p99",
    "e2e_p99",
    "goodput",
    "goodput_fraction",
    "migrated",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-disagg",
        description=(
            "Disaggregated (prefill/decode pools, priced KV migration) "
            "versus unified serving at equal device count under mixed "
            "chat + long-prompt traffic."
        ),
    )
    parser.add_argument("--system", default="moe-lightning")
    parser.add_argument("--model", default="mixtral-8x7b")
    parser.add_argument("--hardware", default="1xT4")
    parser.add_argument(
        "--fast-hardware",
        default="1xL4",
        help="device type for the heterogeneous prefill pool",
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--prefill-shards",
        type=int,
        default=None,
        help="prefill-pool size (default: half the shards)",
    )
    parser.add_argument("--load-factor", type=float, default=3.0)
    parser.add_argument("--chat-requests", type=int, default=48)
    parser.add_argument("--long-requests", type=int, default=8)
    parser.add_argument(
        "--chat-generation-len",
        type=int,
        default=64,
        help="decode length of the chat component",
    )
    parser.add_argument(
        "--long-generation-len",
        type=int,
        default=32,
        help="decode length of the long-prompt component",
    )
    parser.add_argument(
        "--ttft-factor",
        type=float,
        default=5.0,
        help="TTFT SLO as a multiple of the unloaded prefill latency",
    )
    parser.add_argument(
        "--tpot-factor",
        type=float,
        default=1.1,
        help=(
            "TPOT SLO as a multiple of the unloaded mid-generation decode "
            "step (tight by design: see run_disagg_sweep)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--prefix-cache", choices=("on", "off"), default="off"
    )
    parser.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "evict prefix-cache sessions idle longer than this "
            "(requires --prefix-cache on)"
        ),
    )
    parser.add_argument(
        "--no-heterogeneous",
        action="store_true",
        help="skip the fast-prefill heterogeneous configuration",
    )
    parser.add_argument(
        "--simulate",
        action="store_true",
        help="sample step times from the discrete-event schedule simulator",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the comparison as machine-readable JSON",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point (installed as ``repro-disagg``)."""
    import sys

    from repro.experiments.bench_output import write_bench_serving_json
    from repro.experiments.report import render_rows
    from repro.utils.errors import ReproError

    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.session_ttl is not None and args.prefix_cache != "on":
            raise ConfigurationError(
                "--session-ttl requires --prefix-cache on"
            )
        rows = run_disagg_sweep(
            system_name=args.system,
            model_name=args.model,
            hardware_name=args.hardware,
            fast_hardware_name=args.fast_hardware,
            num_shards=args.shards,
            prefill_shards=args.prefill_shards,
            load_factor=args.load_factor,
            chat_requests=args.chat_requests,
            long_requests=args.long_requests,
            chat_generation_len=args.chat_generation_len,
            long_generation_len=args.long_generation_len,
            ttft_factor=args.ttft_factor,
            tpot_factor=args.tpot_factor,
            seed=args.seed,
            prefix_cache=args.prefix_cache == "on",
            session_ttl=args.session_ttl,
            use_simulator=args.simulate,
            include_heterogeneous=not args.no_heterogeneous,
        )
    except ReproError as exc:
        print(f"repro-disagg: error: {exc}", file=sys.stderr)
        return 2
    columns = list(DISAGG_COLUMNS)
    if args.session_ttl is not None:
        columns.append("ttl_evictions")
    title = (
        f"Disaggregation sweep: mixed traffic @ {args.model} / "
        f"{args.hardware} x{args.shards} "
        f"({args.load_factor:g}x cluster load, seed {args.seed})"
    )
    print(render_rows(rows, columns=columns, title=title))
    if args.json:
        meta = {
            "system": args.system,
            "model": args.model,
            "hardware": args.hardware,
            "fast_hardware": args.fast_hardware,
            "shards": args.shards,
            "load_factor": args.load_factor,
            "seed": args.seed,
        }
        write_bench_serving_json(args.json, rows, meta=meta, benchmark="disagg")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

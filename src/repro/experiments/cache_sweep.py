"""Prefix-cache sweep: hit rate vs. throughput and TTFT on multi-turn chat.

One multi-turn chat arrival stream — shared system prompt, per-session
conversations whose prompts grow turn over turn — is served twice at every
load point: once with the KV cache in its per-sequence regime
(``prefix_cache=False``) and once with the shared, ref-counted block store
(``prefix_cache=True``).  Request bodies and timestamps are pinned by the
seed, so each pair of rows differs *only* in whether cached prefixes are
reused.

Every row reports the prefix-cache hit rate, the fraction of prompt tokens
served from cache, mean/percentile TTFT (split by hit/miss), token
throughput and SLO-goodput — the hit-rate-versus-latency curves that answer
whether the cache pays for its bookkeeping.  Under any meaningful hit rate,
cache-on must dominate cache-off on the same stream (asserted in tier-1
tests and checked by the quick-bench CI job).

Run directly for the CLI harness::

    python -m repro.experiments.cache_sweep --num-requests 32 --json out.json

or via ``repro-serve --workload chat --prefix-cache on``.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.hardware import get_hardware
from repro.models import get_model
from repro.serving.metrics import SLO
from repro.serving.server import default_slo
from repro.serving.sharded import ServingSystem
from repro.utils.errors import ConfigurationError
from repro.workloads import chat


def run_cache_sweep(
    load_factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    system_name: str = "moe-lightning",
    model_name: str = "mixtral-8x7b",
    hardware_name: str = "1xT4",
    generation_len: int = 16,
    num_requests: int = 48,
    turns_per_session: int = 4,
    system_prompt_len: int = 64,
    user_turn_len: int = 32,
    scheduling: str = "fcfs",
    arrival: str = "poisson",
    seed: int = 0,
    slo: SLO | None = None,
    use_simulator: bool = False,
    chunk_prefill_tokens: int | None = 128,
    store_samples: bool = True,
) -> list[dict[str, object]]:
    """Serve one chat stream with the prefix cache off and on at each load.

    Returns one row per (load factor, cache setting), cache-off first, so
    adjacent row pairs are directly comparable.

    Chunked prefill is on by default: offloading backends are weight-stream
    bound during prefill, so skipping cached tokens pays off as *fewer
    chunk steps* (each a full weight pass) rather than cheaper ones — the
    cache's TTFT/throughput win is realised through the chunk schedule.

    ``store_samples=False`` runs every point with streaming P² report
    aggregation (flat memory in the stream length); the library default
    stays exact, the CLI harness defaults to streaming.
    """
    from repro.experiments.serving_sweep import (
        ARRIVAL_PROCESSES,
        SERVING_SYSTEMS,
        offline_capacity,
    )

    if not load_factors:
        raise ConfigurationError("load_factors must not be empty")
    if arrival not in ARRIVAL_PROCESSES:
        known = ", ".join(sorted(ARRIVAL_PROCESSES))
        raise ConfigurationError(f"unknown arrival process {arrival!r}; known: {known}")
    if system_name not in SERVING_SYSTEMS:
        known = ", ".join(sorted(SERVING_SYSTEMS))
        raise ConfigurationError(f"unknown system {system_name!r}; known: {known}")

    model = get_model(model_name)
    hardware = get_hardware(hardware_name)
    workload = chat(
        generation_len=generation_len,
        num_requests=num_requests,
        turns_per_session=turns_per_session,
        system_prompt_len=system_prompt_len,
        user_turn_len=user_turn_len,
    )
    backend = SERVING_SYSTEMS[system_name](model, hardware)
    policy = backend.select_policy(workload)
    shared_slo = slo or default_slo(backend, workload, policy)
    rate_reference = offline_capacity(backend, workload, policy)

    rows: list[dict[str, object]] = []
    for load_factor in load_factors:
        rate = load_factor * rate_reference
        process = ARRIVAL_PROCESSES[arrival](rate)
        for prefix_cache in (False, True):
            serving = ServingSystem(
                backend,
                workload,
                policy=policy,
                scheduling=scheduling,
                slo=shared_slo,
                use_simulator=use_simulator,
                chunk_prefill_tokens=chunk_prefill_tokens,
                prefix_cache=prefix_cache,
                store_samples=store_samples,
            )
            result = serving.run(process, count=num_requests, seed=seed)
            row: dict[str, object] = {
                "prefix_cache": "on" if prefix_cache else "off",
                "load_factor": load_factor,
                "rate_rps": rate,
                "arrival": arrival,
            }
            row.update(result.as_row())
            row["mean_ttft"] = result.report.mean_ttft
            row["mean_ttft_hit"] = result.report.mean_ttft_hit
            row["mean_ttft_miss"] = result.report.mean_ttft_miss
            row["cache_hits"] = result.admission_stats.get("cache_hits", 0)
            rows.append(row)
    return rows


#: Columns for the printed hit-rate-vs-latency table.
CACHE_SWEEP_COLUMNS: tuple[str, ...] = (
    "system",
    "prefix_cache",
    "load_factor",
    "rate_rps",
    "completed",
    "rejected",
    "hit_rate",
    "cached_token_fraction",
    "token_throughput",
    "mean_ttft",
    "ttft_p99",
    "goodput",
    "goodput_fraction",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cache-sweep",
        description=(
            "Prefix-cache on/off sweep over a multi-turn chat stream: "
            "hit rate vs. throughput and TTFT."
        ),
    )
    parser.add_argument("--system", default="moe-lightning")
    parser.add_argument("--model", default="mixtral-8x7b")
    parser.add_argument("--hardware", default="1xT4")
    parser.add_argument(
        "--load-factors", nargs="+", type=float, default=(0.5, 1.0, 2.0, 4.0)
    )
    parser.add_argument("--generation-len", type=int, default=16)
    parser.add_argument("--num-requests", type=int, default=48)
    parser.add_argument("--turns", type=int, default=4)
    parser.add_argument("--system-prompt-len", type=int, default=64)
    parser.add_argument("--user-turn-len", type=int, default=32)
    parser.add_argument("--arrival", default="poisson")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--chunk-prefill",
        type=int,
        default=128,
        metavar="TOKENS",
        help="chunked-prefill token budget per engine step (0 disables)",
    )
    parser.add_argument(
        "--exact-report",
        action="store_true",
        help=(
            "store per-request samples and compute exact percentiles "
            "instead of the default streaming P² report"
        ),
    )
    parser.add_argument("--json", default=None, metavar="PATH")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Console harness (also the quick-bench CI entry point)."""
    import sys

    from repro.experiments.bench_output import write_bench_serving_json
    from repro.experiments.report import render_rows
    from repro.utils.errors import ReproError

    args = _build_parser().parse_args(argv)
    try:
        rows = run_cache_sweep(
            load_factors=tuple(args.load_factors),
            system_name=args.system,
            model_name=args.model,
            hardware_name=args.hardware,
            generation_len=args.generation_len,
            num_requests=args.num_requests,
            turns_per_session=args.turns,
            system_prompt_len=args.system_prompt_len,
            user_turn_len=args.user_turn_len,
            arrival=args.arrival,
            seed=args.seed,
            chunk_prefill_tokens=(
                args.chunk_prefill if args.chunk_prefill > 0 else None
            ),
            store_samples=args.exact_report,
        )
    except ReproError as exc:
        print(f"repro-cache-sweep: error: {exc}", file=sys.stderr)
        return 2
    print(
        render_rows(
            rows,
            columns=list(CACHE_SWEEP_COLUMNS),
            title=(
                f"Prefix-cache sweep: chat @ {args.model} / {args.hardware} "
                f"({args.arrival} arrivals, seed {args.seed})"
            ),
        )
    )
    if args.json:
        write_bench_serving_json(
            args.json,
            rows,
            meta={
                "source": "repro.experiments.cache_sweep",
                "model": args.model,
                "hardware": args.hardware,
                "workload": "chat",
                "generation_len": args.generation_len,
                "num_requests": args.num_requests,
                "turns_per_session": args.turns,
                "shards": 1,
                "chunk_prefill": args.chunk_prefill,
                "seed": args.seed,
            },
        )
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

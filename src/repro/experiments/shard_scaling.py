"""Sharded-serving scaling experiment: throughput and tails vs. shard count.

One arrival stream — rate fixed as a multiple of a *single* shard's offline
capacity, request bodies and timestamps pinned by the seed — is served by
1, 2, ..., N data-parallel shards behind a router.  Every point reports the
aggregate token throughput, TTFT/TPOT tails, SLO-goodput and the per-shard
utilizations, producing the throughput-vs-shards and tail-latency curves
the `repro-serve --shards N` mode prints.

Because the workload is identical across points, the curves answer the
capacity-planning question directly: how much does the next shard buy at
this load, and does the router keep it busy?
"""

from __future__ import annotations

from typing import Sequence

from repro.hardware import get_hardware
from repro.models import get_model
from repro.serving.metrics import SLO
from repro.serving.router import ROUTER_POLICIES
from repro.serving.server import default_slo
from repro.serving.sharded import ShardedServingSystem
from repro.utils.errors import ConfigurationError
from repro.workloads import get_workload


def shard_counts_up_to(max_shards: int) -> list[int]:
    """1, 2, 4, ... capped at (and always including) ``max_shards``."""
    if max_shards < 1:
        raise ConfigurationError(f"max_shards must be >= 1, got {max_shards}")
    counts = set()
    value = 1
    while value < max_shards:
        counts.add(value)
        value *= 2
    counts.add(max_shards)
    return sorted(counts)


def run_shard_scaling(
    shard_counts: Sequence[int] = (1, 2, 4),
    router: str = "round-robin",
    system_name: str = "moe-lightning",
    model_name: str = "mixtral-8x7b",
    hardware_name: str = "1xT4",
    workload_name: str = "mtbench",
    generation_len: int = 16,
    num_requests: int = 48,
    load_factor: float = 4.0,
    scheduling: str = "fcfs",
    arrival: str = "poisson",
    chunk_prefill_tokens: int | None = None,
    seed: int = 0,
    slo: SLO | None = None,
    use_simulator: bool = False,
    prefix_cache: bool = False,
    overlap: bool = False,
    session_ttl: float | None = None,
    telemetry=None,
    store_samples: bool = True,
) -> list[dict[str, object]]:
    """Serve one identical stream with each shard count; one row per point.

    The arrival rate is ``load_factor`` times one shard's offline capacity
    regardless of the point's shard count, so every row faces the same
    stream and rows differ only in how much hardware absorbs it.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) observes the *last*
    point — the highest shard count, the configuration the sweep argues
    for — so the exported trace shows every shard's lanes.

    ``store_samples=False`` runs every point with streaming P² report
    aggregation (flat memory in the stream length); the library default
    stays exact, the ``repro-serve`` CLI defaults to streaming.
    """
    from repro.experiments.serving_sweep import (
        ARRIVAL_PROCESSES,
        SERVING_SYSTEMS,
        offline_capacity,
    )

    if router not in ROUTER_POLICIES:
        known = ", ".join(ROUTER_POLICIES)
        raise ConfigurationError(f"unknown router policy {router!r}; known: {known}")
    if arrival not in ARRIVAL_PROCESSES:
        known = ", ".join(sorted(ARRIVAL_PROCESSES))
        raise ConfigurationError(f"unknown arrival process {arrival!r}; known: {known}")
    if system_name not in SERVING_SYSTEMS:
        known = ", ".join(sorted(SERVING_SYSTEMS))
        raise ConfigurationError(f"unknown system {system_name!r}; known: {known}")
    if not shard_counts:
        raise ConfigurationError("shard_counts must not be empty")

    model = get_model(model_name)
    hardware = get_hardware(hardware_name)
    workload = get_workload(
        workload_name, generation_len=generation_len, num_requests=num_requests
    )
    backend = SERVING_SYSTEMS[system_name](model, hardware)
    policy = backend.select_policy(workload)
    shared_slo = slo or default_slo(backend, workload, policy)
    rate = load_factor * offline_capacity(backend, workload, policy)
    process = ARRIVAL_PROCESSES[arrival](rate)

    rows: list[dict[str, object]] = []
    for index, num_shards in enumerate(shard_counts):
        # One shard is the plain ServingSystem's configuration, so every
        # point goes through the same machinery and reports the same columns.
        sharded = ShardedServingSystem(
            backend,
            workload,
            num_shards=num_shards,
            router=router,
            policy=policy,
            scheduling=scheduling,
            slo=shared_slo,
            chunk_prefill_tokens=chunk_prefill_tokens,
            use_simulator=use_simulator,
            prefix_cache=prefix_cache,
            overlap=overlap,
            session_ttl=session_ttl,
            store_samples=store_samples,
        )
        attach = telemetry if index == len(shard_counts) - 1 else None
        row = sharded.run(
            process, count=num_requests, seed=seed, telemetry=attach
        ).as_row()
        row["load_factor"] = load_factor
        row["rate_rps"] = rate
        row["arrival"] = arrival
        row["prefix_cache"] = "on" if prefix_cache else "off"
        row["overlap"] = "on" if overlap else "off"
        rows.append(row)
    return rows


#: Columns for the printed throughput-vs-shards table.
SHARD_SCALING_COLUMNS: tuple[str, ...] = (
    "num_shards",
    "router",
    "rate_rps",
    "completed",
    "rejected",
    "token_throughput",
    "ttft_p50",
    "ttft_p99",
    "tpot_p50",
    "tpot_p99",
    "goodput",
    "goodput_fraction",
    "shard_util_mean",
    "shard_util_min",
    "shard_util",
)

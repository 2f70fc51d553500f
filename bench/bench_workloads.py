"""The benchmark's four workloads: set-up, one measured pass, its checks.

Every workload serves Mixtral-8x7B on 16 single-GPU shards through the
public :class:`~repro.serving.sharded.ShardedServingSystem` API, with
open-loop Poisson arrivals at 0.8x the shards' aggregate offline capacity,
drawn in simulated time from the run's seed.  A *pass* is every
``system.run`` call of one workload on one set-up; all passes of one seed
serve identical inputs, so they must produce identical signatures.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from repro.cluster.spec import ClusterSpec, DeviceSpec
from repro.experiments.disagg_sweep import mixed_traffic, mixed_workload
from repro.experiments.serving_sweep import offline_capacity
from repro.hardware import get_hardware
from repro.models import get_model
from repro.serving.arrivals import PoissonProcess
from repro.serving.faults import FaultSchedule, ResiliencePolicy
from repro.serving.server import default_slo
from repro.serving.sharded import ShardedServingResult, ShardedServingSystem
from repro.systems import MoELightningSystem
from repro.workloads import chat, summarization

MODEL = "mixtral-8x7b"
NUM_SHARDS = 16
LOAD_FACTOR = 0.8

#: ``--scale smoke`` divides every request count by this.
SMOKE_DIVISOR = 100


@dataclass
class Setup:
    """A constructed system plus the inputs one pass serves."""

    system: ShardedServingSystem
    #: ``(arrivals, count, seed)`` for each ``system.run`` call of a pass.
    streams: list[tuple[object, int | None, int]]
    #: Stream requests one pass offers (retries not counted).
    requests: int
    #: Set-up wall seconds by phase: ``policy``, ``inputs``, ``system``.
    times: dict[str, float]


@dataclass
class PassResult:
    results: list[ShardedServingResult]
    #: Wall seconds spent inside ``ShardedServingSystem.run``.
    wall_s: float
    requests: int


def _backend() -> MoELightningSystem:
    return MoELightningSystem(get_model(MODEL), get_hardware("1xT4"))


def _chat_stream(
    generation_len: int,
    requests: int,
    streams: int,
    router: str,
    prefix_cache: bool,
    system_prompt_len: int = 64,
    serving_shards: int = NUM_SHARDS,
) -> Callable[[int, int], Setup]:
    """A streaming multi-turn chat workload of ``streams`` x ``requests``.

    Streams receive the Poisson process and a seed, never a pre-built
    list: lazy columnar arrival generation is itself a measured layer.
    The arrival rate is sized to the ``serving_shards`` that actually
    serve the stream.
    """

    def build(seed: int, divisor: int) -> Setup:
        count = max(1, requests // divisor)
        start = time.perf_counter()
        backend = _backend()
        workload = chat(
            generation_len=generation_len,
            num_requests=count,
            system_prompt_len=system_prompt_len,
        )
        policy = backend.select_policy(workload)
        policy_done = time.perf_counter()
        rate = LOAD_FACTOR * serving_shards * offline_capacity(backend, workload, policy)
        process = PoissonProcess(rate)
        inputs_done = time.perf_counter()
        system = ShardedServingSystem(
            backend,
            workload,
            num_shards=NUM_SHARDS,
            router=router,
            policy=policy,
            prefix_cache=prefix_cache,
            store_samples=False,
        )
        system_done = time.perf_counter()
        return Setup(
            system=system,
            # Seeds never share a stream: seed S serves stream seeds
            # S*streams ... S*streams + streams - 1.
            streams=[(process, count, seed * streams + k) for k in range(streams)],
            requests=count * streams,
            times={
                "policy": policy_done - start,
                "inputs": inputs_done - policy_done,
                "system": system_done - inputs_done,
            },
        )

    return build


#: Decode shards restarted one at a time by ``disagg-chaos``.
CHAOS_SHARDS = (4, 7, 10, 13)
NUM_PREFILL = 4


def _disagg_chaos(chat_requests: int, long_requests: int) -> Callable[[int, int], Setup]:
    """Mixed chat + summarization traffic on an L4-prefill/T4-decode cluster
    under a rolling restart of four decode shards, with retries."""

    def build(seed: int, divisor: int) -> Setup:
        n_chat = max(1, chat_requests // divisor)
        n_long = max(1, long_requests // divisor)
        start = time.perf_counter()
        backend = _backend()
        chat_spec = chat(generation_len=64, num_requests=n_chat)
        long_spec = summarization(generation_len=32, num_requests=n_long)
        workload = mixed_workload(chat_spec, long_spec)
        policy = backend.select_policy(workload)
        policy_done = time.perf_counter()
        rate = LOAD_FACTOR * NUM_SHARDS * offline_capacity(backend, workload, policy)
        total = n_chat + n_long
        arrivals = mixed_traffic(
            chat_spec,
            long_spec,
            rate * n_chat / total,
            rate * n_long / total,
            seed=seed,
        )
        horizon = arrivals[-1].arrival_time
        faults = FaultSchedule.rolling_restart(
            CHAOS_SHARDS,
            start=0.20 * horizon,
            interval=0.15 * horizon,
            downtime=0.05 * horizon,
            load_time=0.01 * horizon,
        )
        inputs_done = time.perf_counter()
        prefill, decode = get_hardware("1xL4"), get_hardware("1xT4")
        cluster = ClusterSpec.of_devices(
            [DeviceSpec(i, prefill, role="prefill") for i in range(NUM_PREFILL)]
            + [
                DeviceSpec(i, decode, role="decode")
                for i in range(NUM_PREFILL, NUM_SHARDS)
            ]
        )
        system = ShardedServingSystem(
            backend,
            workload,
            cluster=cluster,
            policy=policy,
            # The TPOT-tight SLO repro-disagg scores disaggregation with.
            slo=default_slo(backend, workload, policy, tpot_factor=1.1),
            prefix_cache=True,
            faults=faults,
            resilience=ResiliencePolicy(max_retries=2),
        )
        system_done = time.perf_counter()
        return Setup(
            system=system,
            streams=[(arrivals, None, seed)],
            requests=total,
            times={
                "policy": policy_done - start,
                "inputs": inputs_done - policy_done,
                "system": system_done - inputs_done,
            },
        )

    return build


#: Workload name -> ``build(seed, divisor)``, one fresh set-up with every
#: request count divided by ``divisor``.
#:
#: Cache-aware routing sends an arrival to the shard with the longest
#: cached match.  Under chat's shared 64-token (four-block) system prompt
#: the first shard to cache it matches every later arrival, so
#: ``chat-decode`` runs on shard 0 alone and its rate is sized to that one
#: shard.  ``prefix-hit``'s 8-token system prompt fills no whole block, so
#: a session's first turn matches nowhere, lands least-loaded, and its
#: later turns follow their own history across all 16 shards.
WORKLOADS: dict[str, Callable[[int, int], Setup]] = {
    "chat-decode": _chat_stream(128, 6_000, 1, "cache-aware", True, serving_shards=1),
    "short-nocache": _chat_stream(8, 25_000, 1, "least-loaded", False),
    "prefix-hit": _chat_stream(8, 8_000, 2, "cache-aware", True, system_prompt_len=8),
    "disagg-chaos": _disagg_chaos(2_700, 270),
}


def run_pass(setup: Setup) -> PassResult:
    """Serve every stream of ``setup`` once, timing only ``system.run``."""
    results = []
    wall = 0.0
    for arrivals, count, seed in setup.streams:
        start = time.perf_counter()
        results.append(setup.system.run(arrivals, count=count, seed=seed))
        wall += time.perf_counter() - start
    return PassResult(results=results, wall_s=wall, requests=setup.requests)


def signature(results: list[ShardedServingResult]) -> str:
    """SHA-256 of the pass's canonical outputs (floats written via repr)."""
    document = [
        {
            "report": result.report.as_row(),
            "shards": [stats.as_row() for stats in result.shard_stats],
            "admission": result.admission_stats,
            "faults": result.fault_stats,
            "makespan": result.makespan,
        }
        for result in results
    ]
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def conservation_errors(results: list[ShardedServingResult]) -> list[str]:
    """Request accounting that does not balance.

    Every unified shard must finish or reject what it was offered.  A
    prefill shard's requests finish on decode shards, so disaggregated
    pools balance across the cluster instead; the cluster must also
    account for every attempt the report counted.
    """
    errors = []
    for result in results:
        shards = result.shard_stats
        errors += [
            f"shard {s.shard_id}: offered {s.offered} != completed "
            f"{s.completed} + rejected {s.rejected}"
            for s in shards
            if s.role == "unified" and s.offered != s.completed + s.rejected
        ]
        offered = sum(s.offered for s in shards)
        settled = sum(s.completed + s.rejected for s in shards)
        if not offered == settled == result.report.num_offered:
            errors.append(
                f"cluster: offered {offered}, settled {settled}, report "
                f"offered {result.report.num_offered}"
            )
    return errors


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def result_metrics(results: list[ShardedServingResult]) -> dict[str, float]:
    """Every metric read off a pass's results (not its wall clock).

    Rates, latencies and fractions are means over the pass's streams;
    counts are totals over them.
    """
    reports = [result.report for result in results]

    def busy_frac(result: ShardedServingResult, field: str) -> float:
        capacity = result.makespan * len(result.shard_stats)
        return sum(getattr(s, field) for s in result.shard_stats) / capacity

    return {
        "sim_tokens_per_s": _mean(r.token_throughput for r in reports),
        "sim_goodput_rps": _mean(r.goodput for r in reports),
        "sim_ttft_p50_s": _mean(r.ttft[50] for r in reports),
        "sim_ttft_p99_s": _mean(r.ttft[99] for r in reports),
        "sim_tpot_p99_s": _mean(r.tpot[99] for r in reports),
        "sim_served_frac": _mean(1.0 - r.num_rejected / r.num_offered for r in reports),
        "sim.decode_busy_frac": _mean(busy_frac(r, "decode_stream_busy") for r in results),
        "sim.prefill_busy_frac": _mean(
            busy_frac(r, "prefill_stream_busy") for r in results
        ),
        "sim.shard_util_min": _mean(min(r.shard_utilizations) for r in results),
        "admission.hit_rate": _mean(r.hit_rate for r in reports),
        "admission.cached_token_frac": _mean(r.cached_token_fraction for r in reports),
        "admission.rejected_kv": sum(r.admission_stats["rejected_kv"] for r in results),
        "faults.retries": sum(r.fault_stats.get("retries", 0) for r in results),
        "disagg.migrated": sum(r.admission_stats.get("migrated_in", 0) for r in results),
        "engine.steps": sum(s.num_steps for r in results for s in r.shard_stats),
    }


class Checks:
    """Signature and output checks shared by every pass of one run."""

    def __init__(self, expected: str | None) -> None:
        self.expected = expected
        self.signature: str | None = None
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def serve(self, setup: Setup) -> PassResult | None:
        """One checked pass; ``None`` when it raised or failed a check."""
        self.attempted += 1
        try:
            result = run_pass(setup)
        except Exception:
            traceback.print_exc()
            return self._fail(["pass raised an exception"])
        problems = conservation_errors(result.results)
        digest = signature(result.results)
        if self.signature is None:
            self.signature = digest
            print(f"signature {digest}", flush=True)
            if self.expected is not None and digest != self.expected:
                problems.append(f"signature {digest} != expected {self.expected}")
        elif digest != self.signature:
            problems.append(f"signature {digest} differs from first pass")
        return self._fail(problems) if problems else result

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.failures.extend(problems)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return None

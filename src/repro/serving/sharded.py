"""Online serving: N data-parallel engines behind a router.

:class:`ShardedServingSystem` serves a single arrival stream over
``num_shards`` replicas of one offloading backend — each an independent
:class:`~repro.serving.server.EngineCore` with its own queue, admission
controller and KV cache — split by a
:class:`~repro.serving.router.ShardRouter` (or, disaggregated, by the
phase-aware router in front of a prefill and a decode pool).
:class:`ServingSystem` is its one-shard case: the same loop, reported as a
single engine's :class:`ServingResult`.

The run loop is the timestamp-ordered event queue of
:mod:`repro.serving.event_loop`: arrivals and per-shard step completions
interleave in true global time order, so routing decisions, admissions and
retirements happen exactly when they would on a live cluster — the router
never observes a shard clock that overshot the arrival instant.  (The
original time-sliced multiplexer survives as :meth:`run_time_sliced`: the
simperf gate times it as its machine normaliser.)

Shards correspond to the devices of a
:class:`~repro.cluster.spec.ClusterSpec` (scale-out semantics: each shard
owns its node), and the result reports per-shard utilization and
prefill/decode stream occupancy alongside the aggregate latency/goodput
metrics, so imbalance — the router's failure mode — is directly visible.

Determinism: same backend, arrival process, router policy and seed give
identical per-request timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.cluster.spec import ClusterSpec, ethernet_100g
from repro.core.policy import Policy
from repro.serving.arrivals import ArrivalProcess, TimedRequest
from repro.serving.event_loop import ServingEventLoop
from repro.serving.faults import FaultInjector, FaultSchedule, ResiliencePolicy
from repro.serving.metrics import SLO, ReportBuilder, ServingReport, summarize
from repro.serving.queue import QUEUE_ORDERINGS, ServingRequest
from repro.serving.router import PhaseRouter, ShardRouter
from repro.serving.scheduler import SCHEDULING_POLICIES
from repro.serving.server import EngineCore, EngineStep, EngineStepModel, default_slo
from repro.systems.base import OffloadingSystem
from repro.utils.errors import ConfigurationError
from repro.utils.validation import require_in, require_positive, require_positive_int
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class ShardStats:
    """One shard's share of a sharded serving run."""

    shard_id: int
    offered: int
    completed: int
    rejected: int
    tokens_generated: int
    busy_time: float
    utilization: float
    decode_stream_busy: float = 0.0
    prefill_stream_busy: float = 0.0
    overlap_fraction: float = 0.0
    #: Engine steps this shard executed (simperf's event count alongside
    #: arrivals); 0 only on an idle shard.
    num_steps: int = 0
    #: Phase role this shard served (``unified`` outside disaggregation)
    #: and its KV-migration traffic (0/0 on unified shards).
    role: str = "unified"
    migrated_in: int = 0
    migrated_out: int = 0

    def as_row(self) -> dict[str, object]:
        """Flat dictionary for the table renderer."""
        return {
            "shard": self.shard_id,
            "role": self.role,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "tokens": self.tokens_generated,
            "busy_s": self.busy_time,
            "utilization": self.utilization,
            "decode_busy_s": self.decode_stream_busy,
            "prefill_busy_s": self.prefill_stream_busy,
            "overlap_fraction": self.overlap_fraction,
            "num_steps": self.num_steps,
            "migrated_in": self.migrated_in,
            "migrated_out": self.migrated_out,
        }


@dataclass(frozen=True)
class ShardedServingResult:
    """Aggregate and per-shard outcome of one sharded serving run."""

    system: str
    workload: str
    scheduling: str
    router: str
    num_shards: int
    policy: Policy
    slo: SLO
    requests: list[ServingRequest]
    makespan: float
    report: ServingReport
    shard_stats: list[ShardStats]
    admission_stats: dict[str, int] = field(default_factory=dict)
    #: Injected-fault counters (crashes, recoveries, retries, KV lost,
    #: unavailability seconds); empty on every fault-free run.
    fault_stats: dict[str, float] = field(default_factory=dict)

    @property
    def shard_utilizations(self) -> list[float]:
        """Per-shard busy fractions over the run's makespan."""
        return [stats.utilization for stats in self.shard_stats]

    @property
    def overlap_fraction(self) -> float:
        """Cluster-wide fraction of busy time with both streams executing.

        The busy-time-weighted mean of the per-shard fractions, which are
        accumulated per step (a pure step contributes exactly zero, with
        no float residue from regrouped stream sums).
        """
        busy = sum(stats.busy_time for stats in self.shard_stats)
        if busy <= 0:
            return 0.0
        overlapped = sum(
            stats.overlap_fraction * stats.busy_time for stats in self.shard_stats
        )
        return overlapped / busy

    def as_row(self) -> dict[str, object]:
        """Flat dictionary for the table renderer."""
        utils = self.shard_utilizations
        row: dict[str, object] = {
            "system": self.system,
            "workload": self.workload,
            "scheduling": self.scheduling,
            "router": self.router,
            "num_shards": self.num_shards,
            "batch_size": self.policy.batch_size,
        }
        row.update(self.report.as_row())
        row["shard_util_mean"] = sum(utils) / len(utils) if utils else 0.0
        row["shard_util_min"] = min(utils) if utils else 0.0
        row["shard_util"] = "/".join(f"{u:.2f}" for u in utils)
        row["overlap_fraction"] = self.overlap_fraction
        row["decode_busy_s"] = sum(s.decode_stream_busy for s in self.shard_stats)
        row["prefill_busy_s"] = sum(s.prefill_stream_busy for s in self.shard_stats)
        # Fault counters render on every row (zeros on fault-free runs) so
        # chaos-sweep tables stay rectangular across scenarios.
        faults = self.fault_stats
        row["crashes"] = int(faults.get("crashes", 0))
        row["recoveries"] = int(faults.get("recoveries", 0))
        row["unavailability_s"] = faults.get("unavailability_s", 0.0)
        row["kv_bytes_lost"] = faults.get("kv_bytes_lost", 0.0)
        return row


@dataclass(frozen=True)
class ServingResult:
    """Everything one single-engine serving run produced.

    ``requests`` and ``steps`` are empty in streaming mode
    (``store_samples=False``); the stream busy totals come from the
    engine's accumulators, so they exist either way.
    """

    system: str
    workload: str
    scheduling: str
    policy: Policy
    slo: SLO
    requests: list[ServingRequest]
    steps: list[EngineStep]
    makespan: float
    report: ServingReport
    admission_stats: dict[str, int]
    decode_stream_busy: float
    prefill_stream_busy: float
    #: Fraction of engine busy time with both streams executing.
    overlap_fraction: float

    def as_row(self) -> dict[str, object]:
        """Flat dictionary for the table renderer."""
        row: dict[str, object] = {
            "system": self.system,
            "workload": self.workload,
            "scheduling": self.scheduling,
            "batch_size": self.policy.batch_size,
            "micro_batch_size": self.policy.micro_batch_size,
        }
        row.update(self.report.as_row())
        row["overlap_fraction"] = self.overlap_fraction
        row["decode_busy_s"] = self.decode_stream_busy
        row["prefill_busy_s"] = self.prefill_stream_busy
        return row


class ShardedServingSystem:
    """Routed serving over N shards (round-robin / least-loaded /
    session-affinity / cache-aware), optionally with per-shard prefix
    caches."""

    def __init__(
        self,
        backend: OffloadingSystem,
        workload,
        num_shards: int | None = None,
        cluster: ClusterSpec | None = None,
        router: str = "round-robin",
        policy: Policy | None = None,
        scheduling: str = "fcfs",
        queue_ordering: str = "fcfs",
        max_queue_depth: int | None = None,
        slo: SLO | None = None,
        use_simulator: bool = False,
        ctx_bucket: int = 32,
        block_tokens: int = 16,
        chunk_prefill_tokens: int | None = None,
        prefix_cache: bool = False,
        overlap: bool = False,
        store_samples: bool = True,
        disaggregated: bool = False,
        prefill_shards: int | None = None,
        session_ttl: float | None = None,
        faults: FaultSchedule | None = None,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        if num_shards is None:
            if cluster is None:
                raise ConfigurationError(
                    "either num_shards or a cluster must be provided"
                )
            num_shards = cluster.num_devices
        elif cluster is not None and cluster.num_devices != num_shards:
            raise ConfigurationError(
                f"num_shards ({num_shards}) does not match the cluster's "
                f"device count ({cluster.num_devices})"
            )
        require_positive_int("num_shards", num_shards)
        # Engine knobs are validated here, naming the parameter, so
        # configuration errors surface at construction rather than when
        # run() builds the cores.
        require_in("scheduling", scheduling, SCHEDULING_POLICIES)
        require_in("queue_ordering", queue_ordering, QUEUE_ORDERINGS)
        if max_queue_depth is not None:
            require_positive_int("max_queue_depth", max_queue_depth)
        require_positive_int("block_tokens", block_tokens)
        if chunk_prefill_tokens is not None:
            require_positive_int("chunk_prefill_tokens", chunk_prefill_tokens)
        if session_ttl is not None:
            require_positive("session_ttl", session_ttl)
        self.backend = backend
        self.workload = workload
        self.num_shards = num_shards
        if cluster is None and backend.hardware.tp_size == 1:
            # Describe the default deployment: one backend node per shard.
            # Multi-GPU backend nodes stay cluster-less here — each shard is
            # simply a replica of that aggregate node.
            cluster = ClusterSpec.scale_out(backend.hardware, num_shards)
        self.cluster = cluster
        self.router_policy = router
        self.policy = policy or backend.select_policy(workload)
        self.scheduling = scheduling
        self.queue_ordering = queue_ordering
        self.max_queue_depth = max_queue_depth
        self.slo = slo or default_slo(backend, workload, self.policy)
        self.block_tokens = block_tokens
        self.chunk_prefill_tokens = chunk_prefill_tokens
        if router == "cache-aware" and not prefix_cache:
            raise ConfigurationError(
                "cache-aware routing requires prefix_cache=True: without the "
                "shared block store there is no per-shard prefix state to "
                "route on"
            )
        self.prefix_cache = prefix_cache
        self.overlap = overlap
        if session_ttl is not None and not prefix_cache:
            raise ConfigurationError(
                "session_ttl requires prefix_cache=True: without the shared "
                "block store there are no idle cached sessions to expire"
            )
        self.session_ttl = session_ttl
        #: Chaos layer: a seeded :class:`FaultSchedule` of crash/recover/
        #: straggle/link events and a request-level
        #: :class:`ResiliencePolicy` (deadline, retries, shedding).  Both
        #: ``None`` (the default) leaves the run on the historical
        #: fault-free code path; an *empty* schedule attaches an injector
        #: whose every hook is inert, reproducing the same timeline
        #: bit-for-bit (asserted at tier 1).
        self.faults = faults
        self.resilience = resilience
        if faults is not None:
            bad = [s for s in faults.shards() if not 0 <= s < num_shards]
            if bad:
                raise ConfigurationError(
                    f"fault schedule targets shards {bad} outside the "
                    f"{num_shards}-shard cluster"
                )
        # ------------------------------------------------------------------
        # Phase roles: explicit device roles on the cluster win; otherwise
        # ``disaggregated=True`` splits the shard range into a prefill pool
        # followed by a decode pool.
        # ------------------------------------------------------------------
        if self.cluster is not None and self.cluster.is_disaggregated:
            disaggregated = True
        self.disaggregated = disaggregated
        if not disaggregated and prefill_shards is not None:
            raise ConfigurationError(
                "prefill_shards requires disaggregated=True"
            )
        if disaggregated:
            if num_shards < 2:
                raise ConfigurationError(
                    "disaggregated serving needs at least 2 shards (one "
                    "prefill, one decode)"
                )
            if self.cluster is not None and self.cluster.is_disaggregated:
                if prefill_shards is not None:
                    raise ConfigurationError(
                        "prefill_shards conflicts with a cluster that "
                        "already assigns device roles"
                    )
                self.shard_roles = [
                    self.cluster.device(i).role for i in range(num_shards)
                ]
            else:
                n_prefill = (
                    prefill_shards
                    if prefill_shards is not None
                    else max(1, num_shards // 2)
                )
                if not 0 < n_prefill < num_shards:
                    raise ConfigurationError(
                        f"prefill_shards must leave at least one decode "
                        f"shard: got {n_prefill} of {num_shards}"
                    )
                self.shard_roles = ["prefill"] * n_prefill + ["decode"] * (
                    num_shards - n_prefill
                )
        else:
            self.shard_roles = ["unified"] * num_shards
        #: ``store_samples=False`` switches :meth:`run` to the streaming
        #: hot path: lazy arrivals, no per-step records, P^2 sketch report.
        #: The serving timeline is identical either way; only report
        #: percentiles may differ (within P^2 tolerance).
        self.store_samples = store_samples
        # One step model shared by every shard: the replicas are identical,
        # so the (batch, context) -> latency memo is shard-agnostic.
        self.step_model = EngineStepModel(
            backend,
            workload,
            self.policy,
            use_simulator=use_simulator,
            ctx_bucket=ctx_bucket,
        )
        # A device-bearing cluster prices each shard against its own node:
        # per-shard backends (same system, that device's hardware) feed both
        # the shard's step model and its admission budgets.  Clusters without
        # explicit devices share the backend and the step model above.
        self._shard_backends = [backend] * num_shards
        self._shard_step_models = [self.step_model] * num_shards
        self._ready_at = [0.0] * num_shards
        if self.cluster is not None and self.cluster.devices:
            self._shard_backends = []
            self._shard_step_models = []
            for i in range(num_shards):
                device = self.cluster.device(i)
                shard_backend = backend.with_hardware(device.node)
                self._shard_backends.append(shard_backend)
                self._shard_step_models.append(
                    EngineStepModel(
                        shard_backend,
                        workload,
                        self.policy,
                        use_simulator=use_simulator,
                        ctx_bucket=ctx_bucket,
                    )
                )
                self._ready_at[i] = (
                    device.ready_at if device.serves else float("inf")
                )
        # Validate the router policy eagerly so configuration errors
        # surface at construction, not mid-run.
        ShardRouter(num_shards, router)

    def _as_served(self, request):
        """Apply the backend's padding discipline to an arriving request.

        Padding-based systems (FlexGen, MoE-Lightning(p)) store and compute
        over the workload's maximum prompt length for every request, so the
        padded length must drive KV admission and decode context — exactly
        as the offline memory/performance models charge it.
        """
        if not self.backend.padded:
            return request
        return request.padded_to(
            max(self.workload.max_prompt_len, request.input_len)
        )

    def _make_cores(
        self,
        telemetry=None,
        record_steps: bool = True,
        on_finish: Callable[[ServingRequest], None] | None = None,
        on_reject: Callable[[ServingRequest], None] | None = None,
        on_finish_batch: Callable[[list[ServingRequest]], None] | None = None,
    ) -> list[EngineCore]:
        cores = []
        for shard_id in range(self.num_shards):
            core = EngineCore(
                backend=self._shard_backends[shard_id],
                workload=self.workload,
                policy=self.policy,
                step_model=self._shard_step_models[shard_id],
                scheduling=self.scheduling,
                queue_ordering=self.queue_ordering,
                max_queue_depth=self.max_queue_depth,
                block_tokens=self.block_tokens,
                chunk_prefill_tokens=self.chunk_prefill_tokens,
                shard_id=shard_id,
                prefix_cache=self.prefix_cache,
                overlap=self.overlap,
                role=self.shard_roles[shard_id],
                session_ttl=self.session_ttl,
                telemetry=telemetry,
                record_steps=record_steps,
                on_finish=on_finish,
                on_reject=on_reject,
                on_finish_batch=on_finish_batch,
                resilience=self.resilience,
                slo=self.slo,
            )
            ready_at = self._ready_at[shard_id]
            if 0.0 < ready_at < float("inf"):
                # A loading device's clock starts where its weight stream
                # ends: its first step cannot begin before the model is
                # resident (arrivals queue against that clock).
                core.now = ready_at
            cores.append(core)
        return cores

    def _make_injector(
        self, cores: list[EngineCore], telemetry=None
    ) -> FaultInjector | None:
        """One fresh injector per run, or ``None`` on the fault-free path.

        Constructed when either chaos input is present: a schedule (even an
        empty one — the determinism contract is tested through exactly this
        path) or a resilience policy (whose retries need the injector's
        re-injection machinery even with no faults scheduled).
        """
        if self.faults is None and self.resilience is None:
            return None
        schedule = self.faults if self.faults is not None else FaultSchedule.empty()
        return FaultInjector(
            cores, schedule, resilience=self.resilience, telemetry=telemetry
        )

    # ------------------------------------------------------------------
    # The sharded serving loop
    # ------------------------------------------------------------------
    def _materialize(
        self,
        arrivals: ArrivalProcess | list[TimedRequest],
        count: int | None,
        seed: int,
    ) -> list[ServingRequest]:
        if isinstance(arrivals, ArrivalProcess):
            stream = arrivals.generate(self.workload, count=count, seed=seed)
        else:
            stream = sorted(arrivals, key=lambda timed: timed.arrival_time)
        return [
            ServingRequest(
                request=self._as_served(timed.request),
                arrival_time=timed.arrival_time,
            )
            for timed in stream
        ]

    def _route_fn(self, router: ShardRouter):
        """Polling routing callback: loads (and cache matches) are scanned
        across every shard per arrival.

        The reference implementation for :meth:`_incremental_route_fn` —
        O(shards) (O(shards x prompt) when cache-aware) per arrival, kept
        for :meth:`run_time_sliced`.
        """

        def route(serving_request: ServingRequest, cores) -> int:
            loads = [core.load() for core in cores]
            prefix_lens = None
            if self.router_policy == "cache-aware":
                # The router measures each shard's actual cached-prefix
                # match at the arrival instant — the live counterpart of
                # session affinity's static hash.
                prefix_lens = [
                    core.admission.match_prefix(serving_request.request)
                    for core in cores
                ]
            return router.route(serving_request, loads, prefix_lens)

        return route

    def _incremental_route_fn(self, router: ShardRouter, cores: list[EngineCore]):
        """O(1)-state routing: cores publish load deltas to a shared board.

        Instead of polling ``core.load()`` across every shard per arrival,
        each core pushes its +1/-1 load changes into one shared list as
        they happen (see ``EngineCore.attach_load_board``), so the router
        just reads it.  Cache-aware routing reads the prompt's columnar
        hash chain (precomputed by the workload generator) and walks each
        shard's content index directly — for the shards that do not hold
        the session's prefix that is a single dict probe, and no per-shard
        re-hashing or method dispatch happens anywhere.  Routing decisions
        are identical to the polling closure: the board always equals
        ``[core.load() for core in cores]`` and the per-index walk counts
        exactly the blocks :meth:`SharedBlockStore.match_prefix_hashes`
        would return.
        """
        board = [0] * len(cores)
        for core in cores:
            core.attach_load_board(board)
        if self.router_policy != "cache-aware":

            def route(serving_request: ServingRequest, cores) -> int:
                return router.route(serving_request, board, None)

            return route

        indexes = [core.admission.kv_cache.block_store.prefix_index for core in cores]
        block_tokens = self.block_tokens

        def route(serving_request: ServingRequest, cores) -> int:
            request = serving_request.request
            hashes = request.block_hash_chain(block_tokens)
            if not hashes:
                prefix_lens = [0] * len(board)
            else:
                # The match is capped one token short of the full prompt
                # (prefill must compute at least one token), so only the
                # first ``(input_len - 1) // block_tokens`` blocks can
                # ever match regardless of the chain's length.
                max_blocks = (request.input_len - 1) // block_tokens
                probe = hashes[:max_blocks] if len(hashes) > max_blocks else hashes
                prefix_lens = []
                append = prefix_lens.append
                for index in indexes:
                    depth = 0
                    for block_hash in probe:
                        if block_hash in index:
                            depth += 1
                        else:
                            break
                    append(depth * block_tokens)
            return router.route(serving_request, board, prefix_lens)

        return route

    def run(
        self,
        arrivals: ArrivalProcess | list[TimedRequest],
        count: int | None = None,
        seed: int = 0,
        telemetry=None,
    ) -> ShardedServingResult:
        """Serve one request stream across every shard to completion.

        Event-driven: a central timestamp-ordered queue interleaves
        arrivals with per-shard step completions, so the router observes
        every shard's true outstanding load at the arrival instant and
        admissions/retirements apply in global time order.

        Disaggregated runs route every arrival to the prefill shard that
        will start it soonest (outstanding prompt tokens over measured
        prefill speed); a completed prompt's KV migrates to the decode
        shard with the most headroom as a scheduled transfer event priced
        on the cluster link, with blocks the target already caches
        deduplicated out of the transfer.

        ``telemetry`` optionally attaches a fresh
        :class:`repro.obs.Telemetry` for this run; disabled, the run is
        bit-for-bit the historical timeline.
        """
        builder: ReportBuilder | None = None
        if self.store_samples:
            records = self._materialize(arrivals, count, seed)
            cores = self._make_cores(telemetry=telemetry)
        else:
            # Streaming mode: no per-step records, no retained requests.
            # Terminal requests flow straight into the sketch-backed
            # report builder and are then garbage — peak memory is the
            # live working set, independent of stream length.
            records = []
            builder = ReportBuilder(self.slo, store_samples=False)
            cores = self._make_cores(
                telemetry=telemetry,
                record_steps=False,
                on_reject=builder.observe,
                on_finish_batch=builder.observe_many,
            )
        controller: _DisaggController | None = None
        if self.disaggregated:
            controller = _DisaggController(self, cores)
            route = controller.route
        else:
            router = ShardRouter(self.num_shards, self.router_policy)
            route = self._incremental_route_fn(router, cores)
        injector = self._make_injector(cores, telemetry)
        if injector is not None:
            if controller is not None:
                # The phase router's own readiness filter does the
                # avoidance: the injector flips ``ready_at[shard]`` to +inf
                # on crash and to the reload-complete instant on recovery,
                # and both route_prefill and route_decode already skip
                # not-yet-ready shards.  No wrapper — a wrapper's
                # least-loaded fallback could cross the phase boundary.
                injector.add_ready_view(controller.router.ready_at)
                injector.on_crash_drops.append(controller.on_crash_drops)
                controller.injector = injector
            else:
                # Dead/loading shards leave the routable set; retries
                # re-route through the same avoidance-wrapped policy.
                route = injector.wrap_route(route)
            injector.set_route(route)
            for core in cores:
                core.on_fail = injector.handle_failure
        loop = ServingEventLoop(cores, route, telemetry=telemetry)
        if controller is not None:
            controller.attach(loop)
        if injector is not None:
            injector.attach(
                loop,
                record_sink=records.append if builder is None else None,
            )
        if builder is None:
            makespan = loop.run(records)
            report = summarize(records, makespan=makespan, slo=self.slo)
        else:
            makespan = loop.run_stream(self._stream_records(arrivals, count, seed))
            report = builder.build(makespan)
        return self._finalize(
            records,
            cores,
            makespan,
            report,
            router_name="phase-aware" if controller is not None else None,
            injector=injector,
        )

    def _stream_records(
        self,
        arrivals: ArrivalProcess | list[TimedRequest],
        count: int | None,
        seed: int,
    ) -> Iterator[ServingRequest]:
        """Lazy counterpart of :meth:`_materialize` for :meth:`run_stream`.

        Prompt content identity is only attached when a prefix cache will
        consume it — and then as columnar block-hash chains at this
        system's block size, so even the cache-aware path materialises no
        token ids; otherwise the columnar generators keep per-request cost
        to one small object.
        """
        if isinstance(arrivals, ArrivalProcess):
            stream = arrivals.generate_lazy(
                self.workload,
                count=count,
                seed=seed,
                token_ids=self.prefix_cache,
                prefix_block_tokens=self.block_tokens,
            )
        else:
            stream = iter(sorted(arrivals, key=lambda timed: timed.arrival_time))
        for timed in stream:
            yield ServingRequest(
                request=self._as_served(timed.request),
                arrival_time=timed.arrival_time,
            )

    def run_time_sliced(
        self,
        arrivals: ArrivalProcess | list[TimedRequest],
        count: int | None = None,
        seed: int = 0,
    ) -> ShardedServingResult:
        """The original time-sliced multiplexer (reference implementation).

        Before each arrival is routed, every shard's engine runs forward to
        the arrival time — O(arrivals x shards), and a step started before
        the arrival runs to completion, so the shard clock can overshoot
        the instant the router is deciding at.  Retained as the simperf
        gate's machine normaliser and for equivalence regression tests:
        with load-independent routing (round-robin, session-affinity)
        :meth:`run` reproduces this timeline bit-for-bit.
        """
        if self.disaggregated:
            raise ConfigurationError(
                "run_time_sliced does not support disaggregated serving: "
                "KV-transfer landings are scheduled events, which only the "
                "event loop orders correctly"
            )
        if self.faults is not None or self.resilience is not None:
            raise ConfigurationError(
                "run_time_sliced does not support fault injection or "
                "resilience: fault and retry events are scheduled on the "
                "event loop, which only run() drives"
            )
        records = self._materialize(arrivals, count, seed)
        router = ShardRouter(self.num_shards, self.router_policy)
        cores = self._make_cores()
        route = self._route_fn(router)
        for serving_request in records:
            for core in cores:
                core.advance_to(serving_request.arrival_time)
            shard = route(serving_request, cores)
            cores[shard].offer(serving_request)
        for core in cores:
            core.drain()
        makespan = max((core.now for core in cores), default=0.0)
        report = summarize(records, makespan=makespan, slo=self.slo)
        return self._finalize(records, cores, makespan, report)

    def _finalize(
        self,
        records: list[ServingRequest],
        cores: list[EngineCore],
        makespan: float,
        report: ServingReport,
        router_name: str | None = None,
        injector: FaultInjector | None = None,
    ) -> ShardedServingResult:
        # Per-shard stats come from the cores' O(1) counters rather than a
        # scan over the request records: every offered request is terminal
        # by run end and its shard_id was fixed at offer time, so the
        # counter totals equal the old per-record tallies exactly — and
        # they exist even in streaming mode, where no records are kept.
        shard_stats = []
        for core in cores:
            shard_stats.append(
                ShardStats(
                    shard_id=core.shard_id,
                    offered=core.offered_count,
                    completed=core.completed_count,
                    rejected=core.rejected_count,
                    tokens_generated=core.tokens_generated_total,
                    busy_time=core.busy_time,
                    utilization=(
                        core.busy_time / makespan if makespan > 0 else 0.0
                    ),
                    decode_stream_busy=core.decode_stream_busy,
                    prefill_stream_busy=core.prefill_stream_busy,
                    overlap_fraction=core.overlap_fraction,
                    num_steps=core.num_steps,
                    role=core.role,
                    migrated_in=core.migrated_in,
                    migrated_out=core.migrated_out,
                )
            )
        totals: dict[str, int] = {}
        for core in cores:
            for key, value in core.admission_stats().items():
                totals[key] = totals.get(key, 0) + value
        return ShardedServingResult(
            system=self.backend.name,
            workload=self.workload.name,
            scheduling=self.scheduling,
            router=router_name or self.router_policy,
            num_shards=self.num_shards,
            policy=self.policy,
            slo=self.slo,
            requests=records,
            makespan=makespan,
            report=report,
            shard_stats=shard_stats,
            admission_stats=totals,
            fault_stats=injector.stats() if injector is not None else {},
        )


class ServingSystem(ShardedServingSystem):
    """Continuous-batching serving over one engine: a one-shard
    :class:`ShardedServingSystem` reported as a :class:`ServingResult`."""

    def __init__(
        self,
        backend: OffloadingSystem,
        workload: WorkloadSpec,
        policy: Policy | None = None,
        scheduling: str = "fcfs",
        queue_ordering: str = "fcfs",
        max_queue_depth: int | None = None,
        slo: SLO | None = None,
        use_simulator: bool = False,
        ctx_bucket: int = 32,
        block_tokens: int = 16,
        chunk_prefill_tokens: int | None = None,
        prefix_cache: bool = False,
        overlap: bool = False,
        session_ttl: float | None = None,
        store_samples: bool = True,
    ) -> None:
        super().__init__(
            backend,
            workload,
            num_shards=1,
            policy=policy,
            scheduling=scheduling,
            queue_ordering=queue_ordering,
            max_queue_depth=max_queue_depth,
            slo=slo,
            use_simulator=use_simulator,
            ctx_bucket=ctx_bucket,
            block_tokens=block_tokens,
            chunk_prefill_tokens=chunk_prefill_tokens,
            prefix_cache=prefix_cache,
            overlap=overlap,
            session_ttl=session_ttl,
            store_samples=store_samples,
        )

    def _finalize(
        self,
        records: list[ServingRequest],
        cores: list[EngineCore],
        makespan: float,
        report: ServingReport,
        router_name: str | None = None,
        injector: FaultInjector | None = None,
    ) -> ServingResult:
        (core,) = cores
        return ServingResult(
            system=self.backend.name,
            workload=self.workload.name,
            scheduling=self.scheduling,
            policy=self.policy,
            slo=self.slo,
            requests=records,
            steps=core.steps,
            makespan=makespan,
            report=report,
            admission_stats=core.admission_stats(),
            decode_stream_busy=core.decode_stream_busy,
            prefill_stream_busy=core.prefill_stream_busy,
            overlap_fraction=core.overlap_fraction,
        )


class _DisaggController:
    """Wires a prefill pool to a decode pool through priced KV transfers.

    One controller per disaggregated run.  It owns the
    :class:`~repro.serving.router.PhaseRouter` (arrivals -> prefill shard,
    handoffs -> decode shard), installs itself as every prefill core's
    ``on_handoff`` sink, and turns each handoff into a scheduled event on
    the serving loop at ``now + link.latency + bytes / link.bandwidth``.
    Prompt blocks the target's prefix cache already holds are deduplicated
    out of the transfer: matched blocks re-register against the target's
    existing hash-chain entries and move zero bytes.

    The source's KV reservation is held until the transfer lands (the
    blocks are being read in flight), then released — hashed prompt blocks
    drop into the source's prefix cache, private tails free outright.
    """

    def __init__(
        self, system: ShardedServingSystem, cores: list[EngineCore]
    ) -> None:
        self.cores = cores
        self.loop: ServingEventLoop | None = None
        roles = system.shard_roles
        self.prefill_ids = [i for i, r in enumerate(roles) if r == "prefill"]
        self.decode_ids = [i for i, r in enumerate(roles) if r == "decode"]
        # Measured prefill speed per shard: tokens/second pricing one
        # reference prompt through that shard's own step model, so a fast
        # device's pool absorbs proportionally more prompt tokens.
        ref_tokens = max(1, system.workload.max_prompt_len)
        speeds = [1.0] * len(cores)
        for i in self.prefill_ids:
            speeds[i] = ref_tokens / cores[i].step_model.chunked_prefill_time(
                1, ref_tokens
            )
        self.router = PhaseRouter(
            self.prefill_ids,
            self.decode_ids,
            speeds,
            ready_at=system._ready_at,
        )
        self.board = [0] * len(cores)
        for core in cores:
            core.attach_load_board(self.board)
        for i in self.prefill_ids:
            cores[i].on_handoff = self.handoff
        link = (
            system.cluster.link if system.cluster is not None else ethernet_100g()
        )
        self._link_latency = link.latency
        self._link_bandwidth = link.bandwidth
        self.transfers = 0
        self.transfer_bytes = 0.0
        #: Set by the run when chaos is on: supplies the live link-penalty
        #: factor for transfer pricing and the crash epochs that tell a
        #: landing its source or target died mid-flight.
        self.injector = None
        self.transfers_lost = 0

    def attach(self, loop: ServingEventLoop) -> None:
        self.loop = loop

    def on_crash_drops(self, shard: int, dropped: list[ServingRequest]) -> None:
        """Unwind router accounting for a crashed shard's dropped requests.

        Prompts routed to a prefill shard hold their token count in the
        :class:`~repro.serving.router.PhaseRouter`'s ``outstanding_tokens``
        until handoff retires it; a crash drops them without ever handing
        off, so the count is retired here — otherwise the shard would look
        permanently loaded after it recovers.  Decode-shard drops hold no
        router state (their prompts were retired at handoff).
        """
        if shard not in self.router.outstanding_tokens:
            return
        for serving_request in dropped:
            self.router.complete_prefill(
                shard, serving_request.request.effective_input_len
            )

    def route(self, serving_request: ServingRequest, cores) -> int:
        """The event loop's RouteFn: every arrival is a prefill."""
        return self.router.route_prefill(serving_request, self.board)

    def handoff(
        self, source: EngineCore, requests: list[ServingRequest]
    ) -> None:
        """Migrate finished prompts off a prefill core (completion instant)."""
        loop = self.loop
        assert loop is not None  # attach() runs before any step begins
        now = source.now
        headrooms = [0] * len(self.cores)
        for shard in self.decode_ids:
            headrooms[shard] = self.cores[shard].admission.kv_headroom_tokens()
        for serving_request in requests:
            request = serving_request.request
            self.router.complete_prefill(
                source.shard_id, request.effective_input_len
            )
            target_id = self.router.route_decode(headrooms, self.board, now)
            target = self.cores[target_id]
            # Blocks the target already caches transfer nothing: its
            # registration re-acquires the resident hash-chain entries.
            matched = target.admission.match_prefix(request)
            move_tokens = max(0, request.effective_input_len - matched)
            num_bytes = target.admission.kv_cache.bytes_for_tokens(move_tokens)
            delay = self._link_latency + num_bytes / self._link_bandwidth
            if self.injector is not None and self.injector.link_penalty != 1.0:
                # A degraded cluster link stretches the whole transfer
                # (latency and bandwidth share the impaired fabric).
                delay *= self.injector.link_penalty
            self.transfers += 1
            self.transfer_bytes += num_bytes
            # Same-batch handoffs see the reservation they just implied, so
            # a burst spreads across targets instead of piling onto one.
            headrooms[target_id] -= (
                request.effective_input_len + request.generation_len
            )
            loop.schedule(
                now + delay,
                self._landing(serving_request, source, target, now + delay),
            )

    def _landing(
        self,
        serving_request: ServingRequest,
        source: EngineCore,
        target: EngineCore,
        land_time: float,
    ):
        # Crash epochs captured at launch: a bump before landing means the
        # shard died while the blocks were in flight.
        source_epoch = source.crash_epoch
        target_epoch = target.crash_epoch

        def land() -> tuple[int, ...]:
            if source.crash_epoch != source_epoch:
                # The source died mid-transfer: the blocks being read died
                # with it, and crash teardown already released its whole
                # KV residency — the held reservation included — so no
                # release happens here (releasing again would double-free).
                self.transfers_lost += 1
                source.fail_migrated(serving_request, land_time)
                return ()
            if target.crash_epoch != target_epoch or target.down:
                # The target became unavailable before the transfer landed
                # (crashed, or crashed and is still reloading): the
                # transfer aborts and the source's held reservation is
                # released exactly once, here — hashed prompt blocks drop
                # into the source's prefix cache, private tails free.
                self.transfers_lost += 1
                source.release_migrated(serving_request)
                source.fail_migrated(serving_request, land_time)
                return (source.shard_id,)
            # Accept on the target before releasing the source: mid-flight
            # the blocks exist on both ends, never neither.
            target.accept_migrated(serving_request)
            source.release_migrated(serving_request)
            return (source.shard_id, target.shard_id)

        return land

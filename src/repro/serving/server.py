"""One serving engine: step pricing and the per-shard state machine.

:class:`EngineCore` runs one engine over an existing :mod:`repro.systems`
backend (MoE-Lightning, FlexGen, DeepSpeed — anything implementing
:class:`~repro.systems.base.OffloadingSystem`).  Each engine iteration the
continuous-batching scheduler picks prefill, decode or idle; the step's
duration comes from the backend's own cost machinery, so the three systems
become comparable *under load* with the same models that rank them on
static batches:

* the default :class:`EngineStepModel` evaluates the backend's analytical
  HRM performance model per step (fast enough for load sweeps over
  thousands of steps);
* ``use_simulator=True`` instead samples step times from the backend's
  discrete-event pipeline schedule (CGOPipe / S3 / S4), memoised over
  (batch-size, context) buckets, trading speed for schedule-level fidelity.

The serving loop that feeds cores their arrivals lives in
:mod:`repro.serving.event_loop`; :mod:`repro.serving.sharded` builds the
cores and reports the run (a single-engine
:class:`~repro.serving.sharded.ServingSystem` is its one-shard case).

Determinism: given the same backend, policy, arrival process and seed, a
run reproduces identical per-request timestamps and metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter

from repro.core.policy import Policy
from repro.serving.admission import AdmissionController
from repro.serving.metrics import SLO
from repro.serving.queue import RequestQueue, RequestState, ServingRequest
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.systems.base import OffloadingSystem
from repro.utils.errors import ConfigurationError, SimulationError
from repro.utils.validation import require_positive, require_positive_int
from repro.workloads.batching import partition_lengths
from repro.workloads.spec import WorkloadSpec

#: Per-request reads of a decode-shape rebuild (no property call each).
_PROMPT_LEN = attrgetter("request.input_len")
_EPOCH_CONTEXT = attrgetter("epoch_context")

#: Phase roles an engine core can serve (mirrors the cluster layer's
#: ``DEVICE_ROLES``; kept local so serving stays importable without it).
ENGINE_ROLES = ("unified", "prefill", "decode")


class EngineStepModel:
    """Memoised per-step latency oracle for one backend + policy.

    Prefill chunks are costed on a workload spec rebuilt from the chunk's
    actual prompt lengths (so padded backends pay the chunk maximum, exactly
    as they would pad); decode steps are costed at the running set's size
    and mean context length, bucketed so the memo table stays small.
    """

    def __init__(
        self,
        backend: OffloadingSystem,
        workload: WorkloadSpec,
        policy: Policy,
        use_simulator: bool = False,
        ctx_bucket: int = 32,
    ) -> None:
        require_positive_int("ctx_bucket", ctx_bucket)
        self.backend = backend
        self.workload = workload
        self.policy = policy
        self.use_simulator = use_simulator
        self.ctx_bucket = ctx_bucket
        self._decode_cache: dict[tuple[int, int], float] = {}
        self._prefill_cache: dict[tuple[int, int, int], float] = {}
        self._performance = backend.performance_model(workload)

    def _bucket_ctx(self, context_len: float) -> int:
        buckets = max(1, round(context_len / self.ctx_bucket))
        return buckets * self.ctx_bucket

    def _sized_policy(self, num_requests: int) -> Policy:
        return self.policy.with_batch_size(num_requests)

    def decode_step_time(self, num_running: int, mean_context: float) -> float:
        """Latency of one decode iteration over ``num_running`` requests."""
        require_positive_int("num_running", num_running)
        require_positive("mean_context", mean_context)
        ctx = self._bucket_ctx(mean_context)
        if self.use_simulator:
            # Bucket the batch size to whole micro-batches so the schedule
            # simulator runs once per (shape, context) rather than per step.
            mu = min(self.policy.micro_batch_size, num_running)
            batch = min(self.policy.batch_size, -(-num_running // mu) * mu)
        else:
            batch = num_running
        key = (batch, ctx)
        if key not in self._decode_cache:
            sized = self._sized_policy(batch)
            if self.use_simulator:
                schedule = self.backend.make_schedule(sized)
                step_time = schedule.step_timing(sized, ctx).step_time
            else:
                step_time = self._performance.decode_step_latency(sized, ctx)
            self._decode_cache[key] = step_time
        return self._decode_cache[key]

    def prefill_time(self, chunk: list[ServingRequest]) -> float:
        """Latency of prefilling ``chunk`` (which also emits its first tokens).

        Each request is costed at its *remaining* prompt tokens: prefix-cache
        hits were marked prefilled at admission, so cached tokens are skipped
        rather than recomputed.  With the cache off every request's remaining
        length equals its full effective length.
        """
        if not chunk:
            raise SimulationError("cannot cost an empty prefill chunk")
        lengths = [max(1, sr.prefill_remaining) for sr in chunk]
        # Cost at the bucketed lengths that form the memo key (as the decode
        # path does), so a chunk's charge never depends on which chunk
        # populated the cache slot first.
        avg = self._bucket_ctx(sum(lengths) / len(lengths))
        longest = max(self._bucket_ctx(max(lengths)), avg)
        return self._prefill_time_at(len(chunk), avg, longest)

    def chunked_prefill_time(self, num_requests: int, tokens: int) -> float:
        """Latency of one chunked-prefill step processing ``tokens`` tokens.

        The chunk is costed as ``num_requests`` rows of the chunk's mean
        token count — the same bucketed memoisation as whole-prompt
        prefills, so a token budget maps to a bounded, stable step time.
        """
        require_positive_int("num_requests", num_requests)
        require_positive_int("tokens", tokens)
        avg = self._bucket_ctx(tokens / num_requests)
        return self._prefill_time_at(num_requests, avg, avg)

    def _prefill_time_at(self, num_requests: int, avg: int, longest: int) -> float:
        key = (num_requests, avg, longest)
        if key not in self._prefill_cache:
            chunk_spec = replace(
                self.workload, avg_prompt_len=avg, max_prompt_len=longest
            )
            performance = self.backend.performance_model(chunk_spec)
            sized = self._sized_policy(num_requests)
            self._prefill_cache[key] = performance.prefill_time(sized)
        return self._prefill_cache[key]


def default_slo(
    backend: OffloadingSystem,
    workload: WorkloadSpec,
    policy: Policy,
    ttft_factor: float = 5.0,
    tpot_factor: float = 2.5,
) -> SLO:
    """An SLO anchored to the backend's *unloaded* latencies.

    TTFT target: ``ttft_factor`` times the prefill latency of one full
    micro-batch (headroom for queueing); TPOT target: ``tpot_factor`` times
    the mid-generation decode step latency at the policy's full batch size.
    The TPOT headroom must absorb the prefill interruptions a decoding
    request sees from later arrivals (each one a full weight-streaming
    pass on offloading systems), so the SLO binds under load rather than in
    the unloaded regime.  Compare systems under a *shared* SLO by computing
    it once from a reference backend and passing it to every
    :class:`~repro.serving.sharded.ServingSystem`.
    """
    performance = backend.performance_model(workload)
    prefill_ref = performance.prefill_time(
        policy.with_batch_size(policy.micro_batch_size)
    )
    mid_context = workload.effective_prompt_len(backend.padded) + max(
        1, workload.generation_len // 2
    )
    decode_ref = performance.decode_step_latency(policy, mid_context)
    return SLO(ttft=ttft_factor * prefill_ref, tpot=tpot_factor * decode_ref)


@dataclass(frozen=True)
class EngineStep:
    """One engine iteration in the serving timeline.

    ``decode_time`` and ``prefill_time`` are the two streams' shares of the
    step: pure steps put their whole duration on one stream; ``"mixed"``
    steps carry both halves on the shared weight-streaming pass, so the
    step lasts as long as the slower half and the faster half rides along
    for free (``overlapped_time``).
    """

    kind: str
    start: float
    duration: float
    num_requests: int
    num_micro_batches: int
    decode_time: float = 0.0
    prefill_time: float = 0.0

    @property
    def end(self) -> float:
        """Completion time of the iteration."""
        return self.start + self.duration

    @property
    def overlapped_time(self) -> float:
        """Time both streams spent executing concurrently in this step."""
        return max(0.0, self.decode_time + self.prefill_time - self.duration)


@dataclass
class _InFlightStep:
    """A launched-but-not-yet-completed engine step (event-granular mode).

    :meth:`EngineCore.begin_step` decides the action, prices it into
    ``step`` and records the launch state here;
    :meth:`EngineCore.complete_step` applies the end-of-step effects at
    the completion instant and appends ``step`` to the timeline verbatim.
    Between the two, arrivals may be offered to the core's queue but its
    running/prefilling sets are frozen.
    """

    step: EngineStep
    chunk: list[ServingRequest]
    #: Whether this step decodes the running set.  Between begin and
    #: complete the running set is frozen (only the queue can mutate), so
    #: a flag replaces the per-step ``list(self.running)`` copy the old
    #: code kept — the completion applies decode effects to ``running``
    #: itself, which is bit-for-bit the same population.
    decoded_running: bool
    first_token_at: float

    @property
    def completion(self) -> float:
        return self.step.end


class EngineCore:
    """One engine's continuous-batching state machine (a single shard).

    The serving systems of :mod:`repro.serving.sharded` drive one core per
    shard through the timestamp-ordered event queue of
    :mod:`repro.serving.event_loop`.  The core owns its shard's queue,
    admission controller, scheduler and running/prefilling sets.

    Stepping is *event-granular*: :meth:`begin_step` decides and launches
    the next engine iteration (returning its completion time) and
    :meth:`complete_step` applies its effects, so an event loop can
    interleave other shards' events — and arrival ingestion — between the
    two.  The synchronous :meth:`run_step` (begin + complete back to back)
    drives the time-sliced reference loop.

    ``overlap=True`` runs a decode stream and a prefill stream
    concurrently: whole-prompt prefills ride decode iterations as
    ``"mixed"`` steps (serializing only on the shared weight-streaming
    pass) instead of stalling them.  ``overlap=False`` reproduces the
    serialized timeline exactly.
    """

    def __init__(
        self,
        backend: OffloadingSystem,
        workload: WorkloadSpec,
        policy: Policy,
        step_model: EngineStepModel,
        scheduling: str = "fcfs",
        queue_ordering: str = "fcfs",
        max_queue_depth: int | None = None,
        block_tokens: int = 16,
        chunk_prefill_tokens: int | None = None,
        shard_id: int = 0,
        prefix_cache: bool = False,
        overlap: bool = False,
        role: str = "unified",
        session_ttl: float | None = None,
        telemetry=None,
        record_steps: bool = True,
        on_finish=None,
        on_reject=None,
        on_finish_batch=None,
        resilience=None,
        slo=None,
    ) -> None:
        if role not in ENGINE_ROLES:
            raise ConfigurationError(
                f"unknown engine role {role!r}; choose from {ENGINE_ROLES}"
            )
        if session_ttl is not None and session_ttl <= 0:
            raise ConfigurationError(
                f"session_ttl must be > 0 seconds, got {session_ttl}"
            )
        self.policy = policy
        self.step_model = step_model
        self.chunk_prefill_tokens = chunk_prefill_tokens
        self.shard_id = shard_id
        self.prefix_cache = prefix_cache
        self.overlap = overlap
        #: Phase specialisation: a ``prefill`` core never decodes — finished
        #: prompts leave through ``on_handoff`` — and a ``decode`` core never
        #: prefills — it only receives migrated requests via
        #: :meth:`accept_migrated`.  ``unified`` is the historical behaviour.
        self.role = role
        self.session_ttl = session_ttl
        #: Optional :class:`repro.obs.Telemetry`.  Every emission below sits
        #: behind ``if self.telemetry is not None`` and never mutates serving
        #: state, so a run without it is bit-for-bit the historical timeline.
        self.telemetry = telemetry
        self.admission = AdmissionController(
            model=backend.model,
            hardware=backend.hardware,
            workload=workload,
            policy=policy,
            padded=backend.padded,
            block_tokens=block_tokens,
            prefix_cache=prefix_cache,
            telemetry=telemetry,
            # A prefill specialist holds a request's KV only until the
            # migration lands, so it reserves the prompt — not the
            # end-of-generation size the decode side must guarantee.
            reserve_output_tokens=(role != "prefill"),
        )
        self.scheduler = ContinuousBatchingScheduler(
            policy=policy,
            admission=self.admission,
            scheduling=scheduling,
            chunk_tokens=chunk_prefill_tokens,
            overlap=overlap,
        )
        self.queue = RequestQueue(ordering=queue_ordering, max_depth=max_queue_depth)
        self.running: list[ServingRequest] = []
        self.prefilling: list[ServingRequest] = []
        #: ``record_steps=False`` is the streaming mode: the per-step busy
        #: accumulators below replace the step list, so million-step runs
        #: hold O(1) state.  Timelines are identical either way — the
        #: accumulators add the same floats in the same order the list
        #: properties would.
        self.record_steps = record_steps
        self.steps: list[EngineStep] = []
        self.now = 0.0
        self.dropped_queue_full = 0
        self._in_flight: _InFlightStep | None = None
        #: Sinks for terminal requests (streaming report aggregation): each
        #: is called exactly once per request, at its terminal instant.
        #: ``on_finish_batch`` (if set) replaces ``on_finish`` with one call
        #: per retirement batch, in the same per-request order.
        self.on_finish = on_finish
        self.on_reject = on_reject
        self.on_finish_batch = on_finish_batch
        #: Disaggregation seams.  ``on_handoff(core, requests)`` fires when a
        #: prefill core completes prompts that must migrate; ``_pending_joins``
        #: stages migrated requests on a decode core until the next step
        #: boundary at which admission accepts them.  Both stay empty/None on
        #: unified cores, so the hot path pays one truthiness test.
        self.on_handoff = None
        self._pending_joins: list[ServingRequest] = []
        self.prefills_completed = 0
        self.migrated_in = 0
        self.migrated_out = 0
        self.migration_rejected = 0
        #: TTL eviction: only the prefix cache retains idle blocks; without
        #: it (or without a TTL) the hook below is never entered.
        self._ttl_store = (
            self.admission.kv_cache.block_store
            if session_ttl is not None and prefix_cache
            else None
        )
        # O(1) counters mirroring what a scan over records/steps would
        # compute (asserted equal at tier 1).
        self.offered_count = 0
        self.completed_count = 0
        self.rejected_count = 0
        self.tokens_generated_total = 0
        self.num_steps = 0
        self._busy_time = 0.0
        self._decode_busy = 0.0
        self._prefill_busy = 0.0
        self._overlapped = 0.0
        # Incremental load counter (= load()) published to an optional
        # shared board so the router never polls every core per arrival.
        self._load = 0
        self._load_board: list[int] | None = None
        # O(1) decode accounting: one shared epoch counter advances per
        # decode step instead of a scan over the running set.  Running
        # requests read ``tokens_decoded`` as ``epoch + offset`` (attached
        # at join, materialised at retire), and each joiner is bucketed by
        # the epoch at which it will finish, so retirement pops a dict key
        # instead of scanning.
        self._decode_epochs = [0]
        self._finish_buckets: dict[int, list[ServingRequest]] = {}
        # Decode-shape memo: the running set's micro-batch partition is a
        # pure function of its membership (static request lengths), so it
        # is rebuilt only when membership changes (version bump).  Between
        # rebuilds each group's integer context sum advances by its size
        # per decode epoch, so a step reprices from ``(base, size)`` pairs.
        self._running_version = 0
        self._partition_version = -1
        self._partition_bases: list[tuple[int, int]] = []
        # ---- Fault tolerance (inert unless a FaultInjector drives them) ----
        #: Request-level :class:`~repro.serving.faults.ResiliencePolicy`
        #: (deadline timeouts and admission shedding run on-core; retries
        #: are the injector's job through ``on_fail``).
        self.resilience = resilience
        #: Whether the shard is crashed (or reloading): it begins no steps
        #: and — unless recovery is pending — rejects offers at the door.
        self.down = False
        #: Bumped once per :meth:`crash`; a step-completion event stamped
        #: with an older epoch is stale and must not be applied.
        self.crash_epoch = 0
        #: True between a crash and the shard's scheduled recovery: offers
        #: queue (they will be served post-reload) instead of rejecting.
        self.recover_pending = False
        #: Straggler slowdown factor (>= 1); every step priced while it is
        #: not 1.0 stretches by it.  Fault-free runs never touch it.
        self.perf_penalty = 1.0
        #: Failure sink ``(serving_request, now, code)`` — the injector's
        #: retry hook for timeout/unavailable/migration-loss drops.
        self.on_fail = None
        self.crash_dropped = 0
        self.timeout_dropped = 0
        self.shed_dropped = 0
        self.unavailable_dropped = 0
        self._deadline = resilience.deadline if resilience is not None else None
        # Predictive shedding: one queued request's expected service time,
        # priced once (its share of a full micro-batch prefill pass).  The
        # memo call happens only with shedding on, so runs without it never
        # touch the step model here.
        self._shed_ttft: float | None = None
        self._shed_unit = 0.0
        if resilience is not None and resilience.shed:
            if slo is None:
                raise ConfigurationError(
                    "admission shedding needs an SLO to predict against"
                )
            self._shed_ttft = slo.ttft * resilience.shed_ttft_factor
            mu = policy.micro_batch_size
            prompt = max(1, workload.effective_prompt_len(backend.padded))
            self._shed_unit = (
                step_model.chunked_prefill_time(mu, mu * prompt) / mu
            )

    # ------------------------------------------------------------------
    # External interface (arrival ingestion and clock control)
    # ------------------------------------------------------------------
    def attach_load_board(self, board: list[int]) -> None:
        """Publish this core's load counter into a shared per-shard board.

        ``board[shard_id]`` is kept equal to :meth:`load` across every
        mutation, so a router reads N loads in O(N) list accesses with no
        per-core calls (and no scans at all for the chosen shard).
        """
        self._load_board = board
        board[self.shard_id] = self._load

    def _bump_load(self, delta: int) -> None:
        self._load += delta
        if self._load_board is not None:
            self._load_board[self.shard_id] = self._load

    def offer(self, serving_request: ServingRequest) -> bool:
        """Ingest one arrival; returns False when the core drops it.

        Drops happen at the door for three reasons, each with its own
        outcome code: the queue is full (``queue-full``), the shard is
        dead with no recovery scheduled (``unavailable``), or predictive
        shedding judges the request's SLO already doomed under current
        load (``shed``).  A down shard *with* recovery pending queues the
        request — it will be served after the reload.
        """
        serving_request.shard_id = self.shard_id
        self.offered_count += 1
        now = serving_request.arrival_time
        if self.down and not self.recover_pending:
            serving_request.mark_rejected(
                now, "shard unavailable", code="unavailable"
            )
            self.unavailable_dropped += 1
            self.rejected_count += 1
            if self.telemetry is not None:
                self.telemetry.record_reject(
                    serving_request, now, "shard unavailable"
                )
            if self.on_reject is not None:
                self.on_reject(serving_request)
            if self.on_fail is not None:
                self.on_fail(serving_request, now, "unavailable")
            return False
        if (
            self._shed_ttft is not None
            and self.load() * self._shed_unit > self._shed_ttft
        ):
            # Predictive admission: the queue ahead already implies a TTFT
            # past the shed threshold, so admitting would burn capacity on
            # a request that cannot meet its SLO.  Sheds never retry — the
            # signal is "the cluster is saturated", not "try again".
            serving_request.mark_rejected(
                now, "predicted wait exceeds SLO", code="shed"
            )
            self.shed_dropped += 1
            self.rejected_count += 1
            if self.telemetry is not None:
                self.telemetry.record_reject(
                    serving_request, now, "predicted wait exceeds SLO"
                )
            if self.on_reject is not None:
                self.on_reject(serving_request)
            return False
        was_idle = not self.has_work()
        if not self.queue.push(serving_request):
            serving_request.mark_rejected(
                serving_request.arrival_time, "queue full", code="queue-full"
            )
            self.dropped_queue_full += 1
            self.rejected_count += 1
            if self.telemetry is not None:
                self.telemetry.record_reject(
                    serving_request, serving_request.arrival_time, "queue full"
                )
            if self.on_reject is not None:
                self.on_reject(serving_request)
            return False
        self._bump_load(1)
        if was_idle:
            # An idle engine's clock catches up to the arrival; a busy one
            # leaves the request to wait for the current step to finish.
            # The catch-up happens only after a successful push, so a
            # queue-full drop leaves the clock untouched.
            self.now = max(self.now, serving_request.arrival_time)
        return True

    def has_work(self) -> bool:
        """Whether any request is queued, prefilling or decoding here."""
        return (
            self._in_flight is not None
            or bool(self.queue)
            or bool(self.running)
            or bool(self.prefilling)
            or bool(self._pending_joins)
        )

    def load(self) -> int:
        """Outstanding requests on this shard (routing signal)."""
        return (
            len(self.queue)
            + len(self.running)
            + len(self.prefilling)
            + len(self._pending_joins)
        )

    # ------------------------------------------------------------------
    # Disaggregated prefill/decode seams
    # ------------------------------------------------------------------
    def accept_migrated(self, serving_request: ServingRequest) -> None:
        """Receive a request whose prefill-side KV transfer just landed.

        The request is staged and joins the running set at this core's
        next step boundary, once admission accepts its end-of-generation
        KV reservation (registration walks the prompt's hash chain, so
        blocks already cached here are shared, not duplicated).  TTFT was
        stamped by the prefill shard; the decode clock only governs TPOT.
        """
        if self.role != "decode":
            raise SimulationError(
                "accept_migrated requires a decode-role core"
            )
        self._pending_joins.append(serving_request)
        self._bump_load(1)

    def release_migrated(self, serving_request: ServingRequest) -> None:
        """Free the source-side KV of a handed-off request post-transfer.

        Called on the *prefill* core when the migration lands on its
        target: hashed prompt blocks drop to the cache (still matchable by
        future prompts), private tails free outright.
        """
        self.admission.release(serving_request)

    def _flush_joins(self) -> None:
        """Admit staged migrations into the running set (step boundary).

        Requests the admission controller cannot fit yet stay staged while
        this core still has running work to retire (capacity frees as it
        does); a request that cannot fit even on an otherwise-empty core
        is rejected — waiting could never help it.
        """
        still: list[ServingRequest] = []
        joined = False
        epoch = self._decode_epochs[0]
        for serving_request in self._pending_joins:
            if self.admission.admit_checked(serving_request):
                serving_request.shard_id = self.shard_id
                self.migrated_in += 1
                serving_request.attach_decode_epoch(self._decode_epochs)
                finish_epoch = (
                    epoch + serving_request.request.generation_len - 1
                )
                self._finish_buckets.setdefault(finish_epoch, []).append(
                    serving_request
                )
                self.running.append(serving_request)
                joined = True
            elif self.running or joined:
                still.append(serving_request)
            else:
                serving_request.mark_rejected(
                    self.now,
                    "migration target over capacity",
                    code="migration-capacity",
                )
                self.rejected_count += 1
                self.migration_rejected += 1
                if self.telemetry is not None:
                    self.telemetry.record_reject(
                        serving_request, self.now, "migration target over capacity"
                    )
                if self.on_reject is not None:
                    self.on_reject(serving_request)
                self._bump_load(-1)
        self._pending_joins = still
        if joined:
            self._running_version += 1

    @property
    def step_in_flight(self) -> bool:
        """Whether a begun step is awaiting its completion event."""
        return self._in_flight is not None

    @property
    def busy_time(self) -> float:
        """Total simulated time this engine spent executing steps.

        Accumulated step by step in completion order — the identical
        float-addition sequence ``sum(step.duration for step in steps)``
        performs, so the value is bit-for-bit the historical one while
        costing O(1) per query (and surviving ``record_steps=False``).
        """
        return self._busy_time

    @property
    def decode_stream_busy(self) -> float:
        """Total time the decode stream spent executing."""
        return self._decode_busy

    @property
    def prefill_stream_busy(self) -> float:
        """Total time the prefill stream spent executing."""
        return self._prefill_busy

    @property
    def overlapped_time(self) -> float:
        """Total time both streams executed concurrently (mixed steps)."""
        return self._overlapped

    @property
    def overlap_fraction(self) -> float:
        """Fraction of this engine's busy time spent with overlapped streams."""
        if self._busy_time <= 0:
            return 0.0
        return self._overlapped / self._busy_time

    def advance_to(self, time: float) -> None:
        """Run engine steps until the clock reaches ``time`` or work runs out."""
        while self.now < time and self.has_work():
            if self.run_step() == "idle":
                break

    def drain(self) -> None:
        """Run the engine until every outstanding request retires."""
        while self.has_work():
            if self.run_step() == "idle":
                raise SimulationError(
                    "serving engine stalled with work outstanding"
                )

    # ------------------------------------------------------------------
    # One engine iteration (event-granular: begin / complete)
    # ------------------------------------------------------------------
    def run_step(self) -> str:
        """Execute the scheduler's next action; returns the action kind."""
        if self.begin_step() is None:
            return "idle"
        return self.complete_step()

    def begin_step(self) -> float | None:
        """Decide and launch the next engine step; returns its completion time.

        Returns ``None`` when the scheduler has nothing runnable (idle);
        otherwise the step is in flight until :meth:`complete_step` is
        called at the returned instant.  Start-of-step effects (admission,
        ``mark_running``, prompt-token consumption) are applied here, at
        the step's start time; everything stamped at the completion instant
        waits for :meth:`complete_step`.
        """
        if self._in_flight is not None:
            raise SimulationError("engine step already in flight")
        if self._deadline is not None:
            self._expire_deadline()
        if self._pending_joins:
            # Migrated requests join at step boundaries (decode role only);
            # unified cores never stage any, so this is one falsy test.
            self._flush_joins()
        # The chunk the scheduler returns is the carried-over prefilling set
        # followed by this step's new admissions; remember the boundary
        # before next_action mutates anything so the admit instants below
        # cover exactly the newly admitted tail.
        n_carried = len(self.prefilling)
        action = self.scheduler.next_action(
            len(self.running), self.queue, self.prefilling
        )
        for oversized in action.rejected:
            oversized.mark_rejected(
                self.now,
                oversized.reject_reason or "oversized request",
                code="oversized",
            )
            self.rejected_count += 1
            if self.telemetry is not None:
                self.telemetry.record_reject(
                    oversized, self.now, oversized.reject_reason or "oversized"
                )
            if self.on_reject is not None:
                self.on_reject(oversized)
        if action.rejected:
            # Oversized drops left the queue without entering the chunk.
            self._bump_load(-len(action.rejected))
        if self.telemetry is not None:
            for admitted in action.chunk[n_carried:]:
                self.telemetry.record_admit(admitted, self.now)
        if action.kind == "idle":
            return None
        if action.kind == "prefill":
            self._in_flight = self._begin_prefill(action.chunk)
        elif action.kind == "mixed":
            self._in_flight = self._begin_mixed(action.chunk)
        else:
            self._in_flight = self._begin_decode()
        # The chunk's members leave the queue at begin time; carrying them
        # in ``prefilling`` keeps has_work()/load() honest mid-flight.
        self.prefilling = list(self._in_flight.chunk)
        return self._in_flight.completion

    def _expire_deadline(self) -> None:
        """Drop queued requests whose deadline has already passed.

        Checked head-first at each step boundary: under FCFS ordering the
        head is the oldest waiter, so the sweep is exact; under SJF it
        catches the expired head but may leave older long prompts deeper
        in the heap until they surface.  Expired requests carry the
        ``timeout`` outcome code and flow through ``on_fail`` so the
        resilience layer can retry them elsewhere.
        """
        deadline = self._deadline
        while True:
            head = self.queue.peek()
            if head is None or self.now - head.arrival_time <= deadline:
                break
            self.queue.pop()
            head.mark_rejected(
                self.now, "deadline exceeded in queue", code="timeout"
            )
            self.timeout_dropped += 1
            self.rejected_count += 1
            self._bump_load(-1)
            if self.telemetry is not None:
                self.telemetry.record_reject(
                    head, self.now, "deadline exceeded in queue"
                )
                self.telemetry.count("requests.timeout")
            if self.on_reject is not None:
                self.on_reject(head)
            if self.on_fail is not None:
                self.on_fail(head, self.now, "timeout")

    def crash(self, now: float) -> list[ServingRequest]:
        """Tear down this shard at ``now``; returns every dropped request.

        Crash semantics, in order: the in-flight step dies with the device
        (its already-queued completion event is invalidated by the crash
        epoch bump); every queued, prefilling, running and staged request
        gets exactly one terminal record with the ``crash`` outcome code;
        every KV reservation — including prompt KV a prefill core was
        holding for not-yet-landed migrations — is released and the
        shard's prefix cache is purged, so the block store returns to zero
        resident bytes with no negative refcounts and no dangling
        ``prefix_index`` entries.  The core is then ``down``: it begins no
        steps until a recovery event clears the flag.

        Retries are the caller's job (the injector re-injects the returned
        list per its policy); ``on_fail`` is *not* invoked here to keep
        the retry decision in one place.
        """
        self.now = max(self.now, now)
        self._in_flight = None
        dropped: list[ServingRequest] = []
        dropped.extend(self.queue.drain())
        dropped.extend(self.prefilling)
        self.prefilling = []
        for serving_request in self.running:
            serving_request.detach_decode_epoch()
        dropped.extend(self.running)
        self.running = []
        dropped.extend(self._pending_joins)
        self._pending_joins = []
        for serving_request in dropped:
            serving_request.mark_rejected(self.now, "shard crash", code="crash")
            self.rejected_count += 1
            self.crash_dropped += 1
            if self.telemetry is not None:
                self.telemetry.record_reject(
                    serving_request, self.now, "shard crash"
                )
            if self.on_reject is not None:
                self.on_reject(serving_request)
        kv_cache = self.admission.kv_cache
        kv_cache.release_all()
        if kv_cache.prefix_cache_enabled:
            kv_cache.block_store.drop_all_cached()
        self._finish_buckets.clear()
        self._running_version += 1
        self._bump_load(-self._load)
        self.crash_epoch += 1
        self.down = True
        return dropped

    def fail_migrated(
        self, serving_request: ServingRequest, now: float
    ) -> None:
        """Terminal-mark an in-flight migration lost to a mid-transfer crash.

        Between handoff and landing a migrating request sits on *no*
        core's sets, so a crash of its source or target orphans it; the
        landing callback reports the loss here, on the source core, which
        keeps the cluster-total ``offered == completed + rejected``
        invariant intact.
        """
        serving_request.mark_rejected(
            now, "migration lost to crash", code="crash"
        )
        self.rejected_count += 1
        self.crash_dropped += 1
        if self.telemetry is not None:
            self.telemetry.record_reject(
                serving_request, now, "migration lost to crash"
            )
        if self.on_reject is not None:
            self.on_reject(serving_request)
        if self.on_fail is not None:
            self.on_fail(serving_request, now, "crash")

    def complete_step(self) -> str:
        """Apply the in-flight step's effects at its completion instant."""
        in_flight = self._in_flight
        if in_flight is None:
            raise SimulationError("no engine step in flight to complete")
        self._in_flight = None
        self.now = in_flight.completion
        if self._ttl_store is not None:
            # Blocks cached during this completion stamp the current instant
            # as their idleness start; expiry itself runs post-retirement.
            self._ttl_store.clock_time = self.now
        if in_flight.decoded_running:
            # O(1): every attached running request reads one more decoded
            # token through the shared epoch; the partition memo derives
            # its context sums from the same epoch delta.
            self._decode_epochs[0] += 1
        if in_flight.chunk:
            self._finish_chunk(in_flight.chunk, in_flight.first_token_at)
        step = in_flight.step
        self.num_steps += 1
        self._busy_time += step.duration
        self._decode_busy += step.decode_time
        self._prefill_busy += step.prefill_time
        self._overlapped += step.overlapped_time
        if self.record_steps:
            self.steps.append(step)
        if self.telemetry is not None:
            self.telemetry.record_step(self.shard_id, step)
        self._retire_finished()
        if self._ttl_store is not None:
            self._ttl_store.expire_idle(self.now - self.session_ttl)
        return step.kind

    def _begin_prefill(self, chunk: list[ServingRequest]) -> _InFlightStep:
        if self.chunk_prefill_tokens is None:
            for serving_request in chunk:
                serving_request.mark_running(self.now)
            duration = self.step_model.prefill_time(chunk)
            if self.perf_penalty != 1.0:
                duration *= self.perf_penalty
            # The whole prompt is processed this step; consuming it now
            # lets completion route every request through _finish_chunk.
            for serving_request in chunk:
                serving_request.tokens_prefilled = (
                    serving_request.request.effective_input_len
                )
            num_requests = len(chunk)
            mu = min(self.policy.micro_batch_size, num_requests)
            step = EngineStep(
                kind="prefill",
                start=self.now,
                duration=duration,
                num_requests=num_requests,
                num_micro_batches=-(-num_requests // mu),
                decode_time=0.0,
                prefill_time=duration,
            )
            return _InFlightStep(
                step=step,
                chunk=chunk,
                decoded_running=False,
                first_token_at=step.end,
            )

        # Chunked prefill with nothing decoding: a standalone chunk step.
        num_worked, tokens_processed = self._consume_chunk_budget(chunk)
        duration = self.step_model.chunked_prefill_time(
            max(1, num_worked), max(1, tokens_processed)
        )
        if self.perf_penalty != 1.0:
            duration *= self.perf_penalty
        mu = min(self.policy.micro_batch_size, max(1, num_worked))
        step = EngineStep(
            kind="prefill",
            start=self.now,
            duration=duration,
            num_requests=num_worked,
            num_micro_batches=-(-max(1, num_worked) // mu),
            decode_time=0.0,
            prefill_time=duration,
        )
        return _InFlightStep(
            step=step,
            chunk=chunk,
            decoded_running=False,
            first_token_at=step.end,
        )

    def _begin_mixed(self, chunk: list[ServingRequest]) -> _InFlightStep:
        """One decode iteration carrying prefill work on the same pass.

        The chunk's prompt compute shares the step's layer-by-layer weight
        stream with the decode pass (what the GPU would otherwise idle
        through on weight-transfer-bound steps), so the step lasts as long
        as the *slower* of the two halves rather than their sum.  Under
        chunked prefill the chunk is a token budget; with ``overlap`` and
        no chunking it is the whole-prompt prefill of the admitted chunk.
        """
        num_micro_batches, binding_context = self._decode_shape()
        decode_time = self.step_model.decode_step_time(
            len(self.running), binding_context
        )
        if self.chunk_prefill_tokens is None:
            # Whole-prompt prefill riding the decode stream (overlap mode):
            # price it before consuming the prompts it will process.
            chunk_time = self.step_model.prefill_time(chunk)
            num_worked, _ = self._consume_chunk_budget(chunk)
        else:
            num_worked, tokens_processed = self._consume_chunk_budget(chunk)
            chunk_time = self.step_model.chunked_prefill_time(
                max(1, num_worked), max(1, tokens_processed)
            )
        if self.perf_penalty != 1.0:
            # A straggling device slows both streams: they share the same
            # degraded weight-streaming bandwidth.
            decode_time *= self.perf_penalty
            chunk_time *= self.perf_penalty
        duration = max(decode_time, chunk_time)
        # Count each request exactly once: the decode half works the
        # requests running at step start, the prefill half the chunk's
        # worked prompts.  (Prompts that finish prefilling this step join
        # the running set only at completion, so they are not decoding.)
        num_requests = len(self.running) + num_worked
        # The prefill half completes when its stream does: with overlap on
        # that is ``chunk_time`` into the step; the serialized timeline
        # stamps first tokens at the end of the whole step, as it always
        # has.
        first_token_at = (
            self.now + chunk_time if self.overlap else self.now + duration
        )
        step = EngineStep(
            kind="mixed",
            start=self.now,
            duration=duration,
            num_requests=num_requests,
            num_micro_batches=num_micro_batches,
            decode_time=decode_time,
            prefill_time=chunk_time,
        )
        return _InFlightStep(
            step=step,
            chunk=chunk,
            decoded_running=True,
            first_token_at=first_token_at,
        )

    def _begin_decode(self) -> _InFlightStep:
        num_micro_batches, binding_context = self._decode_shape()
        duration = self.step_model.decode_step_time(
            len(self.running), binding_context
        )
        if self.perf_penalty != 1.0:
            duration *= self.perf_penalty
        step = EngineStep(
            kind="decode",
            start=self.now,
            duration=duration,
            num_requests=len(self.running),
            num_micro_batches=num_micro_batches,
            decode_time=duration,
            prefill_time=0.0,
        )
        return _InFlightStep(
            step=step,
            chunk=[],
            decoded_running=True,
            first_token_at=step.end,
        )

    def _decode_shape(self) -> tuple[int, float]:
        """Micro-batch count and binding context of the running set.

        The running set is re-partitioned by Algorithm 2
        (:func:`~repro.workloads.batching.partition_lengths` on prompt
        lengths, ``ceil(n / mu)`` groups, no cache budget: admission already
        guarantees the KV).  Each decode step processes every micro-batch in
        turn and the per-layer pipeline is paced by its slowest one, so the
        step is costed at the largest mean context across the groups.

        The partition depends only on membership, so it is memoised on
        ``_running_version``.  Every running request is attached to the
        decode-epoch counter, so a rebuild sums its members'
        ``epoch_context`` into each group's context at epoch 0 and a step
        adds ``size * epoch``.  The sums are exact ints, and int/int true
        division is the float a per-request scan would give.
        """
        if self._partition_version != self._running_version:
            running = self.running
            contexts = list(map(_EPOCH_CONTEXT, running))
            mu = min(self.policy.micro_batch_size, len(running))
            groups, _ = partition_lengths(
                list(map(_PROMPT_LEN, running)), -(-len(running) // mu), mu
            )
            self._partition_bases = [
                (sum(map(contexts.__getitem__, group)), len(group)) for group in groups
            ]
            self._partition_version = self._running_version
        epoch = self._decode_epochs[0]
        return len(self._partition_bases), max(
            [(base + size * epoch) / size for base, size in self._partition_bases]
        )

    def _consume_chunk_budget(
        self, chunk: list[ServingRequest]
    ) -> tuple[int, int]:
        """Spend the chunk token budget across the chunk's prompts.

        A ``None`` budget (overlap mode without chunked prefill) processes
        every remaining prompt token in the chunk.
        """
        budget = self.chunk_prefill_tokens
        tokens_processed = 0
        num_worked = 0
        for serving_request in chunk:
            if budget is not None and budget <= 0:
                break
            if serving_request.state is RequestState.QUEUED:
                serving_request.mark_running(self.now)
            take = serving_request.prefill_remaining
            if budget is not None:
                take = min(take, budget)
            if take <= 0:
                continue
            serving_request.tokens_prefilled += take
            if budget is not None:
                budget -= take
            tokens_processed += take
            num_worked += 1
        return num_worked, tokens_processed

    def _finish_chunk(
        self, chunk: list[ServingRequest], first_token_at: float
    ) -> None:
        """Retire completed prompts into the running set; keep the rest."""
        if self.role == "prefill":
            self._finish_chunk_prefill(chunk, first_token_at)
            return
        still_prefilling: list[ServingRequest] = []
        joined = False
        epoch = self._decode_epochs[0]
        for serving_request in chunk:
            if serving_request.is_prefill_complete:
                serving_request.mark_first_token(first_token_at)
                serving_request.attach_decode_epoch(self._decode_epochs)
                # Prefill emitted token 1, so the request finishes after
                # generation_len - 1 further decode epochs; bucketing it by
                # that epoch makes retirement a dict pop, not a scan.
                finish_epoch = (
                    epoch + serving_request.request.generation_len - 1
                )
                self._finish_buckets.setdefault(finish_epoch, []).append(
                    serving_request
                )
                self.running.append(serving_request)
                joined = True
            else:
                still_prefilling.append(serving_request)
        self.prefilling = still_prefilling
        if joined:
            self._running_version += 1

    def _finish_chunk_prefill(
        self, chunk: list[ServingRequest], first_token_at: float
    ) -> None:
        """Prefill-role completion: emit the first token, then hand off.

        A completed prompt's first token comes out of the prefill pass
        itself (the DistServe handoff point), so TTFT is stamped here; the
        request then leaves this shard through ``on_handoff`` — its KV
        stays reserved until :meth:`release_migrated` confirms the
        transfer landed.  Single-token requests are already complete and
        finish locally; nothing of theirs is worth migrating.
        """
        still_prefilling: list[ServingRequest] = []
        handoffs: list[ServingRequest] = []
        done: list[ServingRequest] = []
        for serving_request in chunk:
            if serving_request.is_prefill_complete:
                serving_request.mark_first_token(first_token_at)
                if serving_request.request.generation_len <= 1:
                    done.append(serving_request)
                else:
                    handoffs.append(serving_request)
            else:
                still_prefilling.append(serving_request)
        self.prefilling = still_prefilling
        if done:
            for serving_request in done:
                serving_request.mark_finished(self.now)
                self.admission.release(serving_request)
                self.completed_count += 1
                self.tokens_generated_total += serving_request.tokens_decoded
                if self.telemetry is not None:
                    self.telemetry.record_finish(serving_request)
                if self.on_finish is not None:
                    self.on_finish(serving_request)
            if self.on_finish_batch is not None:
                self.on_finish_batch(done)
            self._bump_load(-len(done))
        if handoffs:
            self.prefills_completed += len(handoffs)
            self.migrated_out += len(handoffs)
            self._bump_load(-len(handoffs))
            if self.on_handoff is None:
                raise SimulationError(
                    "prefill core completed prompts with no handoff sink"
                )
            self.on_handoff(self, handoffs)

    def _retire_finished(self) -> None:
        # Requests are bucketed at join time by the decode epoch at which
        # they finish, so a step that retires nothing costs one dict probe
        # and steps that do retire touch only the finished requests (plus
        # one compaction of the survivors).  Bucket order is join order is
        # running-list order, so mark/release/observe sequencing — and with
        # it LRU recency, eviction and the timeline — is bit-for-bit the
        # old scan's.
        finished = self._finish_buckets.pop(self._decode_epochs[0], None)
        if not finished:
            return
        for serving_request in finished:
            serving_request.detach_decode_epoch()
            serving_request.mark_finished(self.now)
            self.admission.release(serving_request)
            self.completed_count += 1
            self.tokens_generated_total += serving_request.tokens_decoded
            if self.telemetry is not None:
                self.telemetry.record_finish(serving_request)
            if self.on_finish is not None:
                self.on_finish(serving_request)
        if self.on_finish_batch is not None:
            self.on_finish_batch(finished)
        running = self.running
        if len(finished) == len(running):
            running.clear()
        else:
            drop = set(map(id, finished))
            running[:] = [
                serving_request
                for serving_request in running
                if id(serving_request) not in drop
            ]
        self._running_version += 1
        self._bump_load(-len(finished))

    def admission_stats(self) -> dict[str, int]:
        """Drop/admit counters in the report's canonical key order.

        Extra keys appear only for the features that can produce them
        (TTL eviction, migration), so runs without those are dict-identical
        to the historical report.
        """
        stats = {
            "admitted": self.admission.admitted_count,
            "rejected_kv": self.admission.rejected_kv_count,
            "rejected_slots": self.admission.rejected_slots_count,
            "dropped_queue_full": self.dropped_queue_full,
            "cache_hits": self.admission.cache_hit_count,
            "cached_tokens": self.admission.cached_tokens_total,
        }
        if self._ttl_store is not None:
            stats["ttl_evictions"] = self._ttl_store.ttl_evictions
        if self.role != "unified":
            stats["migrated_in"] = self.migrated_in
            stats["migrated_out"] = self.migrated_out
            stats["migration_rejected"] = self.migration_rejected
        if self.crash_epoch > 0 or self.resilience is not None:
            stats["crash_dropped"] = self.crash_dropped
            stats["timeout_dropped"] = self.timeout_dropped
            stats["shed_dropped"] = self.shed_dropped
            stats["unavailable_dropped"] = self.unavailable_dropped
        return stats

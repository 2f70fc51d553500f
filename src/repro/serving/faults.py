"""Deterministic fault injection, crash recovery and request resilience.

Every layer of the serving stack built so far assumes a fault-free
cluster: devices never die mid-stream, requests never time out or retry,
and a crashed shard has no defined semantics for its in-flight work or
resident KV blocks.  This module supplies the failure half:

* :class:`FaultEvent` / :class:`FaultSchedule` — a seeded, validated,
  time-ordered list of device crash/recover instants plus straggler and
  link-degradation windows.  The schedule is pure data: the same schedule
  against the same arrival stream reproduces the same timeline.
* :class:`ResiliencePolicy` — request-level resilience knobs: deadline
  timeouts, capped exponential-backoff retries (which re-enter the
  arrival stream with the *same* underlying request, so session identity
  is preserved and the prefix cache re-warms), and predictive admission
  shedding for requests whose SLO is already doomed.
* :class:`FaultInjector` — the per-run runtime.  It schedules every
  fault as a first-class timestamped event on the
  :class:`~repro.serving.event_loop.ServingEventLoop` (riding the same
  callback priority as KV-transfer landings), drives each shard through
  the ``ready -> down -> loading -> ready`` state machine mirroring
  :data:`repro.cluster.spec.DEVICE_STATES`, keeps routers off
  dead/loading shards, and owns the retry schedule.

Determinism contract (asserted at tier 1): an **empty** schedule attached
to a run is bit-for-bit identical to a run with no injector at all —
every hook below either never fires or takes a provably inert fast path.

Crash semantics (property-tested): a crash terminates the shard's
in-flight step (its completion event is skipped via a crash epoch), drops
every queued/prefilling/running/staged request with a ``"crash"`` outcome
code, releases every KV reservation and purges the shard's prefix cache —
so the block store returns to zero resident bytes with no negative
refcounts and no dangling ``prefix_index`` entries.  In-flight disagg
migrations whose source or target died mid-transfer release the held
source reservation exactly once (see ``_DisaggController._landing``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.serving.queue import ServingRequest
from repro.utils.errors import ConfigurationError, SimulationError

#: Fault kinds a schedule may contain.
FAULT_KINDS = ("crash", "recover", "straggle", "link-degrade")

#: Shard states mirroring the cluster layer's ``DEVICE_STATES`` plus the
#: failure state ("ready" serves, "loading" is mid-recovery, "down" is
#: crashed with no recovery begun yet).
SHARD_STATES = ("ready", "down", "loading")


@dataclass(frozen=True)
class FaultEvent:
    """One timestamped fault: the unit a :class:`FaultSchedule` orders.

    * ``"crash"`` — shard ``shard`` dies at ``time``: in-flight step torn
      down, all outstanding requests dropped, KV residency freed.
    * ``"recover"`` — shard ``shard`` begins reloading the model at
      ``time`` and serves again at ``time + duration`` (the load time:
      the ``loading -> ready`` transition of the device state machine).
    * ``"straggle"`` — shard ``shard`` runs ``factor``x slower for
      ``duration`` seconds (every step priced in the window stretches).
    * ``"link-degrade"`` — the cluster link runs ``factor``x slower for
      ``duration`` seconds (``shard`` is ignored; affects KV transfers).
    """

    kind: str
    time: float
    shard: int | None = None
    duration: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.time < 0:
            raise ConfigurationError(f"fault time must be >= 0, got {self.time}")
        if self.kind in ("crash", "recover", "straggle") and self.shard is None:
            raise ConfigurationError(f"{self.kind} faults need a shard id")
        if self.kind in ("recover", "straggle", "link-degrade"):
            if self.duration < 0:
                raise ConfigurationError(
                    f"{self.kind} duration must be >= 0, got {self.duration}"
                )
        if self.kind in ("straggle", "link-degrade") and self.factor < 1.0:
            raise ConfigurationError(
                f"{self.kind} factor must be >= 1 (a slowdown), "
                f"got {self.factor}"
            )


@dataclass(frozen=True)
class FaultSchedule:
    """A validated, time-ordered fault timeline for one serving run.

    Construct directly from events or through the pattern constructors
    (:meth:`transient_crash`, :meth:`correlated`, :meth:`rolling_restart`,
    seeded :meth:`random`).  An empty schedule is the explicit "chaos off"
    value: attaching it to a run must reproduce the no-injector timeline
    bit-for-bit.
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time, FAULT_KINDS.index(e.kind)))
        )
        object.__setattr__(self, "events", ordered)
        down: set[int] = set()
        for event in ordered:
            if event.kind == "crash":
                if event.shard in down:
                    raise ConfigurationError(
                        f"shard {event.shard} crashes at t={event.time} while "
                        "already down (recover it first)"
                    )
                down.add(event.shard)
            elif event.kind == "recover":
                if event.shard not in down:
                    raise ConfigurationError(
                        f"shard {event.shard} recovers at t={event.time} "
                        "without a preceding crash"
                    )
                down.discard(event.shard)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def shards(self) -> set[int]:
        """Every shard id the schedule touches."""
        return {e.shard for e in self.events if e.shard is not None}

    @classmethod
    def empty(cls) -> "FaultSchedule":
        """The explicit no-faults schedule (bit-for-bit inert)."""
        return cls(())

    @classmethod
    def transient_crash(
        cls,
        shard: int,
        at: float,
        recover_at: float | None = None,
        load_time: float = 0.0,
    ) -> "FaultSchedule":
        """One shard dies at ``at`` and reloads at ``recover_at``.

        ``recover_at=None`` leaves the shard dark for the rest of the run.
        The shard serves again at ``recover_at + load_time``.
        """
        events = [FaultEvent("crash", at, shard)]
        if recover_at is not None:
            if recover_at < at:
                raise ConfigurationError(
                    f"recover_at ({recover_at}) precedes the crash ({at})"
                )
            events.append(FaultEvent("recover", recover_at, shard, load_time))
        return cls(tuple(events))

    @classmethod
    def correlated(
        cls,
        shards: Sequence[int],
        at: float,
        recover_at: float | None = None,
        load_time: float = 0.0,
    ) -> "FaultSchedule":
        """A whole pool dies at once (rack / power-domain failure)."""
        events: list[FaultEvent] = []
        for shard in shards:
            events.append(FaultEvent("crash", at, shard))
            if recover_at is not None:
                events.append(
                    FaultEvent("recover", recover_at, shard, load_time)
                )
        return cls(tuple(events))

    @classmethod
    def rolling_restart(
        cls,
        shards: Sequence[int],
        start: float,
        interval: float,
        downtime: float,
        load_time: float = 0.0,
    ) -> "FaultSchedule":
        """Restart the shards one at a time, ``interval`` seconds apart.

        Shard ``k`` goes down at ``start + k * interval`` and begins
        reloading ``downtime`` seconds later — the planned-maintenance
        pattern where capacity dips by one shard at a time.
        """
        if interval <= 0 or downtime < 0:
            raise ConfigurationError(
                "rolling restart needs interval > 0 and downtime >= 0"
            )
        events: list[FaultEvent] = []
        for k, shard in enumerate(shards):
            down_at = start + k * interval
            events.append(FaultEvent("crash", down_at, shard))
            events.append(
                FaultEvent("recover", down_at + downtime, shard, load_time)
            )
        return cls(tuple(events))

    @classmethod
    def random(
        cls,
        num_shards: int,
        horizon: float,
        seed: int = 0,
        num_crashes: int = 2,
        mean_downtime: float | None = None,
        load_time: float = 0.0,
    ) -> "FaultSchedule":
        """A seeded random crash/recover timeline (property-test fodder).

        Crash instants are uniform over ``[0, horizon)``; each crash
        recovers after an exponential downtime (mean ``horizon / 10`` by
        default).  Crashes targeting a still-down shard are re-pointed to
        an up shard; if every shard is down the crash is skipped, so the
        schedule always validates.
        """
        if num_shards <= 0 or horizon <= 0:
            raise ConfigurationError(
                "random schedule needs num_shards > 0 and horizon > 0"
            )
        rng = np.random.default_rng(seed)
        mean_down = mean_downtime if mean_downtime is not None else horizon / 10
        events: list[FaultEvent] = []
        busy_until: dict[int, float] = {}
        for _ in range(num_crashes):
            at = float(rng.uniform(0.0, horizon))
            up = [
                s for s in range(num_shards) if busy_until.get(s, -1.0) < at
            ]
            if not up:
                continue
            shard = int(up[int(rng.integers(0, len(up)))])
            downtime = float(rng.exponential(mean_down))
            events.append(FaultEvent("crash", at, shard))
            events.append(FaultEvent("recover", at + downtime, shard, load_time))
            busy_until[shard] = at + downtime + load_time
        return cls(tuple(events))


@dataclass(frozen=True)
class ResiliencePolicy:
    """Request-level resilience knobs for one serving run.

    * ``max_retries`` / ``retry_backoff`` / ``backoff_cap`` — a request
      dropped with a code in ``retry_on`` re-enters the arrival stream
      after ``min(backoff_cap, retry_backoff * 2**attempt)`` seconds,
      carrying the same underlying :class:`~repro.workloads.request.Request`
      (same id, session and prefix hash chain, so the prefix cache
      re-warms).  Each attempt gets its own SLO clock — its arrival time
      is the re-injection instant.
    * ``deadline`` — queued requests older than this at a step boundary
      are dropped with a ``"timeout"`` code (checked head-first, exact
      under FCFS queue ordering).
    * ``shed`` / ``shed_ttft_factor`` — predictive admission: an arrival
      whose predicted queue wait already exceeds ``shed_ttft_factor``
      times the TTFT SLO is dropped at the door (``"shed"``) instead of
      queueing to certain SLO failure under reduced capacity.
    """

    max_retries: int = 0
    retry_backoff: float = 0.5
    backoff_cap: float = 8.0
    retry_on: tuple[str, ...] = ("crash", "timeout")
    deadline: float | None = None
    shed: bool = False
    shed_ttft_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff < 0 or self.backoff_cap < 0:
            raise ConfigurationError("retry backoff values must be >= 0")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError(
                f"deadline must be > 0 seconds, got {self.deadline}"
            )
        if self.shed_ttft_factor <= 0:
            raise ConfigurationError(
                f"shed_ttft_factor must be > 0, got {self.shed_ttft_factor}"
            )
        for code in self.retry_on:
            if code not in ("crash", "timeout", "unavailable"):
                raise ConfigurationError(
                    f"retry_on accepts 'crash'/'timeout'/'unavailable', "
                    f"got {code!r}"
                )

    def backoff(self, attempt: int) -> float:
        """Delay before re-injecting attempt ``attempt + 1``."""
        return min(self.backoff_cap, self.retry_backoff * (2.0**attempt))


class FaultInjector:
    """Per-run fault runtime: schedules events, drives shard states, retries.

    One injector per run (it holds run state).  Wiring order:

    1. construct with the run's cores, schedule and policy;
    2. wrap the routing callback with :meth:`wrap_route` (keeps arrivals
       off dead/loading shards — a pure pass-through while every shard is
       available);
    3. install :meth:`handle_failure` as each core's ``on_fail`` sink;
    4. :meth:`attach` the event loop — this schedules every fault event.

    The injector mutates any registered ``ready_view`` lists (e.g. a
    :class:`~repro.serving.router.PhaseRouter`'s ``ready_at``) so
    phase-aware routing sees crashes as un-readiness with zero new code.
    """

    def __init__(
        self,
        cores: Sequence,
        schedule: FaultSchedule,
        resilience: ResiliencePolicy | None = None,
        telemetry=None,
    ) -> None:
        for event in schedule.events:
            if event.shard is not None and not (
                0 <= event.shard < len(cores)
            ):
                raise ConfigurationError(
                    f"fault targets shard {event.shard} but the run has "
                    f"{len(cores)} shards"
                )
        self.cores = list(cores)
        self.schedule = schedule
        self.resilience = resilience
        self.telemetry = telemetry
        self.loop = None
        self._route: Callable | None = None
        self._record_sink: Callable[[ServingRequest], None] | None = None
        #: Shards currently down or loading (routing avoids these).
        self._unavailable: set[int] = set()
        self._states = ["ready"] * len(cores)
        self._down_since: dict[int, float] = {}
        #: Earliest known future serve instant per currently-dark shard.
        self._recover_eta: dict[int, float] = {}
        # Precomputed: for each crash event, whether a later recover event
        # exists for that shard (drives offer()'s queue-vs-reject verdict).
        self._has_recovery: dict[int, bool] = {}
        pending = list(schedule.events)
        for i, event in enumerate(pending):
            if event.kind != "crash":
                continue
            self._has_recovery[id(event)] = any(
                later.kind == "recover" and later.shard == event.shard
                for later in pending[i + 1 :]
            )
        #: Ready-at lists (e.g. PhaseRouter.ready_at) mutated on
        #: crash/recover so readiness-aware routers track live state.
        self._ready_views: list[list[float]] = []
        #: Hooks fired with (shard, dropped_requests) after a crash
        #: teardown (the disagg controller unwinds router accounting here).
        self.on_crash_drops: list[Callable[[int, list[ServingRequest]], None]] = []
        #: Current cluster-link slowdown factor (>= 1.0; KV transfers
        #: multiply their delay by this).
        self.link_penalty = 1.0
        # Counters (surfaced through admission_stats / the chaos sweep).
        self.crashes = 0
        self.recoveries = 0
        self.retries = 0
        self.kv_bytes_lost = 0.0
        self.blocks_lost = 0
        self.unavailability_s = 0.0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_route(self, route: Callable) -> None:
        """Register the run's final routing callback (used for retries)."""
        self._route = route

    def add_ready_view(self, ready_at: list[float]) -> None:
        """Mutate ``ready_at[shard]`` on crash/recover (router readiness)."""
        self._ready_views.append(ready_at)

    def attach(self, loop, record_sink=None) -> None:
        """Schedule every fault event on the run's event loop.

        ``record_sink`` (stored-sample runs) receives each retry's fresh
        :class:`ServingRequest` so the post-run summary counts every
        attempt; streaming runs leave it ``None`` — their terminal sinks
        see retries the same way they see first attempts.
        """
        self.loop = loop
        self._record_sink = record_sink
        for event in self.schedule.events:
            loop.schedule(event.time, self._handler(event))

    def wrap_route(self, route: Callable) -> Callable:
        """Keep the routing callback off dead and loading shards.

        While every shard is available this is a pure pass-through (the
        inner policy's pick is returned untouched), so an empty schedule
        routes bit-for-bit identically.  When the pick is unavailable the
        arrival falls back to the least-loaded available shard; with the
        whole cluster dark it queues on the shard that recovers first.
        """
        unavailable = self._unavailable

        def routed(serving_request: ServingRequest, cores) -> int:
            shard = route(serving_request, cores)
            if not unavailable or shard not in unavailable:
                return shard
            up = [i for i in range(len(cores)) if i not in unavailable]
            if up:
                return min(up, key=lambda i: (cores[i].load(), i))
            eta = self._recover_eta
            if eta:
                return min(eta, key=lambda s: (eta[s], s))
            return shard  # whole cluster dark forever: offer() rejects

        return routed

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def state(self, shard: int) -> str:
        """The shard's availability state (``ready``/``down``/``loading``)."""
        return self._states[shard]

    def available(self, shard: int) -> bool:
        """Whether the shard is serving right now."""
        return shard not in self._unavailable

    def stats(self) -> dict[str, float]:
        """Fault counters for reports and sweep rows."""
        return {
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "retries": self.retries,
            "kv_bytes_lost": self.kv_bytes_lost,
            "blocks_lost": self.blocks_lost,
            "unavailability_s": self.unavailability_s,
        }

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handler(self, event: FaultEvent):
        if event.kind == "crash":
            return lambda: self._on_crash(event)
        if event.kind == "recover":
            return lambda: self._on_recover(event)
        if event.kind == "straggle":
            return lambda: self._on_straggle(event)
        return lambda: self._on_link_degrade(event)

    def _on_crash(self, event: FaultEvent):
        shard = event.shard
        core = self.cores[shard]
        self.crashes += 1
        self._states[shard] = "down"
        self._unavailable.add(shard)
        self._down_since[shard] = event.time
        if self._has_recovery.get(id(event), False):
            core.recover_pending = True
        else:
            self._recover_eta.pop(shard, None)
        for view in self._ready_views:
            view[shard] = float("inf")
        # Account the KV the device is about to lose (shared blocks once).
        kv = core.admission.kv_cache
        self.kv_bytes_lost += kv.cpu_bytes + kv.gpu_bytes
        if kv.prefix_cache_enabled:
            self.blocks_lost += kv.block_store.num_blocks
        dropped = core.crash(event.time)
        if self.telemetry is not None:
            self.telemetry.record_fault(
                shard, "crash", event.time, dropped=len(dropped)
            )
        for hook in self.on_crash_drops:
            hook(shard, dropped)
        for serving_request in dropped:
            self._maybe_retry(serving_request, event.time, "crash")
        return ()

    def _on_recover(self, event: FaultEvent):
        shard = event.shard
        ready_time = event.time + event.duration
        self._states[shard] = "loading"
        self._recover_eta[shard] = ready_time
        for view in self._ready_views:
            view[shard] = ready_time
        if self.telemetry is not None:
            self.telemetry.record_fault(
                shard, "recover", event.time, ready_at=ready_time
            )
        loop = self.loop
        assert loop is not None  # attach() scheduled this handler
        if event.duration > 0:
            loop.schedule(ready_time, lambda: self._on_ready(shard, ready_time))
            return ()
        return self._on_ready(shard, ready_time)

    def _on_ready(self, shard: int, now: float):
        core = self.cores[shard]
        self._states[shard] = "ready"
        self._unavailable.discard(shard)
        self._recover_eta.pop(shard, None)
        self.recoveries += 1
        core.down = False
        core.recover_pending = False
        # The reloaded model serves no earlier than its ready instant —
        # the mid-stream counterpart of DeviceSpec.ready_at at startup.
        core.now = max(core.now, now)
        down_since = self._down_since.pop(shard, now)
        self.unavailability_s += now - down_since
        if self.telemetry is not None:
            self.telemetry.record_unavailability(shard, down_since, now)
        return (shard,)

    def _on_straggle(self, event: FaultEvent):
        shard = event.shard
        core = self.cores[shard]
        core.perf_penalty *= event.factor
        if self.telemetry is not None:
            self.telemetry.record_fault(
                shard, "straggle", event.time, factor=event.factor
            )
        loop = self.loop
        assert loop is not None

        def clear():
            core.perf_penalty /= event.factor
            if core.perf_penalty == 1.0 or abs(core.perf_penalty - 1.0) < 1e-12:
                core.perf_penalty = 1.0
            return (shard,)

        loop.schedule(event.time + event.duration, clear)
        return (shard,)

    def _on_link_degrade(self, event: FaultEvent):
        self.link_penalty *= event.factor
        if self.telemetry is not None:
            self.telemetry.record_fault(
                None, "link-degrade", event.time, factor=event.factor
            )
        loop = self.loop
        assert loop is not None

        def clear():
            self.link_penalty /= event.factor
            if abs(self.link_penalty - 1.0) < 1e-12:
                self.link_penalty = 1.0
            return ()

        loop.schedule(event.time + event.duration, clear)
        return ()

    # ------------------------------------------------------------------
    # Request resilience
    # ------------------------------------------------------------------
    def handle_failure(
        self, serving_request: ServingRequest, now: float, code: str
    ) -> None:
        """A core's ``on_fail`` sink: retry the drop if policy allows."""
        self._maybe_retry(serving_request, now, code)

    def _maybe_retry(
        self, serving_request: ServingRequest, now: float, code: str
    ) -> None:
        policy = self.resilience
        if (
            policy is None
            or code not in policy.retry_on
            or serving_request.attempt >= policy.max_retries
        ):
            return
        attempt = serving_request.attempt + 1
        retry_at = now + policy.backoff(serving_request.attempt)
        retry = ServingRequest(
            request=serving_request.request,
            arrival_time=retry_at,
            attempt=attempt,
        )
        self.retries += 1
        if self.telemetry is not None:
            self.telemetry.count("requests.retried")
        if self._record_sink is not None:
            self._record_sink(retry)
        loop = self.loop
        if loop is None:
            raise SimulationError(
                "retry scheduled before the injector was attached to a loop"
            )

        def inject():
            route = self._route
            assert route is not None  # set_route() runs before the loop
            shard = route(retry, self.cores)
            if self.telemetry is not None:
                self.telemetry.record_route(retry, shard, retry_at)
            self.cores[shard].offer(retry)
            return (shard,)

        loop.schedule(retry_at, inject)

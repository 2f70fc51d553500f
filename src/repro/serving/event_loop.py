"""Timestamp-ordered event loop driving N engine cores in global time order.

The first sharded serving loop was *time-sliced*: before routing each
arrival it ran every shard forward to the arrival instant
(O(arrivals x shards) calls), and because an engine step runs to
completion once started, a shard's clock could overshoot the arrival
mid-step — the router then observed state (retirements, queue drains)
from *after* the instant it was deciding at.

This module replaces that with a discrete-event simulation over one
central event queue.  Two event kinds exist:

* **step-complete** — a shard's in-flight engine step finishes; its
  effects (clock advance, first tokens, decode tokens, retirements) are
  applied via :meth:`~repro.serving.server.EngineCore.complete_step`;
* **arrival** — a request reaches the router, which observes every
  shard's true outstanding load *at that instant* and offers the request
  to the chosen shard's queue.

Events are processed in strict timestamp order.  At equal timestamps,
step completions apply before arrivals (a step ending exactly when a
request arrives has retired its requests by the time the router looks),
and all events sharing a timestamp are drained before any shard begins a
new step, so simultaneous arrivals all enter the same scheduling
decision.  Drained shards simply stop producing events; the loop ends
when the queue empties, which doubles as the drain phase.

With ``overlap=False`` engines this reproduces the time-sliced loop's
per-request timeline bit-for-bit whenever routing is load-independent
(round-robin, session-affinity) — and fixes the load signal where it is
not.  It is the only serving loop: the single-engine
:class:`~repro.serving.sharded.ServingSystem` is this loop over one core.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, Iterator, Sequence

from repro.serving.queue import ServingRequest
from repro.serving.server import EngineCore
from repro.utils.errors import SimulationError

#: Tie-break priorities at equal timestamps: completions apply first so the
#: router sees post-retirement state, then scheduled callbacks (KV-transfer
#: landings) deliver, then arrivals enqueue, and only once the timestamp is
#: fully drained do idle shards begin their next step.  Renumbering arrivals
#: below callbacks preserves every pre-existing relative order (completions
#: still beat arrivals), so unified timelines are unchanged.
_STEP_COMPLETE = 0
_CALLBACK = 1
_ARRIVAL = 2

#: A routing decision: maps one arrival plus the live cores to a shard index.
RouteFn = Callable[[ServingRequest, Sequence[EngineCore]], int]


class ServingEventLoop:
    """Central event queue multiplexing one arrival stream over N cores.

    ``route`` is called once per arrival with the cores in shard order; it
    returns the index of the shard to offer the request to.  It runs at
    the arrival's exact timestamp, after every earlier (and simultaneous)
    step completion has been applied, so whatever load or cache signal it
    reads is the true global state at that instant.
    """

    def __init__(
        self, cores: Sequence[EngineCore], route: RouteFn, telemetry=None
    ) -> None:
        if not cores:
            raise SimulationError("event loop needs at least one engine core")
        self.cores = list(cores)
        self.route = route
        #: Optional :class:`repro.obs.Telemetry`: the loop drives its
        #: time-series sampler as simulated time advances (per-core event
        #: hooks live on the cores themselves).
        self.telemetry = telemetry
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = itertools.count()
        self._pending_arrivals = 0
        self._pending_callbacks = 0
        self._stream: Iterator[ServingRequest] | None = None
        self._core_index = {id(core): i for i, core in enumerate(self.cores)}
        self._touched: set[int] = set()

    def _push(self, time: float, priority: int, payload: object) -> None:
        heapq.heappush(self._heap, (time, priority, next(self._seq), payload))

    def schedule(self, time: float, callback: Callable[[], Iterable[int]]) -> None:
        """Deliver ``callback`` at ``time`` (a priced in-flight transfer).

        The callback runs after same-instant step completions and before
        same-instant arrivals, and returns the shard indices it touched so
        the loop re-kicks exactly those (a source shard whose admissions
        were KV-blocked on the transfer's reservation retries immediately).
        Pending callbacks count as live work: the wedge detector knows an
        idle-looking shard may be waiting on one.
        """
        self._push(time, _CALLBACK, callback)
        self._pending_callbacks += 1

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self, records: Sequence[ServingRequest]) -> float:
        """Serve ``records`` (sorted by arrival time) to completion.

        Returns the makespan: the latest shard clock once every offered
        request has retired.
        """
        for serving_request in records:
            self._push(serving_request.arrival_time, _ARRIVAL, serving_request)
        self._pending_arrivals = len(records)
        return self._drain()

    def run_stream(self, records: Iterable[ServingRequest]) -> float:
        """Serve a lazily-generated arrival stream to completion.

        ``records`` must yield requests in non-decreasing arrival-time
        order (as every :class:`~repro.serving.arrivals.ArrivalProcess`
        produces them).  Exactly one unconsumed arrival is held in the
        event queue at a time — popping it pulls the next from the
        iterator — so a million-request stream never materialises as a
        million queued events.  The event order is identical to
        :meth:`run` on the materialised list: the next arrival can never
        be earlier than the one just popped, so pushing it late changes
        nothing the heap ordering observes.
        """
        self._stream = iter(records)
        first = next(self._stream, None)
        if first is not None:
            self._push(first.arrival_time, _ARRIVAL, first)
            self._pending_arrivals = 1
        try:
            return self._drain()
        finally:
            self._stream = None

    def _drain(self) -> float:
        while self._heap:
            time = self._heap[0][0]
            # Sample interval boundaries crossed before this timestamp with
            # the pre-event state: state is constant between events, so the
            # snapshot taken now is exact at every boundary strictly before
            # ``time``.
            if self.telemetry is not None:
                self.telemetry.sample(time, self.cores)
            # Drain every event at this timestamp before starting new
            # steps: completions first (priority order), then arrivals.
            while self._heap and self._heap[0][0] == time:
                _, priority, _, payload = heapq.heappop(self._heap)
                self._dispatch(priority, payload)
            self._kick()
        for core in self.cores:
            if core.has_work():
                # Backstop for the event-driven kick: a wedged shard whose
                # last event left it unable to begin a step surfaces here
                # rather than silently dropping its work.
                raise SimulationError(
                    "serving engine stalled with work outstanding"
                )
        makespan = max((core.now for core in self.cores), default=0.0)
        if self.telemetry is not None:
            self.telemetry.finish_run(makespan, self.cores)
        return makespan

    def _dispatch(self, priority: int, payload: object) -> None:
        if priority == _ARRIVAL:
            self._pending_arrivals -= 1
            if self._stream is not None:
                # Keep the invariant: the next unconsumed arrival is always
                # in the heap.  It joins before this one routes, so a
                # same-timestamp successor drains in this very batch —
                # exactly where the eager path would have it.
                upcoming = next(self._stream, None)
                if upcoming is not None:
                    self._push(upcoming.arrival_time, _ARRIVAL, upcoming)
                    self._pending_arrivals += 1
            serving_request = payload
            shard = self.route(serving_request, self.cores)
            if self.telemetry is not None:
                self.telemetry.record_route(
                    serving_request, shard, serving_request.arrival_time
                )
            self.cores[shard].offer(serving_request)
            self._touched.add(shard)
        elif priority == _CALLBACK:
            self._pending_callbacks -= 1
            self._touched.update(payload())
        else:
            core, crash_epoch = payload
            if core.crash_epoch != crash_epoch:
                # The shard crashed after this step launched: the step died
                # with the device, its requests were torn down at crash
                # time, and this completion event is stale.
                return
            core.complete_step()
            self._touched.add(self._core_index[id(core)])

    def _kick(self) -> None:
        """Begin the next step on every shard an event just touched.

        A shard with no event this timestamp is unchanged since its last
        kick, so re-deciding it would return the same action — scanning
        all N shards per timestamp (the old behaviour) only re-derives
        idle verdicts.  Kicks run in shard order, matching the full scan.
        """
        touched = self._touched
        if not touched:
            return
        for index in sorted(touched):
            core = self.cores[index]
            if core.down or core.step_in_flight or not core.has_work():
                # A down core never begins a step; work it queued while
                # awaiting recovery kicks when the ready event touches it.
                continue
            completion = core.begin_step()
            if completion is not None:
                # The crash epoch rides the completion event so a crash
                # between begin and complete invalidates it (see _dispatch).
                self._push(completion, _STEP_COMPLETE, (core, core.crash_epoch))
            elif (
                core.has_work()
                and self._pending_arrivals == 0
                and self._pending_callbacks == 0
            ):
                # Nothing in flight anywhere can unblock this shard's
                # admission once the arrival stream is exhausted, every
                # scheduled callback (in-flight KV transfer) has landed and
                # its own steps have drained: the engine is wedged.
                raise SimulationError(
                    "serving engine stalled with work outstanding"
                )
        touched.clear()

"""Event-driven serving loop: equivalence, ordering, and the fixed bug.

The acceptance bar for the event-loop refactor:

* N-shard ``overlap=off`` runs reproduce the original time-sliced loop
  bit-for-bit under load-independent routing (round-robin,
  session-affinity);
* where the time-sliced loop was *wrong* — a shard clock overshooting the
  arrival instant mid-step, leaking future retirements into the router's
  load signal — the event loop observes the true instantaneous load.
"""

import pytest

from repro.experiments.serving_sweep import offline_capacity
from repro.serving import (
    PoissonProcess,
    ServingEventLoop,
    ServingSystem,
    ShardedServingSystem,
    TimedRequest,
    default_slo,
)
from repro.serving.server import EngineCore, EngineStepModel
from repro.systems import MoELightningSystem
from repro.utils.errors import SimulationError
from repro.workloads import Request, mtbench

NUM_REQUESTS = 32
SEED = 0


@pytest.fixture(scope="module")
def setup(mixtral, t4_node):
    workload = mtbench(generation_len=8, num_requests=NUM_REQUESTS)
    backend = MoELightningSystem(mixtral, t4_node)
    policy = backend.select_policy(workload)
    slo = default_slo(backend, workload, policy)
    rate = 6.0 * offline_capacity(backend, workload, policy)
    return backend, workload, policy, slo, rate


def timeline(result):
    """Positional per-request timestamps (fresh Request ids per run)."""
    return [
        (
            index,
            sr.arrival_time,
            sr.admit_time,
            sr.first_token_time,
            sr.finish_time,
            sr.state,
            sr.shard_id,
        )
        for index, sr in enumerate(result.requests)
    ]


def make_sharded(setup, num_shards, router="round-robin", **kwargs):
    backend, workload, policy, slo, rate = setup
    return ShardedServingSystem(
        backend,
        workload,
        num_shards=num_shards,
        router=router,
        policy=policy,
        slo=slo,
        **kwargs,
    )


class TestEquivalence:
    @pytest.mark.parametrize("router", ["round-robin", "session-affinity"])
    def test_four_shards_reproduce_time_sliced_loop(self, setup, router):
        """Load-independent routing: the event queue changes nothing.

        The stream is materialised once and shared (session-affinity
        hashes request ids, which advance a process-global counter on
        every fresh materialisation).
        """
        backend, workload, policy, slo, rate = setup
        stream = PoissonProcess(rate).generate(
            workload, count=NUM_REQUESTS, seed=SEED
        )
        event = make_sharded(setup, 4, router=router).run(list(stream))
        sliced = make_sharded(setup, 4, router=router).run_time_sliced(
            list(stream)
        )
        assert timeline(event) == timeline(sliced)
        assert event.makespan == sliced.makespan
        assert event.report == sliced.report
        assert event.as_row() == sliced.as_row()

    def test_four_shards_chunked_prefill_reproduces_time_sliced_loop(self, setup):
        system = make_sharded(setup, 4, chunk_prefill_tokens=96)
        event = system.run(
            PoissonProcess(rate=setup[4]), count=NUM_REQUESTS, seed=SEED
        )
        sliced = system.run_time_sliced(
            PoissonProcess(rate=setup[4]), count=NUM_REQUESTS, seed=SEED
        )
        assert timeline(event) == timeline(sliced)
        assert event.report == sliced.report

    def test_event_runs_are_deterministic(self, setup):
        first = make_sharded(setup, 2, router="least-loaded").run(
            PoissonProcess(rate=setup[4]), count=NUM_REQUESTS, seed=SEED
        )
        second = make_sharded(setup, 2, router="least-loaded").run(
            PoissonProcess(rate=setup[4]), count=NUM_REQUESTS, seed=SEED
        )
        assert timeline(first) == timeline(second)
        assert first.report == second.report


class TestFixedOrderingBug:
    def test_router_sees_pre_completion_load_mid_step(self, setup):
        """An arrival mid-step must not observe the step's retirements.

        The time-sliced loop ran the straddling step to completion before
        routing, so a request retiring at the step's end vanished from the
        load signal of an arrival that landed *mid*-step.  The event loop
        routes at the arrival's true instant.
        """
        backend, workload, policy, slo, rate = setup
        # Probe: one request, gen_len 2 -> one prefill step + one decode
        # step; the request retires at the decode step's end.  A lone
        # request on shard 0 follows exactly the single-engine timeline,
        # which exposes its steps.
        probe_stream = [TimedRequest(Request(input_len=64, generation_len=2), 0.0)]
        probe = ServingSystem(backend, workload, policy=policy, slo=slo).run(
            probe_stream
        )
        decode = probe.steps[-1]
        assert decode.kind == "decode"
        mid_decode = decode.start + decode.duration / 2

        stream = [
            TimedRequest(Request(input_len=64, generation_len=2), 0.0),
            TimedRequest(Request(input_len=64, generation_len=2), mid_decode),
        ]
        event = make_sharded(setup, 2, router="least-loaded").run(list(stream))
        sliced = make_sharded(setup, 2, router="least-loaded").run_time_sliced(
            list(stream)
        )
        # Event loop: shard 0 still holds the decoding request at the
        # arrival instant, so least-loaded picks the empty shard 1.
        assert event.requests[1].shard_id == 1
        # Time-sliced loop: shard 0's clock overshot the arrival, the
        # request already retired, and the tie broke back to shard 0.
        assert sliced.requests[1].shard_id == 0

    def test_empty_core_list_rejected(self):
        with pytest.raises(SimulationError):
            ServingEventLoop([], lambda sr, cores: 0)


class TestEventGranularStepping:
    @pytest.fixture()
    def core(self, setup):
        backend, workload, policy, slo, rate = setup
        step_model = EngineStepModel(backend, workload, policy)
        return EngineCore(
            backend=backend,
            workload=workload,
            policy=policy,
            step_model=step_model,
        )

    def offer(self, core, arrival_time, input_len=64, generation_len=4):
        from repro.serving.queue import ServingRequest

        serving_request = ServingRequest(
            request=Request(input_len=input_len, generation_len=generation_len),
            arrival_time=arrival_time,
        )
        assert core.offer(serving_request)
        return serving_request

    def test_begin_returns_completion_and_complete_applies_it(self, core):
        self.offer(core, 1.0)
        assert core.now == 1.0
        completion = core.begin_step()
        assert completion is not None and completion > 1.0
        assert core.step_in_flight
        assert core.now == 1.0  # clock moves only at completion
        assert core.load() == 1  # in-flight chunk still counts as load
        assert core.has_work()
        kind = core.complete_step()
        assert kind == "prefill"
        assert core.now == completion
        assert not core.step_in_flight
        assert len(core.running) == 1

    def test_double_begin_and_orphan_complete_raise(self, core):
        self.offer(core, 0.0)
        core.begin_step()
        with pytest.raises(SimulationError):
            core.begin_step()
        core.complete_step()
        with pytest.raises(SimulationError):
            core.complete_step()

    def test_begin_on_empty_engine_is_idle(self, core):
        assert core.begin_step() is None
        assert not core.step_in_flight

    def test_arrival_during_flight_waits_for_next_decision(self, core):
        self.offer(core, 0.0)
        completion = core.begin_step()
        mid = self.offer(core, completion / 2)
        # A busy engine queues the arrival without touching its clock.
        assert core.now == 0.0
        assert core.load() == 2
        core.complete_step()
        assert mid.state.name == "QUEUED"
        core.begin_step()
        core.complete_step()
        assert mid.first_token_time is not None

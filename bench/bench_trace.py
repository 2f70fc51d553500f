"""Span tracing for the benchmark's traced run, installed from outside.

:class:`Tracer` wraps the public functions of each simulator layer (the
table in ``LAYER_METHODS`` plus the few seams patched in
:meth:`Tracer.install`).  Each wrapped call inside a root span — one
``ShardedServingSystem.run`` call — records a span: layer, name, start,
end, parent span id and, when its argument is a ``ServingRequest``, that
request's id.  Calls outside a root span (set-up) pass straight through.

A layer's self time is its spans' duration minus the time their child
spans cover, so the self times of all layers sum to the root spans'
inclusive time; the root's own self time is the ``event_loop`` layer.
Untraced runs never construct a tracer, so they run unmodified code.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

from repro.core.performance_model import PerformanceModel
from repro.runtime.block_store import SharedBlockStore
from repro.runtime.kv_cache import KVCacheManager
from repro.serving import sharded
from repro.serving.admission import AdmissionController
from repro.serving.arrivals import ArrivalProcess
from repro.serving.event_loop import ServingEventLoop
from repro.serving.faults import FaultInjector
from repro.serving.metrics import ReportBuilder
from repro.serving.queue import ServingRequest
from repro.serving.router import PhaseRouter, ShardRouter
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.serving.server import EngineCore, EngineStepModel

#: Layer name -> (class, public methods timed as that layer).
LAYER_METHODS = (
    ("router", ShardRouter, ("route",)),
    ("router", PhaseRouter, ("route_prefill", "route_decode")),
    ("engine", EngineCore, ("offer", "begin_step", "complete_step")),
    ("scheduler", ContinuousBatchingScheduler, ("next_action",)),
    (
        "admission",
        AdmissionController,
        (
            "check",
            "admit",
            "admit_checked",
            "release",
            "match_prefix",
            "match_prefix_hashes",
        ),
    ),
    (
        "kv_cache",
        KVCacheManager,
        (
            "register_sequence",
            "append_tokens",
            "release_sequence",
            "can_admit",
            "headroom_tokens",
        ),
    ),
    (
        "block_store",
        SharedBlockStore,
        (
            "allocate_run",
            "register_chain",
            "release_many",
            "release",
            "match_prefix_hashes",
            "acquire_many",
            "append_to_block",
            "expire_idle",
            "drop_all_cached",
            "can_allocate_blocks",
        ),
    ),
    (
        "step_pricing",
        EngineStepModel,
        ("decode_step_time", "prefill_time", "chunked_prefill_time"),
    ),
    ("hrm", PerformanceModel, ("decode_step_latency", "prefill_time")),
    ("report", ReportBuilder, ("observe", "observe_many", "build")),
    ("faults", FaultInjector, ("handle_failure",)),
    ("disagg", EngineCore, ("accept_migrated", "release_migrated")),
)

ROOT = "event_loop"
LAYERS = (
    "arrivals",
    "router",
    "engine",
    "scheduler",
    "admission",
    "kv_cache",
    "block_store",
    "step_pricing",
    "hrm",
    "report",
    "faults",
    "disagg",
    ROOT,
)
BOUNDS = ("htod", "dtoh", "cpu", "gpu")

#: Raw spans kept for the Chrome trace; aggregates cover every span.
MAX_SPANS = 200_000


def _request_id(args: tuple) -> int | None:
    for arg in args[:2]:
        if isinstance(arg, ServingRequest):
            return arg.request_id
    return None


class _TimedIterator:
    """An iterator whose every ``__next__`` is a span."""

    def __init__(self, iterator, timed_next) -> None:
        self._iterator = iterator
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next(self._iterator)


class Tracer:
    """Per-layer span aggregates plus the first ``MAX_SPANS`` raw spans."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[child_ns, span_id]``.
        self._stack: list[list[int]] = []
        self._ids = itertools.count(1)
        #: Layer -> ``[calls, self_ns, inclusive_ns]``.
        self.totals = {layer: [0, 0, 0] for layer in LAYERS}
        #: ``(layer, name, start_ns, end_ns, span_id, parent_id, request_id)``.
        self.spans: list[tuple] = []
        self.callbacks = 0
        self.decode_calls = 0
        self.decode_batch_total = 0
        self.evictions = 0
        self.bound_time = dict.fromkeys(BOUNDS, 0.0)
        # Per-pass references, released by harvest().
        self._stores: list[SharedBlockStore] = []
        self._step_weights: dict[tuple, float] = {}
        self._step_models: dict[int, EngineStepModel] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span wrappers
    # ------------------------------------------------------------------
    def timed(self, layer: str, name: str, fn, root: bool = False):
        """``fn`` recording one ``layer`` span per call.

        A ``root`` span opens whenever it is called; any other span only
        inside a root span; outside one, the call passes straight through.
        """
        stack = self._stack
        totals = self.totals[layer]
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not (stack or root):
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1][1] if stack else 0
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed - frame[0]
                totals[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if len(spans) < MAX_SPANS:
                    spans.append(
                        (layer, name, start, end, span_id, parent, _request_id(args))
                    )

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's public functions (process-wide)."""
        for layer, owner, names in LAYER_METHODS:
            for name in names:
                if name not in owner.__dict__:
                    print(
                        f"trace: {owner.__name__}.{name} not found; layer "
                        f"{layer} loses that timer",
                        file=sys.stderr,
                    )
                    continue
                label = f"{owner.__name__}.{name}"
                self._patch(owner, name, self.timed(layer, label, owner.__dict__[name]))
        run = sharded.ShardedServingSystem.__dict__["run"]
        self._patch(
            sharded.ShardedServingSystem,
            "run",
            self.timed(ROOT, "ShardedServingSystem.run", run, root=True),
        )
        # ``summarize`` as the sharded system binds it.
        self._patch(
            sharded, "summarize", self.timed("report", "summarize", sharded.summarize)
        )
        self._install_arrivals()
        self._install_event_loop()
        self._install_decode_recorder()
        self._install_store_registry()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install_arrivals(self) -> None:
        generate_lazy = ArrivalProcess.__dict__["generate_lazy"]
        timed_next = self.timed("arrivals", "ArrivalProcess.generate_lazy.__next__", next)

        def traced_generate_lazy(process, *args, **kwargs):
            return _TimedIterator(generate_lazy(process, *args, **kwargs), timed_next)

        self._patch(ArrivalProcess, "generate_lazy", traced_generate_lazy)

    def _install_event_loop(self) -> None:
        init = ServingEventLoop.__dict__["__init__"]
        schedule = ServingEventLoop.__dict__["schedule"]
        timed = self.timed
        stack = self._stack

        def traced_init(loop, cores, route, telemetry=None):
            init(loop, cores, timed("router", "route", route), telemetry=telemetry)

        def traced_schedule(loop, when, callback):
            if stack:
                self.callbacks += 1
            owner = getattr(callback, "__qualname__", "").split(".", 1)[0]
            if owner == "FaultInjector":
                callback = timed("faults", "FaultInjector.callback", callback)
            elif owner == "_DisaggController":
                callback = timed("disagg", "_DisaggController.landing", callback)
            schedule(loop, when, callback)

        self._patch(ServingEventLoop, "__init__", traced_init)
        self._patch(ServingEventLoop, "schedule", traced_schedule)

    def _install_decode_recorder(self) -> None:
        """Weight each decode step's HRM bottleneck by its priced time."""
        priced = EngineStepModel.decode_step_time  # already a span wrapper
        stack = self._stack
        weights = self._step_weights
        models = self._step_models

        def decode_step_time(model, num_running, mean_context):
            step_time = priced(model, num_running, mean_context)
            if stack:
                self.decode_calls += 1
                self.decode_batch_total += num_running
                models[id(model)] = model
                key = (id(model), num_running, model._bucket_ctx(mean_context))
                weights[key] = weights.get(key, 0.0) + step_time
            return step_time

        self._patch(EngineStepModel, "decode_step_time", decode_step_time)

    def _install_store_registry(self) -> None:
        init = SharedBlockStore.__dict__["__init__"]
        stores = self._stores

        def traced_init(store, *args, **kwargs):
            init(store, *args, **kwargs)
            stores.append(store)

        self._patch(SharedBlockStore, "__init__", traced_init)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def harvest(self) -> None:
        """Fold one pass's store evictions and decode bottlenecks in."""
        self.evictions += sum(store.evictions for store in self._stores)
        self._stores.clear()
        # One HRM breakdown per distinct (step model, batch, bucketed ctx).
        performance: dict[int, PerformanceModel] = {}
        for (model_id, batch, ctx), step_time in self._step_weights.items():
            model = self._step_models[model_id]
            if model_id not in performance:
                performance[model_id] = model.backend.performance_model(model.workload)
            bottleneck = (
                performance[model_id]
                .layer_decode_breakdown(model.policy.with_batch_size(batch), ctx)
                .bottleneck
            )
            self.bound_time[bottleneck] += step_time
        self._step_weights.clear()
        self._step_models.clear()

    def layer_metrics(self, passes: int, wall_s: float) -> dict[str, float]:
        """Per-layer self share, calls per pass and self ns per call."""
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            calls, self_ns, _ = self.totals[layer]
            metrics[f"{layer}.self_share"] = self_ns / 1e9 / wall_s
            metrics[f"{layer}.calls"] = calls / passes
            metrics[f"{layer}.ns_per_call"] = self_ns / calls if calls else 0.0
        lookups = self.totals["step_pricing"][0]
        metrics["step_pricing.miss_ratio"] = (
            self.totals["hrm"][0] / lookups if lookups else 0.0
        )
        metrics["engine.decode_batch_mean"] = (
            self.decode_batch_total / self.decode_calls if self.decode_calls else 0.0
        )
        metrics["block_store.evictions"] = self.evictions / passes
        bound_total = sum(self.bound_time.values())
        for bound in BOUNDS:
            metrics[f"hrm.bound_{bound}_share"] = (
                self.bound_time[bound] / bound_total if bound_total else 0.0
            )
        return metrics

    def root_inclusive_s(self) -> float:
        return self.totals[ROOT][2] / 1e9

    def write_chrome_trace(self, path: Path) -> None:
        """The kept spans as Chrome trace-event JSON (loads in Perfetto)."""
        origin = min((span[2] for span in self.spans), default=0)
        events = []
        for layer, name, start, end, span_id, parent, request_id in self.spans:
            args = {"span": span_id, "parent": parent}
            if request_id is not None:
                args["request_id"] = request_id
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (start - origin) / 1000,
                    "dur": (end - start) / 1000,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, handle)

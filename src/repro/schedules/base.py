"""Common machinery for pipeline schedules.

A schedule builds the decode-stage task graph for a policy at a given
context length.  The base class provides:

* steady-state step timing — the graph contains a warm-up step followed by
  measured steps, and the per-step latency is taken as the average distance
  between consecutive step-completion times, so prologue effects (the first
  layer waiting for its first weights, Algorithm 1's explicit prologue) do
  not pollute the measurement;
* bubble/utilisation reporting used by the Fig. 6 comparison;
* a uniform ``decode_time`` integration over a growing context, mirroring
  the analytical model's trapezoidal integration.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.core.performance_model import (
    EfficiencyModel,
    decode_sample_positions,
    integrate_decode,
)
from repro.core.policy import Policy
from repro.hardware.spec import HardwareSpec
from repro.models.config import ModelConfig
from repro.runtime.costs import TaskCostModel
from repro.runtime.resources import ResourceKind
from repro.runtime.simulator import SimulationResult, Simulator
from repro.runtime.tasks import TaskGraph
from repro.utils.errors import ScheduleError
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class StepTiming:
    """Timing summary for one simulated decode configuration."""

    step_time: float
    makespan: float
    num_steps: int
    utilization: dict[str, float] = field(default_factory=dict, compare=False)
    gpu_bubble_fraction: float = 0.0
    htod_bubble_fraction: float = 0.0


class PipelineSchedule(abc.ABC):
    """Base class for decode-stage pipeline schedules."""

    #: Registry name; subclasses override.
    name: str = "base"
    #: Whether the schedule runs the attention core on the CPU.
    uses_cpu_attention: bool = True
    #: Whether weights are transferred in interleaved pages.
    uses_paged_weights: bool = False

    def __init__(
        self,
        model: ModelConfig,
        hardware: HardwareSpec,
        efficiency: EfficiencyModel | None = None,
        max_sim_layers: int | None = None,
    ) -> None:
        self.model = model
        self.hardware = hardware
        self.costs = TaskCostModel(
            model=model,
            hardware=hardware,
            efficiency=efficiency or EfficiencyModel(),
        )
        self.simulator = Simulator()
        if max_sim_layers is not None:
            require_positive_int("max_sim_layers", max_sim_layers)
        self.max_sim_layers = max_sim_layers

    @property
    def sim_num_layers(self) -> int:
        """Layers materialised in the simulated task graph.

        Per-layer work is identical across layers during decode, so for very
        deep models the graph can simulate a truncated stack and scale the
        steady-state step time back up — the truncation only affects the
        (small) step-boundary effects.  ``None`` simulates every layer.
        """
        if self.max_sim_layers is None:
            return self.model.num_layers
        return min(self.model.num_layers, self.max_sim_layers)

    @property
    def layer_scale(self) -> float:
        """Factor that scales simulated per-step time to the full model depth."""
        return self.model.num_layers / self.sim_num_layers

    # ------------------------------------------------------------------
    # Graph construction (subclass responsibility)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build_decode_graph(
        self, policy: Policy, context_len: int, num_steps: int = 1
    ) -> TaskGraph:
        """Build the task graph for ``num_steps`` decode steps."""

    def validate_policy(self, policy: Policy) -> None:
        """Reject policies the schedule cannot execute."""
        if self.uses_cpu_attention and policy.attention_on_gpu:
            raise ScheduleError(
                f"{self.name} performs attention on the CPU but the policy "
                "requests GPU attention"
            )
        if not self.uses_cpu_attention and not policy.attention_on_gpu:
            raise ScheduleError(
                f"{self.name} performs attention on the GPU but the policy "
                "requests CPU attention"
            )

    # ------------------------------------------------------------------
    # Simulation helpers
    # ------------------------------------------------------------------
    def simulate(
        self, policy: Policy, context_len: int, num_steps: int = 1
    ) -> SimulationResult:
        """Simulate ``num_steps`` decode steps and return the raw result."""
        require_positive_int("num_steps", num_steps)
        self.validate_policy(policy)
        graph = self.build_decode_graph(policy, context_len, num_steps=num_steps)
        return self.simulator.run(graph)

    def step_timing(
        self,
        policy: Policy,
        context_len: int,
        warmup_steps: int = 1,
        measure_steps: int = 2,
    ) -> StepTiming:
        """Steady-state per-step latency at a fixed context length."""
        require_positive_int("warmup_steps", warmup_steps)
        require_positive_int("measure_steps", measure_steps)
        total_steps = warmup_steps + measure_steps
        result = self.simulate(policy, context_len, num_steps=total_steps)
        step_ends = self._step_completion_times(result, total_steps)
        steady = (step_ends[-1] - step_ends[warmup_steps - 1]) / measure_steps
        if self.sim_num_layers < self.model.num_layers:
            # Scale the layer-periodic part of the step up to the full depth;
            # the sampling task happens once per step regardless of depth.
            sample_time = self.costs.sample(policy.batch_size)
            steady = (steady - sample_time) * self.layer_scale + sample_time
        trace = result.trace
        return StepTiming(
            step_time=steady,
            makespan=result.makespan,
            num_steps=total_steps,
            utilization=result.utilization_report(),
            gpu_bubble_fraction=trace.bubble_fraction(ResourceKind.GPU),
            htod_bubble_fraction=trace.bubble_fraction(ResourceKind.HTOD),
        )

    def _step_completion_times(
        self, result: SimulationResult, num_steps: int
    ) -> list[float]:
        """Completion time of each decode step (max end over its events)."""
        ends = [0.0] * num_steps
        seen = [False] * num_steps
        for event in result.trace:
            if event.step < 0:
                continue
            ends[event.step] = max(ends[event.step], event.end)
            seen[event.step] = True
        if not all(seen):
            missing = [idx for idx, ok in enumerate(seen) if not ok]
            raise ScheduleError(
                f"{self.name}: steps {missing} produced no events; the graph "
                "builder did not emit every requested step"
            )
        return ends

    def decode_time(
        self,
        policy: Policy,
        start_context: int,
        generation_len: int,
        num_samples: int = 5,
    ) -> float:
        """Total decode time while the context grows over ``generation_len``.

        The steady-state step time is simulated at ``num_samples`` (at least
        2) context lengths and integrated with the trapezoidal rule, the
        analytical model's own sampling and integration, so the two are
        directly comparable.
        """
        require_positive_int("start_context", start_context)
        require_positive_int("generation_len", generation_len)
        positions = decode_sample_positions(start_context, generation_len, num_samples)
        return integrate_decode(
            positions, [self.step_timing(policy, pos).step_time for pos in positions]
        )

"""Policy optimizer (paper §4.2).

Searches the policy space ``(N, μ, A_g, F_g, r_w, r_c)`` for the candidate
that maximises estimated generation throughput subject to the GPU and CPU
memory constraints.  The paper solves this with a small MILP; the space is
tiny (two integers with natural grids, two binaries, two ratios whose
optimum is at a memory-capacity boundary), so a structured grid search with
analytical inner steps finds the same optima:

* ``r_w`` (static weight fraction) — more resident weights always reduces
  interconnect traffic, so for each ``(N, μ, A_g, F_g, r_c)`` we push it to
  the largest value that still fits in GPU memory.
* ``N`` — larger batches amortise weight transfers until the CPU-side KV
  cache no longer fits, so candidates include the CPU-memory bound.
* ``μ`` — swept over a power-of-two grid bounded by the GPU-activation fit.

The feasible candidates are priced together: decode as one numpy grid per
placement (:meth:`~repro.core.performance_model.PerformanceModel.throughputs`),
with operator costs computed once per shape.  For Mixtral-8x7B on one T4
with a chat workload (gen 128; 523 candidates, 327 feasible) a search
takes about 27 ms; pricing each candidate with scalar ``estimate`` calls
took about 164 ms (2-vCPU VM, host-speed-scaled ``setup_s`` of the
``chat-decode`` benchmark workload, medians of 10 runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.memory_model import MemoryModel, PartitionedMemoryModel
from repro.core.performance_model import (
    EfficiencyModel,
    PartitionedPerformanceModel,
    PerformanceModel,
    ThroughputEstimate,
)
from repro.core.policy import Policy
from repro.hardware.spec import HardwareSpec
from repro.models.config import ModelConfig
from repro.utils.errors import InfeasiblePolicyError
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.cluster.partition import PartitionPlan


def _power_of_two_grid(minimum: int, maximum: int) -> list[int]:
    """Powers of two in ``[minimum, maximum]``, always including the bounds."""
    if maximum < minimum:
        return []
    values = []
    value = 1
    while value <= maximum:
        if value >= minimum:
            values.append(value)
        value *= 2
    if not values or values[0] != minimum:
        values.insert(0, minimum)
    if values[-1] != maximum:
        values.append(maximum)
    return sorted(set(values))


@dataclass(frozen=True)
class OptimizerResult:
    """Outcome of a policy search."""

    policy: Policy
    estimate: ThroughputEstimate
    candidates_evaluated: int
    feasible_candidates: int

    @property
    def throughput(self) -> float:
        """Estimated generation throughput of the selected policy."""
        return self.estimate.throughput

    @property
    def bottleneck(self) -> str:
        """Binding resource of the selected policy at mid-generation."""
        return self.estimate.bottleneck


@dataclass(frozen=True)
class PolicyOptimizer:
    """Searches for the best policy for a (model, hardware, workload) triple.

    Parameters
    ----------
    allow_cpu_attention / allow_gpu_attention:
        Restrict the ``A_g`` axis; e.g. the FlexGen baseline without CPU
        attention sets ``allow_cpu_attention=False``.
    allow_cpu_ffn:
        Whether the latency-oriented corner ``F_g = 0`` is searched.
    max_micro_batch_size / max_batch_size:
        Optional hard caps, used to mimic baseline systems' limits.
    padded:
        Charge the maximum prompt length per request (padding-based systems).
    """

    model: ModelConfig
    hardware: HardwareSpec
    workload: WorkloadSpec
    efficiency: EfficiencyModel = field(default_factory=EfficiencyModel)
    padded: bool = False
    allow_cpu_attention: bool = True
    allow_gpu_attention: bool = True
    allow_cpu_ffn: bool = False
    max_micro_batch_size: int | None = None
    max_batch_size: int | None = None
    ratio_steps: int = 5
    partition: "PartitionPlan | None" = None

    def __post_init__(self) -> None:
        if not (self.allow_cpu_attention or self.allow_gpu_attention):
            raise InfeasiblePolicyError(
                "at least one of CPU or GPU attention must be allowed"
            )

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    @cached_property
    def performance_model(self) -> PerformanceModel:
        """The analytical model used to score candidates (built once).

        With a :class:`~repro.cluster.partition.PartitionPlan` the search is
        scored by the partitioned model, so collective-communication costs
        shape the chosen policy exactly as they shape the reported runs.
        """
        if self.partition is not None and not self.partition.is_trivial:
            return PartitionedPerformanceModel(
                model=self.model,
                hardware=self.hardware,
                workload=self.workload,
                efficiency=self.efficiency,
                padded=self.padded,
                plan=self.partition,
            )
        return PerformanceModel(
            model=self.model,
            hardware=self.hardware,
            workload=self.workload,
            efficiency=self.efficiency,
            padded=self.padded,
        )

    @cached_property
    def memory_model(self) -> MemoryModel:
        """The memory-constraint model used to prune candidates (built once).

        Partitioned searches prune on per-shard (per-device) fit, matching
        the constraint the end-to-end run enforces.
        """
        if self.partition is not None and not self.partition.is_trivial:
            return PartitionedMemoryModel(
                model=self.model,
                hardware=self.hardware,
                workload=self.workload,
                padded=self.padded,
                plan=self.partition,
            )
        return MemoryModel(
            model=self.model,
            hardware=self.hardware,
            workload=self.workload,
            padded=self.padded,
        )

    def attention_placements(self) -> list[bool]:
        """Allowed values of ``A_g`` (True = GPU attention)."""
        placements = []
        if self.allow_cpu_attention:
            placements.append(False)
        if self.allow_gpu_attention:
            placements.append(True)
        return placements

    def ffn_placements(self) -> list[bool]:
        """Allowed values of ``F_g`` (True = GPU FFN)."""
        return [True, False] if self.allow_cpu_ffn else [True]

    def micro_batch_candidates(self) -> list[int]:
        """Micro-batch sizes to sweep, bounded by the GPU activation fit."""
        memory = self.memory_model
        upper = self.max_micro_batch_size or 4096
        upper = min(upper, self.max_batch_size or upper)
        candidates = []
        for mu in _power_of_two_grid(1, upper):
            probe = Policy(batch_size=mu, micro_batch_size=mu)
            if memory.gpu_usage(probe).total <= memory.usable_gpu_memory:
                candidates.append(mu)
        # Keep a useful spread even when nothing fits (optimizer will report
        # infeasibility later instead of silently returning an empty sweep).
        return candidates or [1]

    def batch_size_candidates(self, policy: Policy) -> list[int]:
        """Batch sizes to sweep for a given micro-batch size."""
        memory = self.memory_model
        cap = self.max_batch_size or self.workload.num_requests
        max_n = min(memory.max_batch_size(policy), cap)
        mu = policy.micro_batch_size
        if max_n < mu:
            return []
        max_multiplier = max_n // mu
        multipliers = _power_of_two_grid(1, max_multiplier)
        # Always include the memory-bound maximum: the best balance point is
        # usually at the largest N that still fits (paper §3.3).
        sizes = sorted({m * mu for m in multipliers} | {max_multiplier * mu})
        return sizes

    def ratio_candidates(self) -> list[float]:
        """Grid of KV-cache GPU ratios ``r_c`` to sweep."""
        steps = max(1, self.ratio_steps)
        return [i / steps for i in range(steps + 1)]

    def candidate_policies(self) -> Iterable[Policy]:
        """Yield every candidate policy in the structured search space."""
        memory = self.memory_model
        for gpu_attention in self.attention_placements():
            for gpu_ffn in self.ffn_placements():
                kv_ratios = self.ratio_candidates() if gpu_attention else [0.0]
                for mu in self.micro_batch_candidates():
                    for kv_ratio in kv_ratios:
                        # The probe used to bound the batch size carries the
                        # KV split and the largest weight fraction the GPU can
                        # host, so CPU memory is charged realistically (the
                        # weights it does not hold stay on the CPU).
                        probe = Policy(
                            batch_size=mu,
                            micro_batch_size=mu,
                            attention_on_gpu=gpu_attention,
                            ffn_on_gpu=gpu_ffn,
                            kv_cache_gpu_ratio=kv_ratio,
                        )
                        probe = probe.with_weights_gpu_ratio(
                            memory.max_weights_gpu_ratio(probe)
                        )
                        for batch_size in self.batch_size_candidates(probe):
                            candidate = Policy(
                                batch_size=batch_size,
                                micro_batch_size=mu,
                                attention_on_gpu=gpu_attention,
                                ffn_on_gpu=gpu_ffn,
                                kv_cache_gpu_ratio=kv_ratio,
                            )
                            best_rw = memory.max_weights_gpu_ratio(candidate)
                            yield candidate.with_weights_gpu_ratio(best_rw)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _select(self, candidates: Sequence[Policy], error: str) -> OptimizerResult:
        """The first best-scoring memory-feasible candidate.

        Feasible candidates are priced together (:meth:`PerformanceModel.throughputs`,
        one decode grid per placement); only the winner gets a full
        :class:`ThroughputEstimate`.
        """
        memory = self.memory_model
        feasible = [policy for policy in candidates if memory.is_feasible(policy)]
        if not feasible:
            raise InfeasiblePolicyError(error)
        performance = self.performance_model
        best = feasible[int(np.argmax(performance.throughputs(feasible)))]
        return OptimizerResult(
            policy=best,
            estimate=performance.estimate(best),
            candidates_evaluated=len(candidates),
            feasible_candidates=len(feasible),
        )

    def search(self) -> OptimizerResult:
        """Run the policy search and return the best feasible policy.

        Raises :class:`InfeasiblePolicyError` when no candidate fits memory.
        """
        return self._select(
            list(self.candidate_policies()),
            f"no feasible policy for {self.model.name} on "
            f"{self.hardware.name} with workload {self.workload.name}",
        )

    def evaluate(self, policy: Policy) -> ThroughputEstimate:
        """Score a fixed policy (used by the Tab. 5 policy ablation)."""
        return self.performance_model.estimate_feasible(policy)

    def best_of(self, policies: Sequence[Policy]) -> OptimizerResult:
        """Pick the best feasible policy out of an explicit candidate list."""
        return self._select(policies, "none of the supplied policies is feasible")

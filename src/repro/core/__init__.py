"""Core contribution: HRM, the performance model and the policy optimizer.

This package implements the paper's primary analytical machinery:

* :mod:`repro.core.roofline` — the classical Roofline Model (§3.1).
* :mod:`repro.core.hrm` — the Hierarchical Roofline Model with per-level
  compute/memory roofs, cross-level memory roofs, turning points and the
  balance point (§3.2).
* :mod:`repro.core.policy` — the policy tuple ``(N, μ, A_g, F_g, r_w, r_c)``
  (Table 1).
* :mod:`repro.core.memory_model` — GPU/CPU memory-constraint accounting for
  a policy.
* :mod:`repro.core.performance_model` — the per-layer decode latency model
  ``T = max(comm_cpu_to_gpu, T_cpu, T_gpu)`` (Eqs. 12-14), priced for one
  policy or as numpy grids over policies x context lengths, and end-to-end
  throughput estimation.
* :mod:`repro.core.optimizer` — the policy search that maximises estimated
  throughput subject to the memory constraints (§4.2).
"""

from repro.core.roofline import RooflineModel, RooflinePoint
from repro.core.hrm import (
    HierarchicalRoofline,
    MemoryLevel,
    RoofSet,
    balance_point_intensity,
    turning_point_p1,
    turning_point_p2,
)
from repro.core.policy import Placement, Policy
from repro.core.memory_model import (
    MemoryModel,
    PartitionedMemoryModel,
    PolicyMemoryUsage,
)
from repro.core.performance_model import (
    DecodeGrid,
    LatencyBreakdown,
    PartitionedPerformanceModel,
    PerformanceModel,
    ThroughputEstimate,
)
from repro.core.optimizer import OptimizerResult, PolicyOptimizer

__all__ = [
    "RooflineModel",
    "RooflinePoint",
    "HierarchicalRoofline",
    "MemoryLevel",
    "RoofSet",
    "balance_point_intensity",
    "turning_point_p1",
    "turning_point_p2",
    "Placement",
    "Policy",
    "MemoryModel",
    "PartitionedMemoryModel",
    "PolicyMemoryUsage",
    "DecodeGrid",
    "LatencyBreakdown",
    "PartitionedPerformanceModel",
    "PerformanceModel",
    "ThroughputEstimate",
    "OptimizerResult",
    "PolicyOptimizer",
]

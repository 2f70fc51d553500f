"""Execution substrate: a discrete-event simulator of the CPU-GPU-I/O node.

The paper's CGOPipe contribution is a *schedule*: an ordering of compute
tasks and transfers across four independently progressing resources — the
GPU, the CPU, the host-to-device copy engine and the device-to-host copy
engine.  This package provides the substrate those schedules execute on:

* :mod:`repro.runtime.tasks` — task descriptions (kind, resource, duration,
  dependencies) and task-graph construction helpers.
* :mod:`repro.runtime.resources` — the four exclusive channels (plus
  convenience constructors for multi-slot resources).
* :mod:`repro.runtime.simulator` — a deterministic list-scheduling
  discrete-event simulator that executes a task graph and produces a trace.
* :mod:`repro.runtime.trace` — timeline traces with utilisation, bubble and
  critical-path accounting plus ASCII Gantt rendering (used to regenerate
  Fig. 6).
* :mod:`repro.runtime.memory_manager` — paged memory pools and page tables
  (Appendix A.1).
* :mod:`repro.runtime.weights` — the paged-weight manager with the
  ``2 x sizeof(W_L)`` double buffer and pinned-memory staging.
* :mod:`repro.runtime.kv_cache` — a paged KV cache with per-request block
  tables split across CPU and GPU pools.
* :mod:`repro.runtime.block_store` — the block store behind it:
  content-hash-chained prompt blocks held in reference-counted segments,
  shared through the prefix cache with LRU eviction of unreferenced cache,
  and one counted private run per sequence for everything else.
* :mod:`repro.runtime.costs` — task-duration model derived from the same
  operator FLOP/byte counts the analytical performance model uses.
"""

from repro.runtime.tasks import Task, TaskGraph, TaskKind
from repro.runtime.resources import Resource, ResourceKind, default_resources
from repro.runtime.simulator import SimulationResult, Simulator
from repro.runtime.trace import Trace, TraceEvent
from repro.runtime.memory_manager import MemoryPool, PageTable, PagedAllocation
from repro.runtime.weights import PagedWeightManager, WeightPage
from repro.runtime.block_store import BlockTable, KVBlock, PrefixMatch, SharedBlockStore
from repro.runtime.kv_cache import KVCacheManager, SequenceCache
from repro.runtime.costs import TaskCostModel

__all__ = [
    "Task",
    "TaskGraph",
    "TaskKind",
    "Resource",
    "ResourceKind",
    "default_resources",
    "SimulationResult",
    "Simulator",
    "Trace",
    "TraceEvent",
    "MemoryPool",
    "PageTable",
    "PagedAllocation",
    "PagedWeightManager",
    "WeightPage",
    "BlockTable",
    "KVBlock",
    "PrefixMatch",
    "SharedBlockStore",
    "KVCacheManager",
    "SequenceCache",
    "TaskCostModel",
]

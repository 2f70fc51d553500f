"""Common machinery for end-to-end offloading inference systems."""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.cluster.partition import PartitionPlan
from repro.cluster.spec import ClusterSpec
from repro.core.memory_model import MemoryModel, PartitionedMemoryModel
from repro.core.performance_model import (
    EfficiencyModel,
    PartitionedPerformanceModel,
    PerformanceModel,
)
from repro.core.policy import Policy
from repro.hardware.spec import HardwareSpec
from repro.models.config import ModelConfig
from repro.schedules.base import PipelineSchedule, StepTiming
from repro.utils.errors import ConfigurationError
from repro.utils.validation import require_int_at_least
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class SystemResult:
    """End-to-end result of running one workload on one system."""

    system: str
    model: str
    hardware: str
    workload: str
    policy: Policy
    prefill_time: float
    decode_time: float
    tokens_generated: int
    padded: bool
    step_timing: StepTiming | None = None
    num_shards: int = 1

    @property
    def total_time(self) -> float:
        """Prefill plus decode time for one full batch."""
        return self.prefill_time + self.decode_time

    @property
    def generation_throughput(self) -> float:
        """Generated tokens per second including prefill (the paper's metric)."""
        if self.total_time <= 0:
            return 0.0
        return self.tokens_generated / self.total_time

    @property
    def decode_throughput(self) -> float:
        """Generated tokens per second over decode time only."""
        if self.decode_time <= 0:
            return 0.0
        return self.tokens_generated / self.decode_time

    def as_row(self) -> dict[str, object]:
        """Flat dictionary used by experiment report tables."""
        return {
            "system": self.system,
            "model": self.model,
            "hardware": self.hardware,
            "workload": self.workload,
            "num_shards": self.num_shards,
            "throughput": self.generation_throughput,
            "decode_throughput": self.decode_throughput,
            "prefill_time": self.prefill_time,
            "decode_time": self.decode_time,
            "batch_size": self.policy.batch_size,
            "micro_batch_size": self.policy.micro_batch_size,
            "weights_gpu_ratio": self.policy.weights_gpu_ratio,
            "kv_cache_gpu_ratio": self.policy.kv_cache_gpu_ratio,
            "attention_on_gpu": self.policy.attention_on_gpu,
        }


class OffloadingSystem(abc.ABC):
    """Base class: policy selection + prefill model + decode schedule."""

    #: Registry / report name; subclasses override.
    name: str = "base"
    #: Whether the system pads every request to the batch's maximum prompt.
    padded: bool = True

    def __init__(
        self,
        model: ModelConfig,
        hardware: HardwareSpec | None = None,
        efficiency: EfficiencyModel | None = None,
        max_sim_layers: int | None = 8,
        decode_samples: int = 3,
        cluster: ClusterSpec | None = None,
        partition: PartitionPlan | None = None,
    ) -> None:
        """Build a system on one node or on a cluster of devices.

        The single-``hardware`` form is unchanged and remains the default.
        Passing a ``cluster`` instead switches the system onto the
        shard-aware path: ``hardware`` defaults to the cluster's aggregate
        view, ``partition`` to full tensor parallelism across the devices,
        and the memory / performance models to their partitioned variants.
        A 1-device cluster is exactly equivalent to passing its node as
        ``hardware``.
        """
        # The trapezoidal decode integration needs two samples to span.
        require_int_at_least("decode_samples", decode_samples, 2)
        if partition is not None:
            if cluster is not None and partition.cluster != cluster:
                raise ConfigurationError(
                    "partition.cluster does not match the cluster argument"
                )
            cluster = partition.cluster
        elif cluster is not None and not cluster.is_trivial:
            partition = PartitionPlan(cluster=cluster, tp_size=cluster.num_devices)
        if hardware is None:
            if cluster is None:
                raise ConfigurationError(
                    "either hardware or cluster must be provided"
                )
            hardware = cluster.aggregate_hardware()
        if partition is not None and partition.is_trivial:
            partition = None
        if partition is not None:
            partition.validate_model(model)
        self.model = model
        self.hardware = hardware
        self.cluster = cluster
        self.partition = partition
        self.efficiency = efficiency or EfficiencyModel()
        self.max_sim_layers = max_sim_layers
        self.decode_samples = decode_samples

    @property
    def num_shards(self) -> int:
        """Number of model shards this system executes across."""
        return self.partition.num_shards if self.partition is not None else 1

    # ------------------------------------------------------------------
    # Per-device rebinding (heterogeneous serving shards)
    # ------------------------------------------------------------------
    def _clone_kwargs(self) -> dict:
        """Subclass-specific constructor kwargs preserved by :meth:`with_hardware`."""
        return {}

    def with_hardware(self, hardware: HardwareSpec) -> "OffloadingSystem":
        """The same system re-priced on a different (single) device.

        Heterogeneous serving builds one backend per shard so each
        :class:`~repro.serving.server.EngineCore` prices steps and KV
        budgets against its *own* device's roofline and memory, not one
        shared profile.  Cluster/partition context is intentionally
        dropped: the result describes exactly one device.
        """
        return type(self)(
            self.model,
            hardware,
            efficiency=self.efficiency,
            max_sim_layers=self.max_sim_layers,
            decode_samples=self.decode_samples,
            **self._clone_kwargs(),
        )

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def select_policy(self, workload: WorkloadSpec) -> Policy:
        """Choose the policy this system would run ``workload`` with."""

    @abc.abstractmethod
    def make_schedule(self, policy: Policy) -> PipelineSchedule:
        """Instantiate the decode schedule used for ``policy``."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def performance_model(self, workload: WorkloadSpec) -> PerformanceModel:
        """The analytical model used for prefill and sanity estimates.

        Partitioned systems get the cluster-aware variant, which adds the
        partition plan's collective-communication costs to the roofline.
        """
        if self.partition is not None:
            return PartitionedPerformanceModel(
                model=self.model,
                hardware=self.hardware,
                workload=workload,
                efficiency=self.efficiency,
                padded=self.padded,
                plan=self.partition,
            )
        return PerformanceModel(
            model=self.model,
            hardware=self.hardware,
            workload=workload,
            efficiency=self.efficiency,
            padded=self.padded,
        )

    def memory_model(self, workload: WorkloadSpec) -> MemoryModel:
        """The memory-constraint model for this system's padding setting.

        Partitioned systems are checked per shard against per-device
        capacity rather than in aggregate.
        """
        if self.partition is not None:
            return PartitionedMemoryModel(
                model=self.model,
                hardware=self.hardware,
                workload=workload,
                padded=self.padded,
                plan=self.partition,
            )
        return MemoryModel(
            model=self.model,
            hardware=self.hardware,
            workload=workload,
            padded=self.padded,
        )

    def effective_prompt_len(self, workload: WorkloadSpec) -> int:
        """Prompt length charged per request under this system's padding."""
        return workload.effective_prompt_len(self.padded)

    # ------------------------------------------------------------------
    # End-to-end run
    # ------------------------------------------------------------------
    def run(
        self,
        workload: WorkloadSpec,
        policy: Policy | None = None,
        simulate: bool = True,
    ) -> SystemResult:
        """Run ``workload`` end-to-end and return throughput.

        ``simulate=True`` (the default) obtains the decode time from the
        discrete-event simulation of this system's schedule; ``False`` falls
        back to the analytical performance model, which is faster and useful
        for wide parameter sweeps.
        """
        chosen = policy or self.select_policy(workload)
        self.memory_model(workload).check(chosen)
        performance = self.performance_model(workload)
        prefill = performance.prefill_time(chosen)
        prompt = self.effective_prompt_len(workload)

        step_timing: StepTiming | None = None
        if simulate:
            schedule = self.make_schedule(chosen)
            decode = schedule.decode_time(
                chosen,
                start_context=prompt,
                generation_len=workload.generation_len,
                num_samples=self.decode_samples,
            )
            mid_context = prompt + max(1, workload.generation_len // 2)
            step_timing = schedule.step_timing(chosen, mid_context)
            if isinstance(performance, PartitionedPerformanceModel):
                # The schedule simulators are single-node; charge the
                # partition plan's per-step collectives on top.
                decode += (
                    performance.collective_decode_step_time(chosen)
                    * workload.generation_len
                )
        else:
            decode = performance.decode_time(chosen)

        tokens = chosen.batch_size * workload.generation_len
        return SystemResult(
            system=self.name,
            model=self.model.name,
            hardware=self.hardware.name,
            workload=workload.name,
            policy=chosen,
            prefill_time=prefill,
            decode_time=decode,
            tokens_generated=tokens,
            padded=self.padded,
            step_timing=step_timing,
            num_shards=self.num_shards,
        )

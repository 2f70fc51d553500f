"""HRM-based performance model (paper §4.2, Eqs. 12-14).

The model estimates the per-layer decode latency of a policy as

``T = max(comm_cpu_to_gpu, T_cpu, T_gpu)``

where each computation's time is itself the ``max`` of its compute time at
(derated) peak FLOPS and its data-movement time at (derated) peak bandwidth
— exactly the two-roof form of Eq. 8/14 — and the CPU-to-GPU communication
term aggregates the streamed weight pages, the hidden-state uploads after
CPU attention and any KV-cache transfers required by the policy.

The same machinery estimates prefill latency and end-to-end generation
throughput (generated tokens divided by prefill + decode time, the paper's
metric), which is what the policy optimizer maximises.

All peaks are derated by an :class:`EfficiencyModel`; the paper similarly
pairs "theoretically calculated computation flops and bytes with profiled
peak performance and memory bandwidth".  The defaults are deliberately
modest and shared across every system we compare, so relative results —
the quantity the paper argues the model predicts well — do not depend on
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.core.memory_model import MemoryModel
from repro.core.policy import Policy
from repro.hardware.spec import HardwareSpec
from repro.models.config import ModelConfig
from repro.models.flops import (
    attention_decode_cost,
    attention_prefill_cost,
    ffn_cost,
    layer_norm_cost,
    lm_head_cost,
    o_proj_cost,
    qkv_proj_cost,
)
from repro.models.memory import kv_cache_bytes_per_token_per_layer
from repro.utils.errors import ConfigurationError
from repro.utils.validation import (
    require_fraction,
    require_int_at_least,
    require_positive,
    require_positive_int,
)
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.cluster.partition import PartitionPlan


@dataclass(frozen=True)
class EfficiencyModel:
    """Derating factors applied to hardware peaks.

    Real kernels do not reach spec-sheet peaks; decode-time GEMMs in
    particular are launched on small micro-batches.  A single set of factors
    is shared by every system under comparison.
    """

    gpu_compute: float = 0.55
    gpu_memory: float = 0.80
    cpu_compute: float = 0.45
    cpu_memory: float = 0.65
    interconnect: float = 0.85

    def __post_init__(self) -> None:
        for name in (
            "gpu_compute",
            "gpu_memory",
            "cpu_compute",
            "cpu_memory",
            "interconnect",
        ):
            require_fraction(name, getattr(self, name))
            require_positive(name, getattr(self, name))


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-layer decode latency decomposition (one decode step, one layer)."""

    comm_htod: float
    comm_dtoh: float
    t_cpu: float
    t_gpu: float
    components: dict = field(default_factory=dict, compare=False)

    @property
    def t_layer(self) -> float:
        """Eq. 12: the pipelined per-layer latency."""
        return max(self.comm_htod, self.comm_dtoh, self.t_cpu, self.t_gpu)

    @property
    def bottleneck(self) -> str:
        """Which term of Eq. 12 binds: ``htod``, ``dtoh``, ``cpu`` or ``gpu``."""
        terms = {
            "htod": self.comm_htod,
            "dtoh": self.comm_dtoh,
            "cpu": self.t_cpu,
            "gpu": self.t_gpu,
        }
        return max(terms, key=terms.get)

    @property
    def overlap_speedup(self) -> float:
        """Serial sum of all resource times divided by the critical path.

        A value of 1.0 means no overlap at all; values approaching the
        number of busy resources mean the pipeline hides almost everything
        behind the bottleneck resource.
        """
        serial = self.comm_htod + self.comm_dtoh + self.t_cpu + self.t_gpu
        critical = self.t_layer
        return serial / critical if critical > 0 else 1.0


@dataclass(frozen=True, eq=False)
class DecodeGrid:
    """Per-layer decode terms of policies x context lengths (one placement).

    Every array has shape ``(len(policies), len(contexts))`` for the
    arguments of :meth:`PerformanceModel.decode_grid`.  Entry ``[i, j]`` of
    the four Eq. 12 terms, ``t_layer`` and ``components`` equals
    ``layer_decode_breakdown(policies[i], contexts[j])``, and
    ``step_latency`` equals ``decode_step_latency``, exactly.
    """

    comm_htod: np.ndarray
    comm_dtoh: np.ndarray
    t_cpu: np.ndarray
    t_gpu: np.ndarray
    t_layer: np.ndarray
    step_latency: np.ndarray
    components: dict = field(default_factory=dict)


class _DecodeColumns(NamedTuple):
    """Per-policy inputs of the decode kernel.

    Python numbers for one policy, or ``(P, 1)`` numpy columns for ``P``
    policies.  The ``t_*`` entries are one micro-batch's task times at the
    policy's μ; ``t_collective`` is the per-layer collective time.
    """

    num_micro_batches: object
    batch_size: object
    kv_cache_cpu_ratio: object
    streamed_weight_bytes: object
    t_collective: object
    t_pre_attn: object
    t_o_proj: object
    t_ffn: object


def decode_sample_positions(
    start_context: int, generation_len: int, num_samples: int
) -> list[int]:
    """Context lengths at which decode integration samples the step latency.

    ``num_samples`` evenly spaced positions over the generation, capped at
    one per generated token; a single position when one token is
    generated.  Fewer than two samples cannot span a trapezoid, so they are
    rejected whatever the generation length.
    """
    require_int_at_least("num_samples", num_samples, 2)
    if generation_len == 1:
        return [start_context + 1]
    count = min(num_samples, generation_len)
    return [
        start_context + 1 + round(i * (generation_len - 1) / (count - 1))
        for i in range(count)
    ]


def integrate_decode(positions: Sequence[int], latencies):
    """Trapezoidal decode time over the sampled ``positions``.

    ``latencies[i]`` is the step latency at ``positions[i]``: a number, or
    an array with one entry per policy.  The explicit left-to-right loop
    (not ``np.sum``/``np.trapz``, which reorder the adds) keeps every array
    entry equal to its one-policy integral bit for bit.
    """
    if len(positions) == 1:
        return latencies[0]
    total = 0.0
    for i in range(len(positions) - 1):
        steps = positions[i + 1] - positions[i]
        total += 0.5 * (latencies[i] + latencies[i + 1]) * steps
    return total


def _any_positive(values) -> bool:
    """Whether a number, or any entry of an array, is positive."""
    if isinstance(values, np.ndarray):
        return bool((values > 0.0).any())
    return values > 0.0


def _placement_groups(policies: Sequence[Policy]) -> list[list[int]]:
    """Indices of ``policies`` grouped by ``(A_g, F_g)``, in first-seen order."""
    groups: dict[tuple[bool, bool], list[int]] = {}
    for i, policy in enumerate(policies):
        groups.setdefault((policy.attention_on_gpu, policy.ffn_on_gpu), []).append(i)
    return list(groups.values())


@dataclass(frozen=True)
class ThroughputEstimate:
    """End-to-end generation-throughput estimate for one policy."""

    policy: Policy
    prefill_time: float
    decode_time: float
    tokens_generated: int
    breakdown: LatencyBreakdown
    bottleneck: str

    @property
    def total_time(self) -> float:
        """Prefill plus decode time for the batch."""
        return self.prefill_time + self.decode_time

    @property
    def throughput(self) -> float:
        """Generated tokens per second (the paper's metric)."""
        if self.total_time <= 0:
            return 0.0
        return self.tokens_generated / self.total_time

    @property
    def decode_throughput(self) -> float:
        """Generated tokens per second counting decode time only."""
        if self.decode_time <= 0:
            return 0.0
        return self.tokens_generated / self.decode_time


@dataclass(frozen=True)
class PerformanceModel:
    """Analytical latency/throughput model for a (model, hardware, workload).

    ``padded`` selects whether every request is charged the workload's
    maximum prompt length (FlexGen and MoE-Lightning(p)) or the average
    (MoE-Lightning with variable-length batching).
    """

    model: ModelConfig
    hardware: HardwareSpec
    workload: WorkloadSpec
    efficiency: EfficiencyModel = field(default_factory=EfficiencyModel)
    padded: bool = False

    # ------------------------------------------------------------------
    # Effective hardware rates
    # ------------------------------------------------------------------
    @property
    def gpu_flops(self) -> float:
        """Derated GPU FLOPs/s."""
        return self.hardware.gpu_flops * self.efficiency.gpu_compute

    @property
    def gpu_bandwidth(self) -> float:
        """Derated GPU HBM bandwidth."""
        return self.hardware.gpu_bandwidth * self.efficiency.gpu_memory

    @property
    def cpu_flops(self) -> float:
        """Derated CPU FLOPs/s."""
        return self.hardware.cpu_flops * self.efficiency.cpu_compute

    @property
    def cpu_bandwidth(self) -> float:
        """Derated CPU DRAM bandwidth."""
        return self.hardware.cpu_bandwidth * self.efficiency.cpu_memory

    @property
    def interconnect_bandwidth(self) -> float:
        """Derated CPU-GPU interconnect bandwidth (per direction)."""
        return self.hardware.cpu_gpu_bandwidth * self.efficiency.interconnect

    @cached_property
    def _point_times(self) -> dict:
        """Operator task times of one-point decode calls, keyed by shape.

        A serving engine prices all its decode steps through one model, and
        μ (often the context bucket too) repeats across batch sizes.  Grids
        share their operator times through local dicts instead.
        """
        return {}

    @cached_property
    def memory_model(self) -> MemoryModel:
        """The matching memory-constraint model (built once per model)."""
        return MemoryModel(
            model=self.model,
            hardware=self.hardware,
            workload=self.workload,
            padded=self.padded,
        )

    def prompt_len(self) -> int:
        """Prompt length charged per request under the padding setting."""
        return self.workload.effective_prompt_len(self.padded)

    # ------------------------------------------------------------------
    # Primitive task times (Eq. 8 / Eq. 14: max(comm, comp))
    # ------------------------------------------------------------------
    def _gpu_task_time(self, flops: float, local_bytes: float) -> float:
        return max(flops / self.gpu_flops, local_bytes / self.gpu_bandwidth)

    def _cpu_task_time(self, flops: float, local_bytes: float) -> float:
        return max(flops / self.cpu_flops, local_bytes / self.cpu_bandwidth)

    def _transfer_time(self, num_bytes: float, num_transfers: int = 1) -> float:
        latency = self.hardware.interconnect.latency * num_transfers
        return num_bytes / self.interconnect_bandwidth + latency

    # ------------------------------------------------------------------
    # Decode-stage per-layer latency (Eqs. 12-14)
    # ------------------------------------------------------------------
    def _micro_batch_times(
        self, micro_batch_size: int, ffn_on_gpu: bool
    ) -> tuple[float, float, float]:
        """One micro-batch's pre-attention, O-projection and FFN task times."""
        mu = micro_batch_size
        pre = layer_norm_cost(self.model, mu).combine(qkv_proj_cost(self.model, mu))
        o_proj = o_proj_cost(self.model, mu)
        ffn = ffn_cost(self.model, mu)
        ffn_task = self._gpu_task_time if ffn_on_gpu else self._cpu_task_time
        return (
            self._gpu_task_time(pre.flops, pre.total_bytes),
            self._gpu_task_time(o_proj.flops, o_proj.total_bytes),
            ffn_task(ffn.flops, ffn.total_bytes),
        )

    def _attention_time(
        self, attention_on_gpu: bool, micro_batch_size: int, context_len: int
    ) -> float:
        """One micro-batch's attention task time at ``context_len``."""
        attn = attention_decode_cost(self.model, micro_batch_size, context_len)
        task = self._gpu_task_time if attention_on_gpu else self._cpu_task_time
        return task(attn.flops, attn.total_bytes)

    def _policy_columns(
        self, policy: Policy, micro_batch_times: tuple[float, float, float]
    ) -> _DecodeColumns:
        return _DecodeColumns(
            policy.num_micro_batches,
            policy.batch_size,
            policy.kv_cache_cpu_ratio,
            self.memory_model.streamed_layer_bytes(policy),
            self._collective_decode_time(policy),
            *micro_batch_times,
        )

    def _decode_terms(
        self,
        attention_on_gpu: bool,
        ffn_on_gpu: bool,
        columns: _DecodeColumns,
        t_attention,
        context_len,
    ) -> tuple:
        """Eqs. 12-14 for one layer of one decode step.

        This is the only copy of the decode formulas.  Its inputs are either
        Python numbers (one policy at one context length) or numpy arrays
        (``(P, 1)`` policy columns, ``(1, C)`` context lengths and ``(P, C)``
        attention times), and it uses the same operations in the same order
        either way, so every grid entry equals its one-point evaluation bit
        for bit.  Returns ``(comm_htod, comm_dtoh, t_cpu, t_gpu, components)``.
        """
        n_ub = columns.num_micro_batches
        batch = columns.batch_size
        dtype_bytes = self.model.dtype.num_bytes
        components: dict[str, object] = {}

        # --- GPU time -------------------------------------------------
        t_gpu = n_ub * columns.t_pre_attn
        components["gpu_pre_attn"] = t_gpu
        t_o = n_ub * columns.t_o_proj
        t_gpu = t_gpu + t_o
        components["gpu_o_proj"] = t_o
        if ffn_on_gpu:
            t_ffn = n_ub * columns.t_ffn
            t_gpu = t_gpu + t_ffn
            components["gpu_ffn"] = t_ffn
        if attention_on_gpu:
            t_attn_gpu = n_ub * t_attention
            t_gpu = t_gpu + t_attn_gpu
            components["gpu_attention"] = t_attn_gpu

        # --- CPU time -------------------------------------------------
        t_cpu = 0.0
        if not attention_on_gpu:
            t_cpu = t_cpu + n_ub * t_attention
            components["cpu_attention"] = t_cpu
        if not ffn_on_gpu:
            t_ffn_cpu = n_ub * columns.t_ffn
            t_cpu = t_cpu + t_ffn_cpu
            components["cpu_ffn"] = t_ffn_cpu

        # --- Host-to-device traffic ------------------------------------
        weight_bytes = columns.streamed_weight_bytes
        htod_bytes = weight_bytes
        components["htod_weight_bytes"] = weight_bytes
        htod_transfers = n_ub * (weight_bytes > 0)
        if not attention_on_gpu:
            # Hidden states return to the GPU after CPU attention (D2).
            hidden_up = batch * self.model.hidden_size * dtype_bytes
            htod_bytes = htod_bytes + hidden_up
            htod_transfers = htod_transfers + n_ub
            components["htod_hidden_bytes"] = hidden_up
        else:
            kv_bytes = (
                columns.kv_cache_cpu_ratio
                * batch
                * context_len
                * kv_cache_bytes_per_token_per_layer(self.model)
            )
            htod_bytes = htod_bytes + kv_bytes
            htod_transfers = htod_transfers + n_ub * (kv_bytes > 0)
            components["htod_kv_bytes"] = kv_bytes
        if not ffn_on_gpu:
            # Hidden states move down for the CPU FFN and back up afterwards.
            hidden_round_trip = batch * self.model.hidden_size * dtype_bytes
            htod_bytes = htod_bytes + hidden_round_trip
            htod_transfers = htod_transfers + n_ub
            components["htod_ffn_hidden_bytes"] = hidden_round_trip
        comm_htod = self._transfer_time(htod_bytes, htod_transfers)

        # --- Device-to-host traffic ------------------------------------
        dtoh_bytes = 0.0
        dtoh_transfers = 0
        if not attention_on_gpu:
            # Query, plus the new token's key/value, offloaded after QKV (D1).
            qkv_down = (
                batch * (self.model.hidden_size + 2 * self.model.kv_dim) * dtype_bytes
            )
            dtoh_bytes = dtoh_bytes + qkv_down
            dtoh_transfers = dtoh_transfers + n_ub
            components["dtoh_qkv_bytes"] = qkv_down
        else:
            # New token's key/value written back to the CPU-resident cache.
            kv_write = (
                columns.kv_cache_cpu_ratio
                * batch
                * 2
                * self.model.kv_dim
                * dtype_bytes
            )
            dtoh_bytes = dtoh_bytes + kv_write
            dtoh_transfers = dtoh_transfers + n_ub * (kv_write > 0)
            components["dtoh_kv_write_bytes"] = kv_write
        if not ffn_on_gpu:
            dtoh_bytes = dtoh_bytes + batch * self.model.hidden_size * dtype_bytes
            dtoh_transfers = dtoh_transfers + n_ub
        comm_dtoh = self._transfer_time(dtoh_bytes, dtoh_transfers)

        # --- Tensor/expert-parallel collectives (partitioned models) ----
        # Collectives serialise with the GPU stream, so they extend t_gpu
        # rather than forming a fifth pipelined resource.  The base model
        # runs on one shard and contributes exactly zero here.
        t_collective = columns.t_collective
        if _any_positive(t_collective):
            t_gpu = t_gpu + t_collective
            components["gpu_collective"] = t_collective

        return comm_htod, comm_dtoh, t_cpu, t_gpu, components

    def _head_time(self, batch_size: int) -> float:
        """LM-head time of one step (or prefill) over ``batch_size`` rows."""
        head = lm_head_cost(self.model, batch_size)
        return self._gpu_task_time(head.flops, head.total_bytes)

    def _stack_time(self, per_layer, t_head):
        """All layers at ``per_layer`` each, plus the LM head."""
        return self.model.num_layers * per_layer + t_head

    def layer_decode_breakdown(
        self, policy: Policy, context_len: int
    ) -> LatencyBreakdown:
        """Latency breakdown for one decode step of one layer at ``context_len``."""
        require_positive_int("context_len", context_len)
        mu = policy.micro_batch_size
        times = self._point_times
        key = (mu, policy.ffn_on_gpu)
        micro_batch = times.get(key)
        if micro_batch is None:
            micro_batch = times[key] = self._micro_batch_times(*key)
        columns = self._policy_columns(policy, micro_batch)
        key = (policy.attention_on_gpu, mu, context_len)
        t_attention = times.get(key)
        if t_attention is None:
            t_attention = times[key] = self._attention_time(*key)
        comm_htod, comm_dtoh, t_cpu, t_gpu, components = self._decode_terms(
            policy.attention_on_gpu, policy.ffn_on_gpu, columns, t_attention, context_len
        )
        return LatencyBreakdown(
            comm_htod=comm_htod,
            comm_dtoh=comm_dtoh,
            t_cpu=t_cpu,
            t_gpu=t_gpu,
            components=components,
        )

    def decode_grid(
        self, policies: Sequence[Policy], contexts: Sequence[int]
    ) -> DecodeGrid:
        """The decode terms of every policy at every context length.

        All ``policies`` must share one ``(A_g, F_g)`` placement.  Operator
        costs come from :mod:`repro.models.flops` once per distinct μ and
        (μ, context) pair; everything per policy is a numpy column.  Entry
        ``[i, j]`` equals ``layer_decode_breakdown(policies[i], contexts[j])``
        and ``decode_step_latency(policies[i], contexts[j])`` exactly.
        """
        if not policies or not contexts:
            raise ConfigurationError("decode_grid needs at least one policy and context")
        placements = {(p.attention_on_gpu, p.ffn_on_gpu) for p in policies}
        if len(placements) != 1:
            raise ConfigurationError(
                "decode_grid prices one (attention, FFN) placement at a time, "
                f"got {sorted(placements)}"
            )
        ((attention_on_gpu, ffn_on_gpu),) = placements
        for context_len in contexts:
            require_positive_int("context_len", context_len)
        mus = dict.fromkeys(p.micro_batch_size for p in policies)
        micro_batch = {mu: self._micro_batch_times(mu, ffn_on_gpu) for mu in mus}
        attention = {
            mu: [self._attention_time(attention_on_gpu, mu, ctx) for ctx in contexts]
            for mu in mus
        }
        heads = {b: self._head_time(b) for b in dict.fromkeys(p.batch_size for p in policies)}
        rows = [self._policy_columns(p, micro_batch[p.micro_batch_size]) for p in policies]
        columns = _DecodeColumns(*(np.array(column)[:, None] for column in zip(*rows)))
        comm_htod, comm_dtoh, t_cpu, t_gpu, components = self._decode_terms(
            attention_on_gpu,
            ffn_on_gpu,
            columns,
            np.array([attention[p.micro_batch_size] for p in policies]),
            np.array(contexts)[None, :],
        )
        shape = (len(policies), len(contexts))
        comm_htod, comm_dtoh, t_cpu, t_gpu = (
            np.broadcast_to(term, shape) for term in (comm_htod, comm_dtoh, t_cpu, t_gpu)
        )
        t_layer = np.maximum(np.maximum(comm_htod, comm_dtoh), np.maximum(t_cpu, t_gpu))
        t_head = np.array([heads[p.batch_size] for p in policies])[:, None]
        return DecodeGrid(
            comm_htod=comm_htod,
            comm_dtoh=comm_dtoh,
            t_cpu=t_cpu,
            t_gpu=t_gpu,
            t_layer=t_layer,
            step_latency=self._stack_time(t_layer, t_head),
            components={
                name: np.broadcast_to(value, shape) for name, value in components.items()
            },
        )

    # ------------------------------------------------------------------
    # Collective-communication hooks (overridden by the partitioned model)
    # ------------------------------------------------------------------
    def _collective_decode_time(self, policy: Policy) -> float:
        """Per-layer collective time of one decode step (0 on one shard)."""
        return 0.0

    def _collective_prefill_time(self, policy: Policy) -> float:
        """Per-layer collective time of the whole-batch prefill (0 base)."""
        return 0.0

    def decode_step_latency(self, policy: Policy, context_len: int) -> float:
        """Latency of one full decode step (all layers plus the LM head)."""
        layer = self.layer_decode_breakdown(policy, context_len).t_layer
        return self._stack_time(layer, self._head_time(policy.batch_size))

    def _decode_positions(self, num_samples: int) -> list[int]:
        return decode_sample_positions(
            self.prompt_len(), self.workload.generation_len, num_samples
        )

    def decode_time(self, policy: Policy, num_samples: int = 9) -> float:
        """Total decode time for the batch, integrating over context growth.

        The per-step latency changes with the context length (attention and
        KV traffic grow as the cache fills); we sample the step latency at
        ``num_samples`` (at least 2) evenly spaced context lengths and
        integrate with the trapezoidal rule.
        """
        positions = self._decode_positions(num_samples)
        return integrate_decode(
            positions, [self.decode_step_latency(policy, pos) for pos in positions]
        )

    def decode_times(self, policies: Sequence[Policy], num_samples: int = 9) -> np.ndarray:
        """:meth:`decode_time` of every policy, priced by :meth:`decode_grid`.

        Policies may mix placements; each placement is one grid.  Entry
        ``i`` equals ``decode_time(policies[i], num_samples)`` exactly.
        """
        positions = self._decode_positions(num_samples)
        times = np.empty(len(policies))
        for index in _placement_groups(policies):
            grid = self.decode_grid([policies[i] for i in index], positions)
            times[index] = integrate_decode(positions, grid.step_latency.T)
        return times

    # ------------------------------------------------------------------
    # Prefill stage
    # ------------------------------------------------------------------
    def _prefill_micro_batch_time(self, micro_batch_size: int, prompt: int) -> float:
        """GPU time of one layer's prefill over one micro-batch of prompts."""
        mu = micro_batch_size
        pre = layer_norm_cost(self.model, mu * prompt).combine(
            qkv_proj_cost(self.model, mu * prompt)
        )
        attn = attention_prefill_cost(self.model, mu, prompt)
        o_proj = o_proj_cost(self.model, mu * prompt)
        ffn = ffn_cost(self.model, mu * prompt)

        flops = pre.flops + attn.flops + o_proj.flops + ffn.flops
        local_bytes = (
            pre.total_bytes + attn.total_bytes + o_proj.total_bytes + ffn.total_bytes
        )
        return self._gpu_task_time(flops, local_bytes)

    def prefill_time(self, policy: Policy) -> float:
        """Prefill latency for the whole batch.

        Prefill runs on the GPU for every micro-batch (paper §4); weights
        stream up, prompt KV streams down to the CPU cache, and compute is
        usually the binding term.
        """
        t_micro_batch = self._prefill_micro_batch_time(
            policy.micro_batch_size, self.prompt_len()
        )
        return self._prefill_time(policy, t_micro_batch)

    def _prefill_time(self, policy: Policy, t_micro_batch: float) -> float:
        """:meth:`prefill_time` given one micro-batch's layer prefill time."""
        prompt = self.prompt_len()
        n_ub = policy.num_micro_batches
        gpu_time = n_ub * t_micro_batch
        t_collective = self._collective_prefill_time(policy)
        if t_collective > 0.0:
            gpu_time += t_collective

        memory = self.memory_model
        weight_time = self._transfer_time(memory.streamed_layer_bytes(policy), 1)
        kv_offload_bytes = (
            policy.kv_cache_cpu_ratio
            * policy.batch_size
            * prompt
            * kv_cache_bytes_per_token_per_layer(self.model)
        )
        kv_offload_time = self._transfer_time(kv_offload_bytes, n_ub)

        per_layer = max(gpu_time, weight_time, kv_offload_time)
        return self._stack_time(per_layer, self._head_time(policy.batch_size))

    # ------------------------------------------------------------------
    # End-to-end estimate
    # ------------------------------------------------------------------
    def estimate(self, policy: Policy) -> ThroughputEstimate:
        """Full throughput estimate for ``policy`` (does not check memory)."""
        mid_context = self.prompt_len() + max(1, self.workload.generation_len // 2)
        breakdown = self.layer_decode_breakdown(policy, mid_context)
        prefill = self.prefill_time(policy)
        decode = self.decode_time(policy)
        tokens = policy.batch_size * self.workload.generation_len
        return ThroughputEstimate(
            policy=policy,
            prefill_time=prefill,
            decode_time=decode,
            tokens_generated=tokens,
            breakdown=breakdown,
            bottleneck=breakdown.bottleneck,
        )

    def throughputs(self, policies: Sequence[Policy]) -> np.ndarray:
        """``estimate(p).throughput`` of every policy, decode priced as grids.

        Entry ``i`` equals ``estimate(policies[i]).throughput`` exactly; the
        policy optimizer ranks its candidates with it.
        """
        decode = self.decode_times(policies)
        prompt = self.prompt_len()
        micro_batch = {
            mu: self._prefill_micro_batch_time(mu, prompt)
            for mu in dict.fromkeys(p.micro_batch_size for p in policies)
        }
        prefill = np.array(
            [self._prefill_time(p, micro_batch[p.micro_batch_size]) for p in policies]
        )
        tokens = np.array([p.batch_size for p in policies]) * self.workload.generation_len
        total = prefill + decode
        return np.divide(tokens, total, out=np.zeros(len(policies)), where=total > 0)

    def estimate_feasible(self, policy: Policy) -> ThroughputEstimate:
        """Like :meth:`estimate` but first enforces the memory constraints."""
        self.memory_model.check(policy)
        return self.estimate(policy)


@dataclass(frozen=True)
class PartitionedPerformanceModel(PerformanceModel):
    """HRM model for a model partitioned across a cluster's devices.

    The aggregate roofline terms are inherited unchanged — ``hardware``
    must be the cluster's :meth:`~repro.cluster.spec.ClusterSpec.aggregate_hardware`
    view, under which per-shard compute at one device's rate equals the
    aggregate computation at the aggregate rate, and the shared host/PCIe
    terms are identical.  What partitioning *adds* is the collective
    traffic of the :class:`~repro.cluster.partition.PartitionPlan`, priced
    on the cluster's device link (derated by the shared interconnect
    efficiency) and folded into the GPU stream time of every layer.
    """

    plan: "PartitionPlan | None" = None

    def __post_init__(self) -> None:
        if self.plan is None:
            raise ConfigurationError(
                "PartitionedPerformanceModel requires a PartitionPlan"
            )
        self.plan.validate_model(self.model)

    # ------------------------------------------------------------------
    # Link rates and collective times
    # ------------------------------------------------------------------
    @property
    def link_bandwidth(self) -> float:
        """Derated device-to-device link bandwidth (per direction/device)."""
        return self.plan.cluster.link.bandwidth * self.efficiency.interconnect

    @cached_property
    def memory_model(self) -> MemoryModel:
        """The matching per-shard memory-constraint model (built once)."""
        from repro.core.memory_model import PartitionedMemoryModel

        return PartitionedMemoryModel(
            model=self.model,
            hardware=self.hardware,
            workload=self.workload,
            padded=self.padded,
            plan=self.plan,
        )

    def _collective_time(self, traffic) -> float:
        """Wall time of one layer's collectives on the device link."""
        if traffic.is_empty:
            return 0.0
        return (
            traffic.bytes_on_link / self.link_bandwidth
            + traffic.launches * self.plan.cluster.link.latency
        )

    def _collective_decode_time(self, policy: Policy) -> float:
        """Per-layer collective time for one decode step of the batch."""
        traffic = self.plan.layer_collective_traffic(
            self.model, policy, policy.batch_size
        )
        return self._collective_time(traffic)

    def _collective_prefill_time(self, policy: Policy) -> float:
        """Per-layer collective time for prefilling the whole batch."""
        traffic = self.plan.layer_collective_traffic(
            self.model, policy, policy.batch_size * self.prompt_len()
        )
        return self._collective_time(traffic)

    def collective_decode_step_time(self, policy: Policy) -> float:
        """All-layer collective time of one decode step.

        The discrete-event schedule simulators are single-node and know
        nothing about collectives; end-to-end system runs add this on top
        of each simulated decode step.
        """
        return self.model.num_layers * self._collective_decode_time(policy)

"""CGOPipe: the paper's CPU-GPU-I/O pipeline schedule (Algorithm 1, Fig. 6 top).

Structure of one decode step with ``n_ub`` micro-batches and ``L`` layers:

* The GPU alternates post-attention for the current micro-batch with
  pre-attention for the micro-batch two slots ahead.
* The CPU runs grouped-query attention for the micro-batch two slots ahead,
  fed by QKV offloads (device-to-host) and feeding hidden-state uploads
  (host-to-device).
* The streamed portion of the *next* layer's weights is cut into
  ``n_ub`` pages; page ``j`` is uploaded while micro-batch ``j`` of the
  current layer is being processed, so weight traffic interleaves with the
  small hidden-state uploads instead of blocking them.
* A double buffer holds the current and the incoming layer's pages, so a
  page upload for layer ``i+1`` may only start once layer ``i-1``'s buffer
  has been released (its last post-attention finished).
"""

from __future__ import annotations

from repro.core.policy import Policy
from repro.runtime.resources import ResourceKind
from repro.runtime.tasks import TaskGraph, TaskKind
from repro.schedules.base import PipelineSchedule
from repro.utils.errors import ScheduleError
from repro.utils.validation import require_positive_int


class CGOPipeSchedule(PipelineSchedule):
    """The MoE-Lightning schedule: CPU attention + paged, interleaved weights."""

    name = "cgopipe"
    uses_cpu_attention = True
    uses_paged_weights = True

    def validate_policy(self, policy: Policy) -> None:
        super().validate_policy(policy)
        if not policy.ffn_on_gpu:
            raise ScheduleError(
                "CGOPipe is designed for the F_g=1 corner (MoE FFN on GPU); "
                "use the performance model directly for CPU-FFN policies"
            )

    def build_decode_graph(
        self, policy: Policy, context_len: int, num_steps: int = 1
    ) -> TaskGraph:
        """Build the CGOPipe task graph for ``num_steps`` decode steps."""
        require_positive_int("context_len", context_len)
        require_positive_int("num_steps", num_steps)
        self.validate_policy(policy)

        graph = TaskGraph()
        costs = self.costs
        mu = policy.micro_batch_size
        n_ub = policy.num_micro_batches
        num_layers = self.sim_num_layers

        pre_time = costs.pre_attention(mu)
        qkv_time = costs.qkv_offload(mu)
        attn_time = costs.cpu_attention(mu, context_len)
        hidden_time = costs.hidden_load(mu)
        post_time = costs.post_attention(mu, ffn_on_gpu=True)
        page_time = costs.weight_page_transfer(policy)
        sample_time = costs.sample(policy.batch_size)

        # Per-step bookkeeping of task ids.
        pre_ids: dict[tuple[int, int, int], int] = {}
        post_ids: dict[tuple[int, int, int], int] = {}
        cpu_attn_ids: dict[tuple[int, int, int], int] = {}
        weight_page_ids: dict[tuple[int, int], list[int]] = {}
        sample_ids: dict[int, int] = {}

        def slot_to_layer_mb(slot: int) -> tuple[int, int]:
            return slot // n_ub, slot % n_ub

        def emit_pre_chain(step: int, layer: int, mb: int) -> None:
            """Emit PreAttn -> OffloadQKV -> CPUAttn for one (layer, mb)."""
            deps = []
            if layer == 0:
                if step > 0:
                    deps.append(sample_ids[step - 1])
            else:
                deps.append(post_ids[(step, layer - 1, mb)])
            deps.extend(weight_page_ids.get((step, layer), []))
            pre = graph.add(
                TaskKind.PRE_ATTENTION,
                ResourceKind.GPU,
                pre_time,
                deps=deps,
                layer=layer,
                micro_batch=mb,
                step=step,
            )
            pre_ids[(step, layer, mb)] = pre.task_id
            offload = graph.add(
                TaskKind.QKV_OFFLOAD,
                ResourceKind.DTOH,
                qkv_time,
                deps=[pre.task_id],
                layer=layer,
                micro_batch=mb,
                step=step,
            )
            cpu_attn = graph.add(
                TaskKind.CPU_ATTENTION,
                ResourceKind.CPU,
                attn_time,
                deps=[offload.task_id],
                layer=layer,
                micro_batch=mb,
                step=step,
            )
            cpu_attn_ids[(step, layer, mb)] = cpu_attn.task_id

        def emit_weight_page(step: int, layer: int, page: int) -> None:
            """Emit one paged weight upload for ``layer`` of ``step``.

            The double buffer allows at most the current and the next layer in
            flight, so the upload waits for layer ``layer - 2``'s last
            post-attention of the same step (buffer release).
            """
            if not policy.streams_weights:
                return
            deps = []
            release_global = step * num_layers + layer - 2
            if release_global >= 0:
                release_key = (
                    release_global // num_layers,
                    release_global % num_layers,
                    n_ub - 1,
                )
                if release_key in post_ids:
                    deps.append(post_ids[release_key])
            task = graph.add(
                TaskKind.WEIGHT_TRANSFER,
                ResourceKind.HTOD,
                page_time,
                deps=deps,
                layer=layer,
                micro_batch=page,
                step=step,
            )
            weight_page_ids.setdefault((step, layer), []).append(task.task_id)

        # Pre-attention runs two slots ahead of post-attention (Algorithm 1).
        # With a single micro-batch the slot two ahead is the next layer's,
        # whose pre-attention needs this layer's post-attention first, so
        # the lookahead is capped at the micro-batch count.
        lookahead = min(2, n_ub)
        for step in range(num_steps):
            num_slots = num_layers * n_ub

            # Prologue: pre-attention chains for the first lookahead slots,
            # plus the first weight pages of the next layer (Algorithm 1,
            # lines 2-7).
            prologue_slots = min(lookahead, num_slots)
            for slot in range(prologue_slots):
                layer, mb = slot_to_layer_mb(slot)
                emit_pre_chain(step, layer, mb)
                next_layer = layer + 1
                if next_layer < num_layers:
                    emit_weight_page(step, next_layer, mb)

            # Main loop (Algorithm 1, lines 8-17).
            for slot in range(num_slots):
                layer, mb = slot_to_layer_mb(slot)
                # Hidden states for (layer, mb) return from the CPU (LoadH).
                cpu_attn_key = (step, layer, mb)
                if cpu_attn_key not in cpu_attn_ids:
                    raise ScheduleError(
                        f"CPU attention for step {step}, layer {layer}, "
                        f"micro-batch {mb} was never emitted "
                        "(prologue/lookahead bookkeeping bug)"
                    )
                hidden = graph.add(
                    TaskKind.HIDDEN_LOAD,
                    ResourceKind.HTOD,
                    hidden_time,
                    deps=[cpu_attn_ids[cpu_attn_key]],
                    layer=layer,
                    micro_batch=mb,
                    step=step,
                )
                # Interleaved weight page for the next layer (W_PintoG).
                lookahead_layer = layer + 1
                if lookahead_layer >= num_layers:
                    # Prefetch the first layer of the next step during the
                    # last layer of this one.
                    if step + 1 < num_steps:
                        emit_weight_page(step + 1, 0, mb)
                elif slot >= prologue_slots or mb >= prologue_slots:
                    emit_weight_page(step, lookahead_layer, mb)
                # Post-attention for the current slot.
                deps = [hidden.task_id]
                deps.extend(weight_page_ids.get((step, layer), []))
                post = graph.add(
                    TaskKind.POST_ATTENTION,
                    ResourceKind.GPU,
                    post_time,
                    deps=deps,
                    layer=layer,
                    micro_batch=mb,
                    step=step,
                )
                post_ids[(step, layer, mb)] = post.task_id
                # Pre-attention chain for the slot ``lookahead`` ahead.
                ahead = slot + lookahead
                if ahead < num_slots and ahead >= prologue_slots:
                    ahead_layer, ahead_mb = slot_to_layer_mb(ahead)
                    emit_pre_chain(step, ahead_layer, ahead_mb)

            sample = graph.add(
                TaskKind.SAMPLE,
                ResourceKind.GPU,
                sample_time,
                deps=[post_ids[(step, num_layers - 1, mb)] for mb in range(n_ub)],
                layer=num_layers - 1,
                micro_batch=-1,
                step=step,
            )
            sample_ids[step] = sample.task_id

        return graph

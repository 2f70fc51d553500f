"""Frozen reference copies of Algorithm 2 and the engine's decode shape.

:func:`batch_requests` is a verbatim copy of the original list-based
request batching (``repro.workloads.batching``), and
:class:`FrozenScheduler` carries verbatim copies of the original
``ContinuousBatchingScheduler.form_micro_batches`` and
``binding_context_len``, through which the serving engine used to price
each decode step.  They are the oracles that the integer Algorithm 2
kernel, :func:`repro.workloads.batching.batch_requests` and
``EngineCore._decode_shape`` must reproduce exactly; do not edit them to
follow the library.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.policy import Policy
from repro.serving.queue import ServingRequest
from repro.utils.validation import require_non_negative, require_positive_int
from repro.workloads.batching import BatchingResult
from repro.workloads.request import Batch, MicroBatch, Request


def batch_requests(
    requests: Sequence[Request],
    num_micro_batches: int,
    micro_batch_size: int,
    generation_len: int,
    cache_size_tokens: float = float("inf"),
) -> BatchingResult:
    """Partition ``requests`` into balanced micro-batches (Algorithm 2).

    Parameters
    ----------
    requests:
        The request queue for this batch.
    num_micro_batches:
        ``n_ub`` — number of micro-batches to fill.
    micro_batch_size:
        ``ubs`` — maximum number of requests per micro-batch.
    generation_len:
        ``gen_len`` — tokens that will be generated per request; counted
        against the cache budget because the KV cache grows during decode.
    cache_size_tokens:
        ``cache_size`` — maximum KV-cache tokens a micro-batch may occupy at
        the end of generation.  Defaults to unlimited.
    """
    require_positive_int("num_micro_batches", num_micro_batches)
    require_positive_int("micro_batch_size", micro_batch_size)
    require_positive_int("generation_len", generation_len)
    require_non_negative("cache_size_tokens", cache_size_tokens)

    partitions: list[list[Request]] = [[] for _ in range(num_micro_batches)]
    partition_sums: list[int] = [0 for _ in range(num_micro_batches)]
    sealed: list[MicroBatch] = []
    aborted: list[Request] = []

    queue = sorted(requests, key=lambda req: req.input_len, reverse=True)
    for request in queue:
        if not partitions:
            aborted.append(request)
            continue
        idx = min(range(len(partitions)), key=lambda i: partition_sums[i])
        projected_prompt_tokens = partition_sums[idx] + request.input_len
        projected_cache = projected_prompt_tokens + (
            1 + len(partitions[idx])
        ) * generation_len
        if projected_cache > cache_size_tokens:
            aborted.append(request)
            continue
        partitions[idx].append(request)
        partition_sums[idx] += request.input_len
        if len(partitions[idx]) == micro_batch_size:
            sealed.append(
                MicroBatch(requests=partitions[idx], micro_batch_id=len(sealed))
            )
            partitions.pop(idx)
            partition_sums.pop(idx)

    for leftover in partitions:
        if leftover:
            sealed.append(MicroBatch(requests=leftover, micro_batch_id=len(sealed)))

    return BatchingResult(micro_batches=sealed, aborted=aborted)


class FrozenScheduler:
    """The original scheduler's micro-batch formation on ``policy``."""

    def __init__(self, policy: Policy) -> None:
        self.policy = policy

    def form_micro_batches(self, running: list[ServingRequest]) -> Batch:
        """Re-partition the running set into balanced micro-batches.

        Admission already guarantees the KV budget, so Algorithm 2 runs with
        an unlimited cache budget here — it only balances token counts
        across ``ceil(n / μ)`` micro-batches.  (The partition is O(n log n)
        per step with n capped at the policy batch size — negligible next
        to the step-cost evaluation.)
        """
        if not running:
            return Batch()
        mu = min(self.policy.micro_batch_size, len(running))
        num_micro_batches = -(-len(running) // mu)
        result = batch_requests(
            [sr.request for sr in running],
            num_micro_batches=num_micro_batches,
            micro_batch_size=mu,
            generation_len=max(sr.request.generation_len for sr in running),
        )
        return result.batch

    def binding_context_len(
        self, batch: Batch, running: list[ServingRequest]
    ) -> float:
        """Context length of the micro-batch that gates the decode pipeline.

        Each decode step processes every micro-batch in turn, and the
        per-layer pipeline is paced by its slowest micro-batch, so the step
        is costed at the largest mean context across the partition rather
        than the global mean.
        """
        context_by_id = {sr.request_id: sr.context_len for sr in running}
        return max(
            sum(context_by_id[req.request_id] for req in micro_batch)
            / micro_batch.size
            for micro_batch in batch
            if micro_batch.size > 0
        )

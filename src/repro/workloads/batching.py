"""Request batching (paper Algorithm 2) and request padding.

Algorithm 2 assigns variable-length requests to ``n_ub`` micro-batches so
that token counts are balanced: requests are sorted by descending prompt
length and each is placed into the micro-batch with the fewest prompt
tokens, unless doing so would overflow the per-micro-batch KV-cache budget
(in which case the request is aborted to the next batch).  A micro-batch
that reaches the target size ``ubs`` is sealed and removed from the open
partitions.  :func:`partition_lengths` is the one copy of the algorithm,
over integer prompt lengths; :func:`batch_requests` wraps it for request
lists and the serving engine runs it on its live running set.

``pad_requests`` implements the padding behaviour of FlexGen and
MoE-Lightning(p): every request in a batch is padded to the batch's maximum
prompt length.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from repro.utils.validation import require_non_negative, require_positive_int
from repro.workloads.request import Batch, MicroBatch, Request


@dataclass
class BatchingResult:
    """Output of :func:`batch_requests`.

    ``micro_batches`` are the sealed micro-batches (plus any non-empty open
    partitions flushed at the end); ``aborted`` holds requests that could not
    fit the cache budget and should be carried to the next batch, in the
    order they were rejected.
    """

    micro_batches: list[MicroBatch] = field(default_factory=list)
    aborted: list[Request] = field(default_factory=list)

    @property
    def batch(self) -> Batch:
        """The accepted micro-batches wrapped as a :class:`Batch`."""
        return Batch(micro_batches=self.micro_batches)

    @property
    def num_accepted(self) -> int:
        """Number of requests placed into micro-batches."""
        return sum(mb.size for mb in self.micro_batches)


def partition_lengths(
    lengths: Sequence[int],
    num_micro_batches: int,
    micro_batch_size: int,
    generation_len: int = 1,
    cache_size_tokens: float = float("inf"),
) -> tuple[list[list[int]], list[int]]:
    """Algorithm 2 over integer prompt lengths; returns index groups.

    Indices into ``lengths`` are placed in descending-length order (stable:
    ties keep their input order) into the open partition with the fewest
    prompt tokens, the first such partition in creation order.  A placement
    whose end-of-generation footprint would exceed ``cache_size_tokens``
    aborts that index and leaves the partitions untouched.  Returns
    ``(groups, aborted)``: sealed groups in sealing order, then non-empty
    leftovers in creation order; aborted indices in rejection order.
    Arguments are not validated (callers do).
    """
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    groups: list[list[int]] = [[] for _ in range(num_micro_batches)]
    # Open partitions sit in a min-heap keyed ``tokens << shift | index``:
    # one int ordered as ``(prompt tokens, creation index)``, so the top is
    # the first partition with the fewest tokens.
    shift = num_micro_batches.bit_length()
    mask = (1 << shift) - 1
    heap = list(range(num_micro_batches))
    sealed: list[list[int]] = []
    aborted: list[int] = []
    bounded = cache_size_tokens != float("inf")
    for index in order:
        if not heap:
            break
        key = heap[0]
        group = groups[key & mask]
        length = lengths[index]
        if bounded and (
            (key >> shift) + length + (1 + len(group)) * generation_len
            > cache_size_tokens
        ):
            aborted.append(index)
            continue
        group.append(index)
        if len(group) == micro_batch_size:
            heapq.heappop(heap)
            sealed.append(group)
        else:
            heapq.heapreplace(heap, key + (length << shift))
    # Once every partition is sealed the rest of the queue is aborted; the
    # loop has then consumed exactly the aborts plus every full partition.
    aborted.extend(order[len(aborted) + num_micro_batches * micro_batch_size :])
    # Sealed groups are exactly the full ones; the rest are still open.
    sealed.extend(group for group in groups if 0 < len(group) < micro_batch_size)
    return sealed, aborted


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

    groups, aborted = partition_lengths(
        [request.input_len for request in requests],
        num_micro_batches,
        micro_batch_size,
        generation_len,
        cache_size_tokens,
    )
    return BatchingResult(
        micro_batches=[
            MicroBatch(requests=[requests[i] for i in group], micro_batch_id=batch_id)
            for batch_id, group in enumerate(groups)
        ],
        aborted=[requests[i] for i in aborted],
    )


def pad_requests(requests: Sequence[Request], pad_to: int | None = None) -> list[Request]:
    """Pad every request to ``pad_to`` (default: the longest prompt present).

    This models FlexGen's requirement that all requests in a batch share a
    prompt length, and MoE-Lightning(p)'s padded variant used for
    like-for-like comparisons.
    """
    if not requests:
        return []
    target = pad_to if pad_to is not None else max(req.input_len for req in requests)
    return [req.padded_to(max(target, req.input_len)) for req in requests]


def balance_report(result: BatchingResult) -> dict[str, float]:
    """Summary statistics about how balanced the produced micro-batches are."""
    token_counts = [mb.total_input_tokens for mb in result.micro_batches]
    sizes = [mb.size for mb in result.micro_batches]
    if not token_counts:
        return {
            "num_micro_batches": 0,
            "min_tokens": 0,
            "max_tokens": 0,
            "imbalance": 0.0,
            "min_size": 0,
            "max_size": 0,
        }
    max_tokens = max(token_counts)
    min_tokens = min(token_counts)
    return {
        "num_micro_batches": len(token_counts),
        "min_tokens": min_tokens,
        "max_tokens": max_tokens,
        "imbalance": (max_tokens - min_tokens) / max(max_tokens, 1),
        "min_size": min(sizes),
        "max_size": max(sizes),
    }

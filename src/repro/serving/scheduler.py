"""Iteration-level continuous-batching scheduler.

Instead of forming one static batch and running it to completion (the
offline regime of the paper's evaluation), the scheduler re-decides what
the engine does at *every* engine step, in the style of Orca/vLLM
iteration-level scheduling:

* finished requests retire and free their KV reservation immediately;
* queued requests are admitted (KV- and slot-gated by the
  :class:`~repro.serving.admission.AdmissionController`) and prefilled in
  chunks between decode iterations;
* the engine re-partitions the running set into balanced micro-batches
  whenever its membership changes, with the same Algorithm 2 kernel
  (:func:`repro.workloads.batching.partition_lengths`) that
  :func:`~repro.workloads.batching.batch_requests` runs offline, so the
  paper's batching machinery is reused verbatim on a changing population.

Three scheduling policies trade TTFT against TPOT:

* ``"fcfs"`` — serve strictly in arrival order; prefill at most one
  micro-batch of new requests between decode steps;
* ``"prefill-first"`` — prefill every admissible queued request before the
  next decode step (minimises TTFT, interrupts decode the most);
* ``"decode-first"`` — only prefill when the running set has drained below
  one micro-batch (protects TPOT, lets the queue grow).

Orthogonally, ``chunk_tokens`` enables **chunked prefill**: at most that
many prompt tokens are processed per engine step, long prompts are split
across several steps, and — whenever requests are decoding — the chunk
rides along with the decode iteration as a ``"mixed"`` step instead of
interrupting it.  The mixed step piggybacks the chunk's prompt compute on
the decode step's weight-streaming pass (the same layer weights serve
both), so long prefills stop inflating TPOT on loaded shards.

``overlap=True`` generalises the mixed step from a chunked-prefill special
case into the steady state: the engine runs a *decode stream* and a
*prefill stream* that advance concurrently and serialize only on the
shared weight-streaming pass, so whole-prompt prefills also ride decode
iterations instead of stalling them.  With ``overlap=False`` (the default)
the scheduler emits exactly the serialized timeline it always has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.policy import Policy
from repro.serving.admission import AdmissionController
from repro.serving.queue import RequestQueue, ServingRequest
from repro.utils.errors import ConfigurationError
from repro.utils.validation import require_positive_int

SCHEDULING_POLICIES: tuple[str, ...] = ("fcfs", "prefill-first", "decode-first")


@dataclass(frozen=True)
class SchedulerAction:
    """What the engine should do next.

    ``kind`` is ``"prefill"`` (run the chunk's prefill; the chunk has
    already passed admission and holds its KV reservations), ``"decode"``
    (one decode iteration over the running set), ``"mixed"`` (chunked
    prefill only: one decode iteration carrying a prompt chunk) or
    ``"idle"`` (nothing runnable; advance the clock to the next arrival).
    """

    kind: str
    chunk: list[ServingRequest] = field(default_factory=list)
    rejected: list[ServingRequest] = field(default_factory=list)


class ContinuousBatchingScheduler:
    """Decides, per engine iteration, between prefill, decode and idle.

    ``chunk_tokens`` caps the prompt tokens one prefill step may process
    (chunked prefill); ``None`` keeps whole-prompt prefills.
    """

    def __init__(
        self,
        policy: Policy,
        admission: AdmissionController,
        scheduling: str = "fcfs",
        chunk_tokens: int | None = None,
        overlap: bool = False,
    ) -> None:
        if scheduling not in SCHEDULING_POLICIES:
            known = ", ".join(SCHEDULING_POLICIES)
            raise ConfigurationError(
                f"unknown scheduling policy {scheduling!r}; known: {known}"
            )
        if chunk_tokens is not None:
            require_positive_int("chunk_tokens", chunk_tokens)
        self.policy = policy
        self.admission = admission
        self.scheduling = scheduling
        self.chunk_tokens = chunk_tokens
        self.overlap = overlap

    # ------------------------------------------------------------------
    # Per-iteration decision
    # ------------------------------------------------------------------
    def _prefill_chunk_limit(self, num_running: int) -> int:
        """How many new requests one prefill step may take on."""
        headroom = self.policy.batch_size - num_running
        if self.scheduling == "prefill-first":
            return headroom
        # FCFS and decode-first prefill at most one micro-batch at a time so
        # decode iterations are interrupted for a bounded period.
        return min(headroom, self.policy.micro_batch_size)

    def _wants_prefill(self, num_running: int, queue: RequestQueue) -> bool:
        """Whether this policy would prefill now rather than decode."""
        if not queue or num_running >= self.policy.batch_size:
            return False
        if self.scheduling == "decode-first":
            # Only backfill once the running set is thinner than one
            # micro-batch (or the engine is empty).
            return num_running < self.policy.micro_batch_size
        return True

    def next_action(
        self,
        num_running: int,
        queue: RequestQueue,
        prefilling: Sequence[ServingRequest] = (),
    ) -> SchedulerAction:
        """Pick the engine's next step and pop/admit the prefill chunk.

        Requests returned in ``chunk`` hold KV reservations; requests in
        ``rejected`` can never run (their end-of-generation KV footprint
        exceeds the budget even on an empty engine) and must be dropped by
        the caller.  ``prefilling`` carries the engine's partially-prefilled
        requests under chunked prefill; they re-enter the next prefill chunk
        ahead of new admissions.
        """
        rejected: list[ServingRequest] = []
        chunk: list[ServingRequest] = list(prefilling)
        occupied = num_running + len(chunk)
        if self._wants_prefill(occupied, queue):
            limit = self._prefill_chunk_limit(occupied)
            budget = None
            if self.chunk_tokens is not None:
                budget = self.chunk_tokens - sum(
                    sr.prefill_remaining for sr in chunk
                )
            admitted = 0
            while queue and admitted < limit:
                if budget is not None and budget <= 0 and chunk:
                    break
                decision = self.admission.check(queue.peek())
                if decision.admitted:
                    candidate = queue.pop()
                    # Nothing can change admission state between the check
                    # above and this reservation; skip the re-check.
                    self.admission.admit_checked(candidate)
                    chunk.append(candidate)
                    admitted += 1
                    if budget is not None:
                        # Charge only the tokens the chunk will actually
                        # process: prefix-cache hits were marked prefilled
                        # at admission, so their cached tokens are skipped
                        # at prefill and must not consume chunk budget.
                        budget -= candidate.prefill_remaining
                    continue
                if self.admission.live_requests == 0 and not chunk:
                    # Even an empty engine cannot hold this request: it is
                    # oversized for the hardware, not merely unlucky.  The
                    # failing admit() records the drop in the controller's
                    # rejection counters.
                    oversized = queue.pop()
                    self.admission.admit(oversized)
                    oversized.reject_reason = decision.reason
                    rejected.append(oversized)
                    continue
                # Head-of-line request must wait for capacity to free up.
                break
        if chunk:
            if num_running > 0 and (self.chunk_tokens is not None or self.overlap):
                # The chunk rides the decode iteration: its prompt compute
                # overlaps the step's weight-streaming pass instead of
                # stalling every decoding request.  Chunked prefill always
                # overlaps this way; ``overlap`` extends it to whole-prompt
                # prefills (the overlapped prefill/decode streams).
                return SchedulerAction(kind="mixed", chunk=chunk, rejected=rejected)
            return SchedulerAction(kind="prefill", chunk=chunk, rejected=rejected)
        if num_running > 0:
            return SchedulerAction(kind="decode", rejected=rejected)
        return SchedulerAction(kind="idle", rejected=rejected)

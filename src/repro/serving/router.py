"""Shard router: assigns arriving requests to per-shard queues.

Data-parallel serving runs one engine (an :class:`~repro.serving.server.EngineCore`)
per shard, each with its own queue, admission controller and KV cache.  The
router is the only component that sees every arrival, and its policy decides
how evenly — and how cache-affinely — load spreads:

* ``"round-robin"`` — cycle through shards; oblivious but perfectly fair in
  request count;
* ``"least-loaded"`` — send each arrival to the shard with the fewest
  outstanding requests (queued + prefilling + running), the classic
  join-the-shortest-queue policy that absorbs bursts best;
* ``"session-affinity"`` — hash the request's session key so a session's
  requests always land on the same shard (the prerequisite for per-shard
  prefix/KV reuse), falling back to the request id for sessionless traffic;
* ``"cache-aware"`` — send the arrival to the shard whose prefix cache
  holds the longest match for its prompt, breaking ties (and handling cold
  prompts) by least-loaded.  Where session affinity *hopes* the KV is
  still warm, cache-aware routing *measures* it.

Routing is deterministic: the same arrival stream, shard loads and cache
states produce the same assignment.
"""

from __future__ import annotations

from typing import Sequence

from repro.serving.queue import ServingRequest
from repro.utils.errors import ConfigurationError
from repro.utils.validation import require_positive_int

ROUTER_POLICIES: tuple[str, ...] = (
    "round-robin",
    "least-loaded",
    "session-affinity",
    "cache-aware",
)

#: Knuth's multiplicative constant: spreads consecutive session keys across
#: shards instead of striping them (which would alias with round-robin).
_HASH_MULTIPLIER = 2654435761
_HASH_MODULUS = 2**32


class ShardRouter:
    """Deterministic request-to-shard assignment under a routing policy."""

    def __init__(self, num_shards: int, policy: str = "round-robin") -> None:
        require_positive_int("num_shards", num_shards)
        if policy not in ROUTER_POLICIES:
            known = ", ".join(ROUTER_POLICIES)
            raise ConfigurationError(
                f"unknown router policy {policy!r}; known: {known}"
            )
        self.num_shards = num_shards
        self.policy = policy
        self._next = 0
        self.assignments = [0] * num_shards
        self.cache_routed = 0

    @staticmethod
    def _least_loaded(loads: Sequence[int]) -> int:
        # ``index`` finds the first minimum: the lowest id breaks load ties.
        return loads.index(min(loads))

    def route(
        self,
        serving_request: ServingRequest,
        loads: Sequence[int],
        prefix_lens: Sequence[int] | None = None,
    ) -> int:
        """Pick the shard for one arrival given current per-shard loads.

        ``prefix_lens`` (cache-aware policy only) carries each shard's
        longest cached-prefix match for this request's prompt, in tokens.
        """
        if len(loads) != self.num_shards:
            raise ConfigurationError(
                f"expected {self.num_shards} shard loads, got {len(loads)}"
            )
        if self.policy == "round-robin":
            shard = self._next % self.num_shards
            self._next += 1
        elif self.policy == "least-loaded":
            shard = self._least_loaded(loads)
        elif self.policy == "cache-aware":
            if prefix_lens is not None and len(prefix_lens) != self.num_shards:
                raise ConfigurationError(
                    f"expected {self.num_shards} prefix lengths, "
                    f"got {len(prefix_lens)}"
                )
            best = max(prefix_lens) if prefix_lens is not None else 0
            if best > 0:
                # Ties between equally warm shards break by load, then id:
                # a strictly lighter shard replaces the first warm one.
                shard = prefix_lens.index(best)
                for s in range(shard + 1, self.num_shards):
                    if prefix_lens[s] == best and loads[s] < loads[shard]:
                        shard = s
                self.cache_routed += 1
            else:
                shard = self._least_loaded(loads)
        else:  # session-affinity
            key = serving_request.request.session_key
            # Multiplicative hashing: the *high* bits of the product carry
            # the mixing (the low bits merely echo the key's parity, which
            # the session/sessionless tag bit pins).
            mixed = (key * _HASH_MULTIPLIER) % _HASH_MODULUS
            shard = (mixed >> 16) % self.num_shards
        self.assignments[shard] += 1
        return shard


class PhaseRouter:
    """Capacity- and phase-aware routing for a disaggregated cluster.

    Prefill and decode shards answer different questions, so they get
    different signals:

    * **prefills** go to the prefill shard that will *start* the prompt
      soonest: outstanding prefill tokens plus the new prompt, divided by
      the shard's measured prefill speed — so a fast device absorbs
      proportionally more tokens than a slow one, and a monster prompt
      does not shadow a short one behind it;
    * **decodes** (migration targets) go to the decode shard with the most
      KV headroom — decode capacity is memory, not request count: a shard
      holding a few very long sessions is as full as one holding many
      short ones.

    Shards whose device is still loading the model (``ready_at`` in the
    future) are skipped while any already-ready shard exists; a fully cold
    pool falls back to the earliest-ready shard so startup traffic queues
    where it will be served first.
    """

    def __init__(
        self,
        prefill_shards: Sequence[int],
        decode_shards: Sequence[int],
        prefill_speeds: Sequence[float],
        ready_at: Sequence[float] | None = None,
    ) -> None:
        if not prefill_shards or not decode_shards:
            raise ConfigurationError(
                "disaggregated routing needs at least one prefill and one "
                "decode shard"
            )
        self.prefill_shards = list(prefill_shards)
        self.decode_shards = list(decode_shards)
        #: Relative prefill throughput per shard id (tokens/second at the
        #: reference prompt length); only prefill shards need entries.
        self.prefill_speeds = list(prefill_speeds)
        self.ready_at = list(ready_at) if ready_at is not None else None
        #: Prompt tokens routed to but not yet handed off by each shard.
        self.outstanding_tokens = {shard: 0 for shard in self.prefill_shards}
        self.assignments: dict[int, int] = {
            shard: 0 for shard in (*self.prefill_shards, *self.decode_shards)
        }

    def _earliest_ready(self, shards: Sequence[int]) -> int:
        # Cold pool: queue on whichever shard will come up first.
        return min(shards, key=lambda s: (self.ready_at[s], s))

    def route_prefill(
        self,
        serving_request: ServingRequest,
        loads: Sequence[int],
    ) -> int:
        """Pick the prefill shard that will finish this prompt soonest."""
        prompt = serving_request.request.effective_input_len
        now = serving_request.arrival_time
        ready_at = self.ready_at
        outstanding = self.outstanding_tokens
        speeds = self.prefill_speeds
        best = None
        for s in self.prefill_shards:
            if ready_at is None or ready_at[s] <= now:
                key = ((outstanding[s] + prompt) / speeds[s], loads[s], s)
                if best is None or key < best:
                    best = key
        shard = best[2] if best else self._earliest_ready(self.prefill_shards)
        outstanding[shard] += prompt
        self.assignments[shard] += 1
        return shard

    def complete_prefill(self, shard: int, tokens: int) -> None:
        """Retire a handed-off (or finished) prompt's routed tokens."""
        self.outstanding_tokens[shard] -= tokens

    def route_decode(
        self,
        headrooms: Sequence[int],
        loads: Sequence[int],
        now: float,
    ) -> int:
        """Pick the decode shard with the most KV headroom (migration target).

        ``headrooms[s]`` is shard ``s``'s
        :meth:`~repro.serving.admission.AdmissionController.kv_headroom_tokens`;
        ties break by outstanding load, then shard id.
        """
        ready_at = self.ready_at
        best = None
        for s in self.decode_shards:
            if ready_at is None or ready_at[s] <= now:
                key = (-headrooms[s], loads[s], s)
                if best is None or key < best:
                    best = key
        shard = best[2] if best else self._earliest_ready(self.decode_shards)
        self.assignments[shard] += 1
        return shard

"""Frozen reference copy of the two-probe admission path.

:class:`FrozenAdmissionController` carries verbatim copies of the original
``AdmissionController.check``, ``_prefix_identity``, ``admit`` and
``admit_checked``; :class:`FrozenKVCacheManager` of the original
``KVCacheManager.can_admit`` and ``register_sequence`` with its one-entry
match memo (``_match``, ``_match_hashes_memo``); and
:class:`FrozenSharedBlockStore` of the original
``SharedBlockStore.register_chain``.  In that path every admission ran a
side-effect-free capacity check and then a registration that repeated it.
They are the oracle the one-probe admission path must reproduce exactly;
do not edit them to follow the library.

Only the frozen methods are copies: the controller and KV manager inherit
everything else from the library, and the store inherits block placement,
release and eviction from the frozen per-block store
(:mod:`tests.frozen_block_store`), whose content-index ``version`` the
match memo reads.  A comparison through observable state isolates the
admission and registration logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.runtime.kv_cache import KVCacheManager
from repro.serving.admission import AdmissionController, AdmissionDecision
from repro.serving.queue import ServingRequest
from repro.utils.errors import MemoryManagerError
from repro.utils.validation import require_non_negative, require_positive_int
from tests.frozen_block_store import BlockTable, SharedBlockStore, chain_block_hashes


@dataclass
class SequenceCache:
    """KV bookkeeping for one sequence: its length and block table.

    ``cached_tokens`` records how much of the prompt was a prefix-cache hit.
    """

    sequence_id: int
    num_tokens: int = 0
    block_table: BlockTable = field(default_factory=BlockTable)
    cached_tokens: int = 0


class FrozenSharedBlockStore(SharedBlockStore):
    """The block store with the original ``register_chain``."""

    def register_chain(
        self,
        matched_ids: Sequence[int],
        num_tokens: int,
        block_hashes: Sequence[int],
        table: BlockTable,
    ) -> int:
        """Register one sequence's prompt (and reservation) in one call.

        Pins the prefix match (``matched_ids``) onto ``table``, then places
        the remaining ``num_tokens`` minus cached tokens in fresh blocks:
        every full block still covered by ``block_hashes`` whose hash no
        resident block owns becomes a hashed block, every other one joins
        the table's private run.  When the fresh blocks cannot be placed it
        unpins the match and raises, leaving the fresh part untouched.
        Returns the cached (matched) token count.
        """
        block_tokens = self.block_tokens
        block_ids = table.block_ids
        first = len(matched_ids)
        if first:
            self.acquire_many(matched_ids)
            block_ids.extend(matched_ids)
        remaining = num_tokens - first * block_tokens
        if remaining > 0:
            try:
                self._grow(
                    table,
                    remaining,
                    block_hashes[first : first + remaining // block_tokens],
                )
            except MemoryManagerError:
                if first:
                    del block_ids[-first:]
                    self.release_many(matched_ids)
                raise
        return first * block_tokens


class FrozenKVCacheManager(KVCacheManager):
    """The KV manager with the original capacity check and registration."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._match_memo: tuple | None = None
        self.block_store = FrozenSharedBlockStore(
            cpu_pool=self.cpu_pool,
            block_bytes=self.block_tokens * self.bytes_per_token(),
            block_tokens=self.block_tokens,
            gpu_pool=self.gpu_pool,
            gpu_ratio=self.gpu_ratio,
        )

    def _match(
        self,
        num_tokens: int,
        token_ids: Sequence[int] | None,
        block_hashes: Sequence[int] | None,
        matchable_tokens: int | None,
    ) -> tuple[Sequence[int], list[int]]:
        """``(chain, matched block ids)`` for a reservation of ``num_tokens``.

        The chain comes from ``block_hashes`` (with its ``matchable_tokens``
        cap) or is hashed from ``token_ids``.  Blocks beyond the
        reservation are matchable but useless (a shorter re-issue of a
        longer cached prompt), so the match is cut there.
        """
        if block_hashes is None:
            tokens = tuple(token_ids) if token_ids else ()
            block_hashes = chain_block_hashes(tokens, self.block_tokens)
            matchable_tokens = len(tokens) - 1
        elif matchable_tokens is None:
            raise MemoryManagerError("block_hashes requires matchable_tokens")
        matched = self._match_hashes_memo(block_hashes, matchable_tokens)
        return block_hashes, matched[: num_tokens // self.block_tokens]

    def _match_hashes_memo(
        self, block_hashes: Sequence[int], matchable_tokens: int
    ) -> list[int]:
        """Prefix match with a one-entry memo over the admit double-probe.

        :meth:`can_admit` and :meth:`register_sequence` run back-to-back on
        the same chain with nothing mutating the store between them; the
        memo hits on chain *identity* (requests hand out one memoised chain
        tuple) and is invalidated by the store's content-index ``version``,
        which bumps on every insert or eviction — so a hit is always
        exactly what a fresh probe would return.
        """
        store = self.block_store
        memo = self._match_memo
        if (
            memo is not None
            and memo[0] is block_hashes
            and memo[1] == matchable_tokens
            and memo[2] == store.version
        ):
            return memo[3]
        matched = store.match_prefix_hashes(block_hashes, matchable_tokens)
        self._match_memo = (block_hashes, matchable_tokens, store.version, matched)
        return matched

    def register_sequence(
        self,
        sequence_id: int,
        prompt_tokens: int,
        token_ids: Sequence[int] | None = None,
        block_hashes: Sequence[int] | None = None,
        matchable_tokens: int | None = None,
    ) -> SequenceCache:
        """Create bookkeeping for a sequence and allocate its prompt cache.

        ``token_ids`` (prefix cache only) identifies the prompt content for
        prefix matching; it may be shorter than ``prompt_tokens`` when the
        reservation also covers tokens to be generated, or when a padded
        system charges more positions than the prompt holds.  Alternatively
        the caller can pass the prompt's pre-computed chained
        ``block_hashes`` plus ``matchable_tokens`` (``prompt length - 1``)
        directly — bit-identical matching and block tagging without token
        ids ever existing.
        """
        require_positive_int("prompt_tokens", prompt_tokens)
        if sequence_id in self.sequences:
            raise MemoryManagerError(f"sequence {sequence_id} already registered")
        cache = SequenceCache(sequence_id=sequence_id)
        if self.prefix_cache_enabled:
            chain, matched = self._match(
                prompt_tokens, token_ids, block_hashes, matchable_tokens
            )
            cache.cached_tokens = self.block_store.register_chain(
                matched, prompt_tokens, chain, cache.block_table
            )
        else:
            # Nothing to match or hash: the sequence is one private run.
            self.block_store.extend_table(cache.block_table, prompt_tokens)
        cache.num_tokens = prompt_tokens
        self.sequences[sequence_id] = cache
        return cache

    def can_admit(
        self,
        prompt_tokens: int,
        generation_len: int,
        token_ids: Sequence[int] | None = None,
        block_hashes: Sequence[int] | None = None,
        matchable_tokens: int | None = None,
    ) -> bool:
        """Whether a new request fits the pools at its end-of-generation size.

        Pages held by evictable (unreferenced) cache count as available.
        With the prefix cache on the footprint is *incremental*: blocks
        covered by a cached prefix of ``token_ids`` (or of the pre-hashed
        ``block_hashes`` chain with its ``matchable_tokens`` cap) cost
        nothing new.
        """
        require_positive_int("prompt_tokens", prompt_tokens)
        require_non_negative("generation_len", generation_len)
        num_tokens = prompt_tokens + generation_len
        total_blocks = -(-num_tokens // self.block_tokens)
        if not self.prefix_cache_enabled:
            return total_blocks <= self.block_store.allocatable_blocks()
        _, matched = self._match(num_tokens, token_ids, block_hashes, matchable_tokens)
        return self.block_store.can_allocate_blocks(
            total_blocks - len(matched), reserved_block_ids=matched
        )


class FrozenAdmissionController(AdmissionController):
    """The admission controller with the original two-probe admit path.

    Built exactly as the library controller, then given a
    :class:`FrozenKVCacheManager` over the same (still empty) pools.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        kv_cache = self.kv_cache
        self.kv_cache = FrozenKVCacheManager(
            model=kv_cache.model,
            cpu_pool=kv_cache.cpu_pool,
            gpu_pool=kv_cache.gpu_pool,
            gpu_ratio=kv_cache.gpu_ratio,
            block_tokens=kv_cache.block_tokens,
            prefix_cache=kv_cache.prefix_cache_enabled,
        )

    def check(self, serving_request: ServingRequest) -> AdmissionDecision:
        """Whether the request could be admitted right now (no side effects).

        With the prefix cache on, the KV check is *incremental*: blocks
        matching a cached prefix of the prompt cost nothing new, so a mostly
        cached request passes a budget a cold one of the same length fails.
        """
        if self.live_requests >= self.max_live_requests:
            return AdmissionDecision(
                admitted=False,
                reason=f"batch full ({self.max_live_requests} live requests)",
            )
        request = serving_request.request
        if not self.kv_cache.can_admit(
            request.effective_input_len,
            request.generation_len if self.reserve_output_tokens else 0,
            **self._prefix_identity(request),
        ):
            return AdmissionDecision(
                admitted=False,
                reason="KV cache budget exhausted at end-of-generation size",
            )
        return AdmissionDecision(admitted=True)

    def _prefix_identity(self, request) -> dict:
        """Content-identity kwargs for the KV manager, cheapest form first.

        Hash chains are the native currency: stored chains (columnar chat
        streams) cost nothing, eager token ids hash through the memoised
        chain function, and lazy token sources are never materialised just
        to admit or match.  With the cache off there is nothing to match.
        """
        if not self.kv_cache.prefix_cache_enabled:
            return {}
        chain = request.block_hash_chain(self.kv_cache.block_tokens)
        if chain is None:
            return {}
        return {
            "block_hashes": chain,
            "matchable_tokens": request.input_len - 1,
        }

    def admit(self, serving_request: ServingRequest) -> AdmissionDecision:
        """Check and, on success, reserve the request's full KV footprint.

        The reservation covers prompt plus every token that will be
        generated, so a request admitted now can never be evicted mid-decode
        by a later admission — the same guarantee Algorithm 2's cache-budget
        check gives within a batch.  Prefix-cache hits acquire references on
        the matched blocks (pinning them against eviction) and are recorded
        on the request as already-prefilled tokens.
        """
        decision = self.check(serving_request)
        if not decision.admitted:
            if "KV cache" in decision.reason:
                self.rejected_kv_count += 1
                if self.telemetry is not None:
                    self.telemetry.count("admission.rejected_kv")
            else:
                self.rejected_slots_count += 1
                if self.telemetry is not None:
                    self.telemetry.count("admission.rejected_slots")
            return decision
        self.admit_checked(serving_request)
        return decision

    def admit_checked(self, serving_request: ServingRequest) -> None:
        """Reserve KV for a request that just passed :meth:`check`.

        The scheduler's admission loop peeks, checks, pops and admits the
        same request with nothing in between that could change admission
        state, so this skips :meth:`admit`'s redundant re-check — the hot
        path pays for one capacity probe per admission, not two.
        """
        request = serving_request.request
        reserve = (
            request.generation_len if self.reserve_output_tokens else 0
        )
        cache = self.kv_cache.register_sequence(
            serving_request.request_id,
            request.effective_input_len + reserve,
            **self._prefix_identity(request),
        )
        serving_request.tokens_cached = cache.cached_tokens
        serving_request.tokens_prefilled = max(
            serving_request.tokens_prefilled, cache.cached_tokens
        )
        self.admitted_count += 1
        if cache.cached_tokens > 0:
            self.cache_hit_count += 1
        self.cached_tokens_total += cache.cached_tokens
        self.prompt_tokens_total += request.effective_input_len
        if self.telemetry is not None:
            self.telemetry.count("admission.admitted")
            if cache.cached_tokens > 0:
                self.telemetry.count("admission.cache_hits")
                self.telemetry.count("admission.cached_tokens", cache.cached_tokens)

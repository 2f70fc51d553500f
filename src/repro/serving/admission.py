"""Admission control: memory-aware gating of requests into the batch.

Before a queued request joins the running batch, the controller checks that
its KV cache — at its *end-of-generation* size, the same conservative
accounting Algorithm 2 applies inside a batch — fits the CPU and GPU
budgets left over after weights, activations and transfer workspace.  The
budgets come from the analytical :class:`~repro.core.memory_model.MemoryModel`
and the page-level accounting from
:class:`~repro.runtime.kv_cache.KVCacheManager`, so the online system
respects exactly the constraints the offline policy optimizer was solved
under.

Admission also caps the number of live sequences at the policy's batch
size ``N``: the engine never holds more requests than the policy the
schedules and kernels were sized for.

With ``prefix_cache=True`` the controller fronts the shared block store of
:mod:`repro.runtime.block_store`: each request's prompt is matched against
the cached prefix blocks, the reservation covers only the *incremental*
blocks beyond the match, and the matched prefix is recorded on the request
so the engine skips those tokens at prefill.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.memory_model import MemoryModel
from repro.core.policy import Policy
from repro.hardware.spec import HardwareSpec
from repro.models.config import ModelConfig
from repro.models.memory import kv_cache_bytes_per_token_per_layer
from repro.runtime.kv_cache import KVCacheManager
from repro.runtime.memory_manager import MemoryPool
from repro.serving.queue import ServingRequest
from repro.utils.errors import MemoryManagerError
from repro.utils.validation import require_positive_int
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    reason: str = ""


class AdmissionController:
    """Gates requests on KV-cache capacity and live-sequence slots.

    The CPU/GPU KV budgets are the memory capacities usable by the policy
    minus its non-KV footprint (weights, activations, workspace) as
    projected by the memory model; explicit ``*_kv_budget_bytes`` overrides
    let tests pin exact boundaries.
    """

    def __init__(
        self,
        model: ModelConfig,
        hardware: HardwareSpec,
        workload: WorkloadSpec,
        policy: Policy,
        padded: bool = False,
        max_live_requests: int | None = None,
        block_tokens: int = 16,
        cpu_kv_budget_bytes: float | None = None,
        gpu_kv_budget_bytes: float | None = None,
        prefix_cache: bool = False,
        reserve_output_tokens: bool = True,
        telemetry=None,
    ) -> None:
        self.model = model
        self.policy = policy
        self.prefix_cache = prefix_cache
        #: Prefill-role engines hand requests off before decoding a single
        #: token, so they reserve KV for the prompt only; reserving the
        #: end-of-generation size there would waste most of the pool on
        #: tokens the *decode* shard will hold.
        self.reserve_output_tokens = reserve_output_tokens
        #: Optional :class:`repro.obs.Telemetry`; verdict counters only —
        #: admission has no clock, so timestamped events stay with the engine.
        self.telemetry = telemetry
        self.max_live_requests = (
            max_live_requests if max_live_requests is not None else policy.batch_size
        )
        require_positive_int("max_live_requests", self.max_live_requests)

        memory_model = MemoryModel(
            model=model, hardware=hardware, workload=workload, padded=padded
        )
        if cpu_kv_budget_bytes is None:
            cpu_usage = memory_model.cpu_usage(policy)
            cpu_kv_budget_bytes = memory_model.usable_cpu_memory - (
                cpu_usage.total - cpu_usage.kv_cache
            )
        if gpu_kv_budget_bytes is None:
            gpu_usage = memory_model.gpu_usage(policy)
            gpu_kv_budget_bytes = memory_model.usable_gpu_memory - (
                gpu_usage.total - gpu_usage.kv_cache
            )

        # Grouped exactly as KVCacheManager computes one block's bytes
        # (block_tokens * bytes_per_token()), so the pool pages below and
        # the store's per-block charges are bit-identical floats.
        page_bytes = block_tokens * (
            kv_cache_bytes_per_token_per_layer(model) * model.num_layers
        )
        if cpu_kv_budget_bytes < page_bytes:
            raise MemoryManagerError(
                f"policy {policy.describe()} leaves no CPU memory for the KV "
                f"cache ({cpu_kv_budget_bytes / 1e9:.2f} GB budget)"
            )
        ratio = policy.kv_cache_gpu_ratio
        # Each pool's page holds exactly its share of one block, so a split
        # block costs one page per pool rather than rounding both shares up
        # to a whole full-size page.  The shares use the same expressions as
        # the SharedBlockStore constructor (gpu = b*r, cpu = b - gpu): a
        # different float grouping could land one ulp above the page size
        # and silently double the per-block charge.
        cpu_page_bytes = page_bytes
        gpu_page_bytes = page_bytes
        if 0 < ratio < 1:
            gpu_page_bytes = page_bytes * ratio
            cpu_page_bytes = page_bytes - gpu_page_bytes
        cpu_pool = MemoryPool("serving-kv-cpu", cpu_kv_budget_bytes, cpu_page_bytes)
        gpu_pool = None
        if ratio > 0:
            if gpu_kv_budget_bytes < gpu_page_bytes:
                raise MemoryManagerError(
                    f"policy {policy.describe()} keeps KV on the GPU but leaves "
                    f"no GPU memory for it "
                    f"({gpu_kv_budget_bytes / 1e9:.2f} GB budget)"
                )
            gpu_pool = MemoryPool(
                "serving-kv-gpu", gpu_kv_budget_bytes, gpu_page_bytes
            )
        self.kv_cache = KVCacheManager(
            model=model,
            cpu_pool=cpu_pool,
            gpu_pool=gpu_pool,
            gpu_ratio=ratio,
            block_tokens=block_tokens,
            prefix_cache=prefix_cache,
        )

        self.admitted_count = 0
        self.rejected_kv_count = 0
        self.rejected_slots_count = 0
        self.cache_hit_count = 0
        self.cached_tokens_total = 0
        self.prompt_tokens_total = 0

    # ------------------------------------------------------------------
    # Checks and reservations
    # ------------------------------------------------------------------
    @property
    def live_requests(self) -> int:
        """Number of sequences currently holding KV reservations."""
        return len(self.kv_cache.sequences)

    def match_prefix(self, request) -> int:
        """Prompt tokens this controller's cache could reuse (routing signal)."""
        if not self.kv_cache.prefix_cache_enabled:
            return 0
        chain = request.block_hash_chain(self.kv_cache.block_tokens)
        if not chain:
            return 0
        return self.kv_cache.match_prefix_hashes(chain, request.input_len - 1)

    def match_prefix_hashes(
        self, block_hashes, matchable_tokens: int
    ) -> int:
        """:meth:`match_prefix` over pre-computed chained block hashes.

        Lets a router hash a prompt once and probe every shard's cache;
        ``matchable_tokens`` is ``len(token_ids) - 1`` for that prompt.
        """
        return self.kv_cache.match_prefix_hashes(block_hashes, matchable_tokens)

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

    def release(self, serving_request: ServingRequest) -> None:
        """Free a finished request's KV reservation."""
        self.kv_cache.release_sequence(serving_request.request_id)

    def kv_headroom_tokens(self) -> int:
        """Tokens of fresh KV this controller could still reserve.

        The phase router's decode-side signal: decode shards are ranked by
        how much KV growth they can absorb, not by request count — a shard
        carrying a few very long sessions is as loaded as one carrying many
        short ones.
        """
        return self.kv_cache.headroom_tokens()

    def utilization(self) -> dict[str, float]:
        """Fraction of each KV pool currently reserved."""
        cpu_pool = self.kv_cache.cpu_pool
        report = {
            "kv_cpu": cpu_pool.used_pages / max(cpu_pool.num_pages, 1),
            "live_requests": float(self.live_requests),
        }
        if self.kv_cache.gpu_pool is not None:
            gpu_pool = self.kv_cache.gpu_pool
            report["kv_gpu"] = gpu_pool.used_pages / max(gpu_pool.num_pages, 1)
        return report

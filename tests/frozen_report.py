"""Frozen reference copies of the per-value report aggregation.

:class:`FrozenP2` carries a verbatim copy of the original one-observation
P² update (``add`` with its ``_parabolic``/``_linear`` helpers), and
:func:`frozen_observe` a verbatim copy of the original per-request
streaming :meth:`~repro.serving.ReportBuilder.observe` body.  They are the
oracles that the fused batch folds in ``repro.obs.metrics`` and
``repro.serving.metrics`` must reproduce bit for bit; do not edit them to
follow the library.

:func:`make_records` hand-builds the request records they are checked on.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.obs.metrics import P2Quantile
from repro.serving.metrics import REPORT_PERCENTILES, SLO, ReportBuilder
from repro.serving.queue import OUTCOME_CODES, RequestState, ServingRequest
from repro.workloads.request import Request


class FrozenP2(P2Quantile):
    """:class:`P2Quantile` driven by the original per-value update."""

    def add(self, value: float) -> None:
        """Fold one observation into the estimate (O(1))."""
        value = float(value)
        self.count += 1
        if self.count <= 5:
            self._heights.append(value)
            return
        if self.count == 6:
            self._heights.sort()

        heights = self._heights
        positions = self._positions
        desired = self._desired
        increments = self._increments
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and heights[cell + 1] <= value:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        desired[1] += increments[1]
        desired[2] += increments[2]
        desired[3] += increments[3]
        desired[4] += 1.0

        for i in (1, 2, 3):
            position = positions[i]
            delta = desired[i] - position
            if delta >= 1.0:
                if positions[i + 1] - position <= 1.0:
                    continue
                step = 1.0
            elif delta <= -1.0:
                if positions[i - 1] - position >= -1.0:
                    continue
                step = -1.0
            else:
                continue
            candidate = self._parabolic(i, step)
            if not heights[i - 1] < candidate < heights[i + 1]:
                candidate = self._linear(i, step)
            heights[i] = candidate
            positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)


def state(sketch: P2Quantile) -> tuple:
    """Every field of a sketch's state, for ``==`` comparison."""
    return (
        sketch.count,
        list(sketch._heights),
        list(sketch._positions),
        list(sketch._desired),
    )


def frozen_builder(slo: SLO) -> ReportBuilder:
    """A streaming builder whose sketches run the frozen P² update.

    Feed it with :func:`frozen_observe` only; its :meth:`build` is the
    library's own, which this reference does not replace.
    """
    builder = ReportBuilder(slo, store_samples=False)
    builder._sketches = {
        name: {q: FrozenP2(q / 100.0) for q in REPORT_PERCENTILES}
        for name in ("ttft", "tpot", "e2e")
    }
    return builder


def frozen_observe(builder: ReportBuilder, sr: ServingRequest) -> None:
    """The original per-request streaming observe, property by property."""
    builder.num_offered += 1
    if sr.attempt:
        builder.num_retries += 1
    state = sr.state
    if state is RequestState.REJECTED:
        builder.num_rejected += 1
        code = sr.outcome_code or "other"
        builder.outcomes[code] = builder.outcomes.get(code, 0) + 1
        return
    if state is not RequestState.FINISHED:
        return
    builder.num_completed += 1
    builder.tokens_generated += sr.tokens_decoded
    if builder.slo.is_met(sr):
        builder.slo_met += 1
    builder.prompt_tokens += sr.request.effective_input_len
    builder.cached_tokens += sr.tokens_cached
    hit = sr.is_cache_hit
    if hit:
        builder.cache_hits += 1
    ttft = sr.ttft
    tpot = sr.tpot
    e2e = sr.e2e_latency
    sums = builder._sums
    counts = builder._counts
    if ttft is not None:
        for sketch in builder._sketches["ttft"].values():
            sketch.add(ttft)
        sums["ttft"] += ttft
        counts["ttft"] += 1
        key = "hit_ttft" if hit else "miss_ttft"
        sums[key] += ttft
        counts[key] += 1
    if tpot is not None:
        for sketch in builder._sketches["tpot"].values():
            sketch.add(tpot)
        sums["tpot"] += tpot
        counts["tpot"] += 1
    if e2e is not None:
        for sketch in builder._sketches["e2e"].values():
            sketch.add(e2e)


def make_records(seed: int, count: int = 400) -> list[ServingRequest]:
    """Terminal and live requests in arrival order, every kind covered."""
    rng = random.Random(seed)
    kinds = [f"reject:{code}" for code in OUTCOME_CODES]
    kinds += ["hit", "miss", "single-token", "queued", "running", "retry-hit"]
    kinds += rng.choices(
        ["hit", "miss", "single-token", "queued", "running", "reject"],
        weights=[30, 40, 8, 3, 4, 15],
        k=count - len(kinds),
    )
    records = []
    for index, kind in enumerate(kinds):
        generation_len = 1 if kind == "single-token" else rng.choice([2, 8, 32])
        request = Request(
            input_len=rng.randint(1, 96),
            generation_len=generation_len,
            request_id=index,
            padded_len=rng.choice([None, 128]),
        )
        arrival = index * 0.05 + rng.random() * 0.01
        sr = ServingRequest(
            request=request,
            arrival_time=arrival,
            attempt=1 if kind == "retry-hit" else rng.choice([0, 0, 0, 1, 2]),
        )
        records.append(sr)
        if kind == "queued":
            continue
        first = arrival + rng.expovariate(4.0)
        sr.mark_running(arrival + rng.random() * 0.01)
        if kind.startswith("reject"):
            # Some drops happen mid-decode, after a first token.
            if rng.random() < 0.5:
                sr.mark_first_token(first)
            code = kind.split(":")[1] if ":" in kind else rng.choice(OUTCOME_CODES)
            sr.mark_rejected(first + 0.1, "dropped", code=code)
            continue
        if kind in ("hit", "retry-hit"):
            sr.tokens_cached = rng.choice([16, 32])
        sr.mark_first_token(first)
        if kind == "running":
            continue
        sr.tokens_decoded = generation_len
        sr.mark_finished(first + (generation_len - 1) * rng.uniform(0.005, 0.08))
    return records


def splits(records: list[ServingRequest], seed: int) -> list[list[ServingRequest]]:
    """``records`` cut into random consecutive batches (empty ones too)."""
    rng = random.Random(seed)
    batches, start = [], 0
    while start < len(records):
        size = rng.choice([0, 1, 1, 2, 3, 5, 17, 64])
        batches.append(records[start:start + size])
        start += size
    return batches

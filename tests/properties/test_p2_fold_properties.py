"""The fused P² fold against a frozen copy of the per-value update.

:class:`repro.obs.P2Quantile` folds a batch with its marker state in
locals.  Driven through streams of several shapes (heavy tails, many ties,
constant runs, sorted either way), split into random chunks and with
random ``value()`` reads in between, its count, heights, positions and
desired positions must equal those of :class:`tests.frozen_report.FrozenP2`
after every chunk, compared with ``==``.

Run the long slice with ``--hypothesis-profile=long``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import P2Quantile
from tests.frozen_report import FrozenP2, state

QUANTILES = st.sampled_from([0.01, 0.1, 0.5, 0.95, 0.99])

FINITE = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)

#: Latency-like draws: ``-log(u)`` scaled, as in an exponential stream.
EXPONENTIAL = st.lists(
    st.builds(
        lambda u, scale: -scale * math.log(u),
        st.floats(1e-9, 1.0, exclude_max=True),
        st.sampled_from([1e-3, 1.0, 50.0]),
    ),
    max_size=300,
)
SMALL_INTEGERS = st.lists(st.integers(0, 4), max_size=300)
CONSTANT_RUNS = st.lists(
    st.tuples(FINITE, st.integers(1, 40)), max_size=12
).map(lambda runs: [value for value, length in runs for _ in range(length)])
ASCENDING = st.lists(FINITE, max_size=300).map(sorted)
DESCENDING = st.lists(FINITE, max_size=300).map(lambda vs: sorted(vs, reverse=True))

STREAMS = st.one_of(EXPONENTIAL, SMALL_INTEGERS, CONSTANT_RUNS, ASCENDING, DESCENDING)


def same_estimate(fused: P2Quantile, reference: FrozenP2) -> bool:
    a, b = fused.value(), reference.value()
    return a == b or (math.isnan(a) and math.isnan(b))


@given(
    q=QUANTILES,
    values=STREAMS,
    cuts=st.lists(st.integers(0, 40), max_size=30),
    reads=st.lists(st.booleans(), min_size=1, max_size=30),
)
@settings(deadline=None)
def test_chunked_fold_equals_the_per_value_reference(q, values, cuts, reads):
    chunks = []
    start = 0
    for size in cuts:
        chunks.append(values[start:start + size])
        start += size
    chunks.append(values[start:])
    fused = P2Quantile(q)
    reference = FrozenP2(q)
    for index, chunk in enumerate(chunks):
        fused.add_many(chunk)
        for value in chunk:
            reference.add(value)
        if reads[index % len(reads)]:
            # ``value()`` sorts the exact-regime buffer in place.
            assert same_estimate(fused, reference)
        assert state(fused) == state(reference)
    assert same_estimate(fused, reference)


@given(q=QUANTILES, values=STREAMS)
@settings(deadline=None)
def test_add_is_a_one_value_fold(q, values):
    single = P2Quantile(q)
    reference = FrozenP2(q)
    for value in values:
        single.add(value)
        reference.add(value)
    assert state(single) == state(reference)


@given(q=QUANTILES, prefix=st.lists(FINITE, min_size=5, max_size=5), rest=STREAMS)
@settings(deadline=None)
def test_the_sixth_value_sorts_the_buffer_mid_batch(q, prefix, rest):
    # The transition out of the exact regime falls inside one batch.
    fused = P2Quantile(q)
    reference = FrozenP2(q)
    fused.add_many(prefix[:3])
    reference.add_many(prefix[:3])
    fused.add_many(prefix[3:] + rest)
    reference.add_many(prefix[3:] + rest)
    assert state(fused) == state(reference)

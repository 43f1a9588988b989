"""Property-based tests on the partial-aggregate protocol.

The soundness of the whole rewriting scheme rests on two algebraic
facts (Theorems 5 and 6): merging partials over a *disjoint* split
equals aggregating everything at once for all mergeable aggregates, and
for MIN/MAX this still holds when the split *overlaps*.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.builtin import Avg, Count, Max, Min, Stdev, Sum
from repro.errors import ExecutionError

MERGEABLE = [Min(), Max(), Sum(), Count(), Avg(), Stdev()]
OVERLAP_SAFE = [Min(), Max()]

values_strategy = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


def _partial_of(agg, values):
    return agg.reduce_stack(agg.lift(np.asarray(values, dtype=np.float64)))


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    """Tolerant comparison for finalized aggregates.

    The absolute tolerance scales with the input magnitude: STDEV's
    ``sumsq - sum²/n`` finalization cancels catastrophically when the
    true deviation is ~0, leaving noise of order ``ulp(n·v²)`` whose
    square root is proportional to ``v`` — a fixed absolute tolerance
    rejects mathematically-equal merges of large equal values.
    """
    if math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(
        a, b, rel_tol=1e-9, abs_tol=1e-6 * max(1.0, scale)
    )


def _scale(values) -> float:
    return max((abs(v) for v in values), default=1.0)


@pytest.mark.parametrize("agg", MERGEABLE, ids=lambda a: a.name)
@given(values=values_strategy, split=st.integers(0, 40))
@settings(max_examples=60)
def test_theorem_5_disjoint_partition(agg, values, split):
    """f(T) == merge(f(T1), f(T2)) for any disjoint split of T."""
    split = min(split, len(values))
    left, right = values[:split], values[split:]
    whole = agg.compute(values)
    if not left:
        merged = _partial_of(agg, right)
    elif not right:
        merged = _partial_of(agg, left)
    else:
        merged = agg.combine(_partial_of(agg, left), _partial_of(agg, right))
    assert _close(float(agg.finalize(merged)), whole, _scale(values))


@pytest.mark.parametrize("agg", OVERLAP_SAFE, ids=lambda a: a.name)
@given(
    values=values_strategy,
    lo=st.integers(0, 39),
    hi=st.integers(1, 40),
)
@settings(max_examples=60)
def test_theorem_6_overlapping_partition(agg, values, lo, hi):
    """MIN/MAX survive merging over overlapping pieces."""
    lo, hi = min(lo, len(values) - 1), max(1, min(hi, len(values)))
    if lo >= hi:
        lo, hi = 0, len(values)
    left = values[:hi]          # overlap: values[lo:hi] shared
    right = values[lo:]
    merged = agg.combine(_partial_of(agg, left), _partial_of(agg, right))
    assert _close(
        float(agg.finalize(merged)), agg.compute(values), _scale(values)
    )


@pytest.mark.parametrize("agg", MERGEABLE, ids=lambda a: a.name)
@given(values=values_strategy)
@settings(max_examples=40)
def test_combine_is_commutative(agg, values):
    half = len(values) // 2
    if half == 0:
        return
    pa = _partial_of(agg, values[:half])
    pb = _partial_of(agg, values[half:])
    ab = agg.combine(pa, pb)
    ba = agg.combine(pb, pa)
    assert _close(
        float(agg.finalize(ab)), float(agg.finalize(ba)), _scale(values)
    )


@pytest.mark.parametrize("agg", MERGEABLE, ids=lambda a: a.name)
@given(values=values_strategy)
@settings(max_examples=40)
def test_combine_is_associative(agg, values):
    thirds = max(1, len(values) // 3)
    parts = [values[:thirds], values[thirds : 2 * thirds], values[2 * thirds :]]
    parts = [p for p in parts if p]
    if len(parts) < 3:
        return
    pa, pb, pc = (_partial_of(agg, p) for p in parts)
    left = agg.combine(agg.combine(pa, pb), pc)
    right = agg.combine(pa, agg.combine(pb, pc))
    assert _close(
        float(agg.finalize(left)), float(agg.finalize(right)), _scale(values)
    )


@pytest.mark.parametrize("agg", MERGEABLE, ids=lambda a: a.name)
@given(values=values_strategy)
@settings(max_examples=40)
def test_segment_reduce_matches_per_segment_compute(agg, values):
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 4, len(values))
    comps = agg.segment_reduce(
        codes, np.asarray(values, dtype=np.float64), 4
    )
    finalized = agg.finalize(comps)
    for segment in range(4):
        expected = agg.compute(
            [v for v, c in zip(values, codes) if c == segment]
        )
        assert _close(
            float(np.asarray(finalized)[segment]), expected, _scale(values)
        )


_FOLD = {np.add: operator.add, np.minimum: min, np.maximum: max}

segments_strategy = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.floats(allow_nan=False, allow_infinity=True, width=64),
    ),
    max_size=60,
)


def _left_fold(agg, codes, values, num_segments):
    """Per-segment Python fold of the lifted values, in input order."""
    lifted = agg.lift(np.asarray(values, dtype=np.float64))
    out = []
    for ufunc, comp, ident in zip(
        agg.component_ufuncs, lifted, agg.identity_components
    ):
        slots = [float(ident)] * num_segments
        for code, item in zip(codes, comp.tolist()):
            slots[code] = _FOLD[ufunc](slots[code], item)
        out.append(slots)
    return out


@pytest.mark.parametrize("agg", MERGEABLE, ids=lambda a: a.name)
@given(pairs=segments_strategy)
@settings(max_examples=100)
def test_segment_reduce_is_the_left_fold_exactly(agg, pairs):
    """The numeric contract of DESIGN.md §5: each component of each
    segment is the strict left-to-right fold of its values in input
    order from the identity — ``==``, not ``allclose`` — over arbitrary
    float64 (±inf included; inf - inf is NaN on both sides).  Segments
    6 and 7 never receive a value, so the oracle leaves the identity
    there; an empty input returns nothing but identities."""
    codes = np.array([c for c, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.float64)
    with np.errstate(all="ignore"):
        got = agg.segment_reduce(codes, values, 8)
        expected = _left_fold(agg, codes.tolist(), values, 8)
    for comp, slots in zip(got, expected):
        assert comp.dtype == np.float64 and comp.shape == (8,)
        np.testing.assert_array_equal(comp, np.array(slots))


@pytest.mark.parametrize("agg", MERGEABLE, ids=lambda a: a.name)
def test_segment_reduce_accepts_a_read_only_strided_view(agg):
    """The shm-ring case: values borrowed from shared memory arrive as
    a non-writable, non-contiguous view and must only ever be read."""
    rng = np.random.default_rng(3)
    backing = rng.normal(0, 50, 400)
    snapshot = backing.copy()
    values = backing[::2]
    values.flags.writeable = False
    codes = rng.integers(0, 7, values.size)
    got = agg.segment_reduce(codes, values, 7)
    expected = _left_fold(agg, codes.tolist(), values, 7)
    for comp, slots in zip(got, expected):
        np.testing.assert_array_equal(comp, np.array(slots))
    np.testing.assert_array_equal(backing, snapshot)


@pytest.mark.parametrize("code", [-1, 7], ids=["negative", "past-the-end"])
def test_segment_reduce_rejects_out_of_range_codes(code):
    """A code outside ``[0, num_segments)`` used to be a silent wrong
    answer (NumPy path: wrapped to the last slot and overwritten) or an
    out-of-bounds write (C path); now it is an error naming the code
    and the bound, raised before anything is written."""
    with pytest.raises(ExecutionError, match=rf"{code} .*\[0, 3\)"):
        Sum().segment_reduce(
            np.array([0, code, 2]), np.array([1.0, 2.0, 4.0]), 3
        )


@pytest.mark.parametrize("agg", MERGEABLE, ids=lambda a: a.name)
@given(
    cells=st.lists(
        st.sampled_from([0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan]),
        min_size=1,
        max_size=24,
    )
)
@settings(max_examples=60)
def test_finalize_owned_is_finalize_bit_for_bit(agg, cells):
    """An owned block finalizes to ``finalize``'s bits, empty cells
    (``±inf`` for MIN/MAX, a zero count) included; ``finalize`` writes
    into nothing it is handed."""
    rows = np.asarray(cells, dtype=np.float64).reshape(1, -1)
    components = tuple(rows.copy() for _ in range(agg.num_components))
    before = [c.copy() for c in components]
    with np.errstate(invalid="ignore"):  # AVG of inf / inf
        want = np.asarray(agg.finalize(components), dtype=np.float64)
        owned = tuple(c.copy() for c in components)
        got = np.asarray(agg.finalize_owned(owned), dtype=np.float64)
    for comp, kept in zip(components, before):
        assert comp.view(np.int64).tolist() == kept.view(np.int64).tolist()
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

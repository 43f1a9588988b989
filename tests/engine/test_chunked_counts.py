"""The chunked operators equal the oracle, answer for answer and count
for count, at every chunking.

A session flush and the ``streaming-chunked`` executor run the same
operators chunk by chunk (every absorber absorbs, every operator
advances, providers first).  How the stream is cut may change neither
an answer nor a count:

* against the per-event oracle (``oracle_streaming``): every window's
  results bit for bit (whole-number values, so no fold order can show)
  and ``pairs_per_window`` exactly, at any chunking;
* against the one-chunk ``columnar-panes`` run: ``physical_per_window``
  and ``events_binned``, which the oracle does not count and which do
  not depend on how the stream is cut — and both against their closed
  form (a raw read folds ``r/p`` panes per instance and bins the events
  its instances read; every other window touches its logical pairs);
* with mid-stream ``cap_instances`` (a plan switch's drain): a capped
  operator's instances below the cap still equal the oracle's, the rest
  stay NaN.

The one-call holistic close (``repro_close_holistic``) must equal the
NumPy close bit for bit, NaN values, empty segments and ±0.0 included
(its sorting networks may leave ``-0.0`` and ``0.0`` in either order,
which no closed form can see: checked exhaustively).  The mergeable
folds in C — the raw operator's pane absorb and the covering-set fold
— must equal their NumPy bodies in every bit but a NaN's sign, for
every aggregate that declares ``native_components``: on Gaussian
values with NaN, ±0.0 and ±inf, at fold widths 1, 2, 24 and 25, over
column-cut partials, and at any chunking; a key outside the pane store
raises under both settings before anything is written.  The module
runs under NumPy in tier-1 and under ``REPRO_KERNELS=require`` in CI's
``kernels`` job; the kernel-against-NumPy cases skip without a
compiler.
"""

from __future__ import annotations

import itertools
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_streaming
from repro import _kernels as kernels
from repro.aggregates.builtin import Quantile, _segment_quantile
from repro.aggregates.extra import GeometricMean, Range, SumOfSquares
from repro.aggregates.registry import (
    AVG, COUNT, COUNT_DISTINCT, MAX, MEDIAN, MIN, STDEV, SUM,
)
from repro.core.optimizer import min_cost_wcg_with_factors, optimize
from repro.core.rewrite import rewrite_plan
from repro.engine.columnar import (
    fold_covering_sets, holistic_close, num_complete_instances,
)
from repro.engine.events import make_batch
from repro.engine.executor import execute_plan
from repro.engine.panes import pane_width
from repro.engine.streaming import ChunkedStreamingExecutor
from repro.errors import ExecutionError
from repro.plans.builder import original_plan
from repro.windows.coverage import CoverageSemantics
from repro.windows.window import Window, WindowSet

HORIZON = 240
RANGE, SUMSQ, GEOMEAN = Range(), SumOfSquares(), GeometricMean()
QUANTILE_90 = Quantile(0.9)
AGGREGATES = {"min": MIN, "sum": SUM, "avg": AVG, "median": MEDIAN}


@st.composite
def windows(draw):
    """Two to four windows with ``r % s == 0`` on a shared slide grid."""
    out = set()
    for _ in range(draw(st.integers(2, 4))):
        slide = draw(st.sampled_from([2, 3, 4, 6, 8, 12]))
        out.add(Window(slide * draw(st.integers(1, 4)), slide))
    return WindowSet(sorted(out))


@st.composite
def plans(draw):
    aggregate = AGGREGATES[draw(st.sampled_from(sorted(AGGREGATES)))]
    window_set = draw(windows())
    if aggregate.mergeable and draw(st.booleans()):
        gmin, _ = min_cost_wcg_with_factors(
            window_set, CoverageSemantics.PARTITIONED_BY
        )
        return rewrite_plan(gmin, aggregate)
    return original_plan(window_set, aggregate)


@st.composite
def batches(draw):
    n = draw(st.integers(0, 300))
    num_keys = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    return make_batch(
        np.sort(rng.integers(0, HORIZON - 1, n)),
        rng.integers(-20, 20, n).astype(np.float64),
        keys=rng.integers(0, num_keys, n),
        num_keys=num_keys,
        horizon=HORIZON,
    )


def _modelled_physical(plan, batch, logical) -> "tuple[dict, int]":
    """``(physical_per_window, events_binned)`` in closed form."""
    physical, binned = {}, 0
    for node in plan.window_nodes():
        window = node.window
        touches = logical.get(window, 0)
        if node.provider is None and node.aggregate.mergeable:
            count = num_complete_instances(window, batch.horizon)
            pane = pane_width(window)
            touches = batch.num_keys * count * (window.range // pane)
            end = (count - 1) * window.slide + window.range
            binned += int(np.searchsorted(batch.timestamps, end))
        if touches:
            physical[window] = touches
    return physical, binned


def _drive(plan, batch, chunk_ticks, caps):
    """Run ``plan`` chunk by chunk, capping ``caps[chunk] = [(window,
    extra)]`` before that chunk.  Returns ``(results, stats, owned)``
    with each user window's final instance bound."""
    executor = ChunkedStreamingExecutor(plan, batch, chunk_ticks=chunk_ticks)
    by_window = {op.window: op for op in executor._topo}
    chunks = batch.iter_time_chunks(chunk_ticks)
    for index, (_, end, ts, keys, values) in enumerate(chunks):
        for window, extra in caps.get(index, ()):
            op = by_window[window]
            op.cap_instances(op.next_close + extra)
        for op in executor._raw_ops:
            op.absorb(ts, keys, values)
        for op in executor._topo:
            op.advance(end)
    for op in executor._topo:
        op.advance(batch.horizon)
    users = [node.window for node in plan.user_window_nodes()]
    results = {window: by_window[window].results for window in users}
    owned = {window: by_window[window].num_instances for window in users}
    return results, executor.stats, owned


@given(plan=plans(), batch=batches(), chunk_ticks=st.integers(1, 90))
@settings(max_examples=60, deadline=None)
def test_any_chunking_equals_oracle_and_one_chunk_counts(
    plan, batch, chunk_ticks
):
    executor = ChunkedStreamingExecutor(plan, batch, chunk_ticks=chunk_ticks)
    results = executor.run()
    stats = executor.stats
    oracle = oracle_streaming.execute(plan, batch)
    assert set(results) == set(oracle.results)
    for window, want in oracle.results.items():
        np.testing.assert_array_equal(results[window], want)
    assert stats.pairs_per_window == oracle.stats.pairs_per_window
    panes = execute_plan(plan, batch, engine="columnar-panes")
    assert stats.physical_per_window == panes.stats.physical_per_window
    assert stats.events_binned == panes.stats.events_binned
    assert (stats.physical_per_window, stats.events_binned) == (
        _modelled_physical(plan, batch, oracle.stats.pairs_per_window)
    )


@given(
    plan=plans(),
    batch=batches(),
    chunk_ticks=st.integers(1, 90),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_mid_stream_caps_keep_the_owned_prefix(plan, batch, chunk_ticks, data):
    # Only operators nothing reads from may be capped alone: a capped
    # provider would starve its uncapped consumers.
    sinks = sorted(
        node.window
        for node in plan.window_nodes()
        if not any(other.provider == node.window for other in plan.window_nodes())
    )
    chunks = max(1, -(-batch.horizon // chunk_ticks))
    caps = data.draw(
        st.dictionaries(
            st.integers(0, chunks - 1),
            st.lists(
                st.tuples(st.sampled_from(sinks), st.integers(0, 5)),
                max_size=2,
            ),
            max_size=3,
        )
    )
    got, _, owned = _drive(plan, batch, chunk_ticks, caps)
    oracle = oracle_streaming.execute(plan, batch)
    for window, values in got.items():
        cap = owned[window]
        np.testing.assert_array_equal(
            values[:, :cap], oracle.results[window][:, :cap]
        )
        assert np.isnan(values[:, cap:]).all()


# ---------------------------------------------------------------------
# The one-call holistic close
# ---------------------------------------------------------------------
@st.composite
def retained(draw):
    """Unsorted retained events with NaNs, repeats and empty segments."""
    n = draw(st.integers(0, 200))
    num_keys = draw(st.integers(1, 4))
    slide = draw(st.sampled_from([1, 2, 5]))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ts = rng.integers(0, 60, n).astype(np.int64)
    values = rng.integers(0, 6, n).astype(np.float64)
    values[rng.random(n) < 0.1] = np.nan
    m0 = draw(st.integers(0, 60 // slide))
    m1 = m0 + draw(st.integers(1, 12))
    keys = rng.integers(0, num_keys, n).astype(np.int64)
    return ts, keys, values, Window(slide * k, slide), m0, m1, num_keys


@pytest.mark.skipif(
    not kernels.available(), reason="compiled kernels unavailable"
)
@given(case=retained(), aggregate=st.sampled_from([MEDIAN, COUNT_DISTINCT]))
@settings(max_examples=150, deadline=None)
def test_one_call_close_is_the_numpy_close_bit_for_bit(case, aggregate):
    ts, keys, values, window, m0, m1, num_keys = case
    with mock.patch.dict(os.environ, {"REPRO_KERNELS": "0"}):
        want, want_pairs = holistic_close(
            ts, keys, values, window, m0, m1, num_keys, aggregate
        )
    got, got_pairs = kernels.holistic_close(
        ts, keys, values, window.slide, window.instances_per_event,
        m0, m1, num_keys, aggregate,
    )
    assert got_pairs == want_pairs
    assert got.shape == want.shape == (num_keys, m1 - m0)
    np.testing.assert_array_equal(got, want)  # NaN == NaN here
    assert np.array_equal(np.isnan(got), np.isnan(want))


# ---------------------------------------------------------------------
# The mergeable folds in C: bit for bit against NumPy, edge values too
# ---------------------------------------------------------------------
MERGEABLE = {
    "min": MIN, "max": MAX, "sum": SUM, "count": COUNT, "avg": AVG,
    "stdev": STDEV, "range": RANGE, "sumsq": SUMSQ,
}
EDGE_VALUES = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf])
needs_kernels = pytest.mark.skipif(
    not kernels.available(), reason="compiled kernels unavailable"
)
#: NaN and ±inf in the folds make NumPy warn; the values are the point.
edge_values = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _bits(array) -> np.ndarray:
    """Every bit of every value — except which NaN: NumPy's own loops
    return either operand's NaN by layout (``np.add`` of ``[nan,
    -nan]`` gives ``-nan`` through a 2-D strided loop and ``nan``
    through the 1-D one), so no fold order fixes it."""
    array = np.asarray(array, dtype=np.float64)
    return np.where(np.isnan(array), np.nan, array).view(np.int64)


def _kernels(mode: str):
    """Run the block under ``REPRO_KERNELS=mode``."""
    return mock.patch.dict(os.environ, {"REPRO_KERNELS": mode})


def _edge_stream(rng, n, num_keys, horizon):
    """Gaussian real values (a reordered or fused add moves their last
    bits), with NaN, ±0.0 and ±inf sprinkled in."""
    values = rng.normal(0.0, 100.0, n)
    mask = rng.random(n) < 0.08
    values[mask] = rng.choice(EDGE_VALUES, int(mask.sum()))
    return make_batch(
        np.sort(rng.integers(0, horizon - 1, n)),
        values,
        keys=rng.integers(0, num_keys, n),
        num_keys=num_keys,
        horizon=horizon,
    )


def test_native_components_are_the_aggregates_own_fold():
    """The ``(op, lift)`` an aggregate declares is its ufunc and its
    lift, bit for bit; GEOMEAN's ``log`` lift declares none."""
    ops = {"add": np.add, "min": np.minimum, "max": np.maximum}
    values = np.concatenate(
        (np.random.default_rng(0).normal(0, 9, 50), EDGE_VALUES)
    )
    lifts = {
        "value": values,
        "square": values * values,
        "one": np.ones_like(values),
    }
    for aggregate in MERGEABLE.values():
        declared = aggregate.native_components
        assert [ops[op] for op, _ in declared] == list(
            aggregate.component_ufuncs
        )
        for (_, lift), component in zip(declared, aggregate.lift(values)):
            np.testing.assert_array_equal(
                _bits(lifts[lift]), _bits(component)
            )
    assert GEOMEAN.native_components is None
    assert MEDIAN.native_components is None


@edge_values
@needs_kernels
@pytest.mark.parametrize("width", [1, 2, 3, 24, 25])
@pytest.mark.parametrize("ufunc", [np.add, np.minimum, np.maximum])
def test_fold_kernel_is_the_numpy_passes_bit_for_bit(ufunc, width):
    rng = np.random.default_rng(width)
    table = rng.normal(0.0, 100.0, (5, 400))
    table[rng.random(table.shape) < 0.05] = np.nan
    for value in EDGE_VALUES[1:]:
        table[rng.random(table.shape) < 0.05] = value
    # A column cut of the table, as a consumer's partials are after a
    # close (rows lie 400 apart, the view starts mid-row), and one of a
    # column-major copy, which the kernel hands back to the NumPy passes.
    cuts = (table[:, 7:], np.asfortranarray(table)[:, 7:])
    for comp, stride in itertools.product(cuts, (1, 2, width + 3)):
        count = (comp.shape[1] - 5 - width) // stride + 1
        with _kernels("0"):
            want = fold_covering_sets(ufunc, comp, 5, stride, width, count)
        with _kernels("require"):
            got = fold_covering_sets(ufunc, comp, 5, stride, width, count)
        assert got.shape == want.shape == (5, count)
        np.testing.assert_array_equal(_bits(got), _bits(want))
        assert not np.shares_memory(got, table)


@edge_values
@needs_kernels
@pytest.mark.parametrize("name", sorted(MERGEABLE))
@pytest.mark.parametrize("engine", ["columnar-panes", "streaming-chunked"])
def test_pane_engine_is_one_answer_under_every_kernel_setting(name, engine):
    """Raw absorbs and every fold — instance widths 1, 2, 24 and 25 (the
    last one NumPy's reduce on both sides), provider reads over column
    cuts at many chunk ends — match bit for bit with the kernels on and
    off, on real values with NaN, ±0.0 and ±inf in them."""
    aggregate = MERGEABLE[name]
    windows = WindowSet(
        [
            Window(10, 10), Window(20, 10), Window(240, 10),
            Window(250, 10), Window(60, 20), Window(120, 40),
        ]
    )
    batch = _edge_stream(np.random.default_rng(7), 6000, 3, 3000)
    rewritten = rewrite_plan(optimize(windows, aggregate).best, aggregate)
    for plan in (original_plan(windows, aggregate), rewritten):
        with _kernels("0"):
            want = execute_plan(plan, batch, engine=engine)
        with _kernels("require"):
            got = execute_plan(plan, batch, engine=engine)
        assert set(got.results) == set(want.results)
        for window, values in want.results.items():
            np.testing.assert_array_equal(
                _bits(got.results[window]), _bits(values)
            )
        assert got.stats.pairs_per_window == want.stats.pairs_per_window
        assert (
            got.stats.physical_per_window == want.stats.physical_per_window
        )


@edge_values
@needs_kernels
@given(
    plan=plans(), chunk_ticks=st.integers(1, 90), seed=st.integers(0, 2**16)
)
@settings(max_examples=40, deadline=None)
def test_any_chunking_is_one_answer_under_every_kernel_setting(
    plan, chunk_ticks, seed
):
    batch = _edge_stream(np.random.default_rng(seed), 300, 3, HORIZON)
    with _kernels("0"):
        want = ChunkedStreamingExecutor(plan, batch, chunk_ticks).run()
    with _kernels("require"):
        got = ChunkedStreamingExecutor(plan, batch, chunk_ticks).run()
    for window, values in want.items():
        np.testing.assert_array_equal(_bits(got[window]), _bits(values))


@pytest.mark.parametrize("mode", ["0", "require"])
@pytest.mark.parametrize("key", [-1, 2])
def test_a_key_outside_the_store_raises_before_any_write(mode, key):
    if mode == "require" and not kernels.available():
        pytest.skip("compiled kernels unavailable")
    plan = original_plan(WindowSet([Window(20, 10)]), AVG)
    batch = make_batch(
        [1, 5, 9], [1.0, 2.0, 3.0], keys=[0, 1, 1], num_keys=2, horizon=40
    )
    (op,) = ChunkedStreamingExecutor(plan, batch, chunk_ticks=40)._raw_ops
    op.absorb(np.array([0, 3]), np.array([0, 1]), np.array([1.5, 2.5]))
    before = [buf.copy() for buf in op._store]
    ts = np.array([4, 6, 7], dtype=np.int64)
    keys = np.array([1, key, 0], dtype=np.int64)
    with _kernels(mode), pytest.raises(
        ExecutionError, match="outside the pane store"
    ):
        op.absorb(ts, keys, np.array([1.0, 2.0, 3.0]))
    for buf, old in zip(op._store, before):
        np.testing.assert_array_equal(_bits(buf), _bits(old))


# ---------------------------------------------------------------------
# The holistic close's small-segment sorting networks
# ---------------------------------------------------------------------
def _zero_orders(sorted_values: np.ndarray):
    """Every arrangement of a sorted segment's zeros' signs over their
    positions: the orders an unstable sort may leave ``-0.0`` and
    ``0.0`` in."""
    zeros = np.flatnonzero(sorted_values == 0)
    negative = int(np.signbit(sorted_values[zeros]).sum())
    for chosen in itertools.combinations(range(zeros.size), negative):
        arranged = sorted_values.copy()
        arranged[zeros] = 0.0
        arranged[zeros[list(chosen)]] = -0.0
        yield arranged


@edge_values
@pytest.mark.parametrize("length", range(1, 8))
def test_zero_sign_order_cannot_change_a_quantile_or_count_distinct(length):
    """The sort behind the holistic close may leave ``-0.0`` and ``0.0``
    in any order (a sorting network is not stable): every closed form
    reads the same bits from every such order.  Exhaustive over the
    segments of ``length`` values drawn from a pool with both zeros."""
    pool = np.array([-1.5, -0.0, 0.0, 0.0, 2.0, np.nan])
    qs = (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9, 1.0)
    seen = set()
    draws = itertools.combinations_with_replacement(range(pool.size), length)
    for combo in draws:
        values = np.sort(pool[list(combo)])  # NaN last, zeros in a run
        key = tuple(_bits(values))
        if key in seen:
            continue
        seen.add(key)
        starts, ends = np.array([0]), np.array([length])
        results = [
            np.concatenate(
                [_segment_quantile(order, starts, ends, q) for q in qs]
                + [COUNT_DISTINCT.segment_compute(order, starts, ends)]
            )
            for order in _zero_orders(values)
        ]
        for result in results[1:]:
            np.testing.assert_array_equal(_bits(result), _bits(results[0]))


@edge_values
@needs_kernels
@given(
    case=retained(),
    aggregate=st.sampled_from([MEDIAN, QUANTILE_90, COUNT_DISTINCT]),
)
@settings(max_examples=100, deadline=None)
def test_one_call_close_keeps_zero_signs_bit_for_bit(case, aggregate):
    """Segments of a few values take a sorting network; with ±0.0 among
    them the close still equals the stable NumPy close in every bit."""
    ts, keys, values, window, m0, m1, num_keys = case
    values = np.select([values == 1.0, values == 2.0], [-0.0, 0.0], values)
    with _kernels("0"):
        want, want_pairs = holistic_close(
            ts, keys, values, window, m0, m1, num_keys, aggregate
        )
    got, got_pairs = kernels.holistic_close(
        ts, keys, values, window.slide, window.instances_per_event,
        m0, m1, num_keys, aggregate,
    )
    assert got_pairs == want_pairs
    np.testing.assert_array_equal(_bits(got), _bits(want))

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
NumPy close bit for bit, NaN values and empty segments included.  The
module runs under NumPy in tier-1 and under ``REPRO_KERNELS=require``
in CI's ``kernels`` job.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_streaming
from repro import _kernels as kernels
from repro.aggregates.registry import AVG, COUNT_DISTINCT, MEDIAN, MIN, SUM
from repro.core.optimizer import min_cost_wcg_with_factors
from repro.core.rewrite import rewrite_plan
from repro.engine.columnar import holistic_close, num_complete_instances
from repro.engine.events import make_batch
from repro.engine.executor import execute_plan
from repro.engine.panes import pane_width
from repro.engine.streaming import ChunkedStreamingExecutor
from repro.plans.builder import original_plan
from repro.windows.coverage import CoverageSemantics
from repro.windows.window import Window, WindowSet

HORIZON = 240
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

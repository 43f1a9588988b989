"""Tests for the pane arithmetic and the one pane engine: the chunked
operators give one answer at any chunk size, ``columnar-panes`` being
the size "whole batch"."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_logical_pairs as oracle
from repro.aggregates.registry import (
    AVG,
    COUNT,
    MAX,
    MEDIAN,
    MIN,
    STDEV,
    SUM,
)
from repro.core.optimizer import optimize
from repro.core.rewrite import rewrite_plan
from repro.engine.columnar import FOLD_PASSES_MAX_WIDTH, aggregate_raw
from repro.engine.events import make_batch
from repro.engine.executor import (
    ExecutionResult,
    execute_plan,
    results_equal,
)
from repro.engine.panes import logical_raw_pairs, pane_width
from repro.engine.stats import ExecutionStats
from repro.engine.streaming import (
    ChunkedStreamingExecutor,
    _ChunkedRawOperator,
    _ChunkedSubAggOperator,
)
from repro.errors import ExecutionError
from repro.plans.builder import original_plan
from repro.windows.window import Window, WindowSet


@pytest.fixture
def batch():
    rng = np.random.default_rng(5)
    n = 400
    return make_batch(
        np.sort(rng.integers(0, 250, n)),
        rng.normal(0, 10, n),
        keys=rng.integers(0, 3, n),
        num_keys=3,
        horizon=250,
    )


class TestPaneWidth:
    def test_tumbling_pane_is_range(self):
        assert pane_width(Window(20, 20)) == 20

    def test_hopping_pane_is_gcd(self):
        assert pane_width(Window(30, 12)) == 6
        assert pane_width(Window(20, 10)) == 10

    def test_coprime_pane_is_one(self):
        assert pane_width(Window(7, 3)) == 1


class TestLogicalRawPairs:
    @pytest.mark.parametrize(
        "window",
        [Window(10, 10), Window(20, 10), Window(30, 5), Window(12, 4)],
    )
    def test_matches_materialized_count(self, batch, window):
        stats = ExecutionStats()
        aggregate_raw(batch, window, MIN, stats)
        from repro.engine.columnar import num_complete_instances

        n_inst = num_complete_instances(window, batch.horizon)
        assert (
            logical_raw_pairs(batch.timestamps, window, n_inst)
            == stats.pairs_per_window[window]
        )

    def test_empty_inputs(self):
        assert logical_raw_pairs(np.empty(0, dtype=np.int64), Window(4, 2), 5) == 0
        assert logical_raw_pairs(np.array([3]), Window(4, 2), 0) == 0

    @given(
        timestamps=st.lists(st.integers(0, 400), max_size=60).map(
            lambda ts: np.array(sorted(ts), dtype=np.int64)
        ),
        slide=st.integers(1, 12),
        k=st.integers(1, 6),
        num_instances=st.one_of(st.none(), st.just(0), st.integers(1, 80)),
        start_instance=st.integers(0, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_per_event_oracle(
        self, timestamps, slide, k, num_instances, start_instance
    ):
        """Invariant 6 rests on these counts: the two binary searches
        must equal the per-event formula exactly, over tumbling
        (``k = 1``) and hopping windows, bounded, empty and unbounded
        instance ranges, and operators activated mid-stream."""
        window = Window(k * slide, slide)
        assert logical_raw_pairs(
            timestamps, window, num_instances, start_instance
        ) == oracle.logical_raw_pairs(
            timestamps, window, num_instances, start_instance
        )


class _Partials:
    """A consumer that keeps the component blocks its provider emits."""

    def __init__(self):
        self.blocks = []

    def accept_block(self, m0, m1, components):
        self.blocks.append(components)

    def components(self):
        return [np.concatenate(parts, axis=1) for parts in zip(*self.blocks)]


class TestRawOperatorFedOneChunk:
    """What ``aggregate_raw_panes`` was: the raw operator handed the
    whole batch is a drop-in for :func:`aggregate_raw`."""

    @pytest.mark.parametrize("aggregate", [MIN, MAX, SUM, AVG])
    @pytest.mark.parametrize(
        "window", [Window(10, 10), Window(20, 10), Window(45, 15)]
    )
    def test_state_matches_aggregate_raw(self, batch, window, aggregate):
        reference = aggregate_raw(batch, window, aggregate)
        sink = _Partials()
        op = _ChunkedRawOperator(
            window, aggregate, batch.num_keys, reference.num_instances,
            ExecutionStats(),
        )
        op.consumers.append(sink)
        op.absorb(batch.timestamps, batch.keys, batch.values)
        op.advance(batch.horizon)
        assert op.drained
        for ref, got in zip(reference.components, sink.components()):
            np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_logical_pairs_match_physical_smaller(self, batch):
        window = Window(60, 5)  # k = 12
        plan = original_plan(WindowSet([window]), MIN)
        columnar = execute_plan(plan, batch, engine="columnar")
        panes = execute_plan(plan, batch, engine="columnar-panes")
        assert (
            panes.stats.pairs_per_window[window]
            == columnar.stats.pairs_per_window[window]
        )
        assert panes.stats.total_physical < columnar.stats.total_physical

    def test_each_raw_read_bins_its_own_events_once(self, batch):
        """No pane table is shared between raw reads (none of the
        ledger's eight plans had two reads of one pane width): every
        raw operator bins the events its owned instances read, once."""
        plan = original_plan(WindowSet([Window(20, 10), Window(40, 10)]), MIN)
        result = execute_plan(plan, batch, engine="columnar-panes")
        assert result.stats.events_binned == 2 * batch.num_events


def test_closing_past_the_providers_frontier_is_an_engine_error():
    """An ``ExecutionError`` naming the missing provider instance, not a
    bare NumPy ``IndexError`` from outside the ``ReproError`` hierarchy
    (the fold's own bound check is pinned in ``test_columnar.py``)."""
    consumer = _ChunkedSubAggOperator(
        Window(10, 10), Window(20, 20), MIN, 1, None, ExecutionStats()
    )
    consumer.accept_block(0, 3, (np.zeros((1, 3)),))
    with pytest.raises(ExecutionError, match="needs provider instance 3"):
        consumer.advance(40)


MERGEABLE = [MIN, MAX, SUM, COUNT, AVG, STDEV]
ORDER_FREE = {"min", "max", "count"}
WINDOWS = WindowSet(
    [Window(10, 10), Window(20, 10), Window(30, 15), Window(60, 20)]
)
HORIZON = 250
CHUNKINGS = {
    "tick": 1,
    "odd": 7,
    "max-range": 60,
    "horizon": HORIZON,
    "past-horizon": 10 * HORIZON,
}


def _stream(whole: bool, n: int = 400):
    rng = np.random.default_rng(5)
    values = rng.integers(-50, 50, n) if whole else rng.normal(0, 10, n)
    return make_batch(
        np.sort(rng.integers(0, HORIZON, n)),
        values.astype(np.float64),
        keys=rng.integers(0, 3, n),
        num_keys=3,
        horizon=HORIZON,
    )


def _plans(aggregate, windows=WINDOWS):
    plans = [original_plan(windows, aggregate)]
    if aggregate.mergeable:
        plans.append(rewrite_plan(optimize(windows, aggregate).best, aggregate))
    return plans


def _run_chunked(plan, batch, chunk_ticks):
    executor = ChunkedStreamingExecutor(plan, batch, chunk_ticks=chunk_ticks)
    return ExecutionResult(plan, executor.run(), executor.stats)


class TestAnyChunkingOneAnswer:
    """``columnar-panes`` and ``streaming-chunked`` are one engine at two
    chunk sizes, so every chunk size must tell the ``columnar`` story:
    bit for bit where the fold order cannot matter, and bit for bit with
    ``columnar-panes`` on any values at every chunk size, because every
    chunk is scattered into the same pane store in input order and
    folded the same way."""

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    @pytest.mark.parametrize(
        "aggregate", MERGEABLE + [MEDIAN], ids=lambda a: a.name
    )
    def test_whole_number_streams_are_bit_identical_to_columnar(
        self, aggregate, chunking
    ):
        batch = _stream(whole=True)
        for plan in _plans(aggregate):
            reference = execute_plan(plan, batch, engine="columnar")
            chunked = _run_chunked(plan, batch, CHUNKINGS[chunking])
            assert set(chunked.results) == set(reference.results)
            for window, want in reference.results.items():
                np.testing.assert_array_equal(chunked.results[window], want)
            assert (
                chunked.stats.pairs_per_window
                == reference.stats.pairs_per_window
            )

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    @pytest.mark.parametrize(
        "aggregate", MERGEABLE + [MEDIAN], ids=lambda a: a.name
    )
    def test_real_valued_streams(self, aggregate, chunking):
        batch = _stream(whole=False)
        chunk_ticks = CHUNKINGS[chunking]
        for plan in _plans(aggregate):
            reference = execute_plan(plan, batch, engine="columnar")
            panes = execute_plan(plan, batch, engine="columnar-panes")
            chunked = _run_chunked(plan, batch, chunk_ticks)
            assert results_equal(reference, chunked)
            assert (
                chunked.stats.pairs_per_window
                == reference.stats.pairs_per_window
            )
            for window, got in chunked.results.items():
                if aggregate.name in ORDER_FREE or not aggregate.mergeable:
                    np.testing.assert_array_equal(
                        got, reference.results[window]
                    )
                np.testing.assert_array_equal(got, panes.results[window])
            assert (
                chunked.stats.physical_per_window
                == panes.stats.physical_per_window
            )
            assert chunked.stats.events_binned == panes.stats.events_binned

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    @pytest.mark.parametrize(
        "aggregate", [SUM, AVG, STDEV], ids=lambda a: a.name
    )
    def test_covering_sets_wider_than_the_passes(self, aggregate, chunking):
        """Folds wider than ``FOLD_PASSES_MAX_WIDTH`` reduce a strided
        view; NumPy's reduce of one contiguous set does not depend on
        how many sets a close folds at once, so the answer is still one
        at every chunking — for 50 and 60 panes per instance, and for
        consumers reading 50 and 60 provider partials."""
        batch = _stream(whole=False)
        windows = WindowSet([Window(100, 2), Window(120, 4)])
        assert 100 // 2 > FOLD_PASSES_MAX_WIDTH
        for plan in _plans(aggregate, windows):
            panes = execute_plan(plan, batch, engine="columnar-panes")
            chunked = _run_chunked(plan, batch, CHUNKINGS[chunking])
            assert set(chunked.results) == set(panes.results)
            for window, got in chunked.results.items():
                np.testing.assert_array_equal(got, panes.results[window])

    @pytest.mark.parametrize("horizon", [0, 5, HORIZON], ids="h{}".format)
    @pytest.mark.parametrize("engine", ["columnar-panes", "streaming-chunked"])
    @pytest.mark.parametrize("aggregate", [SUM, MEDIAN], ids=lambda a: a.name)
    def test_empty_batch_and_short_horizons(self, aggregate, engine, horizon):
        """No event, and horizons that close nothing (0) or only some
        windows (5 < every range): shapes and the empty value still
        match ``columnar``."""
        empty = make_batch([], [], horizon=horizon, num_keys=2)
        plan = original_plan(WINDOWS, aggregate)
        reference = execute_plan(plan, empty, engine="columnar")
        got = execute_plan(plan, empty, engine=engine)
        assert set(got.results) == set(reference.results)
        for window, want in reference.results.items():
            assert got.results[window].shape == want.shape
            np.testing.assert_array_equal(got.results[window], want)
        assert got.stats.total_pairs == 0

    def test_empty_batch(self):
        empty = make_batch([], [], horizon=50, num_keys=2)
        plan = original_plan(WindowSet([Window(10, 10)]), SUM)
        result = execute_plan(plan, empty, engine="columnar-panes")
        assert result.results[Window(10, 10)].shape == (2, 5)
        assert (result.results[Window(10, 10)] == 0.0).all()


class TestPanesEngine:
    def test_matches_columnar_results_and_logical_pairs(self, batch):
        plan = original_plan(
            WindowSet([Window(10, 10), Window(20, 10), Window(30, 15)]), AVG
        )
        columnar = execute_plan(plan, batch, engine="columnar")
        panes = execute_plan(plan, batch, engine="columnar-panes")
        assert results_equal(columnar, panes)
        assert columnar.stats.pairs_per_window == panes.stats.pairs_per_window

    def test_physical_fraction_below_one_for_high_k(self):
        n = 5_000
        batch = make_batch(
            np.arange(n), np.sin(np.arange(n) / 7.0), horizon=n
        )
        plan = original_plan(WindowSet([Window(320, 20)]), MIN)  # k = 16
        result = execute_plan(plan, batch, engine="columnar-panes")
        assert result.stats.physical_fraction < 0.25

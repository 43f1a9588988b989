"""Tests for the chunked (vectorized-block) streaming executor."""

import numpy as np
import pytest

import oracle_streaming
from repro.aggregates.registry import AVG, MEDIAN, MIN, SUM
from repro.core.optimizer import min_cost_wcg_with_factors
from repro.core.rewrite import rewrite_plan
from repro.engine.events import make_batch
from repro.engine.executor import (
    ExecutionResult,
    execute_plan,
    results_equal,
)
from repro.engine.streaming import ChunkedStreamingExecutor, _ChunkedRawOperator
from repro.errors import ExecutionError
from repro.plans.builder import original_plan
from repro.windows.coverage import CoverageSemantics
from repro.windows.window import Window, WindowSet


def _run_chunked(plan, batch, chunk_ticks):
    executor = ChunkedStreamingExecutor(plan, batch, chunk_ticks=chunk_ticks)
    return ExecutionResult(plan, executor.run(), executor.stats)


@pytest.fixture
def batch():
    rng = np.random.default_rng(23)
    n = 300
    return make_batch(
        np.sort(rng.integers(0, 200, n)),
        rng.normal(5, 2, n),
        keys=rng.integers(0, 2, n),
        num_keys=2,
        horizon=200,
    )


class TestChunkedMatchesReference:
    @pytest.mark.parametrize("aggregate", [MIN, SUM, AVG])
    @pytest.mark.parametrize("chunk_ticks", [1, 7, 30, 500])
    def test_original_plan_any_chunking(self, batch, aggregate, chunk_ticks):
        plan = original_plan(
            WindowSet([Window(10, 10), Window(20, 10), Window(30, 30)]),
            aggregate,
        )
        reference = execute_plan(plan, batch, engine="columnar")
        chunked = _run_chunked(plan, batch, chunk_ticks)
        assert results_equal(reference, chunked)
        assert (
            reference.stats.pairs_per_window == chunked.stats.pairs_per_window
        )

    def test_factor_plan(self, batch, example7_windows):
        gmin, _ = min_cost_wcg_with_factors(
            example7_windows, CoverageSemantics.PARTITIONED_BY
        )
        plan = rewrite_plan(gmin, MIN)
        reference = oracle_streaming.execute(plan, batch)
        chunked = execute_plan(plan, batch, engine="streaming-chunked")
        assert results_equal(reference, chunked)
        assert (
            reference.stats.pairs_per_window == chunked.stats.pairs_per_window
        )

    def test_holistic_plan(self, batch):
        plan = original_plan(WindowSet([Window(20, 10)]), MEDIAN)
        reference = execute_plan(plan, batch, engine="columnar")
        chunked = execute_plan(plan, batch, engine="streaming-chunked")
        assert results_equal(reference, chunked)

    def test_sparse_stream_with_gaps(self):
        # Long empty stretches: instance closes must not depend on
        # events arriving in every chunk.
        batch = make_batch([3, 150, 151, 490], [1.0, 2.0, 3.0, 4.0], horizon=500)
        plan = original_plan(WindowSet([Window(20, 10)]), SUM)
        reference = execute_plan(plan, batch, engine="columnar")
        chunked = _run_chunked(plan, batch, chunk_ticks=35)
        assert results_equal(reference, chunked)


class TestTwoIndependentReferences:
    """Neither reference runs the pane operators' close: a wrong fold
    there fails against the per-event oracle *and* against
    ``columnar``, each on its own."""

    @pytest.mark.parametrize("aggregate", [MIN, SUM], ids=lambda a: a.name)
    def test_a_corrupted_close_fails_both(
        self, batch, example7_windows, aggregate, monkeypatch
    ):
        gmin, _ = min_cost_wcg_with_factors(
            example7_windows, CoverageSemantics.PARTITIONED_BY
        )
        plan = rewrite_plan(gmin, aggregate)
        oracle = oracle_streaming.execute(plan, batch)
        columnar = execute_plan(plan, batch, engine="columnar")
        clean = execute_plan(plan, batch, engine="streaming-chunked")
        assert results_equal(oracle, clean) and results_equal(columnar, clean)

        close_range = _ChunkedRawOperator._close_range
        corrupted = []

        def corrupt_one_value(operator, m0, m1):
            emit = operator._emit

            def emit_corrupted(m0, m1, components):
                if not corrupted:
                    components = tuple(c.copy() for c in components)
                    components[0][0, 0] = -1e6  # key 0, instance m0
                    corrupted.append((operator.window, m0))
                emit(m0, m1, components)

            operator._emit = emit_corrupted
            try:
                close_range(operator, m0, m1)
            finally:
                del operator._emit

        monkeypatch.setattr(
            _ChunkedRawOperator, "_close_range", corrupt_one_value
        )
        mutant = execute_plan(plan, batch, engine="streaming-chunked")
        assert corrupted
        assert not results_equal(oracle, mutant)
        assert not results_equal(columnar, mutant)


class TestBoundedState:
    def test_open_state_is_bounded_in_stream_length(self):
        # Identical window set, growing stream: the high-water mark of
        # retained state must not grow with the horizon.
        window = Window(40, 10)  # panes of 10, r/p = 4
        marks = []
        for n in (500, 2_000, 8_000):
            batch = make_batch(
                np.arange(n), np.sin(np.arange(n) / 3.0), horizon=n
            )
            plan = original_plan(WindowSet([window]), MIN)
            executor = ChunkedStreamingExecutor(plan, batch, chunk_ticks=50)
            executor.run()
            marks.append(executor.max_retained_state())
        assert marks[0] == marks[1] == marks[2]
        # r/p panes for open instances + chunk/p panes in flight.
        assert marks[0] <= 40 // 10 + 50 // 10 + 1

    def test_subagg_state_is_bounded(self, example7_windows):
        gmin, _ = min_cost_wcg_with_factors(
            example7_windows, CoverageSemantics.PARTITIONED_BY
        )
        plan = rewrite_plan(gmin, MIN)
        marks = []
        for n in (600, 4_800):
            batch = make_batch(
                np.arange(n), np.cos(np.arange(n) / 5.0), horizon=n
            )
            executor = ChunkedStreamingExecutor(plan, batch, chunk_ticks=60)
            executor.run()
            marks.append(executor.max_retained_state())
        assert marks[0] == marks[1]

    def test_holistic_event_buffer_is_bounded(self):
        window = Window(30, 10)
        marks = []
        for n in (300, 3_000):
            batch = make_batch(
                np.arange(n), np.sin(np.arange(n)), horizon=n
            )
            plan = original_plan(WindowSet([window]), MEDIAN)
            executor = ChunkedStreamingExecutor(plan, batch, chunk_ticks=40)
            executor.run()
            marks.append(executor.max_retained_state())
        assert marks[0] == marks[1]
        assert marks[0] <= 30 + 40  # r + chunk ticks of buffered events


class TestChunkedValidation:
    def test_bad_chunk_ticks_rejected(self, batch):
        plan = original_plan(WindowSet([Window(10, 10)]), MIN)
        with pytest.raises(ExecutionError):
            ChunkedStreamingExecutor(plan, batch, chunk_ticks=0)

    def test_default_chunk_is_max_range(self, batch):
        plan = original_plan(
            WindowSet([Window(10, 10), Window(40, 20)]), MIN
        )
        executor = ChunkedStreamingExecutor(plan, batch)
        assert executor.chunk_ticks == 40

    def test_stats_events_counted(self, batch):
        plan = original_plan(WindowSet([Window(10, 10)]), MIN)
        result = execute_plan(plan, batch, engine="streaming-chunked")
        assert result.stats.events == batch.num_events


class TestStrideExceedsMultiplier:
    def test_consumer_stride_larger_than_covering_set(self):
        # W(6,6) reading W(4,2): stride = 3 > M = 2, so the buffer cut
        # after a close must not run past the provider's emitted
        # frontier (regression: ExecutionError 'not contiguous').
        windows = WindowSet([Window(4, 2), Window(10, 5), Window(12, 6)])
        from repro.core.optimizer import optimize

        result = optimize(windows, MIN)
        rng = np.random.default_rng(3)
        n = 200
        batch = make_batch(
            np.sort(rng.integers(0, 120, n)),
            rng.normal(0, 10, n),
            horizon=120,
        )
        plans = [original_plan(windows, MIN)]
        if result.without_factors is not None:
            plans.append(rewrite_plan(result.without_factors, MIN))
        if result.with_factors is not None:
            plans.append(rewrite_plan(result.with_factors, MIN))
        for plan in plans:
            reference = execute_plan(plan, batch, engine="columnar")
            for chunk_ticks in (1, 5, 13, 200):
                chunked = _run_chunked(plan, batch, chunk_ticks)
                assert results_equal(reference, chunked)
                assert (
                    reference.stats.pairs_per_window
                    == chunked.stats.pairs_per_window
                )

"""Tests for the per-event test oracle (``oracle_streaming``)."""

import numpy as np
import pytest

import oracle_streaming
from repro.aggregates.registry import AVG, MEDIAN, MIN, SUM
from repro.core.optimizer import min_cost_wcg_with_factors
from repro.core.rewrite import rewrite_plan
from repro.engine.events import make_batch
from repro.engine.executor import execute_plan, results_equal
from repro.plans.builder import original_plan
from repro.windows.coverage import CoverageSemantics
from repro.windows.window import Window, WindowSet


@pytest.fixture
def batch():
    rng = np.random.default_rng(11)
    n = 120
    return make_batch(
        np.arange(n),
        rng.normal(5, 2, n),
        keys=rng.integers(0, 2, n),
        num_keys=2,
        horizon=n,
    )


class TestStreamingMatchesColumnar:
    @pytest.mark.parametrize("aggregate", [MIN, SUM, AVG])
    def test_original_plan(self, batch, aggregate):
        plan = original_plan(
            WindowSet([Window(10, 10), Window(20, 10), Window(30, 30)]),
            aggregate,
        )
        columnar = execute_plan(plan, batch, engine="columnar")
        streaming = oracle_streaming.execute(plan, batch)
        assert results_equal(columnar, streaming)

    def test_factor_plan(self, batch, example7_windows):
        gmin, _ = min_cost_wcg_with_factors(
            example7_windows, CoverageSemantics.PARTITIONED_BY
        )
        plan = rewrite_plan(gmin, MIN)
        columnar = execute_plan(plan, batch, engine="columnar")
        streaming = oracle_streaming.execute(plan, batch)
        assert results_equal(columnar, streaming)

    def test_pair_counts_match_columnar(self, batch, example7_windows):
        gmin, _ = min_cost_wcg_with_factors(
            example7_windows, CoverageSemantics.PARTITIONED_BY
        )
        plan = rewrite_plan(gmin, MIN)
        columnar = execute_plan(plan, batch, engine="columnar")
        streaming = oracle_streaming.execute(plan, batch)
        assert (
            columnar.stats.pairs_per_window
            == streaming.stats.pairs_per_window
        )

    def test_holistic_original_plan(self, batch):
        plan = original_plan(WindowSet([Window(20, 20)]), MEDIAN)
        columnar = execute_plan(plan, batch, engine="columnar")
        streaming = oracle_streaming.execute(plan, batch)
        assert results_equal(columnar, streaming)


class TestStreamingBehaviour:
    def test_state_is_bounded(self, batch):
        # Open instances never exceed r/s + 1 per operator.
        plan = original_plan(WindowSet([Window(20, 10)]), MIN)
        executor = oracle_streaming.StreamingExecutor(plan, batch)
        executor.run()
        assert executor.max_open_instances() <= 3

    def test_results_shape(self, batch):
        plan = original_plan(WindowSet([Window(30, 30)]), MIN)
        results = oracle_streaming.StreamingExecutor(plan, batch).run()
        assert results[Window(30, 30)].shape == (2, 4)

    def test_empty_instances_emit_nan(self):
        # One event at t=35: earlier instances are empty.
        batch = make_batch([35], [7.0], horizon=40)
        plan = original_plan(WindowSet([Window(10, 10)]), MIN)
        results = oracle_streaming.StreamingExecutor(plan, batch).run()
        out = results[Window(10, 10)][0]
        assert np.isnan(out[:3]).all()
        assert out[3] == 7.0

    def test_stats_events_counted(self, batch):
        plan = original_plan(WindowSet([Window(10, 10)]), MIN)
        result = oracle_streaming.execute(plan, batch)
        assert result.stats.events == batch.num_events

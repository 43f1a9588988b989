"""Edge-case and failure-injection tests for the engines."""

import numpy as np
import pytest

import oracle_streaming
from repro.aggregates.registry import AVG, COUNT, MIN, SUM
from repro.core.optimizer import optimize
from repro.core.rewrite import rewrite_plan
from repro.engine.events import make_batch
from repro.engine.executor import execute_plan, results_equal
from repro.plans.builder import original_plan
from repro.windows.window import Window, WindowSet
from repro.workloads.streams import constant_rate_stream


class TestHighRateStreams:
    def test_multiple_events_per_tick(self):
        """η > 1: several events share a timestamp; the session engine
        must agree with both references."""
        batch = constant_rate_stream(600, rate=3, seed=9)
        windows = WindowSet([Window(10, 10), Window(20, 10)])
        plan = original_plan(windows, MIN)
        chunked = execute_plan(plan, batch, engine="streaming-chunked")
        assert results_equal(execute_plan(plan, batch), chunked)
        assert results_equal(oracle_streaming.execute(plan, batch), chunked)

    def test_rewritten_plan_with_high_rate(self):
        batch = constant_rate_stream(1200, rate=4, seed=9)
        windows = WindowSet([Window(20, 20), Window(40, 40), Window(60, 60)])
        result = optimize(windows, SUM, event_rate=4)
        fast = execute_plan(rewrite_plan(result.best, SUM), batch)
        slow = execute_plan(original_plan(windows, SUM), batch)
        assert results_equal(fast, slow)


class TestSparseAndAdversarialStreams:
    def test_all_events_in_one_instance(self):
        batch = make_batch([5, 6, 7], [1.0, -2.0, 3.0], horizon=40)
        plan = original_plan(WindowSet([Window(10, 10)]), MIN)
        out = execute_plan(plan, batch).results[Window(10, 10)][0]
        assert out[0] == -2.0
        assert np.isnan(out[1:]).all()

    def test_single_event_stream(self):
        batch = make_batch([0], [42.0], horizon=10)
        for agg in (MIN, SUM, COUNT, AVG):
            plan = original_plan(WindowSet([Window(10, 5)]), agg)
            out = execute_plan(plan, batch).results[Window(10, 5)]
            assert out.shape == (1, 1)
            assert out[0, 0] == pytest.approx(
                42.0 if agg is not COUNT else 1.0
            )

    def test_extreme_values(self):
        values = [1e308, -1e308, 0.0, 1e-308]
        batch = make_batch([0, 1, 2, 3], values, horizon=4)
        plan = original_plan(WindowSet([Window(4, 4)]), MIN)
        out = execute_plan(plan, batch).results[Window(4, 4)]
        assert out[0, 0] == -1e308

    def test_events_exactly_on_window_boundaries(self):
        # [0,10) excludes ts=10; [10,20) includes it.
        batch = make_batch([0, 10, 20], [1.0, 2.0, 3.0], horizon=30)
        plan = original_plan(WindowSet([Window(10, 10)]), SUM)
        out = execute_plan(plan, batch).results[Window(10, 10)][0]
        assert list(out) == [1.0, 2.0, 3.0]

    def test_duplicate_timestamps_all_counted(self):
        batch = make_batch([3, 3, 3], [1.0, 2.0, 3.0], horizon=10)
        plan = original_plan(WindowSet([Window(10, 10)]), COUNT)
        assert execute_plan(plan, batch).results[Window(10, 10)][0, 0] == 3.0


class TestEmptyWindows:
    def test_horizon_shorter_than_every_window(self):
        batch = make_batch([0, 1], [1.0, 2.0], horizon=5)
        windows = WindowSet([Window(10, 10), Window(20, 20)])
        result = execute_plan(original_plan(windows, MIN), batch)
        for window in windows:
            assert result.results[window].shape == (1, 0)

    def test_rewritten_plan_short_horizon(self):
        batch = make_batch([0, 1], [1.0, 2.0], horizon=25)
        windows = WindowSet([Window(10, 10), Window(20, 20)])
        opt = optimize(windows, MIN)
        fast = execute_plan(rewrite_plan(opt.best, MIN), batch)
        slow = execute_plan(original_plan(windows, MIN), batch)
        assert results_equal(fast, slow)


class TestManyKeys:
    def test_hundreds_of_keys(self):
        rng = np.random.default_rng(12)
        n, keys = 3_000, 200
        batch = make_batch(
            np.sort(rng.integers(0, 500, n)),
            rng.normal(0, 1, n),
            keys=rng.integers(0, keys, n),
            num_keys=keys,
            horizon=500,
        )
        windows = WindowSet([Window(50, 50), Window(100, 50)])
        opt = optimize(windows, MIN)
        fast = execute_plan(rewrite_plan(opt.best, MIN), batch)
        slow = execute_plan(original_plan(windows, MIN), batch)
        assert results_equal(fast, slow)

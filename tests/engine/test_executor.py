"""Tests for the execution facade."""

import numpy as np
import pytest

import oracle_streaming
from repro.aggregates.registry import MEDIAN, MIN
from repro.core.optimizer import min_cost_wcg
from repro.core.rewrite import rewrite_plan
from repro.engine.events import make_batch
from repro.engine.executor import execute_plan, results_equal
from repro.errors import ExecutionError
from repro.plans.builder import original_plan
from repro.windows.coverage import CoverageSemantics
from repro.windows.window import Window, WindowSet


@pytest.fixture
def batch():
    n = 120
    return make_batch(np.arange(n), np.sin(np.arange(n) / 5.0), horizon=n)


class TestExecutePlan:
    def test_unknown_engine_rejected(self, batch):
        plan = original_plan(WindowSet([Window(10, 10)]), MIN)
        with pytest.raises(ExecutionError):
            execute_plan(plan, batch, engine="spark")

    def test_validation_runs_by_default(self, batch):
        from repro.plans.builder import PlanBuilder
        from repro.plans.nodes import LogicalPlan
        from repro.errors import PlanError

        builder = PlanBuilder()
        node = builder.window_aggregate(
            Window(30, 30), MIN, builder.source, provider=Window(20, 20)
        )
        bad = LogicalPlan(root=node, source=builder.source, aggregate=MIN)
        with pytest.raises(PlanError):
            execute_plan(bad, batch)

    def test_throughput_positive(self, batch):
        plan = original_plan(WindowSet([Window(10, 10)]), MIN)
        result = execute_plan(plan, batch)
        assert result.throughput > 0
        assert result.stats.events == batch.num_events

    def test_results_keyed_by_user_windows(self, batch, example7_windows):
        gmin = min_cost_wcg(example7_windows, CoverageSemantics.PARTITIONED_BY)
        plan = rewrite_plan(gmin, MIN)
        result = execute_plan(plan, batch)
        assert set(result.results) == set(example7_windows)

    def test_holistic_plan_executes(self, batch):
        plan = original_plan(WindowSet([Window(20, 20)]), MEDIAN)
        result = execute_plan(plan, batch)
        assert result.results[Window(20, 20)].shape == (1, 6)


class TestRecords:
    def test_to_records_sorted_and_complete(self, batch):
        plan = original_plan(WindowSet([Window(30, 30), Window(20, 20)]), MIN)
        records = execute_plan(plan, batch).to_records()
        assert len(records) == 6 + 4  # W20: 6 instances, W30: 4
        labels = [r[0] for r in records]
        assert labels == sorted(labels)

    def test_drop_empty(self):
        batch = make_batch([25], [1.0], horizon=30)
        plan = original_plan(WindowSet([Window(10, 10)]), MIN)
        records = execute_plan(plan, batch).to_records(drop_empty=True)
        assert len(records) == 1
        assert records[0][2] == 2  # instance [20, 30)


class TestResultsEqual:
    def test_equal_results(self, batch):
        plan = original_plan(WindowSet([Window(10, 10)]), MIN)
        a = execute_plan(plan, batch)
        b = execute_plan(plan, batch)
        assert results_equal(a, b)

    def test_different_windows_not_equal(self, batch):
        a = execute_plan(original_plan(WindowSet([Window(10, 10)]), MIN), batch)
        b = execute_plan(original_plan(WindowSet([Window(20, 20)]), MIN), batch)
        assert not results_equal(a, b)

    def test_nan_equals_nan(self):
        batch = make_batch([25], [1.0], horizon=30)
        plan = original_plan(WindowSet([Window(10, 10)]), MIN)
        a = execute_plan(plan, batch)
        b = oracle_streaming.execute(plan, batch)
        assert results_equal(a, b)


class TestEngineRegistry:
    def test_four_names_and_nothing_else(self, batch):
        from repro.engine.executor import available_engines

        names = (
            "columnar",
            "columnar-panes",
            "columnar-panes-native",
            "streaming-chunked",
        )
        assert available_engines() == names
        plan = original_plan(WindowSet([Window(10, 10)]), MIN)
        with pytest.raises(ExecutionError) as raised:
            execute_plan(plan, batch, engine="streaming")
        assert str(raised.value) == (
            "unknown engine 'streaming'; available: " + ", ".join(names)
        )


class TestLogicalPhysicalSplit:
    def test_naive_paths_mirror_logical(self, batch):
        plan = original_plan(WindowSet([Window(20, 10)]), MIN)
        result = execute_plan(plan, batch, engine="columnar")
        assert result.stats.total_physical == result.stats.total_pairs
        assert result.stats.physical_fraction == 1.0

    def test_pane_path_reports_fewer_physical(self, batch):
        plan = original_plan(WindowSet([Window(60, 10)]), MIN)  # k = 6
        fast = execute_plan(plan, batch, engine="columnar-panes")
        assert fast.stats.total_physical < fast.stats.total_pairs
        assert 0 < fast.stats.physical_fraction < 1

    def test_stats_merge_combines_both_counters(self):
        from repro.engine.stats import ExecutionStats

        a = ExecutionStats(events=5)
        a.record_pairs(Window(10, 10), 100)
        a.record_binned(5)
        b = ExecutionStats(events=3)
        b.record_pairs(Window(10, 10), 50, physical=7)
        a.merge(b)
        assert a.events == 8
        assert a.pairs_per_window[Window(10, 10)] == 150
        assert a.physical_per_window[Window(10, 10)] == 107
        assert a.events_binned == 5
        assert a.total_physical == 112


class TestRecordsVectorized:
    def test_multi_key_order_is_key_major(self):
        batch = make_batch(
            [0, 5, 12, 18], [1.0, 2.0, 3.0, 4.0],
            keys=[0, 1, 0, 1], num_keys=2, horizon=20,
        )
        plan = original_plan(WindowSet([Window(10, 10)]), MIN)
        records = execute_plan(plan, batch).to_records()
        assert [(r[1], r[2]) for r in records] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]
        assert records[0][3] == 1.0 and records[3][3] == 4.0

    def test_record_types_are_python_scalars(self, batch):
        plan = original_plan(WindowSet([Window(10, 10)]), MIN)
        label, key, instance, value = execute_plan(plan, batch).to_records()[0]
        assert isinstance(key, int)
        assert isinstance(instance, int)
        assert isinstance(value, float)

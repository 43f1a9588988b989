"""Tests for the benchmark harness (small streams; behaviour only)."""

import pytest

from repro.aggregates.registry import MEDIAN, MIN
from repro.bench.harness import BoostSummary, PlanRun, compare_plans
from repro.windows.coverage import CoverageSemantics
from repro.windows.window import Window, WindowSet
from repro.workloads.streams import constant_rate_stream


@pytest.fixture(scope="module")
def batch():
    return constant_rate_stream(5_000)


class TestComparePlans:
    def test_all_variants_measured(self, batch, example7_windows):
        result = compare_plans(
            example7_windows, MIN, batch, include_scotty=True
        )
        names = [run.name for run in result.runs()]
        assert names == [
            "original",
            "rewritten",
            "rewritten+factors",
            "scotty",
        ]

    def test_work_reductions_match_cost_model_direction(
        self, batch, example7_windows
    ):
        result = compare_plans(example7_windows, MIN, batch)
        assert result.work_reduction_without_factors > 1.0
        assert (
            result.work_reduction_with_factors
            >= result.work_reduction_without_factors
        )

    def test_costs_recorded(self, batch, example7_windows):
        result = compare_plans(example7_windows, MIN, batch)
        assert result.original.cost == 360
        assert result.rewritten.cost == 246
        assert result.with_factors.cost == 150

    def test_holistic_only_original(self, batch, example7_windows):
        result = compare_plans(example7_windows, MEDIAN, batch)
        assert result.rewritten is None
        assert result.with_factors is None
        assert result.boost_with_factors == 1.0

    def test_scotty_skipped_for_holistic(self, batch, example7_windows):
        result = compare_plans(
            example7_windows, MEDIAN, batch, include_scotty=True
        )
        assert result.scotty is None

    def test_semantics_override_respected(self, batch, example7_windows):
        result = compare_plans(
            example7_windows,
            MIN,
            batch,
            semantics=CoverageSemantics.PARTITIONED_BY,
        )
        assert result.optimization.semantics is (
            CoverageSemantics.PARTITIONED_BY
        )


class TestPlanRun:
    def test_boost_over(self):
        fast = PlanRun("a", throughput=200.0, pairs=1, wall_seconds=1.0)
        slow = PlanRun("b", throughput=100.0, pairs=1, wall_seconds=2.0)
        assert fast.boost_over(slow) == pytest.approx(2.0)

    def test_boost_over_zero(self):
        fast = PlanRun("a", throughput=200.0, pairs=1, wall_seconds=1.0)
        zero = PlanRun("b", throughput=0.0, pairs=1, wall_seconds=0.0)
        assert fast.boost_over(zero) == float("inf")


class TestBoostSummary:
    def test_from_comparisons(self, batch, example7_windows):
        comparisons = [
            compare_plans(example7_windows, MIN, batch) for _ in range(2)
        ]
        summary = BoostSummary.from_comparisons("S-3-tumbling", comparisons)
        assert summary.runs == 2
        assert summary.max_without >= summary.mean_without > 0
        assert summary.max_with >= summary.mean_with > 0
        row = summary.row()
        assert row[0] == "S-3-tumbling"
        assert all(cell.endswith("x") for cell in row[1:])

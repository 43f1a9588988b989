"""Benchmark harness: run all plans for a window set, measure throughput.

For one (window set, aggregate, stream) triple this produces the
paper's three series — *Original Plan*, *Plan w/o Factor Windows*,
*Plan w/ Factor Windows* — plus optionally the Scotty-style slicing
baseline (Figures 13/22).  Throughput is events per wall-clock second
(the paper's metric [34]) of the median of :data:`TIMED_RUNS` warmed
runs per variant; the deterministic processed-pair counts are reported
alongside because they are what the cost model predicts.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ..aggregates.base import AggregateFunction
from ..core.optimizer import OptimizationResult, optimize
from ..windows.coverage import CoverageSemantics
from ..core.rewrite import rewrite_plan
from ..engine.events import EventBatch
from ..engine.executor import execute_plan
from ..plans.builder import original_plan
from ..slicing.slicer import execute_sliced
from ..windows.window import WindowSet


@dataclass
class PlanRun:
    """Measured execution of one plan variant."""

    name: str
    throughput: float
    pairs: int
    wall_seconds: float
    cost: int = 0
    physical: int = 0

    def boost_over(self, other: "PlanRun") -> float:
        """Throughput ratio ``self / other`` (the paper's 'boost')."""
        if other.throughput == 0:
            return float("inf")
        return self.throughput / other.throughput


@dataclass
class ComparisonResult:
    """All plan variants measured on one window set and stream."""

    windows: WindowSet
    aggregate: AggregateFunction
    optimization: OptimizationResult
    original: PlanRun
    rewritten: "PlanRun | None" = None
    with_factors: "PlanRun | None" = None
    scotty: "PlanRun | None" = None

    @property
    def boost_without_factors(self) -> float:
        if self.rewritten is None:
            return 1.0
        return self.rewritten.boost_over(self.original)

    @property
    def boost_with_factors(self) -> float:
        if self.with_factors is None:
            return self.boost_without_factors
        return self.with_factors.boost_over(self.original)

    @property
    def work_reduction_without_factors(self) -> float:
        """Deterministic pair-count ratio original / rewritten."""
        if self.rewritten is None or self.rewritten.pairs == 0:
            return 1.0
        return self.original.pairs / self.rewritten.pairs

    @property
    def work_reduction_with_factors(self) -> float:
        if self.with_factors is None or self.with_factors.pairs == 0:
            return self.work_reduction_without_factors
        return self.original.pairs / self.with_factors.pairs

    def runs(self) -> list[PlanRun]:
        out = [self.original]
        for run in (self.rewritten, self.with_factors, self.scotty):
            if run is not None:
                out.append(run)
        return out


#: Timed runs per plan variant, each variant warmed up by one untimed
#: run first.  The variants take turns running first, and each reports
#: its median wall — one cold timing moved an identical boost by 1.12x
#: between two experiments.
TIMED_RUNS = 3


def _median_runs(variants: "dict[str, tuple]") -> "dict[str, PlanRun]":
    """Warm up, then time every ``name -> (run, cost)`` variant
    :data:`TIMED_RUNS` times in rotating order."""
    names = list(variants)
    results: "dict[str, list]" = {name: [] for name in names}
    for name in names:
        variants[name][0]()
    for turn in range(TIMED_RUNS):
        shift = turn % len(names)
        for name in names[shift:] + names[:shift]:
            results[name].append(variants[name][0]())
    measured = {}
    for name, runs in results.items():
        wall = statistics.median(run.stats.wall_seconds for run in runs)
        stats = runs[0].stats
        measured[name] = PlanRun(
            name=name,
            throughput=stats.events / wall if wall > 0 else float("inf"),
            pairs=stats.total_pairs,
            wall_seconds=wall,
            cost=variants[name][1],
            physical=stats.total_physical,
        )
    return measured


def compare_plans(
    windows: WindowSet,
    aggregate: AggregateFunction,
    batch: EventBatch,
    include_scotty: bool = False,
    semantics: "CoverageSemantics | None" = None,
) -> ComparisonResult:
    """Optimize ``windows`` and measure every plan variant on ``batch``."""
    optimization = optimize(windows, aggregate, semantics_override=semantics)

    def plan_run(plan):
        return lambda: execute_plan(plan, batch)

    variants = {
        "original": (
            plan_run(original_plan(windows, aggregate)),
            optimization.baseline_cost,
        )
    }
    if optimization.without_factors is not None:
        variants["rewritten"] = (
            plan_run(rewrite_plan(optimization.without_factors, aggregate)),
            optimization.without_factors.total_cost,
        )
    if optimization.with_factors is not None:
        plan = rewrite_plan(
            optimization.with_factors, aggregate, description="rewritten+factors"
        )
        variants["rewritten+factors"] = (
            plan_run(plan),
            optimization.with_factors.total_cost,
        )
    if include_scotty and aggregate.mergeable:
        variants["scotty"] = (
            lambda: execute_sliced(windows, aggregate, batch),
            0,
        )
    runs = _median_runs(variants)
    return ComparisonResult(
        windows=windows,
        aggregate=aggregate,
        optimization=optimization,
        original=runs["original"],
        rewritten=runs.get("rewritten"),
        with_factors=runs.get("rewritten+factors"),
        scotty=runs.get("scotty"),
    )


@dataclass
class BoostSummary:
    """Mean/max throughput boosts over a batch of runs (Tables I-IV)."""

    setup: str
    mean_without: float = 0.0
    max_without: float = 0.0
    mean_with: float = 0.0
    max_with: float = 0.0
    runs: int = 0

    @classmethod
    def from_comparisons(
        cls, setup: str, comparisons: "list[ComparisonResult]"
    ) -> "BoostSummary":
        without = [c.boost_without_factors for c in comparisons]
        with_f = [c.boost_with_factors for c in comparisons]
        n = len(comparisons)
        return cls(
            setup=setup,
            mean_without=sum(without) / n if n else 0.0,
            max_without=max(without) if n else 0.0,
            mean_with=sum(with_f) / n if n else 0.0,
            max_with=max(with_f) if n else 0.0,
            runs=n,
        )

    def row(self) -> tuple:
        return (
            self.setup,
            f"{self.mean_without:.2f}x",
            f"{self.max_without:.2f}x",
            f"{self.mean_with:.2f}x",
            f"{self.max_with:.2f}x",
        )

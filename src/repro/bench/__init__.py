"""Benchmark harness: plan comparison, experiments, reporting, CLI."""

from .analysis import SampleStats, best_fit_line, geometric_mean, pearson_r
from .experiments import (
    DEFAULT_EVENTS,
    DEFAULT_RUNS,
    CorrelationPanel,
    OverheadPoint,
    PanelResult,
    boost_summary_table,
    cost_model_correlation,
    make_stream,
    optimizer_overhead,
    run_panel,
    scotty_comparison,
    throughput_panels,
)
from .harness import BoostSummary, ComparisonResult, PlanRun, compare_plans
from .reporting import (
    format_boost_summary_table,
    format_series,
    format_table,
)

__all__ = [
    "BoostSummary",
    "ComparisonResult",
    "CorrelationPanel",
    "DEFAULT_EVENTS",
    "DEFAULT_RUNS",
    "OverheadPoint",
    "PanelResult",
    "PlanRun",
    "SampleStats",
    "best_fit_line",
    "boost_summary_table",
    "compare_plans",
    "cost_model_correlation",
    "format_boost_summary_table",
    "format_series",
    "format_table",
    "geometric_mean",
    "make_stream",
    "optimizer_overhead",
    "pearson_r",
    "run_panel",
    "scotty_comparison",
    "throughput_panels",
]

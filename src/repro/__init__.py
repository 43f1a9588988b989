"""Factor Windows: cost-based query rewriting for correlated window
aggregates.

A full reproduction of Wu, Bernstein, Raizman, Pavlopoulou (ICDE 2022):
the window coverage graph, the cost-based optimizer, factor windows,
query rewriting, a SQL front end, two execution engines, a stream-
slicing baseline, and the paper's complete evaluation harness.

Quickstart::

    from repro import tumbling, WindowSet, MIN, optimize, rewrite_plan

    windows = WindowSet([tumbling(20), tumbling(30), tumbling(40)])
    result = optimize(windows, MIN)
    print(result.summary())              # 360 -> 246 -> 150
    plan = rewrite_plan(result.best, MIN)
"""

from .aggregates import (
    AVG,
    COUNT,
    MAX,
    MEDIAN,
    MIN,
    STDEV,
    SUM,
    AggregateFunction,
    Taxonomy,
    get_aggregate,
)
from .core import (
    CostModel,
    MinCostWCG,
    OptimizationResult,
    WindowCoverageGraph,
    exhaustive_min_cost,
    min_cost_wcg,
    min_cost_wcg_with_factors,
    optimize,
    rewrite_plan,
)
from .engine import (
    EventBatch,
    ExecutionResult,
    available_engines,
    execute_plan,
    make_batch,
    results_equal,
)
from .errors import ReproError
from .plans import LogicalPlan, original_plan, to_flink, to_tree, to_trill
from .runtime import PlanSwitchRecord, QuerySession, SessionCore, ShardedSession
from .slicing import execute_sliced
from .sql import compile_query, parse, plan_query
from .windows import (
    CoverageSemantics,
    Window,
    WindowSet,
    covered_by,
    covering_multiplier,
    hopping,
    partitioned_by,
    tumbling,
)

__version__ = "1.0.0"

__all__ = [
    "AVG",
    "AggregateFunction",
    "COUNT",
    "CostModel",
    "CoverageSemantics",
    "EventBatch",
    "ExecutionResult",
    "LogicalPlan",
    "MAX",
    "MEDIAN",
    "MIN",
    "MinCostWCG",
    "OptimizationResult",
    "PlanSwitchRecord",
    "QuerySession",
    "SessionCore",
    "ShardedSession",
    "ReproError",
    "available_engines",
    "STDEV",
    "SUM",
    "Taxonomy",
    "Window",
    "WindowCoverageGraph",
    "WindowSet",
    "compile_query",
    "covered_by",
    "covering_multiplier",
    "execute_plan",
    "execute_sliced",
    "exhaustive_min_cost",
    "get_aggregate",
    "hopping",
    "make_batch",
    "min_cost_wcg",
    "min_cost_wcg_with_factors",
    "optimize",
    "original_plan",
    "parse",
    "partitioned_by",
    "plan_query",
    "results_equal",
    "rewrite_plan",
    "to_flink",
    "to_tree",
    "to_trill",
    "tumbling",
]

"""Core contribution: WCG, cost model, factor windows, rewriting."""

from .adaptive import RateEstimator
from .cost import CostModel, MinCostWCG, minimize_cost, prune_useless_factors
from .multiquery import Query, SharedGroup, WorkloadPlan, optimize_workload
from .exhaustive import candidate_pool, exhaustive_min_cost
from .explain import explain
from .factor import FactorCandidate
from .optimizer import (
    OptimizationResult,
    SearchStats,
    min_cost_wcg,
    min_cost_wcg_with_factors,
    optimize,
)
from .rewrite import rewrite_plan
from .wcg import WindowCoverageGraph

__all__ = [
    "CostModel",
    "Query",
    "SharedGroup",
    "WorkloadPlan",
    "optimize_workload",
    "RateEstimator",
    "FactorCandidate",
    "MinCostWCG",
    "OptimizationResult",
    "SearchStats",
    "WindowCoverageGraph",
    "candidate_pool",
    "exhaustive_min_cost",
    "explain",
    "min_cost_wcg",
    "min_cost_wcg_with_factors",
    "minimize_cost",
    "optimize",
    "prune_useless_factors",
    "rewrite_plan",
]

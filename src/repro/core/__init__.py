"""Core contribution: WCG, cost model, factor windows, rewriting."""

from .adaptive import (
    AdaptiveOptimizer,
    AdaptiveSimulation,
    PlanSwitch,
    RateEstimator,
    plan_cost_at_rate,
    simulate_adaptive,
)
from .cost import CostModel, MinCostWCG, minimize_cost, prune_useless_factors
from .multiquery import Query, SharedGroup, WorkloadPlan, optimize_workload
from .exhaustive import candidate_pool, exhaustive_min_cost, optimality_gap
from .explain import explain
from .factor import (
    FactorCandidate,
    factor_benefit,
    find_best_factor,
    find_best_factor_covered,
    find_best_factor_partitioned,
    generate_candidates_covered,
    generate_candidates_partitioned,
    is_beneficial_partitioned,
    prefer_candidate,
    prune_dependent_candidates,
)
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
    "AdaptiveOptimizer",
    "AdaptiveSimulation",
    "CostModel",
    "PlanSwitch",
    "Query",
    "SharedGroup",
    "WorkloadPlan",
    "optimize_workload",
    "RateEstimator",
    "plan_cost_at_rate",
    "simulate_adaptive",
    "FactorCandidate",
    "MinCostWCG",
    "OptimizationResult",
    "SearchStats",
    "WindowCoverageGraph",
    "candidate_pool",
    "exhaustive_min_cost",
    "explain",
    "factor_benefit",
    "find_best_factor",
    "find_best_factor_covered",
    "find_best_factor_partitioned",
    "generate_candidates_covered",
    "generate_candidates_partitioned",
    "is_beneficial_partitioned",
    "min_cost_wcg",
    "min_cost_wcg_with_factors",
    "minimize_cost",
    "optimality_gap",
    "optimize",
    "prefer_candidate",
    "prune_dependent_candidates",
    "prune_useless_factors",
    "rewrite_plan",
]

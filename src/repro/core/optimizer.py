"""The cost-based optimizer: Algorithm 1 and Algorithm 3 facades.

This is the entry point a query compiler calls: given a window set and
an aggregate function, produce the min-cost WCG without factor windows
(Algorithm 1) and with them (Algorithm 3), pick the cheaper, and report
costs, timings, and predicted speedups.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from ..aggregates.base import AggregateFunction
from ..errors import CostModelError
from ..windows.coverage import CoverageSemantics
from ..windows.window import Window, WindowSet
from .cost import CostModel, MinCostWCG, minimize_cost, prune_useless_factors
from .factor import (
    FactorCandidate,
    candidate_grid,
    node_rows,
    price_factor,
    split_by_slide,
    subset_signature,
)
from .wcg import WindowCoverageGraph


@dataclass(frozen=True)
class SearchStats:
    """Exact work counters of one Algorithm-3 search — they depend on
    the window set alone, so tests gate the search's scaling on them
    instead of on a clock."""

    #: Nodes with downstream windows, each searched for one factor.
    targets: int
    #: Downstream sets whose candidate space was generated, after sets
    #: with an equal ``(gcd, r_min)`` signature were merged.
    subsets: int
    #: Distinct candidate ``(range, slide)`` pairs priced.
    candidates: int

    def __str__(self) -> str:
        return (
            f"{self.targets} targets, {self.subsets} candidate spaces, "
            f"{self.candidates} candidates priced"
        )


@dataclass
class OptimizationResult:
    """Everything the optimizer decided for one query.

    Attributes
    ----------
    windows / aggregate / semantics / event_rate:
        The optimization inputs (semantics is ``None`` for holistic
        aggregates, in which case no rewriting happens).
    baseline_cost:
        Cost of the original (independent-evaluation) plan.
    without_factors / with_factors:
        Min-cost WCGs from Algorithm 1 and Algorithm 3.  ``with_factors``
        is ``None`` when factor search was disabled or not applicable.
    inserted_factors:
        Factor windows Algorithm 3 inserted (before pruning).
    search_stats:
        Work counters of the factor search (``None`` when it did not
        run).
    optimize_seconds:
        Wall-clock optimizer time (the paper's Figure 12 metric).
    """

    windows: WindowSet
    aggregate: AggregateFunction
    semantics: "CoverageSemantics | None"
    event_rate: int
    baseline_cost: int
    without_factors: "MinCostWCG | None" = None
    with_factors: "MinCostWCG | None" = None
    inserted_factors: tuple[FactorCandidate, ...] = field(default_factory=tuple)
    search_stats: "SearchStats | None" = None
    optimize_seconds: float = 0.0

    @property
    def best(self) -> "MinCostWCG | None":
        """The cheapest min-cost WCG found (factor plan wins ties)."""
        if self.with_factors is None:
            return self.without_factors
        if self.without_factors is None:
            return self.with_factors
        if self.with_factors.total_cost <= self.without_factors.total_cost:
            return self.with_factors
        return self.without_factors

    @property
    def best_cost(self) -> int:
        best = self.best
        return self.baseline_cost if best is None else best.total_cost

    @property
    def predicted_speedup(self) -> float:
        """``γ_C`` of the best plan against the original plan."""
        if self.best_cost == 0:
            return float("inf")
        return self.baseline_cost / self.best_cost

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        lines = [
            f"aggregate={self.aggregate.name} semantics={self.semantics}",
            f"baseline cost      : {self.baseline_cost}",
        ]
        if self.without_factors is not None:
            lines.append(
                f"w/o factor windows : {self.without_factors.total_cost}"
            )
        if self.with_factors is not None:
            factors = ", ".join(
                w.label for w in self.with_factors.factor_windows
            ) or "none kept"
            lines.append(
                f"w/ factor windows  : {self.with_factors.total_cost}"
                f" (factors: {factors})"
            )
        if self.search_stats is not None:
            lines.append(f"factor search      : {self.search_stats}")
        lines.append(f"predicted speedup  : {self.predicted_speedup:.2f}x")
        return "\n".join(lines)


def _as_window_set(windows: "WindowSet | Iterable[Window]") -> WindowSet:
    return windows if isinstance(windows, WindowSet) else WindowSet(list(windows))


def _coverage_graph(
    windows: "WindowSet | Iterable[Window]",
    semantics: CoverageSemantics,
    model: CostModel,
) -> tuple[WindowCoverageGraph, int]:
    """The augmented WCG of a validated window set, and its hyper-period."""
    window_set = _as_window_set(windows)
    window_set.validate_for_cost_model()
    graph = WindowCoverageGraph.build(window_set, semantics)
    return graph, model.hyper_period(window_set)


def min_cost_wcg(
    windows: "WindowSet | Iterable[Window]",
    semantics: CoverageSemantics,
    model: "CostModel | None" = None,
) -> MinCostWCG:
    """Algorithm 1: min-cost WCG without factor windows."""
    model = model or CostModel()
    graph, period = _coverage_graph(windows, semantics, model)
    return minimize_cost(graph, model, period=period)


def insert_factor_windows(
    graph: WindowCoverageGraph, model: CostModel, period: int
) -> tuple[tuple[FactorCandidate, ...], SearchStats]:
    """The search of Algorithm 3: visit every node of ``graph`` that
    has downstream windows and insert its best factor window, if any
    has positive benefit.  Mutates ``graph``.

    The search runs on integers.  A downstream set contributes only
    its ``(gcd, r_min)`` signature, so the direct consumers and every
    pair of strict descendants collapse to a few distinct candidate
    spaces (:func:`~repro.core.factor.candidate_grid`); each distinct
    ``(rf, sf)`` in them is priced once against the nodes' current
    best instance costs (:func:`~repro.core.factor.price_factor`),
    which change only when a factor is inserted.  Spaces and
    candidates are visited in the order Algorithms 2/5 enumerate them
    and a candidate replaces the incumbent only on a strictly larger
    benefit, so among equal benefits the first enumerated wins.
    """
    partitioned = graph.semantics is CoverageSemantics.PARTITIONED_BY
    rows = node_rows(graph, period, model)
    inserted: list[FactorCandidate] = []
    targets = subsets = candidates = 0
    for target in graph.nodes:
        downstream = graph.consumers_of(target)
        if not downstream:
            continue
        r_t, s_t = target.range, target.slide
        # Strict descendants under either semantics: a target with
        # consumers tumbles when the graph is partitioned-by.
        descendants = [
            (math.gcd(r, s), r) for r, s, _, _ in rows
            if r > r_t and s % s_t == 0 and (r - r_t) % s_t == 0
        ]
        # Distinct candidate spaces, in first-seen order.
        signatures = {subset_signature(downstream): None}
        for (g_i, r_i), (g_j, r_j) in combinations(descendants, 2):
            signatures[math.gcd(g_i, g_j), min(r_i, r_j)] = None
        # A factor window may not duplicate a node (Definition 6).
        seen = {(r, s) for r, s, _, _ in rows}
        splits: dict[int, tuple[list, list]] = {}
        best_benefit, best_pair = 0, None
        for g, r_min in signatures:
            for sf, ranges in candidate_grid(r_t, s_t, g, r_min, partitioned):
                if sf not in splits:
                    splits[sf] = split_by_slide(rows, sf, partitioned)
                readers, sources = splits[sf]
                for rf in ranges:
                    if (rf, sf) in seen:
                        continue
                    seen.add((rf, sf))
                    benefit = price_factor(
                        rf, sf, readers, sources, model.event_rate, period
                    )
                    if benefit > best_benefit:
                        best_benefit, best_pair = benefit, (rf, sf)
        targets += 1
        subsets += len(signatures)
        candidates += len(seen) - len(rows)
        if best_pair is not None:
            factor = Window(*best_pair)
            graph.insert_factor(factor)
            inserted.append(FactorCandidate(factor, best_benefit))
            rows = node_rows(graph, period, model)
    return tuple(inserted), SearchStats(targets, subsets, candidates)


def min_cost_wcg_with_factors(
    windows: "WindowSet | Iterable[Window]",
    semantics: CoverageSemantics,
    model: "CostModel | None" = None,
) -> tuple[MinCostWCG, tuple[FactorCandidate, ...]]:
    """Algorithm 3: min-cost WCG with factor windows.

    For every node of the augmented WCG that has downstream windows,
    generate candidate factor windows (Algorithm 2 or 5's candidate
    space) and insert the one with the best benefit; then run
    Algorithm 1 over the expanded graph and prune factor windows
    nothing reads from.

    Deviations from the paper (see DESIGN.md §3): candidates are priced
    with the exact total-cost delta against the windows' current best
    providers (:func:`~repro.core.factor.price_factor`)
    instead of Equation 2's read-from-target assumption.  The paper's
    formula can over-estimate savings and insert a factor that makes
    the final plan *worse*; the global gate makes improvement over
    Algorithm 1 a guarantee, which our property tests enforce.

    Candidates are additionally generated from every *pair* of the
    target's strict descendants, not only from its direct consumers as
    a set.  Algorithm 2/5 derive the candidate space from the gcd of
    all downstream slides (ranges), so a factor serving only a subset
    of the downstream windows is invisible to them — e.g. in
    {W(4,4), W(20,20), W(30,30)}, W(20,20) hangs under W(4,4) and no
    target ever sees the pair {20, 30} whose gcd admits the winning
    factor W(10,10).  Pairwise gcds are a superset of every larger
    subset's gcd, so pair generation covers all multi-consumer
    factors; the exact benefit gate keeps insertion regression-safe.
    """
    model = model or CostModel()
    graph, period = _coverage_graph(windows, semantics, model)
    inserted, _ = insert_factor_windows(graph, model, period)
    result = prune_useless_factors(minimize_cost(graph, model, period=period))
    return result, inserted


def optimize(
    windows: "WindowSet | Iterable[Window]",
    aggregate: AggregateFunction,
    event_rate: int = 1,
    enable_factor_windows: bool = True,
    semantics_override: "CoverageSemantics | None" = None,
) -> OptimizationResult:
    """Optimize a multi-window aggregate query end to end.

    Holistic aggregates cannot share sub-aggregates; for them the
    result carries only the baseline cost and no rewritten WCG (the
    caller falls back to the original plan, Section III-A).

    ``semantics_override`` forces a coverage relation instead of the
    aggregate's default.  Forcing ``partitioned_by`` is always sound
    (it is a sub-relation of ``covered_by``); forcing ``covered_by``
    requires an aggregate that merges over overlapping partitions
    (Theorem 6).  The paper's evaluation uses this to run MIN under
    both semantics (Section V-B).
    """
    window_set = _as_window_set(windows)
    if len(window_set) == 0:
        raise CostModelError("cannot optimize an empty window set")
    model = CostModel(event_rate=event_rate)
    semantics = aggregate.semantics
    if semantics_override is not None:
        if semantics is None:
            raise CostModelError(
                f"holistic aggregate {aggregate.name} supports no coverage "
                "semantics"
            )
        if (
            semantics_override is CoverageSemantics.COVERED_BY
            and not aggregate.supports_overlapping_merge
        ):
            raise CostModelError(
                f"{aggregate.name} cannot use covered_by semantics: it is "
                "not distributive over overlapping partitions"
            )
        semantics = semantics_override
    started = time.perf_counter()
    baseline = model.baseline_cost(window_set)

    result = OptimizationResult(
        windows=window_set,
        aggregate=aggregate,
        semantics=semantics,
        event_rate=event_rate,
        baseline_cost=baseline,
    )
    if semantics is None:
        result.optimize_seconds = time.perf_counter() - started
        return result

    # One coverage graph serves both algorithms: Algorithm 1 prices it
    # as built, the factor search then grows it in place.
    graph, period = _coverage_graph(window_set, semantics, model)
    result.without_factors = minimize_cost(graph, model, period=period)
    if enable_factor_windows:
        result.inserted_factors, result.search_stats = insert_factor_windows(
            graph, model, period
        )
        result.with_factors = prune_useless_factors(
            minimize_cost(graph, model, period=period)
        )
    result.optimize_seconds = time.perf_counter() - started
    return result

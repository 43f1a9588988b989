"""Reference factor-window search: the object-level Algorithm 3.

This is the search ``repro.core`` shipped before it moved to integer
arithmetic, kept verbatim as the oracle of
``test_factor_search_differential.py``: one validated ``Window`` per
grid point, ``covered_by`` / ``partitioned_by`` per constraint, and the
whole graph re-priced for every candidate.  Slow and obviously right;
tests only.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.core.cost import (
    CostModel,
    MinCostWCG,
    minimize_cost,
    prune_useless_factors,
)
from repro.core.factor import FactorCandidate
from repro.core.wcg import WindowCoverageGraph
from repro.windows.coverage import (
    CoverageSemantics,
    covered_by,
    covering_multiplier,
    partitioned_by,
    strictly_relates,
)
from repro.windows.window import VIRTUAL_ROOT, Window, WindowSet


def _divisors(value: int) -> tuple[int, ...]:
    """All positive divisors of ``value``, ascending."""
    small, large = [], []
    d = 1
    while d * d <= value:
        if value % d == 0:
            small.append(d)
            if d != value // d:
                large.append(value // d)
        d += 1
    return tuple(small + large[::-1])


def generate_candidates_covered(
    target: Window,
    downstream: Sequence[Window],
    exclude: Iterable[Window] = (),
) -> list[Window]:
    """Candidate factor windows per Algorithm 2, lines 1-11."""
    if not downstream:
        return []
    excluded = set(exclude) | {target, *downstream}
    slide_gcd = math.gcd(*(w.slide for w in downstream))
    r_min = min(w.range for w in downstream)
    target_slide = target.slide
    candidates: list[Window] = []
    for sf in _divisors(slide_gcd):
        if sf % target_slide != 0:
            continue
        for rf in range(sf, r_min + 1, sf):
            factor = Window(rf, sf)
            if factor in excluded:
                continue
            if not covered_by(factor, target):
                continue
            if all(covered_by(w, factor) for w in downstream):
                candidates.append(factor)
    return candidates


def generate_candidates_partitioned(
    target: Window,
    downstream: Sequence[Window],
    exclude: Iterable[Window] = (),
) -> list[Window]:
    """Candidate *tumbling* factor windows per Algorithm 5, lines 3-12."""
    if not downstream:
        return []
    excluded = set(exclude) | {target, *downstream}
    range_gcd = math.gcd(*(w.range for w in downstream))
    if range_gcd == target.range:
        return []
    candidates: list[Window] = []
    for rf in _divisors(range_gcd):
        if rf % target.range != 0 or rf == target.range:
            continue
        factor = Window(rf, rf)
        if factor in excluded:
            continue
        if not partitioned_by(factor, target):
            continue
        if all(partitioned_by(w, factor) for w in downstream):
            candidates.append(factor)
    return candidates


def direct_downstream(
    graph_nodes: Sequence[Window],
    target: Window,
    semantics: CoverageSemantics,
) -> list[Window]:
    """Windows in ``graph_nodes`` that ``target`` can feed directly."""
    return [
        w for w in graph_nodes
        if w is not VIRTUAL_ROOT and strictly_relates(w, target, semantics)
    ]


def current_instance_costs(graph, model: CostModel) -> dict[Window, int]:
    """Per-window minimum instance cost achievable in ``graph`` now."""
    costs: dict[Window, int] = {}
    for window in graph.nodes:
        if window is VIRTUAL_ROOT:
            continue
        best = model.raw_instance_cost(window)
        for provider in graph.providers_of(window):
            best = min(best, model.instance_cost(window, provider))
        costs[window] = best
    return costs


def global_factor_benefit(
    graph,
    factor: Window,
    period: int,
    model: CostModel,
) -> int:
    """Exact total-cost change of inserting ``factor`` into ``graph``."""
    semantics = graph.semantics
    current = current_instance_costs(graph, model)
    gain = 0
    for window in graph.nodes:
        if window is VIRTUAL_ROOT or window == factor:
            continue
        if strictly_relates(window, factor, semantics):
            multiplier = covering_multiplier(window, factor)
            if multiplier < current[window]:
                gain += window.recurrence_count(period) * (
                    current[window] - multiplier
                )
    factor_read = model.raw_instance_cost(factor)
    for provider in graph.nodes:
        if provider is VIRTUAL_ROOT or provider == factor:
            continue
        if strictly_relates(factor, provider, semantics):
            factor_read = min(
                factor_read, covering_multiplier(factor, provider)
            )
    factor_cost = factor.recurrence_count(period) * factor_read
    return gain - factor_cost


def min_cost_wcg_with_factors(
    windows: "WindowSet | Iterable[Window]",
    semantics: CoverageSemantics,
    model: "CostModel | None" = None,
) -> tuple[MinCostWCG, tuple[FactorCandidate, ...]]:
    """Algorithm 3 over ``Window`` objects (see DESIGN.md §3)."""
    model = model or CostModel()
    window_set = windows if isinstance(windows, WindowSet) else WindowSet(list(windows))
    window_set.validate_for_cost_model()
    period = model.hyper_period(window_set)
    graph = WindowCoverageGraph.build(window_set, semantics)
    inserted: list[FactorCandidate] = []

    generate = (
        generate_candidates_partitioned
        if semantics is CoverageSemantics.PARTITIONED_BY
        else generate_candidates_covered
    )
    for target in list(graph.nodes):
        downstream = list(graph.consumers_of(target))
        if not downstream:
            continue
        descendants = direct_downstream(graph.nodes, target, semantics)
        subsets: list[list[Window]] = [downstream]
        for i in range(len(descendants)):
            for j in range(i + 1, len(descendants)):
                subsets.append([descendants[i], descendants[j]])
        best: FactorCandidate | None = None
        seen: set[Window] = set()
        for subset in subsets:
            for window in generate(target, subset, exclude=graph.nodes):
                if window in seen:
                    continue
                seen.add(window)
                benefit = global_factor_benefit(graph, window, period, model)
                if benefit > 0 and (best is None or benefit > best.benefit):
                    best = FactorCandidate(window, benefit)
        if best is not None and not graph.has_node(best.window):
            graph.insert_factor(best.window)
            inserted.append(best)

    result = minimize_cost(graph, model, period=period)
    result = prune_useless_factors(result)
    return result, tuple(inserted)

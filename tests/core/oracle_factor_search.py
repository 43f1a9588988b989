"""Reference factor-window search: the object-level Algorithm 3, and
the paper-text functions it is built from.

This is the search ``repro.core`` shipped before it moved to integer
arithmetic, kept verbatim as the oracle of
``test_factor_search_differential.py``: one validated ``Window`` per
grid point, ``covered_by`` / ``partitioned_by`` per constraint, and the
whole graph re-priced for every candidate.  Next to it are the
``Window``-level forms of Section IV as the paper states them —
Equation 2 (:func:`factor_benefit`), Algorithms 2 and 5's selection
(:func:`find_best_factor_covered`, :func:`find_best_factor_partitioned`),
Algorithm 4 (:func:`is_beneficial_partitioned`) and Theorem 9
(:func:`prefer_candidate`) — which ``test_factor_windows.py`` checks
against Examples 7 and 8.  Slow and obviously right; tests only.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


def _read_cost(consumer: Window, provider: Window, model: CostModel) -> int:
    """Per-instance read cost of ``consumer`` from ``provider``.

    Reading from the virtual root means reading raw events at rate η.
    """
    if provider is VIRTUAL_ROOT:
        return model.raw_instance_cost(consumer)
    return covering_multiplier(consumer, provider)


def factor_benefit(
    target: Window,
    downstream: Sequence[Window],
    factor: Window,
    period: int,
    model: CostModel,
) -> int:
    """``δf = c' − c`` — the cost saved by inserting ``factor``.

    ``c'`` is the cost of the Figure-9 configuration without the factor
    (each ``Wj`` reads from ``target``), ``c`` the cost with it (each
    ``Wj`` reads from ``factor``, which reads from ``target``).  The
    cost of ``target`` itself cancels out.  This is Equation 2 in
    expanded (pre-simplification) form, generalized to ``η > 1`` when
    ``target`` is the virtual root.
    """
    without = 0
    with_factor = 0
    for consumer in downstream:
        n = model.recurrence_count(consumer, period)
        without += n * _read_cost(consumer, target, model)
        with_factor += n * _read_cost(consumer, factor, model)
    n_factor = model.recurrence_count(factor, period)
    with_factor += n_factor * _read_cost(factor, target, model)
    return without - with_factor


def find_best_factor_covered(
    target: Window,
    downstream: Sequence[Window],
    period: int,
    model: CostModel,
    exclude: Iterable[Window] = (),
) -> "FactorCandidate | None":
    """Algorithm 2: the best factor window under ``covered_by``.

    Returns ``None`` when no candidate has strictly positive benefit
    (the paper initializes ``δmax = 0`` and requires ``δf > δmax``).
    """
    best: FactorCandidate | None = None
    for factor in generate_candidates_covered(target, downstream, exclude):
        benefit = factor_benefit(target, downstream, factor, period, model)
        if benefit > 0 and (best is None or benefit > best.benefit):
            best = FactorCandidate(factor, benefit)
    return best


def _lambda(downstream: Sequence[Window], period: int) -> Fraction:
    """``λ = Σ_j n_j / m_j`` (Equation 4)."""
    total = Fraction(0)
    for window in downstream:
        n = window.recurrence_count(period)
        m = Fraction(period, window.range)
        total += Fraction(n) / m
    return total


def is_beneficial_partitioned(
    factor: Window,
    target: Window,
    downstream: Sequence[Window],
    period: int,
) -> bool:
    """Algorithm 4: does a tumbling ``factor`` between tumbling
    ``target`` and ``downstream`` reduce total cost?

    * ``K >= 2`` → yes: at least one downstream window benefits.
    * ``K == 1`` with a tumbling downstream (``k1 == 1``) → no: the
      factor just relays the same sub-aggregates.
    * ``K == 1``, hopping downstream: yes when ``k1 >= 3`` and
      ``m1 >= 3``; otherwise test ``rf/rW >= λ/(λ−1)`` exactly.
    """
    if len(downstream) >= 2:
        return True
    if not downstream:
        return False
    only = downstream[0]
    k1 = only.instances_per_event
    if k1 == 1:
        return False
    m1 = Fraction(period, only.range)
    if k1 >= 3 and m1 >= 3:
        return True
    lam = _lambda(downstream, period)
    if lam <= 1:
        return False
    ratio = Fraction(factor.range, target.range)
    return ratio >= lam / (lam - 1)


def prefer_candidate(
    left: Window,
    right: Window,
    target: Window,
    downstream: Sequence[Window],
    period: int,
) -> bool:
    """Theorem 9: ``cost(left) <= cost(right)`` for independent tumbling
    candidates ``left``/``right`` over tumbling ``target``.

    The paper states the condition as
    ``rf / r'f >= (λ − rf/rW) / (λ − r'f/rW)``; this evaluates the
    equivalent pre-division form
    ``λ − rf/rW <= (rf/r'f) · (λ − r'f/rW)``,
    which avoids the sign flip when ``λ < r'f/rW`` (routine whenever the
    target is the virtual root, where ``rW = 1``).
    """
    lam = _lambda(downstream, period)
    r_w = target.range
    lhs = lam - Fraction(left.range, r_w)
    rhs = Fraction(left.range, right.range) * (
        lam - Fraction(right.range, r_w)
    )
    return lhs <= rhs


def prune_dependent_candidates(candidates: Sequence[Window]) -> list[Window]:
    """Algorithm 5, lines 14-16: drop any candidate that covers another.

    If ``W'f <= Wf`` (``W'f`` covered by ``Wf``), ``Wf`` is dominated:
    relaying through the finer window cannot beat using the coarser one
    directly (Example 8 keeps W(10,10) and drops W(5,5), W(2,2)).
    """
    kept = []
    for factor in candidates:
        dominated = any(
            other != factor and covered_by(other, factor)
            for other in candidates
        )
        if not dominated:
            kept.append(factor)
    return kept


def find_best_factor_partitioned(
    target: Window,
    downstream: Sequence[Window],
    period: int,
    model: CostModel,
    exclude: Iterable[Window] = (),
) -> "FactorCandidate | None":
    """Algorithm 5: the best tumbling factor under ``partitioned_by``."""
    candidates = generate_candidates_partitioned(target, downstream, exclude)
    beneficial = [
        factor for factor in candidates
        if is_beneficial_partitioned(factor, target, downstream, period)
    ]
    independent = prune_dependent_candidates(beneficial)
    best: Window | None = None
    for factor in independent:
        if best is None or prefer_candidate(
            factor, best, target, downstream, period
        ):
            best = factor
    if best is None:
        return None
    benefit = factor_benefit(target, downstream, best, period, model)
    if benefit <= 0:
        return None
    return FactorCandidate(best, benefit)


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

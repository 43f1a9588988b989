"""Factor windows — Section IV.

A *factor window* (Definition 6) is an auxiliary window not in the user
query that can nevertheless reduce total cost by sitting between a
provider ``W`` and its downstream windows ``W1..WK`` (Figure 9).

This module implements:

* the benefit ``δf`` of inserting a factor window (Equation 2),
* Algorithm 2 — candidate generation/selection under ``covered_by``,
* Algorithm 4 — the constant-time benefit test under ``partitioned_by``
  (Theorem 8),
* Theorem 9 — the comparator for independent tumbling candidates,
* Algorithm 5 — candidate generation/selection under ``partitioned_by``.

The candidate spaces of Algorithms 2 and 5 and the regression-safe
benefit gate are plain integer arithmetic on ``(range, slide)`` pairs
(:func:`candidate_grid`, :func:`price_factor`): the optimizer's search
prices thousands of grid points per target and allocates a ``Window``
only for a winner.  The ``Window``-level functions here are wrappers
over that arithmetic.

All arithmetic is exact (integers / ``fractions.Fraction``); no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from ..windows.coverage import (
    CoverageSemantics,
    covered_by,
    covering_multiplier,
)
from ..windows.window import VIRTUAL_ROOT, Window
from .cost import CostModel


@dataclass(frozen=True)
class FactorCandidate:
    """A candidate factor window together with its computed benefit."""

    window: Window
    benefit: int

    def __lt__(self, other: "FactorCandidate") -> bool:  # pragma: no cover
        return (self.benefit, self.window) < (other.benefit, other.window)


@lru_cache(maxsize=4096)
def _divisors(value: int) -> tuple[int, ...]:
    """All positive divisors of ``value``, ascending.

    Memoized: the search asks for the divisors of the same few gcds at
    every target, and divisor tuples are tiny and immutable.
    """
    small, large = [], []
    d = 1
    while d * d <= value:
        if value % d == 0:
            small.append(d)
            if d != value // d:
                large.append(value // d)
        d += 1
    return tuple(small + large[::-1])


def _read_cost(
    consumer: Window, provider: Window, model: CostModel
) -> int:
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


# ----------------------------------------------------------------------
# The candidate space in closed form (Theorems 1 and 4)
# ----------------------------------------------------------------------
def subset_signature(downstream: Sequence[Window]) -> tuple[int, int]:
    """``(g, r_min)`` — all a downstream set contributes to its
    candidate space: ``g = gcd`` of every slide and range, and the
    smallest range.  Sets with equal signatures have equal spaces."""
    return (
        math.gcd(*(w.slide for w in downstream), *(w.range for w in downstream)),
        min(w.range for w in downstream),
    )


def candidate_grid(
    target_range: int,
    target_slide: int,
    g: int,
    r_min: int,
    partitioned: bool,
) -> Iterator[tuple[int, Sequence[int]]]:
    """Every ``(sf, ranges)``: an eligible factor slide and, ascending,
    the factor ranges eligible with it.

    A factor ``W⟨rf, sf⟩`` with ``sf | rf`` sits between the target
    and a downstream set of signature ``(g, r_min)`` exactly when

    * covered-by (Theorem 1): ``s_target | sf | g``,
      ``rf ≡ r_target (mod s_target)`` and ``r_target < rf < r_min`` —
      ``sf`` divides every downstream slide, and every downstream range
      because ``rf`` is a multiple of it;
    * partitioned-by (Theorem 4): additionally the target and the
      factor tumble, so ``r_target | rf | g``.

    Slides ascend, so flattening the grid reproduces the order in which
    Algorithms 2 and 5 enumerate their candidates.
    """
    if partitioned:
        if target_range != target_slide:
            return
        for rf in _divisors(g):
            if rf % target_range == 0 and target_range < rf < r_min:
                yield rf, (rf,)
    elif target_range % target_slide == 0:
        # s_target | sf | rf, so the congruence only asks s_target | r_target.
        for sf in _divisors(g):
            if sf % target_slide == 0:
                first = (target_range // sf + 1) * sf
                yield sf, range(first, r_min, sf)


def _generate_candidates(
    target: Window,
    downstream: Sequence[Window],
    exclude: Iterable[Window],
    partitioned: bool,
) -> list[Window]:
    if not downstream:
        return []
    excluded = {target, *downstream, *exclude}
    grid = candidate_grid(
        target.range, target.slide, *subset_signature(downstream), partitioned
    )
    candidates = (Window(rf, sf) for sf, ranges in grid for rf in ranges)
    return [factor for factor in candidates if factor not in excluded]


# ----------------------------------------------------------------------
# Algorithm 2 — "covered by" semantics
# ----------------------------------------------------------------------
def generate_candidates_covered(
    target: Window,
    downstream: Sequence[Window],
    exclude: Iterable[Window] = (),
) -> list[Window]:
    """Candidate factor windows per Algorithm 2, lines 1-11.

    Eligible slides ``sf`` divide ``sd = gcd(s1..sK)`` and are multiples
    of ``s_target``; eligible ranges ``rf < rmin`` are multiples of
    ``sf``.  Candidates satisfy the Figure-9 coverage constraints
    ``Wf <= W`` and ``Wj <= Wf`` by construction
    (:func:`candidate_grid`), and must not duplicate an existing window
    (Definition 6).
    """
    return _generate_candidates(target, downstream, exclude, False)


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


# ----------------------------------------------------------------------
# Algorithm 4 + Theorem 8 — benefit test under "partitioned by"
# ----------------------------------------------------------------------
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
    ``rf / r'f >= (λ − rf/rW) / (λ − r'f/rW)``; we evaluate the
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


# ----------------------------------------------------------------------
# Algorithm 5 — "partitioned by" semantics
# ----------------------------------------------------------------------
def generate_candidates_partitioned(
    target: Window,
    downstream: Sequence[Window],
    exclude: Iterable[Window] = (),
) -> list[Window]:
    """Candidate *tumbling* factor windows per Algorithm 5, lines 3-12.

    ``rf`` must divide ``rd = gcd(r1..rK)`` and be a multiple of
    ``r_target``.  Beyond the paper we also require full partitioned-by
    coverage of each downstream window (``s_j % rf == 0``), which only
    matters when downstream windows hop — a strict-superset safety
    check (see DESIGN.md §3).
    """
    return _generate_candidates(target, downstream, exclude, True)


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


def find_best_factor(
    target: Window,
    downstream: Sequence[Window],
    period: int,
    model: CostModel,
    semantics: CoverageSemantics,
    exclude: Iterable[Window] = (),
) -> "FactorCandidate | None":
    """Dispatch to Algorithm 2 or Algorithm 5 based on semantics."""
    if semantics is CoverageSemantics.PARTITIONED_BY:
        return find_best_factor_partitioned(
            target, downstream, period, model, exclude
        )
    return find_best_factor_covered(target, downstream, period, model, exclude)


# ----------------------------------------------------------------------
# Global benefit — the regression-safe insertion gate (DESIGN.md §3)
# ----------------------------------------------------------------------
def node_rows(
    graph, period: int, model: CostModel
) -> list[tuple[int, int, int, int]]:
    """``(range, slide, n, µ)`` per non-root node of ``graph``, in node
    order: its recurrence count over ``period`` and the minimum
    instance cost it can reach in the graph now — the cheaper of
    reading raw events and reading its best in-graph provider
    (Observation 1 applied to the whole graph)."""
    rows = []
    for window in graph.nodes:
        if window is VIRTUAL_ROOT:
            continue
        r = window.range
        best = model.raw_instance_cost(window)
        for provider in graph.providers_of(window):
            if provider is not VIRTUAL_ROOT:
                best = min(best, 1 + (r - provider.range) // provider.slide)
        rows.append((r, window.slide, window.recurrence_count(period), best))
    return rows


def split_by_slide(
    rows: Sequence[tuple[int, int, int, int]], sf: int, partitioned: bool
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    """The slide half of both coverage tests, done once per ``sf``:
    the ``(range, n, µ)`` of rows whose slide a factor of slide ``sf``
    divides (its possible readers) and the ``(range, slide)`` of rows
    whose slide divides ``sf`` (its possible providers — tumbling ones
    only under partitioned-by)."""
    readers = [(r, n, mu) for r, s, n, mu in rows if s % sf == 0]
    sources = [
        (r, s) for r, s, _, _ in rows
        if sf % s == 0 and (r == s or not partitioned)
    ]
    return readers, sources


def price_factor(
    rf: int,
    sf: int,
    readers: Sequence[tuple[int, int, int]],
    sources: Sequence[tuple[int, int]],
    event_rate: int,
    period: int,
) -> int:
    """Total-cost change of inserting ``W⟨rf, sf⟩``: what every reader
    saves against its current best instance cost, minus the cost of
    computing the factor from its own best provider (from raw events
    when none covers it).  ``readers`` / ``sources`` come from
    :func:`split_by_slide`; ``sf`` must divide ``period − rf``.
    """
    gain = 0
    for r, n, mu in readers:
        if r > rf and (r - rf) % sf == 0:
            multiplier = 1 + (r - rf) // sf
            if multiplier < mu:
                gain += n * (mu - multiplier)
    read = event_rate * rf
    for r, s in sources:
        if r < rf and (rf - r) % s == 0:
            read = min(read, 1 + (rf - r) // s)
    return gain - (1 + (period - rf) // sf) * read


def global_factor_benefit(
    graph,
    factor: Window,
    period: int,
    model: CostModel,
) -> int:
    """Exact total-cost change of inserting ``factor`` into ``graph``.

    Equation 2 prices a factor assuming its downstream windows read
    from the insertion target; when they already have cheaper providers
    that over-estimates the gain and Algorithm 3 can *regress* (our
    property tests found concrete cases).  This variant prices the
    candidate against each window's *current best* instance cost, so a
    positive value guarantees Algorithm 1 over the expanded graph
    strictly improves.
    """
    factor.recurrence_count(period)  # raises unless sf | (period - rf)
    partitioned = graph.semantics is CoverageSemantics.PARTITIONED_BY
    rows = [
        row for row in node_rows(graph, period, model)
        if row[:2] != (factor.range, factor.slide)
    ]
    readers, sources = split_by_slide(rows, factor.slide, partitioned)
    if partitioned and not factor.is_tumbling:
        readers = []  # only a tumbling window partitions others (Theorem 4)
    return price_factor(
        factor.range, factor.slide, readers, sources, model.event_rate, period
    )

"""Factor windows — Section IV.

A *factor window* (Definition 6) is an auxiliary window not in the user
query that can nevertheless reduce total cost by sitting between a
provider ``W`` and its downstream windows ``W1..WK`` (Figure 9).

The optimizer's search (:func:`~repro.core.optimizer.insert_factor_windows`)
runs on plain integer arithmetic over ``(range, slide)`` pairs:

* :func:`candidate_grid` — the candidate spaces of Algorithm 2
  (``covered_by``) and Algorithm 5 (``partitioned_by``) in closed form
  (Theorems 1 and 4), from a downstream set's :func:`subset_signature`;
* :func:`price_factor` — the regression-safe benefit gate: the exact
  total-cost change of inserting a candidate against every node's
  current best instance cost (:func:`node_rows`, :func:`split_by_slide`),
  in place of Equation 2's read-from-target assumption (DESIGN.md §3).

It prices thousands of grid points per target and allocates a
``Window`` only for a winner.  The paper-text forms — Equation 2,
Algorithms 2, 4 and 5 and Theorem 9 over ``Window`` objects — are the
test oracle ``tests/core/oracle_factor_search.py``.

All arithmetic is exact integers; no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

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

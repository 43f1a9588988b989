"""Exhaustive factor-window search — the paper's "ideal, optimal" bound.

Footnote 3 of Section IV notes that Algorithm 3 is a heuristic for an
NP-hard Steiner-tree problem: an optimal solver would enumerate *all*
valid candidate factor windows, insert them into the WCG, and solve the
Steiner tree exactly.  This module implements that search for small
instances so tests and ablation benchmarks can measure the gap.

The search enumerates every subset (up to ``max_factors``) of the full
candidate pool and runs Algorithm 1 on each expanded graph.  Because
Algorithm 1 is exact once the node set is fixed, the minimum over all
subsets is the true optimum within the candidate pool.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable

from ..errors import CostModelError
from ..windows.coverage import CoverageSemantics, strictly_relates
from ..windows.window import Window, WindowSet
from .cost import CostModel, MinCostWCG, minimize_cost, prune_useless_factors
from .factor import _divisors
from .wcg import WindowCoverageGraph


@lru_cache(maxsize=256)
def _pool_cached(
    user: tuple[Window, ...], semantics: CoverageSemantics
) -> tuple[Window, ...]:
    """Uncapped candidate pool for a window tuple (memoized).

    The exhaustive search and its ablation benchmarks enumerate the
    same pool for every subset size; windows are immutable and
    hashable, so the pool is a pure function of ``(user, semantics)``.
    """
    pool: list[Window] = []
    seen: set[Window] = set(user)
    if semantics is CoverageSemantics.PARTITIONED_BY:
        for window in user:
            for rf in _divisors(window.range):
                if rf == window.range:
                    continue
                factor = Window(rf, rf)
                if factor in seen:
                    continue
                if strictly_relates(window, factor, semantics):
                    pool.append(factor)
                    seen.add(factor)
    else:
        divisors = set()
        for window in user:
            divisors.update(_divisors(window.slide))
        r_max = max(w.range for w in user)
        for sf in sorted(divisors):
            for rf in range(sf, r_max + 1, sf):
                factor = Window(rf, sf)
                if factor in seen:
                    continue
                if any(strictly_relates(w, factor, semantics) for w in user):
                    pool.append(factor)
                    seen.add(factor)
    return tuple(sorted(pool))


def candidate_pool(
    windows: "WindowSet | Iterable[Window]",
    semantics: CoverageSemantics,
    max_candidates: int = 64,
) -> list[Window]:
    """All windows that cover at least one user window (Definition 6).

    For ``partitioned_by``: tumbling windows whose range divides some
    user range.  For ``covered_by``: windows ``⟨rf, sf⟩`` with ``sf``
    dividing some user slide and ``rf`` a multiple of ``sf`` up to the
    largest user range.  The pool is capped to keep the search finite.
    """
    pool = _pool_cached(tuple(windows), semantics)
    if len(pool) > max_candidates:
        raise CostModelError(
            f"candidate pool has {len(pool)} windows; exhaustive search is "
            f"capped at {max_candidates} (pass a larger max_candidates to "
            "override at your own peril)"
        )
    return list(pool)


def exhaustive_min_cost(
    windows: "WindowSet | Iterable[Window]",
    semantics: CoverageSemantics,
    model: "CostModel | None" = None,
    max_factors: int = 3,
    max_candidates: int = 64,
) -> MinCostWCG:
    """The cheapest min-cost WCG over all factor subsets of the pool.

    Exponential in ``max_factors`` — intended for ablation on window
    sets of a handful of windows only.
    """
    model = model or CostModel()
    window_set = windows if isinstance(windows, WindowSet) else WindowSet(list(windows))
    window_set.validate_for_cost_model()
    pool = candidate_pool(window_set, semantics, max_candidates)
    period = model.hyper_period(window_set)

    best: MinCostWCG | None = None
    subsets: Iterable[tuple[Window, ...]] = (
        subset
        for size in range(min(max_factors, len(pool)) + 1)
        for subset in combinations(pool, size)
    )
    for subset in subsets:
        graph = WindowCoverageGraph.build(
            window_set, semantics, factors=subset
        )
        result = minimize_cost(graph, model, period=period)
        result = prune_useless_factors(result)
        if best is None or result.total_cost < best.total_cost:
            best = result
    assert best is not None  # at least the empty subset ran
    return best

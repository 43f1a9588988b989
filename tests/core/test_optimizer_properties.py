"""Property-based tests on the optimizer (DESIGN.md invariants 3-4, 7-8)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import (
    min_cost_wcg,
    min_cost_wcg_with_factors,
    optimize,
)
from repro.aggregates.registry import MIN, SUM
from repro.windows.coverage import CoverageSemantics
from repro.windows.window import Window, WindowSet

PART = CoverageSemantics.PARTITIONED_BY
COV = CoverageSemantics.COVERED_BY

# Window sets with modest lcm: ranges are multiples of a few seeds.
tumbling_sets = st.lists(
    st.sampled_from([2, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24, 30, 40, 60]),
    min_size=2,
    max_size=5,
    unique=True,
).map(lambda ranges: WindowSet([Window(r, r) for r in ranges]))

hopping_sets = st.lists(
    st.tuples(st.sampled_from([2, 4, 5, 6, 10, 12]), st.integers(2, 4)),
    min_size=2,
    max_size=4,
    unique_by=lambda t: t,
).map(
    lambda pairs: WindowSet(
        _dedupe(Window(k * s, s) for s, k in pairs)
    )
)


def _dedupe(windows):
    seen, out = set(), []
    for w in windows:
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


@given(windows=tumbling_sets)
@settings(max_examples=60, deadline=None)
def test_algorithm_1_never_exceeds_baseline(windows):
    result = min_cost_wcg(windows, PART)
    assert result.total_cost <= result.baseline


@given(windows=tumbling_sets)
@settings(max_examples=60, deadline=None)
def test_algorithm_3_never_exceeds_algorithm_1(windows):
    plain = min_cost_wcg(windows, PART)
    factored, _ = min_cost_wcg_with_factors(windows, PART)
    assert factored.total_cost <= plain.total_cost


@given(windows=hopping_sets)
@settings(max_examples=60, deadline=None)
def test_covered_by_improvements_hold_for_hopping(windows):
    plain = min_cost_wcg(windows, COV)
    factored, _ = min_cost_wcg_with_factors(windows, COV)
    assert plain.total_cost <= plain.baseline
    assert factored.total_cost <= plain.total_cost


@given(windows=tumbling_sets)
@settings(max_examples=60, deadline=None)
def test_gmin_is_always_a_forest(windows):
    result = min_cost_wcg(windows, PART)
    assert result.graph.is_forest()
    factored, _ = min_cost_wcg_with_factors(windows, PART)
    assert factored.graph.is_forest()


@given(windows=tumbling_sets)
@settings(max_examples=40, deadline=None)
def test_inserted_factors_have_positive_benefit(windows):
    _, inserted = min_cost_wcg_with_factors(windows, PART)
    for candidate in inserted:
        assert candidate.benefit > 0


@given(windows=tumbling_sets)
@settings(max_examples=40, deadline=None)
def test_kept_factor_windows_have_consumers(windows):
    result, _ = min_cost_wcg_with_factors(windows, PART)
    for factor in result.factor_windows:
        assert result.graph.out_degree(factor) > 0


@given(windows=tumbling_sets, rate=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_event_rate_scales_baseline_linearly(windows, rate):
    base = optimize(windows, SUM, event_rate=1).baseline_cost
    scaled = optimize(windows, SUM, event_rate=rate).baseline_cost
    assert scaled == rate * base


@given(windows=tumbling_sets)
@settings(max_examples=40, deadline=None)
def test_min_and_sum_agree_on_tumbling_sets(windows):
    """Covered-by and partitioned-by coincide on tumbling windows, so
    MIN (covered-by) and SUM (partitioned-by) must optimize alike."""
    via_min = optimize(windows, MIN)
    via_sum = optimize(windows, SUM)
    assert via_min.best_cost == via_sum.best_cost

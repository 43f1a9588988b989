"""Tests for factor windows (Section IV): Algorithms 2, 4, 5.

The paper-text functions are the test oracle ``oracle_factor_search``;
the optimizer's integer search is held to them by
``test_factor_search_differential.py``.
"""

from oracle_factor_search import (
    factor_benefit,
    find_best_factor_covered,
    find_best_factor_partitioned,
    generate_candidates_covered,
    generate_candidates_partitioned,
    is_beneficial_partitioned,
    prefer_candidate,
    prune_dependent_candidates,
)
from repro.core.cost import CostModel
from repro.core.optimizer import min_cost_wcg_with_factors
from repro.windows.coverage import CoverageSemantics
from repro.windows.window import VIRTUAL_ROOT, Window, WindowSet

MODEL = CostModel()
PART = CoverageSemantics.PARTITIONED_BY


class TestBenefit:
    def test_example_7_benefit_of_w10(self, example7_windows):
        # Inserting W(10,10) under the root turns 246 into 150: δ = 96.
        downstream = [Window(20, 20), Window(30, 30)]
        benefit = factor_benefit(
            VIRTUAL_ROOT, downstream, Window(10, 10), 120, MODEL
        )
        # Without: 120 + 120 = 240.  With: c_f=120, 12 + 12 = 144... δ = 96.
        assert benefit == 96

    def test_negative_benefit_for_single_tumbling_downstream(self):
        # Algorithm 4 case K=1, k1=1: relaying helps nobody.
        downstream = [Window(40, 40)]
        benefit = factor_benefit(
            Window(10, 10), downstream, Window(20, 20), 120, MODEL
        )
        assert benefit <= 0

    def test_benefit_counts_factor_cost(self):
        # The factor's own computation cost must be charged.
        downstream = [Window(60, 60), Window(90, 90)]
        factor = Window(30, 30)
        period = 180
        without = sum(
            w.recurrence_count(period) * MODEL.raw_instance_cost(w)
            for w in downstream
        )
        with_f = (
            factor.recurrence_count(period) * MODEL.raw_instance_cost(factor)
            + Window(60, 60).recurrence_count(period) * 2
            + Window(90, 90).recurrence_count(period) * 3
        )
        assert factor_benefit(
            VIRTUAL_ROOT, downstream, factor, period, MODEL
        ) == without - with_f


class TestAlgorithm2CoveredBy:
    def test_candidate_constraints(self):
        target = VIRTUAL_ROOT
        downstream = [Window(20, 10), Window(40, 10)]
        candidates = generate_candidates_covered(target, downstream)
        for factor in candidates:
            assert 10 % factor.slide == 0  # sf divides gcd of slides
            assert factor.range % factor.slide == 0
            assert factor.range <= 20  # rf <= rmin
        assert Window(10, 10) in candidates

    def test_excludes_existing_windows(self):
        downstream = [Window(20, 10), Window(40, 10)]
        candidates = generate_candidates_covered(
            VIRTUAL_ROOT, downstream, exclude=[Window(10, 10)]
        )
        assert Window(10, 10) not in candidates

    def test_empty_downstream(self):
        assert generate_candidates_covered(VIRTUAL_ROOT, []) == []

    def test_best_factor_has_positive_benefit(self):
        downstream = [Window(40, 20), Window(60, 20), Window(80, 20)]
        best = find_best_factor_covered(
            VIRTUAL_ROOT, downstream, 240, MODEL
        )
        assert best is not None
        assert best.benefit > 0
        recomputed = factor_benefit(
            VIRTUAL_ROOT, downstream, best.window, 240, MODEL
        )
        assert recomputed == best.benefit

    def test_best_factor_is_argmax(self):
        downstream = [Window(40, 20), Window(60, 20), Window(80, 20)]
        best = find_best_factor_covered(VIRTUAL_ROOT, downstream, 240, MODEL)
        for factor in generate_candidates_covered(VIRTUAL_ROOT, downstream):
            assert (
                factor_benefit(VIRTUAL_ROOT, downstream, factor, 240, MODEL)
                <= best.benefit
            )

    def test_no_factor_when_nothing_beneficial(self):
        # A single tumbling downstream window: no factor can help.
        best = find_best_factor_covered(
            Window(10, 10), [Window(20, 20)], 120, MODEL
        )
        assert best is None


class TestAlgorithm4Beneficial:
    def test_k_geq_2_always_beneficial(self):
        assert is_beneficial_partitioned(
            Window(10, 10),
            VIRTUAL_ROOT,
            [Window(20, 20), Window(30, 30)],
            120,
        )

    def test_k_1_tumbling_never_beneficial(self):
        assert not is_beneficial_partitioned(
            Window(20, 20), Window(10, 10), [Window(40, 40)], 120
        )

    def test_k_1_hopping_with_large_k1_m1(self):
        # k1 = r/s = 4 >= 3 and m1 = R/r >= 3: beneficial.
        downstream = [Window(40, 10)]
        assert is_beneficial_partitioned(
            Window(20, 20), Window(10, 10), downstream, 120
        )

    def test_k_1_hopping_small_case_uses_ratio(self):
        # k1 = 2, m1 = 2: λ/(λ-1) = 1 + m1/((m1-1)(k1-1)) = 3.
        downstream = [Window(20, 10)]  # k1 = 2
        period = 40  # m1 = 2
        # rf/rW = 10 / 5 = 2 < 3: not beneficial.
        assert not is_beneficial_partitioned(
            Window(10, 10), Window(5, 5), downstream, period
        )
        # rf/rW = 10 / 2 = 5 >= 3: beneficial.
        assert is_beneficial_partitioned(
            Window(10, 10), Window(2, 2), downstream, period
        )

    def test_empty_downstream_not_beneficial(self):
        assert not is_beneficial_partitioned(
            Window(10, 10), VIRTUAL_ROOT, [], 120
        )


class TestAlgorithm5PartitionedBy:
    def test_example_8_candidates(self, example7_windows):
        # Candidates for the root: divisors of gcd(20,30,40)=10 → 2, 5, 10.
        candidates = generate_candidates_partitioned(
            VIRTUAL_ROOT, list(example7_windows)
        )
        assert set(candidates) == {
            Window(2, 2),
            Window(5, 5),
            Window(10, 10),
        }

    def test_example_8_pruning_keeps_w10(self):
        candidates = [Window(2, 2), Window(5, 5), Window(10, 10)]
        kept = prune_dependent_candidates(candidates)
        assert kept == [Window(10, 10)]

    def test_example_8_best_factor(self, example7_windows):
        best = find_best_factor_partitioned(
            VIRTUAL_ROOT, list(example7_windows), 120, MODEL
        )
        assert best is not None
        assert best.window == Window(10, 10)

    def test_gcd_equal_to_target_range_yields_nothing(self):
        # rd == rW → Algorithm 5 line 5 (no factor possible).
        assert (
            generate_candidates_partitioned(
                Window(10, 10), [Window(20, 10), Window(30, 30)]
            )
            == []
        )

    def test_candidates_are_tumbling(self, example7_windows):
        for factor in generate_candidates_partitioned(
            VIRTUAL_ROOT, list(example7_windows)
        ):
            assert factor.is_tumbling

    def test_hopping_downstream_requires_slide_divisibility(self):
        # W(20,10): a factor W(4,4) divides the range gcd but not the
        # slide → our strict superset check rejects it.
        downstream = [Window(20, 10), Window(40, 10)]
        candidates = generate_candidates_partitioned(VIRTUAL_ROOT, downstream)
        assert Window(4, 4) not in candidates
        assert Window(10, 10) in candidates


class TestTheorem9Comparator:
    def test_prefers_larger_range_for_many_downstreams(self, example7_windows):
        downstream = list(example7_windows)
        assert prefer_candidate(
            Window(10, 10), Window(5, 5), VIRTUAL_ROOT, downstream, 120
        )

    def test_comparator_agrees_with_explicit_costs(self):
        downstream = [Window(60, 60), Window(90, 90), Window(120, 120)]
        period = 360
        left, right = Window(30, 30), Window(15, 15)
        explicit_left = -factor_benefit(
            VIRTUAL_ROOT, downstream, left, period, MODEL
        )
        explicit_right = -factor_benefit(
            VIRTUAL_ROOT, downstream, right, period, MODEL
        )
        assert prefer_candidate(
            left, right, VIRTUAL_ROOT, downstream, period
        ) == (explicit_left <= explicit_right)


class TestAlgorithm3EndToEnd:
    def test_example_7_with_factors(self, example7_windows):
        result, inserted = min_cost_wcg_with_factors(example7_windows, PART)
        assert result.total_cost == 150
        assert result.factor_windows == (Window(10, 10),)
        assert any(c.window == Window(10, 10) for c in inserted)

    def test_factor_plan_never_worse_than_algorithm_1(self, example7_windows):
        from repro.core.optimizer import min_cost_wcg

        with_factors, _ = min_cost_wcg_with_factors(example7_windows, PART)
        without = min_cost_wcg(example7_windows, PART)
        assert with_factors.total_cost <= without.total_cost

    def test_no_factors_when_already_optimal(self, example6_windows):
        # Example 6 already contains W(10,10); nothing useful to add.
        result, _ = min_cost_wcg_with_factors(example6_windows, PART)
        assert result.total_cost == 150

    def test_covered_by_factor_for_hopping_set(self):
        windows = WindowSet([Window(40, 20), Window(60, 20), Window(80, 20)])
        result, inserted = min_cost_wcg_with_factors(
            windows, CoverageSemantics.COVERED_BY
        )
        assert inserted  # a factor window was found
        assert result.total_cost < 3 * 240  # beats baseline

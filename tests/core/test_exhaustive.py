"""Tests for the exhaustive (Steiner-style) factor search."""

import pytest

from repro.core.cost import CostModel
from repro.core.exhaustive import candidate_pool, exhaustive_min_cost
from repro.core.optimizer import min_cost_wcg, min_cost_wcg_with_factors
from repro.errors import CostModelError
from repro.windows.coverage import CoverageSemantics
from repro.windows.window import Window, WindowSet
from repro.workloads.generators import RandomGen

PART = CoverageSemantics.PARTITIONED_BY
COV = CoverageSemantics.COVERED_BY


class TestCandidatePool:
    def test_partitioned_pool_contains_divisor_windows(self, example7_windows):
        pool = candidate_pool(example7_windows, PART)
        assert Window(10, 10) in pool
        assert Window(5, 5) in pool
        assert Window(15, 15) in pool  # divides 30
        assert Window(20, 20) not in pool  # already a user window

    def test_pool_cap_enforced(self):
        windows = WindowSet([Window(2**10, 2**10)])
        with pytest.raises(CostModelError):
            candidate_pool(windows, PART, max_candidates=3)

    def test_covered_pool_for_hopping(self):
        windows = WindowSet([Window(40, 20), Window(80, 20)])
        pool = candidate_pool(windows, COV, max_candidates=256)
        assert all(w not in windows for w in pool)
        assert any(w.slide == 20 for w in pool)


class TestExhaustiveSearch:
    def test_example_7_finds_the_known_optimum(self, example7_windows):
        best = exhaustive_min_cost(example7_windows, PART, max_factors=2)
        # Algorithm 3 already reaches 150 here; the optimum can be lower
        # (e.g. chaining W(5,5) under W(10,10)) but never higher.
        assert best.total_cost <= 150

    @pytest.mark.parametrize(
        "windows",
        [WindowSet([Window(20, 20), Window(30, 30), Window(40, 40)])]
        + [
            RandomGen(seed_ranges=(2, 5), kr=12).generate(
                3, tumbling=True, seed=seed
            )
            for seed in range(200, 208)
        ],
        ids=["example7"] + [f"random-{seed}" for seed in range(200, 208)],
    )
    def test_never_worse_than_heuristic(self, windows):
        """Each search is at least as good as the one it refines:
        exhaustive ≤ Algorithm 3 ≤ Algorithm 1 ≤ the unshared baseline."""
        baseline = CostModel().baseline_cost(windows)
        plain = min_cost_wcg(windows, PART).total_cost
        heuristic, _ = min_cost_wcg_with_factors(windows, PART)
        optimal = exhaustive_min_cost(
            windows, PART, max_factors=2, max_candidates=128
        )
        assert optimal.total_cost <= heuristic.total_cost <= plain <= baseline

    def test_never_worse_than_no_factors(self):
        windows = WindowSet([Window(20, 20), Window(50, 50)])
        plain = min_cost_wcg(windows, PART)
        optimal = exhaustive_min_cost(windows, PART, max_factors=2)
        assert optimal.total_cost <= plain.total_cost

    def test_mutually_prime_stays_at_baseline(self):
        windows = WindowSet([Window(15, 15), Window(17, 17)])
        # Factors exist (divisors of 15), but for two nearly-unrelated
        # windows they may or may not help; the optimum is well-defined
        # and at most the baseline.
        optimal = exhaustive_min_cost(windows, PART, max_factors=1)
        assert optimal.total_cost <= optimal.baseline

    def test_result_is_forest(self, example7_windows):
        best = exhaustive_min_cost(example7_windows, PART, max_factors=2)
        assert best.graph.is_forest()

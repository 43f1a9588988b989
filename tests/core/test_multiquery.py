"""Tests for multi-query workload optimization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.registry import MAX, MEDIAN, MIN, SUM
from repro.core.multiquery import Query, optimize_workload
from repro.errors import CostModelError
from repro.windows.window import Window, WindowSet
from repro.workloads.generators import SequentialGen


def _q(name, ranges, aggregate=MIN):
    return Query(
        name=name,
        windows=WindowSet([Window(r, r) for r in ranges]),
        aggregate=aggregate,
    )


class TestGrouping:
    def test_same_aggregate_shares_one_group(self):
        plan = optimize_workload([_q("a", [20, 40]), _q("b", [30, 60])])
        assert len(plan.groups) == 1
        assert len(plan.groups[0].queries) == 2

    def test_different_aggregates_split_groups(self):
        plan = optimize_workload(
            [_q("a", [20, 40], MIN), _q("b", [20, 40], SUM)]
        )
        assert len(plan.groups) == 2

    def test_min_and_max_do_not_share(self):
        # Same semantics but different functions: partials differ.
        plan = optimize_workload(
            [_q("a", [20, 40], MIN), _q("b", [20, 40], MAX)]
        )
        assert len(plan.groups) == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(CostModelError):
            optimize_workload([_q("a", [20]), _q("a", [30])])

    def test_empty_workload_rejected(self):
        with pytest.raises(CostModelError):
            optimize_workload([])

    def test_empty_query_rejected(self):
        with pytest.raises(CostModelError):
            Query(name="a", windows=WindowSet(), aggregate=MIN)


class TestSharingGains:
    def test_duplicate_windows_collapse(self):
        # Two identical dashboards: the shared plan pays once.
        plan = optimize_workload([_q("a", [20, 40]), _q("b", [20, 40])])
        assert plan.sharing_gain >= 2.0 * 0.99

    def test_cross_query_coverage_exploited(self):
        # Query a has W(10); query b's W(20)/W(40) can read from it only
        # in the merged WCG.
        plan = optimize_workload([_q("a", [10]), _q("b", [20, 40])])
        assert plan.shared_cost < plan.independent_cost

    def test_never_worse_than_independent(self):
        plan = optimize_workload(
            [_q("a", [20, 30]), _q("b", [40, 60]), _q("c", [30, 90])]
        )
        assert plan.shared_cost <= plan.independent_cost
        assert plan.independent_cost <= plan.baseline_cost

    def test_holistic_group_keeps_baseline(self):
        plan = optimize_workload([_q("a", [20, 40], MEDIAN)])
        group = plan.groups[0]
        assert group.semantics is None
        assert group.plan is None
        assert plan.shared_cost == plan.baseline_cost

    def test_shared_plan_validates(self):
        from repro.plans.validate import validate_plan

        plan = optimize_workload([_q("a", [20, 40]), _q("b", [30, 60])])
        validate_plan(plan.groups[0].plan)

    def test_factor_windows_shared_across_queries(self):
        # Example 7 split across two queries: the factor window W(10,10)
        # serves both.
        plan = optimize_workload([_q("a", [20, 40]), _q("b", [30])])
        gmin = plan.groups[0].gmin
        assert Window(10, 10) in gmin.factor_windows
        assert plan.groups[0].shared_cost == 150

    def test_routing_covers_every_query_window(self):
        queries = [_q("a", [20, 40]), _q("b", [30, 40])]
        plan = optimize_workload(queries)
        routing = plan.groups[0].routing()
        for query in queries:
            for window in query.windows:
                assert routing[(query.name, window)] == window

    def test_summary_text(self):
        plan = optimize_workload([_q("a", [20, 40]), _q("b", [30, 60])])
        text = plan.summary()
        assert "gain from sharing" in text
        assert "2 in 1 shared group" in text


    def test_gain_grows_with_concurrent_dashboards(self):
        """N dashboard queries of three SequentialGen windows each: every
        workload gains from sharing, and ten queries gain at least as
        much as two (the gain is not monotone step by step)."""
        gen = SequentialGen()
        gains = []
        for num_queries in (2, 4, 6, 8, 10):
            queries = [
                Query(
                    f"q{i}",
                    gen.generate(3, tumbling=True, seed=300 + i),
                    MIN,
                )
                for i in range(num_queries)
            ]
            gains.append(optimize_workload(queries).sharing_gain)
        assert all(gain >= 1.0 for gain in gains)
        assert gains[-1] >= gains[0]


class TestSubsetFactorCandidates:
    def test_factor_serving_a_descendant_subset_is_found(self):
        # Regression (hypothesis-found): in {4} ∪ {20, 30}, W(20,20)
        # hangs under W(4,4) in the union WCG, so no target's direct
        # consumer set ever contains the pair {20, 30} — and Algorithm
        # 2's gcd-of-all-downstream candidate space misses W(10,10),
        # making the shared plan (135) worse than the per-query
        # independent plans (132).  Pairwise descendant generation must
        # recover it.
        plan = optimize_workload([_q("q0", [4]), _q("q1", [30, 20])])
        assert plan.shared_cost <= plan.independent_cost
        assert plan.shared_cost == 132


class TestWorkloadProperties:
    @given(
        splits=st.lists(
            st.lists(
                st.sampled_from([4, 6, 8, 10, 12, 20, 24, 30, 40, 60]),
                min_size=1,
                max_size=3,
                unique=True,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_sharing_invariants(self, splits):
        queries = [
            _q(f"q{i}", ranges) for i, ranges in enumerate(splits)
        ]
        plan = optimize_workload(queries)
        assert plan.shared_cost <= plan.independent_cost
        assert plan.independent_cost <= plan.baseline_cost
        assert plan.sharing_gain >= 1.0

    @given(rate=st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_rate_scales_baseline(self, rate):
        queries = [_q("a", [20, 40]), _q("b", [30])]
        plan = optimize_workload(queries, event_rate=rate)
        reference = optimize_workload(queries, event_rate=1)
        assert plan.baseline_cost == rate * reference.baseline_cost

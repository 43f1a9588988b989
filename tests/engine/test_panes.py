"""Tests for the pane-partitioned columnar fast path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_logical_pairs as oracle
from repro.aggregates.registry import AVG, MAX, MIN, SUM
from repro.engine.columnar import aggregate_raw
from repro.engine.events import make_batch
from repro.engine.executor import execute_plan, results_equal
from repro.engine.panes import (
    aggregate_raw_panes,
    assemble_from_panes,
    build_pane_table,
    logical_raw_pairs,
    pane_width,
    plan_pane_groups,
)
from repro.engine.stats import ExecutionStats
from repro.errors import ExecutionError
from repro.plans.builder import original_plan
from repro.windows.window import Window, WindowSet


@pytest.fixture
def batch():
    rng = np.random.default_rng(5)
    n = 400
    return make_batch(
        np.sort(rng.integers(0, 250, n)),
        rng.normal(0, 10, n),
        keys=rng.integers(0, 3, n),
        num_keys=3,
        horizon=250,
    )


class TestPaneWidth:
    def test_tumbling_pane_is_range(self):
        assert pane_width(Window(20, 20)) == 20

    def test_hopping_pane_is_gcd(self):
        assert pane_width(Window(30, 12)) == 6
        assert pane_width(Window(20, 10)) == 10

    def test_coprime_pane_is_one(self):
        assert pane_width(Window(7, 3)) == 1


class TestLogicalRawPairs:
    @pytest.mark.parametrize(
        "window",
        [Window(10, 10), Window(20, 10), Window(30, 5), Window(12, 4)],
    )
    def test_matches_materialized_count(self, batch, window):
        stats = ExecutionStats()
        aggregate_raw(batch, window, MIN, stats)
        from repro.engine.columnar import num_complete_instances

        n_inst = num_complete_instances(window, batch.horizon)
        assert (
            logical_raw_pairs(batch.timestamps, window, n_inst)
            == stats.pairs_per_window[window]
        )

    def test_empty_inputs(self):
        assert logical_raw_pairs(np.empty(0, dtype=np.int64), Window(4, 2), 5) == 0
        assert logical_raw_pairs(np.array([3]), Window(4, 2), 0) == 0

    @given(
        timestamps=st.lists(st.integers(0, 400), max_size=60).map(
            lambda ts: np.array(sorted(ts), dtype=np.int64)
        ),
        slide=st.integers(1, 12),
        k=st.integers(1, 6),
        num_instances=st.one_of(st.none(), st.just(0), st.integers(1, 80)),
        start_instance=st.integers(0, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_per_event_oracle(
        self, timestamps, slide, k, num_instances, start_instance
    ):
        """Invariant 6 rests on these counts: the two binary searches
        must equal the per-event formula exactly, over tumbling
        (``k = 1``) and hopping windows, bounded, empty and unbounded
        instance ranges, and operators activated mid-stream."""
        window = Window(k * slide, slide)
        assert logical_raw_pairs(
            timestamps, window, num_instances, start_instance
        ) == oracle.logical_raw_pairs(
            timestamps, window, num_instances, start_instance
        )


class TestAggregateRawPanes:
    @pytest.mark.parametrize("aggregate", [MIN, MAX, SUM, AVG])
    @pytest.mark.parametrize(
        "window", [Window(10, 10), Window(20, 10), Window(45, 15)]
    )
    def test_state_matches_aggregate_raw(self, batch, window, aggregate):
        reference = aggregate_raw(batch, window, aggregate)
        panes = aggregate_raw_panes(batch, window, aggregate)
        assert panes.num_instances == reference.num_instances
        for ref, got in zip(reference.components, panes.components):
            np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_logical_pairs_match_physical_smaller(self, batch):
        window = Window(60, 5)  # k = 12
        ref_stats, pane_stats = ExecutionStats(), ExecutionStats()
        aggregate_raw(batch, window, MIN, ref_stats)
        aggregate_raw_panes(batch, window, MIN, pane_stats)
        assert (
            pane_stats.pairs_per_window[window]
            == ref_stats.pairs_per_window[window]
        )
        assert pane_stats.total_physical < ref_stats.total_physical

    def test_incompatible_shared_table_rejected(self, batch):
        table = build_pane_table(batch, 7, MIN)
        with pytest.raises(ExecutionError):
            aggregate_raw_panes(batch, Window(20, 10), MIN, table=table)

    def test_empty_batch(self):
        empty = make_batch([], [], horizon=50, num_keys=2)
        state = aggregate_raw_panes(empty, Window(10, 10), SUM)
        assert state.components[0].shape == (2, 5)
        assert (state.components[0] == 0.0).all()


def test_asking_for_more_instances_than_the_table_holds_is_an_engine_error(
    batch,
):
    """An ``ExecutionError`` naming the bound, not a bare NumPy
    ``IndexError`` from outside the ``ReproError`` hierarchy."""
    table = build_pane_table(batch, 10, MIN)
    assert table.num_panes == 25
    with pytest.raises(ExecutionError, match="outside the 25 held"):
        assemble_from_panes(table, Window(20, 10), MIN, 50)


class TestPaneSharing:
    def test_windows_grouped_by_pane_width_and_aggregate(self):
        windows = WindowSet(
            [Window(20, 10), Window(40, 10), Window(30, 15), Window(7, 3)]
        )
        plan = original_plan(windows, MIN)
        groups = plan_pane_groups(plan)
        assert set(groups) == {(10, "min"), (15, "min"), (1, "min")}
        assert groups[(10, "min")] == [Window(20, 10), Window(40, 10)]

    def test_shared_table_binned_once(self, batch):
        windows = WindowSet([Window(20, 10), Window(40, 10)])
        plan = original_plan(windows, MIN)
        result = execute_plan(batch=batch, plan=plan, engine="columnar-panes")
        # One shared pane table for both windows: N events binned once.
        assert result.stats.events_binned == batch.num_events


class TestPanesEngine:
    def test_matches_columnar_results_and_logical_pairs(self, batch):
        plan = original_plan(
            WindowSet([Window(10, 10), Window(20, 10), Window(30, 15)]), AVG
        )
        columnar = execute_plan(plan, batch, engine="columnar")
        panes = execute_plan(plan, batch, engine="columnar-panes")
        assert results_equal(columnar, panes)
        assert columnar.stats.pairs_per_window == panes.stats.pairs_per_window
        assert panes.engine == "columnar-panes"

    def test_physical_fraction_below_one_for_high_k(self):
        n = 5_000
        batch = make_batch(
            np.arange(n), np.sin(np.arange(n) / 7.0), horizon=n
        )
        plan = original_plan(WindowSet([Window(320, 20)]), MIN)  # k = 16
        result = execute_plan(plan, batch, engine="columnar-panes")
        assert result.stats.physical_fraction < 0.25

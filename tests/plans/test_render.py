"""Tests for plan renderers (Trill / Flink / tree)."""

from repro.aggregates.registry import MIN, SUM
from repro.core.optimizer import min_cost_wcg_with_factors
from repro.core.rewrite import rewrite_plan
from repro.plans.builder import original_plan
from repro.plans.render import (
    physical_path,
    physical_paths,
    to_flink,
    to_tree,
    to_trill,
)
from repro.windows.coverage import CoverageSemantics
from repro.windows.window import Window, WindowSet


def _factor_plan():
    windows = WindowSet([Window(20, 20), Window(30, 30), Window(40, 40)])
    gmin, _ = min_cost_wcg_with_factors(
        windows, CoverageSemantics.PARTITIONED_BY
    )
    return rewrite_plan(gmin, MIN, description="rewritten+factors")


class TestTrillRenderer:
    def test_original_plan_shape(self, example6_windows):
        text = to_trill(original_plan(example6_windows, MIN))
        assert text.count(".Tumbling(") == 4
        assert ".Union(" in text
        assert "Multicast" in text
        assert text.strip().endswith("return u6;") or "return" in text

    def test_factor_plan_marks_factors(self):
        text = to_trill(_factor_plan())
        assert ".Factor(" in text  # the factor window W(10,10)
        assert text.count("from sub-aggregates") == 3

    def test_hopping_rendered(self):
        plan = original_plan(WindowSet([Window(20, 10)]), MIN)
        assert ".Hopping(20, 10)" in to_trill(plan)

    def test_aggregate_name_capitalized(self):
        plan = original_plan(WindowSet([Window(20, 20)]), SUM)
        assert "w.Sum(" in to_trill(plan)


class TestFlinkRenderer:
    def test_window_calls(self):
        plan = original_plan(
            WindowSet([Window(20, 20), Window(40, 20)]), MIN
        )
        text = to_flink(plan)
        assert "TumblingEventTimeWindows.of(20)" in text
        assert "SlidingEventTimeWindows.of(40, 20)" in text
        assert ".union(" in text

    def test_aggregate_call(self):
        plan = original_plan(WindowSet([Window(20, 20)]), MIN)
        assert "new MinAggregate()" in to_flink(plan)


class TestTreeRenderer:
    def test_tree_mentions_every_operator(self):
        text = to_tree(_factor_plan())
        assert "Union" in text
        assert "MultiCast" in text
        assert "Source(Input)" in text
        assert "(factor)" in text
        assert "from 10 second" in text

    def test_tree_shows_description(self):
        text = to_tree(_factor_plan())
        assert text.startswith("[rewritten+factors]")

    def test_tree_shows_raw_origin(self, example6_windows):
        text = to_tree(original_plan(example6_windows, MIN))
        assert text.count("<- raw") == 4


class TestPhysicalPathAnnotation:
    def test_tree_annotates_paths_for_engine(self):
        text = to_tree(_factor_plan(), engine="columnar-panes")
        assert "engine=columnar-panes" in text
        assert "via panes[p=" in text
        assert "via subagg-fold[M=" in text

    def test_raw_paths_differ_by_engine(self, example6_windows):
        plan = original_plan(WindowSet([Window(40, 10)]), MIN)
        assert "panes[p=10, r/p=4]" in physical_path(
            plan.window_nodes()[0], "columnar-panes"
        )
        assert "raw-materialize[k=4]" in physical_path(
            plan.window_nodes()[0], "columnar"
        )

    def test_paths_for_every_window(self):
        plan = _factor_plan()
        paths = physical_paths(plan, "streaming-chunked")
        assert set(paths) == set(plan.windows)

    def test_holistic_path(self):
        from repro.aggregates.registry import MEDIAN

        plan = original_plan(WindowSet([Window(20, 20)]), MEDIAN)
        assert physical_path(
            plan.window_nodes()[0], "columnar-panes"
        ) == "raw-segmented-scan[holistic]"

    def test_tree_unannotated_without_engine(self):
        assert "via " not in to_tree(_factor_plan())


class TestShardFanout:
    def test_tree_header_annotated(self):
        from repro.plans.render import shard_fanout

        plan = _factor_plan()
        text = to_tree(plan, shards=4)
        assert "shards=4" in text
        assert "x4 key-hash shards" in text
        assert "global reads raw-forward" in shard_fanout(4)

    def test_holistic_tree_names_forwarding(self):
        from repro.aggregates.registry import MEDIAN

        plan = original_plan(WindowSet([Window(20, 20)]), MEDIAN)
        assert "global reads raw-forward" in to_tree(plan, shards=2)

    def test_tree_unannotated_without_shards(self):
        assert "shards=" not in to_tree(_factor_plan())

    def test_live_session_contributes_load_counters(self):
        from repro.aggregates.registry import MIN
        from repro.core.multiquery import Query
        from repro.runtime import ShardedSession

        session = ShardedSession(num_keys=4, num_shards=2, chunk_ticks=8)
        session.register(
            Query("q", WindowSet([Window(8, 4)]), MIN), scope="per_key"
        )
        for t in range(32):
            session.push(t, t % 4, float(t))
        text = to_tree(_factor_plan(), shards=session)
        session.close()
        assert "shards=2" in text
        assert "shard 0: load" in text
        assert "shard 1: load" in text
        assert "slots," in text and "keys" in text

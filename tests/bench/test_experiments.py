"""Tests for the experiment definitions (small streams, few runs).

Besides structure, these hold the paper's shapes that do not depend on
timing: the deterministic processed-pair counts of every plan, and the
optimizer-overhead bound of Fig. 12.
"""

import pytest

from repro.bench.experiments import (
    boost_summary_table,
    cost_model_correlation,
    make_stream,
    optimizer_overhead,
    render_correlation,
    render_overhead,
    run_panel,
    scotty_comparison,
    throughput_panels,
)
from repro.bench.harness import BoostSummary

EVENTS = 6_000
RUNS = 2

#: Tables I–IV: dataset, window-set sizes and stream length at this
#: file's scale (Table IV runs on the small stream, a quarter of it).
TABLES = {
    "table1": ("synthetic", (5, 10), EVENTS),
    "table2": ("real", (5, 10), EVENTS),
    "table3": ("synthetic", (15, 20), EVENTS),
    "table4": ("synthetic", (5, 10), EVENTS // 4),
}


class TestMakeStream:
    def test_synthetic(self):
        batch = make_stream("synthetic", 100)
        assert batch.num_events == 100

    def test_real(self):
        batch = make_stream("real", 100)
        assert float(batch.values.mean()) > 1000  # mf01-scale values


class TestRunPanel:
    def test_panel_structure(self):
        batch = make_stream("synthetic", EVENTS)
        panel = run_panel("random", True, 3, batch, runs=RUNS)
        assert len(panel.comparisons) == RUNS
        assert panel.setup_code == "R-3-tumbling"
        assert "partitioned by" in panel.label

    def test_series_keys(self):
        batch = make_stream("synthetic", EVENTS)
        panel = run_panel("sequential", False, 3, batch, runs=RUNS)
        series = panel.series()
        assert set(series) == {
            "Original Plan",
            "Plan w/o Factor Windows",
            "Plan w/ Factor Windows",
        }
        assert all(len(v) == RUNS for v in series.values())

    def test_render(self):
        batch = make_stream("synthetic", EVENTS)
        panel = run_panel("random", True, 3, batch, runs=RUNS)
        text = panel.render()
        assert "RandomGen" in text


class TestThroughputPanels:
    def test_four_panels(self):
        panels = throughput_panels(set_size=3, events=EVENTS, runs=RUNS)
        assert len(panels) == 4
        codes = {p.setup_code for p in panels}
        assert codes == {
            "R-3-tumbling",
            "R-3-hopping",
            "S-3-tumbling",
            "S-3-hopping",
        }


class TestSummaries:
    def test_boost_table_shape(self):
        summaries = boost_summary_table(
            set_sizes=(3,), events=EVENTS, runs=RUNS
        )
        assert len(summaries) == 4  # 2 generators x 1 size x 2 kinds
        assert all(s.runs == RUNS for s in summaries)

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_factor_windows_cut_work(self, table):
        # On processed pairs, every rewrite does no more work than the
        # original plan and factor windows no more than the rewrite;
        # SequentialGen-tumbling gains the most from factor windows.
        dataset, sizes, events = TABLES[table]
        for size in sizes:
            panels = throughput_panels(
                dataset=dataset, set_size=size, events=events, runs=4
            )
            mean_with = {}
            for panel in panels:
                for c in panel.comparisons:
                    assert (
                        c.work_reduction_with_factors
                        >= c.work_reduction_without_factors
                        >= 1.0
                    ), (panel.setup_code, c.windows)
                mean_with[panel.setup_code] = sum(
                    c.work_reduction_with_factors for c in panel.comparisons
                ) / len(panel.comparisons)
                summary = BoostSummary.from_comparisons(
                    panel.setup_code, panel.comparisons
                )
                assert summary.mean_with > 0
            if size in (10, 20):
                assert (
                    mean_with[f"S-{size}-tumbling"]
                    >= mean_with[f"R-{size}-tumbling"]
                ), mean_with


class TestOverhead:
    def test_points_and_render(self):
        points = optimizer_overhead(set_sizes=(3, 5), runs=RUNS)
        # 2 generators x 2 sizes x 2 semantics.
        assert len(points) == 8
        assert all(p.stats.mean >= 0 for p in points)
        text = render_overhead(points)
        assert "R-3" in text and "S-5" in text

    def test_paper_bound(self):
        # The paper's claim, on its own range: under 100 ms per query at
        # every |W| <= 20.  The |W| = 40 point keeps the looser bound a
        # session's register can afford.
        points = optimizer_overhead(runs=3)
        assert {p.setup for p in points} >= {"R-40", "S-40"}
        for point in points:
            set_size = int(point.setup.split("-")[1])
            assert point.stats.mean < (0.1 if set_size <= 20 else 0.5), point


class TestScottyComparison:
    def test_includes_scotty_series(self):
        panels = scotty_comparison(set_size=3, events=EVENTS, runs=RUNS)
        series = panels[0].series(include_scotty=True)
        assert set(series) == {"Flink", "Scotty", "Factor Windows"}


class TestCorrelation:
    def test_pairs_deterministic_correlation(self):
        # On processed pairs the observed speedup is the cost model's
        # prediction up to stream-boundary effects (paper, on wall
        # clock: r >= 0.94).
        panels = cost_model_correlation(
            set_sizes=(5, 10), events=30_000, runs=4
        )
        assert len(panels) == 4
        for panel in panels:
            assert len(panel.work) == len(panel.actual) == len(panel.predicted)
            assert panel.r_work >= 0.999, (panel.label, panel.r_work)

    def test_render(self):
        panels = cost_model_correlation(
            set_sizes=(3,), events=EVENTS, runs=RUNS
        )
        text = render_correlation(panels)
        assert "Pearson r" in text

"""Tests for the EXPLAIN optimizer trace."""

from repro.aggregates.registry import MEDIAN, MIN
from repro.core.explain import explain
from repro.core.optimizer import optimize
from repro.windows.window import Window, WindowSet


class TestExplain:
    def test_example_7_trace_numbers(self, example7_windows):
        text = explain(optimize(example7_windows, MIN))
        assert "baseline (independent) cost = 360" in text
        assert "[Algorithm 1] min-cost WCG — total 246" in text
        assert "[Algorithm 3] with factor windows — total 150" in text
        assert "predicted speedup 2.40x" in text

    def test_coverage_edges_listed(self, example7_windows):
        text = explain(optimize(example7_windows, MIN))
        assert "20 second -> 40 second" in text

    def test_factor_insertion_reported(self, example7_windows):
        text = explain(optimize(example7_windows, MIN))
        assert "inserted 10 second" in text
        assert "kept" in text

    def test_provider_options_enumerated(self, example7_windows):
        text = explain(optimize(example7_windows, MIN))
        # W40 considers raw and W20; the trace shows both costs.
        assert "raw events @" in text
        assert "from 20 second @ M = 2" in text

    def test_no_factor_case(self):
        windows = WindowSet([Window(15, 15), Window(17, 17)])
        text = explain(optimize(windows, MIN))
        assert "no beneficial factor window found" in text
        assert "coverage edges (0)" in text

    def test_holistic_fallback(self, example7_windows):
        text = explain(optimize(example7_windows, MEDIAN))
        assert "holistic" in text
        assert "original plan cost = 360" in text

    def test_hysteresis_free_decision_line(self, example7_windows):
        text = explain(optimize(example7_windows, MIN))
        assert "decision: plan with factor windows" in text

    def test_decision_without_factors(self):
        windows = WindowSet([Window(15, 15), Window(17, 17)])
        result = optimize(windows, MIN, enable_factor_windows=False)
        text = explain(result)
        assert "decision: plan without factor windows" in text

    def test_event_rate_shown(self, example7_windows):
        text = explain(optimize(example7_windows, MIN, event_rate=7))
        assert "η = 7" in text


class TestPhysicalPathSection:
    def test_engine_section_appended(self, example7_windows):
        result = optimize(example7_windows, MIN)
        text = explain(result, engine="columnar-panes")
        assert "physical paths (columnar-panes):" in text
        assert "panes[p=" in text

    def test_no_section_by_default(self, example7_windows):
        result = optimize(example7_windows, MIN)
        assert "physical paths" not in explain(result)

    def test_holistic_engine_section(self):
        result = optimize(WindowSet([Window(20, 20), Window(40, 40)]), MEDIAN)
        text = explain(result, engine="columnar")
        assert "physical paths" in text


class TestShardSection:
    def test_shard_section_appended(self, example7_windows):
        result = optimize(example7_windows, MIN)
        text = explain(result, shards=4)
        assert "shard fan-out (x4 key-hash shards):" in text
        assert "global reads raw-forward" in text

    def test_holistic_shard_section(self):
        result = optimize(WindowSet([Window(20, 20), Window(40, 40)]), MEDIAN)
        text = explain(result, shards=2)
        assert "raw-forward" in text

    def test_no_section_by_default(self, example7_windows):
        assert "shard fan-out" not in explain(optimize(example7_windows, MIN))

    def test_live_session_contributes_load_counters(self, example7_windows):
        from repro.core.multiquery import Query
        from repro.runtime import ShardedSession

        session = ShardedSession(num_keys=4, num_shards=2, chunk_ticks=8)
        session.register(
            Query("q", WindowSet([Window(8, 4)]), MIN), scope="per_key"
        )
        for t in range(32):
            session.push(t, t % 4, float(t))
        result = optimize(example7_windows, MIN)
        text = explain(result, shards=session)
        session.close()
        assert "shard fan-out (x2 key-hash shards):" in text
        assert "load (decayed, per shard):" in text
        assert "shard 0: load" in text
        assert "shard 1: load" in text

"""Tests for the live session, at one shard and at two.

The contract under test is DESIGN.md invariant 9: whatever schedule of
register/deregister/rate-shift a session lives through, every emitted
result is identical to a cold batch run of the final workload over the
same events — plan switches are observationally invisible.  Every test
runs in two shard-count cells (``QuerySession`` is the one-shard cell);
the last class holds the one rate-replan rule and a ``QuerySession``
to the sharded session bit for bit on a float stream (invariant 10).
"""

import numpy as np
import pytest

from repro.aggregates.registry import MEDIAN, MIN, SUM
from repro.core.multiquery import Query, optimize_workload
from repro.engine.executor import execute_plan
from repro.engine.outoforder import scramble_batch
from repro.errors import ExecutionError
from repro.plans.builder import original_plan
from repro.runtime import QuerySession, ShardedSession
from repro.runtime import core as core_module
from repro.runtime.core import INITIAL_EVENT_RATE
from repro.runtime.ingest import DEFAULT_INGEST_HIGH_WATERMARK
from repro.windows.window import Window, WindowSet

from session_streams import (
    SHARD_COUNTS,
    assert_identical,
    cold_reference,
    core_counter,
    group_runtimes,
    integer_stream,
    serial_session,
)


@pytest.fixture
def int_stream():
    return integer_stream(ticks=800, rate=2, num_keys=2, seed=11)


def assert_session_matches(session_results, cold, queries, horizon):
    """Emitted ranges bit-identical to cold run; frontiers complete."""
    for query in queries:
        for window in query.windows:
            emitted = session_results[query.name][window]
            reference = cold[(query.name, window)]
            assert emitted.frontier == reference.shape[1], (
                query.name,
                window,
            )
            segment = reference[:, emitted.start_instance:emitted.frontier]
            np.testing.assert_array_equal(emitted.values, segment)


LEDGER_SET_NAMES = (
    "random_hopping", "random_tumbling",
    "sequential_hopping", "sequential_tumbling",
)

QA = Query("a", WindowSet([Window(20, 10), Window(40, 20)]), MIN)
QB = Query("b", WindowSet([Window(30, 10)]), MIN)
QC = Query("c", WindowSet([Window(24, 12)]), SUM)
QD = Query("d", WindowSet([Window(30, 15)]), MEDIAN)


@SHARD_COUNTS
class TestBatchEquivalence:
    def test_register_before_data_equals_batch(self, shards, int_stream):
        queries = [QA, QB, QC, QD]
        cold = cold_reference(queries, int_stream)
        session = serial_session(shards, num_keys=2, hysteresis=None)
        for query in queries:
            session.register(query)
        session.push_many(int_stream.rows())
        results = session.finish(horizon=int_stream.horizon)
        for query in queries:
            for window in query.windows:
                emitted = results[query.name][window]
                assert emitted.start_instance == 0
        assert_session_matches(results, cold, queries, int_stream.horizon)

    @pytest.mark.parametrize("order_seed", [0, 1, 2])
    def test_one_at_a_time_interleaved_equals_batch(
        self, shards, int_stream, order_seed
    ):
        """Satellite: N queries registered one at a time, in random
        order, interleaved with data — per-window results identical to
        the batch multiquery optimization on the same stream."""
        rng = np.random.default_rng(order_seed)
        queries = [QA, QB, QC, QD]
        order = rng.permutation(len(queries))
        rows = list(int_stream.rows())
        # Registration points spread through the first half of the
        # stream, in random order.
        points = sorted(
            rng.integers(0, len(rows) // 2, len(queries)).tolist()
        )
        schedule = dict(zip(points, order))
        cold = cold_reference(queries, int_stream)
        session = serial_session(shards, num_keys=2, hysteresis=None)
        registered = []
        for i, (ts, key, value) in enumerate(rows):
            if i in schedule:
                query = queries[schedule[i]]
                session.register(query)
                registered.append(query.name)
            session.push(ts, key, value)
        for query in queries:
            if query.name not in registered:
                session.register(query)
        results = session.finish(horizon=int_stream.horizon)
        assert_session_matches(results, cold, queries, int_stream.horizon)

    def test_out_of_order_input_same_results(self, shards, int_stream):
        queries = [QA, QC]
        cold = cold_reference(queries, int_stream)
        scrambled = scramble_batch(int_stream, max_lateness=9, seed=3)
        session = serial_session(
            shards, num_keys=2, max_lateness=9, hysteresis=None
        )
        for query in queries:
            session.register(query)
        session.push_many(scrambled)
        results = session.finish(horizon=int_stream.horizon)
        assert session.reorder_stats.late_dropped == 0
        assert_session_matches(results, cold, queries, int_stream.horizon)

    def test_logical_pairs_match_cold_run(self, shards, int_stream):
        queries = [QA, QB]
        workload = optimize_workload(queries)
        plan = workload.groups[0].plan
        cold = execute_plan(plan, int_stream, engine="streaming-chunked")
        session = serial_session(shards, num_keys=2, hysteresis=None)
        for query in queries:
            session.register(query)
        session.push_many(int_stream.rows())
        session.finish(horizon=int_stream.horizon)
        assert (
            session.stats().pairs_per_window == cold.stats.pairs_per_window
        )


@SHARD_COUNTS
class TestPlanSwitching:
    def test_registration_reroutes_providers_seamlessly(
        self, shards
    ):
        """Adding W(10,10) turns existing raw readers into
        sub-aggregate readers; the displaced operators drain exactly
        their straddling instances."""
        stream = integer_stream(ticks=1500, rate=3, num_keys=2, seed=5)
        qa = Query("a", WindowSet([Window(20, 20), Window(40, 40)]), MIN)
        qb = Query("b", WindowSet([Window(10, 10)]), MIN)
        cold = cold_reference([qa, qb], stream)
        session = serial_session(shards, num_keys=2, hysteresis=None)
        session.register(qa)
        rows = list(stream.rows())
        for i, (ts, key, value) in enumerate(rows):
            if i == len(rows) // 2:
                session.register(qb)
            session.push(ts, key, value)
        results = session.finish(horizon=stream.horizon)
        assert_session_matches(results, cold, [qa, qb], stream.horizon)
        switch = session.switches[-1]
        assert switch.reason == "register"
        assert switch.draining >= 1  # the displaced raw reader

    def test_deregistering_provider_owner(self, shards):
        """Removing the query that owns a provider window reroutes the
        survivors back to raw; the dropped provider drains only while
        its last consumer still needs it."""
        stream = integer_stream(ticks=1500, rate=3, num_keys=2, seed=6)
        qa = Query("a", WindowSet([Window(20, 20), Window(40, 40)]), MIN)
        qb = Query("b", WindowSet([Window(10, 10)]), MIN)
        cold = cold_reference([qa], stream)
        session = serial_session(shards, num_keys=2, hysteresis=None)
        session.register(qa)
        session.register(qb)
        rows = list(stream.rows())
        for i, (ts, key, value) in enumerate(rows):
            if i == len(rows) // 2:
                session.deregister("b")
            session.push(ts, key, value)
        results = session.finish(horizon=stream.horizon)
        assert_session_matches(results, cold, [qa], stream.horizon)
        # Every draining operator eventually retired.
        for runtime in group_runtimes(session):
            assert runtime.draining == []

    def test_deregistered_results_stay_readable(
        self, shards, int_stream
    ):
        session = serial_session(shards, num_keys=2, hysteresis=None)
        session.register(QA)
        session.register(QB)
        rows = list(int_stream.rows())
        for i, (ts, key, value) in enumerate(rows):
            if i == len(rows) // 2:
                session.deregister("b")
            session.push(ts, key, value)
        results = session.finish(horizon=int_stream.horizon)
        emitted = results["b"][Window(30, 10)]
        # Window results are plan-independent (invariant 5), so the
        # partial emission must match a cold run of just that window.
        reference = execute_plan(
            original_plan(WindowSet([Window(30, 10)]), MIN),
            int_stream,
            engine="streaming-chunked",
        ).results[Window(30, 10)]
        segment = reference[:, emitted.start_instance:emitted.frontier]
        np.testing.assert_array_equal(emitted.values, segment)
        assert emitted.frontier < reference.shape[1]  # stopped early

    def test_rate_drift_triggers_live_replan(self, shards):
        """The W(6,3)/W(8,4) plan provably flips with the rate; a rate
        ramp must flip it live without disturbing results."""
        stream = integer_stream(
            ticks=1800,
            num_keys=1,
            seed=7,
            rate_segments=((1, 600), (40, 600), (1, 600)),
        )
        query = Query("f", WindowSet([Window(6, 3), Window(8, 4)]), MIN)
        cold = cold_reference([query], stream)
        session = serial_session(
            shards, num_keys=1, hysteresis=0.5, chunk_ticks=24
        )
        session.register(query)
        # A rate replan applies at the end of the push_many call that
        # observed the drift, so a live stream arrives in batches.
        rows = list(stream.rows())
        for lo in range(0, len(rows), 500):
            session.push_many(rows[lo : lo + 500])
        results = session.finish(horizon=stream.horizon)
        assert_session_matches(results, cold, [query], stream.horizon)
        rate_switches = [
            s for s in session.switches if s.reason == "rate"
        ]
        assert rate_switches, "rate drift should have re-planned live"
        assert any(s.rate > 10 for s in rate_switches)

    def test_factor_window_promoted_to_user_window(
        self, shards
    ):
        """Registering a query whose window already runs as a *factor*
        window must re-issue the operator with an emission sink (state
        adopted, nothing fresh) — the regression the plan 'shape'
        includes user-facing-ness for."""
        stream = integer_stream(ticks=1600, rate=2, num_keys=1, seed=13)
        qa = Query("a", WindowSet([Window(40, 20), Window(80, 40)]), MIN)
        # W(20,20) is exactly the factor window the optimizer inserts
        # for qa's windows.
        qb = Query("b", WindowSet([Window(20, 20)]), MIN)
        cold = cold_reference([qa, qb], stream)
        session = serial_session(shards, num_keys=1, hysteresis=None)
        session.register(qa)
        factor_windows = {
            w
            for rt in group_runtimes(session)
            for w, op in rt.ops.items()
            if op.sink is None
        }
        assert Window(20, 20) in factor_windows
        rows = list(stream.rows())
        for i, (ts, key, value) in enumerate(rows):
            if i == len(rows) // 2:
                session.register(qb)
            session.push(ts, key, value)
        results = session.finish(horizon=stream.horizon)
        assert_session_matches(results, cold, [qa, qb], stream.horizon)
        emitted = results["b"][Window(20, 20)]
        assert emitted.frontier > emitted.start_instance > 0
        switch = session.switches[-1]
        assert switch.adopted >= 3 and switch.fresh == 0

    @pytest.mark.parametrize("windows_a, windows_b, gap", [
        ([(8, 4), (16, 8)], [(6, 2)], 0),
        ([(12, 6), (18, 6)], [(2, 2), (8, 2)], 3),
    ])
    def test_reregistering_a_window_whose_dropped_operator_still_drains(
        self, shards, windows_a, windows_b, gap
    ):
        """``a`` reads from a window of ``b``.  Deregistering ``b``
        leaves that window's operator draining for ``a``'s displaced
        reader; when ``b`` comes back at once, the operator must hand
        over to its fresh twin like any displaced predecessor — it used
        to stay dropped beside it, both became sources of ``a``'s new
        uncapped reader, and ``_rewire`` raised.  A few ticks later the
        old operator's cap and the fresh start leave a gap, which the
        displaced reader must not be fed across."""
        stream = integer_stream(ticks=400, rate=1, num_keys=2, seed=3)
        qa = Query("a", WindowSet([Window(*w) for w in windows_a]), MIN)
        qb = Query("b", WindowSet([Window(*w) for w in windows_b]), MIN)
        cold = cold_reference([qa, qb], stream)
        session = serial_session(shards, num_keys=2, hysteresis=None)
        session.register(qa)
        session.register(qb)
        rows = list(stream.rows())
        for ts, key, value in rows[:101]:
            session.push(ts, key, value)
        session.deregister("b")
        for ts, key, value in rows[101 : 101 + gap]:
            session.push(ts, key, value)
        session.register(qb)
        for ts, key, value in rows[101 + gap :]:
            session.push(ts, key, value)
        results = session.finish(horizon=stream.horizon)
        assert_session_matches(results, cold, [qa, qb], stream.horizon)
        archived = results[f"b@g{session.switches[-2].generation}"]
        for window in qb.windows:
            old, new = archived[window], results["b"][window]
            assert old.start_instance == 0
            assert old.frontier <= new.start_instance
            np.testing.assert_array_equal(
                old.values, cold[("b", window)][:, : old.frontier]
            )
        for runtime in group_runtimes(session):
            assert runtime.draining == []

    @pytest.mark.parametrize("bounced", LEDGER_SET_NAMES)
    def test_bouncing_one_of_the_four_paper_sets(
        self, shards, bounced, ledger_window_sets
    ):
        """The same bounce inside the 39-window group the four ledger
        window sets share."""
        stream = integer_stream(ticks=5000, rate=1, num_keys=2, seed=5)
        queries = {
            name: Query(name, windows, MIN)
            for name, windows in ledger_window_sets.items()
        }
        cold = cold_reference(queries.values(), stream)
        session = serial_session(shards, num_keys=2, hysteresis=None)
        for query in queries.values():
            session.register(query)
        rows = list(stream.rows())
        session.push_many(rows[:2000])
        session.deregister(bounced)
        session.register(queries[bounced])
        for lo in range(2000, len(rows), 500):
            session.push_many(rows[lo : lo + 500])
        results = session.finish(horizon=stream.horizon)
        assert_session_matches(
            results, cold, queries.values(), stream.horizon
        )

    def test_hysteresis_suppresses_switches_on_stable_rate(
        self, shards
    ):
        # The stream runs at the rate a session first plans at.
        stream = integer_stream(
            ticks=1200, rate=INITIAL_EVENT_RATE, num_keys=1, seed=8
        )
        query = Query("f", WindowSet([Window(6, 3), Window(8, 4)]), MIN)
        session = serial_session(
            shards, num_keys=1, hysteresis=0.5, chunk_ticks=24
        )
        session.register(query)
        session.push_many(stream.rows())
        session.finish(horizon=stream.horizon)
        assert [s.reason for s in session.switches] == ["register"]


@SHARD_COUNTS
class TestBoundedWork:
    def test_late_registration_never_recomputes_history(
        self, shards
    ):
        """Registering at 90% of the stream must cost ~10% of the
        query's full-stream physical work, not a history replay."""
        stream = integer_stream(ticks=4000, rate=2, num_keys=1, seed=9)
        qa = Query("a", WindowSet([Window(20, 10)]), MIN)
        qb = Query("b", WindowSet([Window(16, 8)]), SUM)
        rows = list(stream.rows())

        def run(register_b_at):
            session = serial_session(shards, num_keys=1, hysteresis=None)
            session.register(qa)
            for i, (ts, key, value) in enumerate(rows):
                if i == register_b_at:
                    session.register(qb)
                session.push(ts, key, value)
            session.finish(horizon=stream.horizon)
            return session.stats().total_physical

        without_b = run(register_b_at=None)
        late = run(register_b_at=int(len(rows) * 0.9))
        full = run(register_b_at=0)
        b_full_cost = full - without_b
        b_late_cost = late - without_b
        # 10% of the stream remains; allow 3x slack for alignment and
        # the switch's partial-chunk flush.
        assert b_late_cost <= 0.3 * b_full_cost

    def test_switch_itself_absorbs_at_most_one_chunk(self, shards):
        """The physical work done *inside* a switch is bounded by the
        buffered partial chunk — never the stream history."""
        stream = integer_stream(ticks=3000, rate=2, num_keys=1, seed=10)
        qa = Query("a", WindowSet([Window(20, 10)]), MIN)
        qb = Query("b", WindowSet([Window(16, 8)]), SUM)
        session = serial_session(
            shards, num_keys=1, hysteresis=None, chunk_ticks=40
        )
        session.register(qa)
        rows = list(stream.rows())
        for ts, key, value in rows[: int(len(rows) * 0.8)]:
            session.push(ts, key, value)
        before = session.stats().total_physical
        session.register(qb)
        during_switch = session.stats().total_physical - before
        # One chunk of 40 ticks at rate 2 is 80 events; binning plus
        # closing work for open instances is a small multiple of that.
        assert during_switch < 80 * 20

    def test_retained_state_stays_bounded(self, shards):
        stream = integer_stream(ticks=6000, rate=2, num_keys=1, seed=12)
        query = Query("a", WindowSet([Window(20, 10), Window(40, 20)]), MIN)
        session = serial_session(
            shards, num_keys=1, hysteresis=None, ingest_high_watermark=1_000
        )
        session.register(query)
        session.push_many(stream.rows())
        session.finish(horizon=stream.horizon)
        # Panes retained per operator: O(r/p + run/p), never O(stream).
        assert session.max_retained_state() < 200

    def test_retained_state_is_bounded_by_the_run_at_the_default(
        self, shards
    ):
        """One ``push_many`` longer than the ingest high watermark is
        applied in runs of at most that many events, so an operator
        retains at most ``r/p`` panes plus the panes one run spans."""
        rate, pane = 2, 10
        stream = integer_stream(ticks=40_000, rate=rate, num_keys=1, seed=12)
        assert stream.num_events > DEFAULT_INGEST_HIGH_WATERMARK
        query = Query("a", WindowSet([Window(20, pane), Window(40, 20)]), MIN)
        session = serial_session(shards, num_keys=1, hysteresis=None)
        session.register(query)
        session.push_many(stream.rows())
        session.finish(horizon=stream.horizon)
        run_panes = DEFAULT_INGEST_HIGH_WATERMARK / rate / pane
        assert session.max_retained_state() <= 40 // 20 + run_panes


@SHARD_COUNTS
class TestSessionApi:
    def test_sql_registration(self, shards, int_stream):
        session = serial_session(shards, num_keys=2, hysteresis=None)
        name = session.register(
            "SELECT MIN(Reading) FROM Sensors "
            "GROUP BY WINDOWS(HOPPING(second, 20, 10))"
        )
        assert name == "q1"
        session.push_many(int_stream.rows())
        results = session.finish(horizon=int_stream.horizon)
        emitted = results["q1"][Window(20, 10)]
        reference = execute_plan(
            original_plan(WindowSet([Window(20, 10)]), MIN),
            int_stream,
            engine="streaming-chunked",
        ).results[Window(20, 10)]
        np.testing.assert_array_equal(emitted.values, reference)

    def test_duplicate_name_rejected(self, shards):
        session = serial_session(shards, hysteresis=None)
        session.register(QA)
        with pytest.raises(Exception):
            session.register(QA)

    def test_unknown_deregister_rejected(self, shards):
        session = serial_session(shards, hysteresis=None)
        with pytest.raises(ExecutionError):
            session.deregister("ghost")

    def test_key_range_validated(self, shards):
        session = serial_session(shards, num_keys=2, hysteresis=None)
        session.register(QA)
        with pytest.raises(ExecutionError):
            session.push(0, 2, 1.0)

    def test_push_after_finish_rejected(self, shards):
        session = serial_session(shards, hysteresis=None)
        session.register(QA)
        session.finish()
        with pytest.raises(ExecutionError):
            session.push(0, 0, 1.0)

    def test_new_query_on_shared_window_starts_at_frontier(
        self, shards, int_stream
    ):
        """A query registering a window that already runs subscribes
        from the operator's close frontier — no recomputation, no gap."""
        session = serial_session(shards, num_keys=2, hysteresis=None)
        session.register(QA)
        rows = list(int_stream.rows())
        half = len(rows) // 2
        for ts, key, value in rows[:half]:
            session.push(ts, key, value)
        twin = Query("a2", QA.windows, MIN)
        session.register(twin)
        for ts, key, value in rows[half:]:
            session.push(ts, key, value)
        results = session.finish(horizon=int_stream.horizon)
        for window in QA.windows:
            original = results["a"][window]
            late = results["a2"][window]
            assert late.start_instance > 0
            assert late.frontier == original.frontier
            np.testing.assert_array_equal(
                late.values,
                original.values[:, late.start_instance:],
            )

    def test_reregistered_name_keeps_archived_results(
        self, shards, int_stream
    ):
        """Re-using a retired query's name must not shadow what it
        already emitted — the archive moves to a suffixed name."""
        session = serial_session(shards, num_keys=2, hysteresis=None)
        session.register(QA)
        session.register(QB)
        rows = list(int_stream.rows())
        third = len(rows) // 3
        for ts, key, value in rows[:third]:
            session.push(ts, key, value)
        session.deregister("b")
        for ts, key, value in rows[third : 2 * third]:
            session.push(ts, key, value)
        session.register(QB)  # same name again
        for ts, key, value in rows[2 * third :]:
            session.push(ts, key, value)
        results = session.finish(horizon=int_stream.horizon)
        archived = [name for name in results if name.startswith("b@g")]
        assert len(archived) == 1
        old = results[archived[0]][Window(30, 10)]
        new = results["b"][Window(30, 10)]
        assert old.start_instance == 0
        assert new.start_instance >= old.frontier
        reference = execute_plan(
            original_plan(WindowSet([Window(30, 10)]), MIN),
            int_stream,
            engine="streaming-chunked",
        ).results[Window(30, 10)]
        np.testing.assert_array_equal(
            old.values, reference[:, : old.frontier]
        )
        np.testing.assert_array_equal(
            new.values, reference[:, new.start_instance : new.frontier]
        )

    def test_drain_results_consumes_and_reassembles(
        self, shards, int_stream
    ):
        """Polling drain_results keeps subscriptions empty between
        polls; the drained pieces concatenate to the full answer."""
        queries = [QA, QC]
        cold = cold_reference(queries, int_stream)
        session = serial_session(shards, num_keys=2, hysteresis=None)
        for query in queries:
            session.register(query)
        rows = list(int_stream.rows())
        pieces = []
        for i, (ts, key, value) in enumerate(rows):
            session.push(ts, key, value)
            if i % 400 == 399:
                pieces.append(session.drain_results())
        session.finish(horizon=int_stream.horizon)
        pieces.append(session.drain_results())
        for query in queries:
            for window in query.windows:
                parts = [
                    p[query.name][window]
                    for p in pieces
                    if query.name in p and window in p[query.name]
                ]
                # Consumed: each piece starts where the previous ended.
                for left, right in zip(parts, parts[1:]):
                    assert right.start_instance == left.frontier
                stitched = np.concatenate(
                    [p.values for p in parts], axis=1
                )
                reference = cold[(query.name, window)]
                assert parts[-1].frontier == reference.shape[1]
                np.testing.assert_array_equal(stitched, reference)

    def test_rate_replan_not_swallowed_by_switch_flush(self, shards):
        """A replan decision made during a register()'s sync flush must
        stay pending and apply at the next push — the observed rate
        reaches the workload either way."""
        stream = integer_stream(ticks=1200, rate=20, num_keys=1, seed=14)
        # The rate estimate approaches 20 from below; with no
        # hysteresis every whole step of it is a replan.
        session = serial_session(
            shards, num_keys=1, hysteresis=0.0, chunk_ticks=10
        )
        session.register(Query("a", WindowSet([Window(20, 10)]), MIN))
        rows = list(stream.rows())
        for i, (ts, key, value) in enumerate(rows):
            if i == len(rows) // 2:
                # The register triggers a mid-chunk sync flush that can
                # cross an epoch boundary and observe the drift.
                session.register(
                    Query("b", WindowSet([Window(16, 8)]), SUM)
                )
            session.push(ts, key, value)
        session.finish(horizon=stream.horizon)
        rates = {core.workload.event_rate for core in session.backend.cores}
        assert rates == {20}

    def test_watermark_and_generation_progress(
        self, shards, int_stream
    ):
        session = serial_session(shards, num_keys=2, hysteresis=None)
        session.register(QA)
        assert session.generation == 1
        session.push_many(int_stream.rows())
        assert session.watermark > 0
        assert session.queries == ("a",)


@SHARD_COUNTS
class TestRetiredRetention:
    """The retired-result archive is capped with exact eviction
    counters: a service whose dashboards churn forever must not grow
    without bound.  The cap is a constant; tests that provoke eviction
    lower it for the test."""

    @pytest.fixture
    def cap_of_two(self, monkeypatch):
        monkeypatch.setattr(core_module, "RETIRED_RESULT_CAP", 2)

    def _churn(self, session, rows, cycles):
        """Register/deregister ``q`` once per stream segment."""
        per = max(1, len(rows) // (2 * cycles))
        i = 0
        for cycle in range(cycles):
            session.register(Query("q", WindowSet([Window(10, 5)]), MIN))
            for ts, key, value in rows[i : i + per]:
                session.push(ts, key, value)
            i += per
            session.deregister("q")
            for ts, key, value in rows[i : i + per]:
                session.push(ts, key, value)
            i += per

    def test_cap_bounds_archive_with_exact_counters(
        self, shards, int_stream, cap_of_two
    ):
        rows = list(int_stream.rows())
        cycles = 6
        session = serial_session(shards, num_keys=2, hysteresis=None)
        self._churn(session, rows, cycles)
        results = session.finish(horizon=int_stream.horizon)
        retired = [name for name in results if name != "q"]
        assert len(retired) <= 2
        # One archived subscription per cycle (single window), minus
        # the two retained and the final life's live subscription.
        assert core_counter(session, "retired_results_evicted") == cycles - 2
        assert core_counter(session, "retired_instances_evicted") > 0

    def test_default_cap_keeps_existing_behaviour(
        self, shards, int_stream
    ):
        """Moderate churn stays under the default cap — nothing is
        evicted and every archive stays readable."""
        rows = list(int_stream.rows())
        session = serial_session(shards, num_keys=2, hysteresis=None)
        self._churn(session, rows, 4)
        results = session.finish(horizon=int_stream.horizon)
        assert core_counter(session, "retired_results_evicted") == 0
        assert len([n for n in results if n.startswith("q@g")]) == 3

    def test_rename_keeps_archive_eviction_order(
        self, shards, int_stream, cap_of_two
    ):
        """Re-registering a name renames its archive *in place*: the
        renamed entry must stay oldest in the eviction order, not be
        rejuvenated past archives retired after it."""
        rows = list(int_stream.rows())
        session = serial_session(shards, num_keys=2, hysteresis=None)
        wq, wr, ws = Window(10, 5), Window(12, 6), Window(14, 7)
        session.register(Query("q", WindowSet([wq]), MIN))
        session.register(Query("r", WindowSet([wr]), MIN))
        session.register(Query("s", WindowSet([ws]), MIN))
        for ts, key, value in rows[:400]:
            session.push(ts, key, value)
        session.deregister("q")  # archive order: [q]
        session.deregister("r")  # archive order: [q, r] — at cap
        session.register(Query("q", WindowSet([wq]), MIN))  # rename q
        for ts, key, value in rows[400:800]:
            session.push(ts, key, value)
        session.deregister("s")  # exceeds cap: the *oldest* (q) goes
        results = session.finish(horizon=int_stream.horizon)
        assert not any(n.startswith("q@g") for n in results)
        assert "r" in results and "s" in results
        assert core_counter(session, "retired_results_evicted") == 1


class TestOneRateRule:
    """A rate replan re-prices every core and moves the clock only when
    some group's plan changed — on every backend, at every shard count
    — so a ``QuerySession`` and a sharded session stay bit-identical on
    a float stream under the default hysteresis (invariants 9–10)."""

    SUMS = Query("sums", WindowSet([Window(40, 40), Window(120, 40)]), SUM)

    @staticmethod
    def batches(seed=0, num_keys=8):
        """60 sorted row batches of 40–840 Gaussian events, one per
        50-tick span: the swinging rate keeps the controller replanning,
        mostly without changing a plan."""
        rng = np.random.default_rng(seed)
        out = []
        for index in range(60):
            n = int(rng.integers(40, 841))
            ts = np.sort(rng.integers(50 * index, 50 * index + 50, n))
            keys = rng.integers(0, num_keys, n)
            out.append(np.column_stack((ts, keys, rng.normal(20.0, 5.0, n))))
        return out

    def drive(self, session):
        """Every drain's clock and blocks, then the final results."""
        with session:
            session.register(self.SUMS)
            polls = []
            for index, batch in enumerate(self.batches()):
                session.push_many(batch)
                if index % 7 == 6:
                    polls.append((session.watermark, session.drain_results()))
            return polls, session.finish()

    @pytest.mark.parametrize("backend", ["serial", "shm"])
    def test_sharded_session_is_the_query_session_on_floats(self, backend):
        want_polls, want = self.drive(QuerySession(num_keys=8))
        got_polls, got = self.drive(
            ShardedSession(num_keys=8, num_shards=2, backend=backend)
        )
        assert [wm for wm, _ in got_polls] == [wm for wm, _ in want_polls]
        for (_, expected), (_, actual) in zip(want_polls, got_polls):
            assert_identical(expected, actual, backend)
        assert_identical(want, got, backend)

    @pytest.mark.parametrize("backend", ["serial", "process", "shm"])
    def test_a_replan_moves_the_clock_only_when_a_plan_changes(
        self, backend
    ):
        # W(6,3)/W(8,4) re-plans between rate 1 and rate 30 (see
        # test_rate_drift_triggers_live_replan), not between 30 and 3.
        query = Query("f", WindowSet([Window(6, 3), Window(8, 4)]), MIN)
        with ShardedSession(
            num_keys=4, num_shards=2, backend=backend, chunk_ticks=24,
            hysteresis=None,
        ) as session:
            session.register(query)
            session.push_many([(t, t % 4, 1.0) for t in range(40)])
            before = (session.watermark, session.generation)
            session._apply_rate(30)
            assert session.generation == before[1] + 1
            assert session.watermark > before[0]
            assert [s.reason for s in session.switches] == ["register", "rate"]
            session.push_many([(t, t % 4, 1.0) for t in range(40, 70)])
            before = (session.watermark, session.generation)
            session._apply_rate(3)
            assert (session.watermark, session.generation) == before
            assert len(session.switches) == 2


@pytest.mark.parametrize("backend", ["serial", "shm"])
def test_one_shard_forwards_a_global_holistic_query(backend):
    """``register(median, scope="global")`` at one shard runs on the
    coordinator's forwarding core, exactly as at two."""
    stream = integer_stream(ticks=300, rate=3, num_keys=4, seed=2)
    median = Query("med", WindowSet([Window(12, 6)]), MEDIAN)
    results = []
    for shards in (1, 2):
        with ShardedSession(
            num_shards=shards, backend=backend, num_keys=4, hysteresis=None
        ) as session:
            session.register(median, scope="global")
            session.push_many(stream.rows())
            results.append(session.finish(horizon=stream.horizon))
    assert_identical(results[0], results[1], backend)
    assert results[0]["med"][Window(12, 6)].values.shape[0] == 1

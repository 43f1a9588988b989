"""Tests for out-of-order ingestion (reorder buffer + watermark)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.registry import MIN
from repro.engine.events import make_batch
from repro.engine.executor import execute_plan, results_equal
from repro.engine.outoforder import (
    ReorderBuffer,
    batch_from_unordered,
    reorder_events,
    scramble_batch,
)
from repro.errors import ExecutionError
from repro.plans.builder import original_plan
from repro.windows.window import Window, WindowSet
from repro.workloads.streams import constant_rate_stream


class TestReorderBuffer:
    def test_in_order_passthrough(self):
        events = [(t, 0, float(t)) for t in range(10)]
        ordered, stats = reorder_events(events, max_lateness=0)
        assert ordered == events
        assert stats.late_dropped == 0

    def test_reorders_within_bound(self):
        events = [(2, 0, 2.0), (0, 0, 0.0), (1, 0, 1.0), (3, 0, 3.0)]
        ordered, stats = reorder_events(events, max_lateness=3)
        assert [e[0] for e in ordered] == [0, 1, 2, 3]
        assert stats.late_dropped == 0

    def test_late_event_dropped_and_counted(self):
        events = [(10, 0, 1.0), (0, 0, 2.0)]  # 0 is 10 ticks late
        ordered, stats = reorder_events(events, max_lateness=3)
        assert [e[0] for e in ordered] == [10]
        assert stats.late_dropped == 1
        assert stats.max_observed_lateness == 7  # watermark 7, event at 0

    def test_same_timestamp_keeps_arrival_order(self):
        events = [(0, 0, 1.0), (0, 1, 2.0), (0, 2, 3.0)]
        ordered, _ = reorder_events(events, max_lateness=0)
        assert [e[1] for e in ordered] == [0, 1, 2]

    def test_watermark_trails_max_seen(self):
        buffer = ReorderBuffer(max_lateness=5)
        list(buffer.push(10, 0, 1.0))
        assert buffer.watermark == 5
        list(buffer.push(7, 0, 1.0))  # out of order but above watermark
        assert buffer.watermark == 5
        assert buffer.stats.accepted == 2

    def test_negative_lateness_rejected(self):
        with pytest.raises(ExecutionError):
            ReorderBuffer(max_lateness=-1)

    def test_negative_timestamp_rejected(self):
        buffer = ReorderBuffer(max_lateness=1)
        with pytest.raises(ExecutionError):
            list(buffer.push(-1, 0, 1.0))

    def test_late_drops_are_counted_not_retained(self):
        """Late events are dropped with exact counters and nothing
        else: the front door's state stays bounded (DESIGN.md §5)."""
        buffer = ReorderBuffer(max_lateness=0)
        list(buffer.push(1000, 0, 1.0))
        for ts in range(500):
            list(buffer.push(ts, 0, 0.0))
        assert buffer.stats.late_dropped == 500
        assert buffer.stats.max_observed_lateness == 1000
        assert buffer.stats.accepted == 1


class TestBatchFromUnordered:
    def test_round_trip_equals_sorted_batch(self):
        batch = constant_rate_stream(500, num_keys=2, seed=3)
        scrambled = scramble_batch(batch, max_lateness=7, seed=1)
        rebuilt, stats = batch_from_unordered(
            scrambled, max_lateness=7, horizon=batch.horizon, num_keys=2
        )
        assert stats.late_dropped == 0
        np.testing.assert_array_equal(rebuilt.timestamps, batch.timestamps)
        # Same multiset of (ts, key, value) triples.
        assert sorted(rebuilt.rows()) == sorted(batch.rows())

    def test_empty_input(self):
        rebuilt, stats = batch_from_unordered([], max_lateness=5)
        assert rebuilt.num_events == 0
        assert stats.total == 0

    def test_query_results_unaffected_by_disorder(self):
        windows = WindowSet([Window(10, 10), Window(20, 10)])
        plan = original_plan(windows, MIN)
        batch = constant_rate_stream(400, seed=5)
        scrambled = scramble_batch(batch, max_lateness=9, seed=2)
        rebuilt, _ = batch_from_unordered(
            scrambled, max_lateness=9, horizon=batch.horizon, num_keys=1
        )
        assert results_equal(
            execute_plan(plan, batch), execute_plan(plan, rebuilt)
        )

    @given(
        lateness=st.integers(0, 20),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_scramble_respects_bound(self, lateness, seed):
        """scramble_batch never produces disorder the buffer drops."""
        batch = constant_rate_stream(120, seed=4)
        scrambled = scramble_batch(batch, max_lateness=lateness, seed=seed)
        _, stats = reorder_events(scrambled, max_lateness=lateness)
        assert stats.late_dropped == 0
        assert stats.accepted == batch.num_events

    def test_insufficient_lateness_drops(self):
        batch = make_batch([0, 1, 2, 3, 4, 5], [0.0] * 6)
        scrambled = [(5, 0, 0.0), (0, 0, 0.0), (4, 0, 0.0), (1, 0, 0.0)]
        _, stats = reorder_events(scrambled, max_lateness=1)
        assert stats.late_dropped == 2  # ts 0 and 1 behind watermark 4


def columns(events):
    ts, keys, values = zip(*events) if events else ((), (), ())
    return (
        np.array(ts, dtype=np.int64),
        np.array(keys, dtype=np.int64),
        np.array(values, dtype=np.float64),
    )


def rows(released):
    return list(zip(*(column.tolist() for column in released)))


COUNTERS = (
    "accepted",
    "late_dropped",
    "max_observed_lateness",
)


class TestPushBatch:
    """The columnar batch push is the per-event path, call by call —
    every release, late-drop decision and stats counter — alone or
    interleaved with ``push`` on one buffer."""

    events_strategy = st.lists(
        st.tuples(
            st.integers(0, 120),  # timestamp
            st.integers(0, 3),  # key
            st.floats(-100, 100, allow_nan=False, width=32),
        ),
        min_size=0,
        max_size=200,
    )

    @staticmethod
    def _play(events, splits, max_lateness, verbs):
        """Feed ``events`` piece by piece, each through the next of
        ``verbs`` (cycled): ``push`` event by event, ``batch`` through
        ``push_batch``, ``pickle`` the same after a pickle round trip of
        the buffer.  Returns ``(per-piece trace, buffer)``."""
        buffer = ReorderBuffer(max_lateness)
        bounds = sorted(min(s, len(events)) for s in splits)
        trace = []
        for index, piece in enumerate(
            np.split(np.arange(len(events)), bounds)
        ):
            block = [events[i] for i in piece]
            verb = verbs[index % len(verbs)]
            if verb == "pickle":
                buffer = pickle.loads(pickle.dumps(buffer))
            if verb == "push":
                released = [e for row in block for e in buffer.push(*row)]
            else:
                released = rows(buffer.push_batch(*columns(block)))
            trace.append((released, buffer.watermark, buffer.buffered))
        return trace, buffer

    @given(
        events=events_strategy,
        splits=st.lists(st.integers(0, 200), max_size=3),
        max_lateness=st.integers(0, 15),
        mixed=st.lists(
            st.sampled_from(("push", "batch", "pickle")),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_event_push_on_both_paths(
        self, events, splits, max_lateness, mixed
    ):
        """Both ways a batch meets a buffer: every piece batched, and
        batches interleaved with per-event pushes (the carried heap
        handed across in both directions, pickled mid-stream)."""
        oracle, oracle_buf = self._play(
            events, splits, max_lateness, ["push"]
        )
        for verbs in (["batch"], mixed):
            trace, buf = self._play(
                events, splits, max_lateness, verbs
            )
            assert trace == oracle, verbs
            for counter in COUNTERS:
                assert getattr(buf.stats, counter) == getattr(
                    oracle_buf.stats, counter
                ), (verbs, counter)
            # Drain order after the batch must also agree.
            assert list(buf.flush()) == list(
                self._play(events, splits, max_lateness, ["push"])[1].flush()
            ), verbs

    @given(
        events=events_strategy,
        splits=st.lists(st.integers(0, 200), max_size=3),
        max_lateness=st.integers(0, 15),
    )
    @settings(max_examples=15, deadline=None)
    def test_sharded_push_many_matches_per_event_push(
        self, events, splits, max_lateness
    ):
        """``ShardedSession.push_many`` rides ``push_batch`` — results,
        execution stats, and every reorder counter must match the
        per-event loop exactly."""
        from repro.aggregates.registry import SUM
        from repro.core.multiquery import Query
        from repro.runtime import ShardedSession

        def run(batched):
            session = ShardedSession(
                num_keys=4,
                num_shards=2,
                max_lateness=max_lateness,
                chunk_ticks=16,
                hysteresis=None,
            )
            session.register(
                Query("q", WindowSet([Window(12, 4)]), SUM), scope="per_key"
            )
            if batched:
                bounds = sorted(min(s, len(events)) for s in splits)
                for piece in np.split(np.arange(len(events)), bounds):
                    session.push_many([events[i] for i in piece])
            else:
                for ts, key, value in events:
                    session.push(ts, key, value)
            results = session.finish()
            stats = session.stats()
            reorder = session.reorder_stats
            session.close()
            return results, stats, reorder

        base_results, base_stats, base_reorder = run(batched=False)
        many_results, many_stats, many_reorder = run(batched=True)
        for name, by_window in base_results.items():
            for window, res in by_window.items():
                other = many_results[name][window]
                assert res.start_instance == other.start_instance
                assert res.frontier == other.frontier
                np.testing.assert_array_equal(res.values, other.values)
        assert many_stats.events == base_stats.events
        assert many_stats.total_pairs == base_stats.total_pairs
        for counter in COUNTERS:
            assert getattr(many_reorder, counter) == getattr(
                base_reorder, counter
            ), counter

    def test_negative_timestamp_rejected_upfront_on_both_paths(self):
        """On a fresh buffer and on one carrying events: the whole
        batch is refused before any state moves."""
        for carried in ([], [(7, 0, 1.0), (9, 1, 2.0)]):
            buffer = ReorderBuffer(2)
            for row in carried:
                list(buffer.push(*row))
            before = pickle.dumps(buffer)
            with pytest.raises(ExecutionError, match=">= 0"):
                buffer.push_batch(
                    np.array([30, -1, 40]),
                    np.zeros(3, dtype=np.int64),
                    np.zeros(3),
                )
            assert pickle.dumps(buffer) == before

    def test_an_event_at_the_watermark_is_held(self):
        buffer = ReorderBuffer(2)
        assert rows(buffer.push_batch(*columns([(5, 0, 1.0)]))) == []
        assert buffer.watermark == 3
        # Not late (3 is not *below* the watermark), not final either.
        assert rows(buffer.push_batch(*columns([(3, 1, 2.0)]))) == []
        assert (buffer.stats.accepted, buffer.stats.late_dropped) == (2, 0)
        assert list(buffer.flush()) == [(3, 1, 2.0), (5, 0, 1.0)]

    def test_an_all_late_batch_moves_nothing_but_the_counters(self):
        buffer = ReorderBuffer(1)
        assert rows(buffer.push_batch(*columns([(10, 0, 1.0)]))) == []
        late = [(3, 1, 2.0), (8, 0, 3.0), (0, 1, 4.0)]
        assert rows(buffer.push_batch(*columns(late))) == []
        assert (buffer.watermark, buffer.buffered) == (9, 1)
        assert buffer.stats.accepted == 1
        assert buffer.stats.late_dropped == 3
        assert buffer.stats.max_observed_lateness == 9

    def test_late_counters_stay_exact_across_batches(self):
        buffer = ReorderBuffer(0)
        first = [(100, 0, 0.0)] + [(ts, 0, float(ts)) for ts in range(2)]
        second = [(ts, 1, float(ts)) for ts in range(2, 7)]
        buffer.push_batch(*columns(first))
        assert buffer.stats.late_dropped == 2
        buffer.push_batch(*columns(second))
        assert buffer.stats.late_dropped == 7
        assert buffer.stats.max_observed_lateness == 100

    def test_equal_timestamps_keep_arrival_order_across_the_seam(self):
        """Carried events precede the batch's at the same tick, and a
        later ``push`` at that tick follows both."""
        buffer = ReorderBuffer(0)
        assert list(buffer.push(5, 0, 0.0)) == []
        same_tick = [(5, 1, 1.0), (5, 2, 2.0)]
        assert rows(buffer.push_batch(*columns(same_tick))) == []
        assert list(buffer.push(5, 3, 3.0)) == []
        late_then_next = [(4, 9, 9.0), (6, 4, 4.0)]
        released = rows(buffer.push_batch(*columns(late_then_next)))
        assert released == [(5, k, float(k)) for k in range(4)]
        assert buffer.stats.late_dropped == 1

    def test_an_in_order_batch_holds_exactly_its_newest_tick(self):
        buffer = ReorderBuffer(0)
        batch = [(0, 0, 0.0), (0, 1, 1.0), (1, 0, 2.0), (2, 1, 3.0)]
        batch.append((2, 0, 4.0))
        assert rows(buffer.push_batch(*columns(batch))) == batch[:3]
        assert (buffer.watermark, buffer.buffered) == (2, 2)
        assert list(buffer.flush()) == batch[3:]

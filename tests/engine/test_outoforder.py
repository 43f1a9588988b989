"""Tests for out-of-order ingestion (reorder buffer + watermark).

The compiled reorder (``repro._kernels.reorder_run``) must be the NumPy
body bit for bit: :class:`TestKernelReorder` plays every block under
``REPRO_KERNELS`` ``0``, ``1`` and ``require`` and holds each run to the
per-event oracle, values compared through ``.view(np.int64)`` — ties of
distinct values (an unstable sort would swap them), spans above the
counting sort's bound (handed back to NumPy), lateness at the bound and
one past it, empty and all-late blocks, and a negative timestamp that
must leave the state as it was.  The kernel cases skip without a
compiler.
"""

import os
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import _kernels as kernels
from repro.aggregates.registry import MIN
from repro.engine.events import (
    EVENT_COLUMN_DTYPES,
    NO_EVENTS,
    EventBatch,
    make_batch,
)
from repro.engine.executor import execute_plan, results_equal
from repro.engine.outoforder import (
    ReorderBuffer,
    scramble_batch,
)
from repro.errors import ExecutionError
from repro.plans.builder import original_plan
from repro.windows.window import Window, WindowSet
from repro.workloads.streams import constant_rate_stream

from oracle_reorder import OracleReorderBuffer


class TestReorderBuffer:
    def test_in_order_passthrough(self):
        events = [(t, 0, float(t)) for t in range(10)]
        ordered, stats = reorder(events, max_lateness=0)
        assert ordered == events
        assert stats.late_dropped == 0

    def test_reorders_within_bound(self):
        events = [(2, 0, 2.0), (0, 0, 0.0), (1, 0, 1.0), (3, 0, 3.0)]
        ordered, stats = reorder(events, max_lateness=3)
        assert [e[0] for e in ordered] == [0, 1, 2, 3]
        assert stats.late_dropped == 0

    def test_late_event_dropped_and_counted(self):
        events = [(10, 0, 1.0), (0, 0, 2.0)]  # 0 is 10 ticks late
        ordered, stats = reorder(events, max_lateness=3)
        assert [e[0] for e in ordered] == [10]
        assert stats.late_dropped == 1
        assert stats.max_observed_lateness == 7  # watermark 7, event at 0

    def test_same_timestamp_keeps_arrival_order(self):
        events = [(0, 0, 1.0), (0, 1, 2.0), (0, 2, 3.0)]
        ordered, _ = reorder(events, max_lateness=0)
        assert [e[1] for e in ordered] == [0, 1, 2]

    def test_watermark_trails_max_seen(self):
        buffer = ReorderBuffer(max_lateness=5)
        buffer.push_batch(*columns([(10, 0, 1.0)]))
        assert buffer.watermark == 5
        # Out of order but above the watermark.
        buffer.push_batch(*columns([(7, 0, 1.0)]))
        assert buffer.watermark == 5
        assert buffer.stats.accepted == 2

    def test_negative_lateness_rejected(self):
        with pytest.raises(ExecutionError):
            ReorderBuffer(max_lateness=-1)

    def test_negative_timestamp_rejected(self):
        buffer = ReorderBuffer(max_lateness=1)
        with pytest.raises(ExecutionError):
            buffer.push_batch(*columns([(-1, 0, 1.0)]))

    def test_late_drops_are_counted_not_retained(self):
        """Late events are dropped with exact counters and nothing
        else: the front door's state stays bounded (DESIGN.md §5)."""
        buffer = ReorderBuffer(max_lateness=0)
        buffer.push_batch(*columns([(1000, 0, 1.0)]))
        for ts in range(500):
            buffer.push_batch(*columns([(ts, 0, 0.0)]))
        assert buffer.stats.late_dropped == 500
        assert buffer.stats.max_observed_lateness == 1000
        assert buffer.stats.accepted == 1


class TestBatchFromUnordered:
    def test_round_trip_equals_sorted_batch(self):
        batch = constant_rate_stream(500, num_keys=2, seed=3)
        scrambled = scramble_batch(batch, max_lateness=7, seed=1)
        ordered, stats = reorder(scrambled, max_lateness=7)
        assert stats.late_dropped == 0
        assert [e[0] for e in ordered] == batch.timestamps.tolist()
        # Same multiset of (ts, key, value) triples.
        assert sorted(ordered) == sorted(batch.rows())

    def test_empty_input(self):
        ordered, stats = reorder([], max_lateness=5)
        assert ordered == []
        assert stats.total == 0

    def test_query_results_unaffected_by_disorder(self):
        windows = WindowSet([Window(10, 10), Window(20, 10)])
        plan = original_plan(windows, MIN)
        batch = constant_rate_stream(400, seed=5)
        scrambled = scramble_batch(batch, max_lateness=9, seed=2)
        ordered, _ = reorder(scrambled, max_lateness=9)
        rebuilt = EventBatch(
            *columns(ordered), horizon=batch.horizon, num_keys=1
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
        _, stats = reorder(scrambled, max_lateness=lateness)
        assert stats.late_dropped == 0
        assert stats.accepted == batch.num_events

    def test_insufficient_lateness_drops(self):
        batch = make_batch([0, 1, 2, 3, 4, 5], [0.0] * 6)
        scrambled = [(5, 0, 0.0), (0, 0, 0.0), (4, 0, 0.0), (1, 0, 0.0)]
        _, stats = reorder(scrambled, max_lateness=1)
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


def reorder(events, max_lateness):
    """A finite stream through one buffer: one ``push_batch`` of every
    event, then the end-of-stream flush — ``(sorted rows, stats)``."""
    buffer = ReorderBuffer(max_lateness)
    released = buffer.push_batch(*columns(list(events)))
    return rows(released) + list(buffer.flush()), buffer.stats


COUNTERS = (
    "accepted",
    "late_dropped",
    "max_observed_lateness",
)


class TestPushBatch:
    """The columnar batch push is the per-event definition
    (``oracle_reorder``), call by call — every release, late-drop
    decision and stats counter — whatever the blocks: whole pieces,
    one event at a time, across pickles."""

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
        ``push_batch`` whole, ``pickle`` the same after a pickle round
        trip of the buffer — on the oracle when ``verbs`` is
        ``["oracle"]``, else on a ``ReorderBuffer`` (where ``push`` is
        a ``push_batch`` per event).  Returns ``(per-piece trace,
        buffer)``: each piece's releases, watermark, held count and
        counters."""
        oracle = verbs == ["oracle"]
        buffer = (OracleReorderBuffer if oracle else ReorderBuffer)(
            max_lateness
        )
        bounds = sorted(min(s, len(events)) for s in splits)
        trace = []
        for index, piece in enumerate(
            np.split(np.arange(len(events)), bounds)
        ):
            block = [events[i] for i in piece]
            verb = verbs[index % len(verbs)]
            if verb == "pickle":
                buffer = pickle.loads(pickle.dumps(buffer))
            if oracle:
                released = [e for row in block for e in buffer.push(*row)]
            elif verb == "push":
                released = [
                    e
                    for row in block
                    for e in rows(buffer.push_batch(*columns([row])))
                ]
            else:
                released = rows(buffer.push_batch(*columns(block)))
            counters = [getattr(buffer.stats, c) for c in COUNTERS]
            trace.append(
                (released, buffer.watermark, buffer.buffered, counters)
            )
        return trace, buffer

    def _assert_matches_push(self, events, splits, max_lateness, verbs):
        """Every piece fed through ``verbs`` ≡ fed event by event to
        the oracle: the trace call by call, then the end-of-stream
        drain."""
        oracle, oracle_buf = self._play(
            events, splits, max_lateness, ["oracle"]
        )
        trace, buf = self._play(events, splits, max_lateness, verbs)
        assert trace == oracle, verbs
        assert list(buf.flush()) == list(oracle_buf.flush()), verbs
        assert buf.buffered == 0

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
        batches interleaved with one-event blocks (the carried columns
        handed across, pickled mid-stream)."""
        for verbs in (["batch"], mixed):
            self._assert_matches_push(events, splits, max_lateness, verbs)

    @staticmethod
    @st.composite
    def in_order_pieces(draw):
        """``(events, splits, max_lateness)``: a stream cut into
        timestamp-sorted pieces, each starting near the newest tick so
        far — often exactly at it, at the watermark or one below, so
        late prefixes, seams at the carried maximum, all-late pieces
        and empty pieces all occur."""
        max_lateness = draw(st.integers(0, 8))
        events, splits, newest = [], [], -1
        for _ in range(draw(st.integers(1, 6))):
            offset = draw(
                st.sampled_from((0, -1, -max_lateness, -max_lateness - 1))
                | st.integers(-20, 6)
            )
            tick = max(0, newest + offset)
            piece = draw(
                st.lists(
                    st.tuples(
                        st.integers(0, 3),  # step to the next timestamp
                        st.integers(0, 3),  # key
                        st.floats(-100, 100, allow_nan=False, width=32),
                    ),
                    max_size=12,
                )
            )
            for step, key, value in piece:
                tick += step
                events.append((tick, key, value))
                newest = max(newest, tick)
            splits.append(len(events))
        return events, splits, max_lateness

    @given(
        stream=in_order_pieces(),
        verbs=st.lists(
            st.sampled_from(("push", "batch", "pickle")),
            min_size=1,
            max_size=4,
        ),
    )
    @example(  # a late prefix, then an event at the watermark held
        stream=(
            [(10, 0, 1.0), (5, 1, 2.0), (7, 0, 3.0), (8, 1, 4.0),
             (12, 0, 5.0)],
            [1], 2,
        ),
        verbs=["batch"],
    )
    @example(  # a block starting exactly at the carried maximum
        stream=(
            [(3, 0, 1.0), (6, 1, 2.0), (6, 2, 3.0), (9, 0, 4.0)], [2], 2
        ),
        verbs=["batch"],
    )
    @example(  # a block starting exactly at the watermark
        stream=(
            [(3, 0, 1.0), (6, 1, 2.0), (4, 2, 3.0), (9, 0, 4.0)], [2], 2
        ),
        verbs=["batch"],
    )
    @example(  # an all-late sorted block
        stream=(
            [(10, 0, 1.0), (2, 1, 2.0), (5, 0, 3.0), (8, 1, 4.0)], [1], 1
        ),
        verbs=["batch"],
    )
    @example(  # an empty block after a carry
        stream=([(3, 0, 1.0), (6, 1, 2.0), (7, 0, 1.0)], [2, 2], 2),
        verbs=["batch"],
    )
    @example(  # push -> push_batch -> pickle -> push
        stream=(
            [(4, 0, 1.0), (2, 1, 2.0), (5, 0, 3.0), (5, 1, 4.0),
             (3, 2, 5.0), (9, 0, 6.0), (6, 3, 7.0), (8, 1, 8.0)],
            [2, 4, 6], 3,
        ),
        verbs=["push", "batch", "pickle", "push"],
    )
    @settings(max_examples=60, deadline=None)
    def test_in_order_pieces_match_per_event_push(self, stream, verbs):
        """Timestamp-sorted pieces (a late prefix, no sort at a seam at
        or above the carried maximum, the one-below seam that does
        sort) ≡ the oracle, alone and with the verbs mixed across
        pickles."""
        events, splits, max_lateness = stream
        for feed in (["batch"], verbs):
            self._assert_matches_push(events, splits, max_lateness, feed)

    def test_a_batch_fed_buffer_carries_columns_only(self):
        """The carry is three sorted columns after every block, a
        one-event block included, and a pickle holds them as they
        are."""
        buffer = ReorderBuffer(3)
        for block in ([(5, 0, 1.0), (2, 1, 2.0), (9, 0, 3.0)],
                      [(8, 1, 4.0), (10, 0, 5.0)], [(11, 1, 6.0)]):
            buffer.push_batch(*columns(block))
            assert [c.dtype for c in buffer._held] == [
                dtype for _, dtype in EVENT_COLUMN_DTYPES
            ]
        assert buffer._held[0].tolist() == [8, 9, 10, 11]
        state = pickle.loads(pickle.dumps(buffer)).__dict__
        assert state.keys() == buffer.__dict__.keys()
        assert state["_held"][0].tolist() == [8, 9, 10, 11]
        buffer.push_batch(*columns([(12, 0, 7.0)]))
        assert buffer._held[0].tolist() == [9, 10, 11, 12]

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
            buffer.push_batch(*columns(carried))
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
        later event at that tick follows both."""
        buffer = ReorderBuffer(0)
        assert rows(buffer.push_batch(*columns([(5, 0, 0.0)]))) == []
        same_tick = [(5, 1, 1.0), (5, 2, 2.0)]
        assert rows(buffer.push_batch(*columns(same_tick))) == []
        assert rows(buffer.push_batch(*columns([(5, 3, 3.0)]))) == []
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


# ---------------------------------------------------------------------
# The compiled reorder: bit for bit the NumPy body, under every setting
# ---------------------------------------------------------------------
#: ``REPRO_KERNELS`` settings a block is played under; the compiled ones
#: only where the kernels build.
KERNEL_MODES = ("0", "1", "require") if kernels.available() else ("0",)
needs_kernels = pytest.mark.skipif(
    not kernels.available(), reason="compiled kernels unavailable"
)
#: A quiet NaN with a payload: its bits must arrive as they left.
PAYLOAD_NAN = np.array([0x7FF8_0000_0000_0123]).view(np.float64)[0]


def _kernels(mode):
    """Run the block under ``REPRO_KERNELS=mode``."""
    return mock.patch.dict(os.environ, {"REPRO_KERNELS": mode})


def _bits(released):
    """Columns as int64 bit patterns: every bit of every value."""
    return [np.asarray(c).view(np.int64).tolist() for c in released]


def _oracle_trace(blocks, max_lateness):
    """The per-event oracle's trace of ``blocks``: per block the
    releases, watermark, held count and counters; then the drain."""
    oracle = OracleReorderBuffer(max_lateness)
    trace = []
    for block in blocks:
        released = [e for row in zip(*block) for e in oracle.push(*row)]
        trace.append(
            (
                _bits(columns(released)),
                oracle.watermark,
                oracle.buffered,
                [getattr(oracle.stats, c) for c in COUNTERS],
            )
        )
    trace.append(_bits(columns(list(oracle.flush()))))
    return trace


def _buffer_trace(blocks, max_lateness, mode):
    """The same trace of a :class:`ReorderBuffer` under ``mode``."""
    buffer = ReorderBuffer(max_lateness)
    trace = []
    with _kernels(mode):
        for block in blocks:
            released = buffer.push_batch(*block)
            trace.append(
                (
                    _bits(released),
                    buffer.watermark,
                    buffer.buffered,
                    [getattr(buffer.stats, c) for c in COUNTERS],
                )
            )
    trace.append(_bits(buffer._drain()))
    return trace


def _assert_every_mode_is_the_oracle(blocks, max_lateness):
    want = _oracle_trace(blocks, max_lateness)
    for mode in KERNEL_MODES:
        assert _buffer_trace(blocks, max_lateness, mode) == want, mode


def _blocks(events, splits):
    """``events`` (``(ts, key)`` pairs) cut at ``splits`` into column
    blocks, each event's value distinct — its arrival index, a NaN with
    a payload every seventh — so a tie taken out of arrival order shows."""
    values = np.arange(len(events), dtype=np.float64)
    values[::7] = PAYLOAD_NAN
    ts, keys = (
        np.array(c, dtype=np.int64).reshape(-1)
        for c in (zip(*events) if events else ((), ()))
    )
    bounds = sorted(min(s, len(events)) for s in splits)
    return [
        (ts[piece], keys[piece], values[piece])
        for piece in np.split(np.arange(len(events)), bounds)
    ]


class TestKernelReorder:
    @given(
        events=st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 3)), max_size=150
        ),
        splits=st.lists(st.integers(0, 150), max_size=4),
        max_lateness=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_arrival_orders_and_splits_match_the_oracle(
        self, events, splits, max_lateness
    ):
        _assert_every_mode_is_the_oracle(
            _blocks(events, splits), max_lateness
        )

    def test_ties_keep_arrival_order(self):
        """Few ticks, many events each, shuffled: only a stable sort
        keeps each tick's distinct values in arrival order, across the
        carried columns too."""
        rng = np.random.default_rng(7)
        ticks = rng.permutation(np.repeat(np.arange(40, dtype=np.int64), 12))
        keys = rng.integers(0, 4, ticks.size)
        events = [(int(t), int(k)) for t, k in zip(ticks, keys)]
        for max_lateness in (0, 5, 40):
            _assert_every_mode_is_the_oracle(
                _blocks(events, [100, 101, 300]), max_lateness
            )

    def test_spans_above_the_counting_bound_take_numpy(self):
        """An out-of-order block spanning far more ticks than events is
        handed back (``None``) and sorted by NumPy; one at the bound is
        taken.  Both equal the oracle."""
        wide = [(10**9, 0), (5, 1), (10**8, 2), (5, 3), (0, 0)]
        # m = 5 events: the bound is 4 * 5 + 1024 ticks of span.
        edge = [(4 * 5 + 1024 - 1, 0), (3, 1), (0, 2), (3, 3), (7, 0)]
        for events in (wide, edge):
            _assert_every_mode_is_the_oracle(_blocks(events, []), 10**10)
        if not kernels.available():
            return
        for events, taken in ((wide, False), (edge, True)):
            (ts, keys, values), = _blocks(events, [])
            run = kernels.reorder_run(
                ts, keys, values, NO_EVENTS, -1, 10**10
            )
            assert (run is not None) == taken

    @pytest.mark.parametrize("max_lateness", [0, 1, 6])
    def test_lateness_at_the_bound_is_kept_one_past_is_dropped(
        self, max_lateness
    ):
        top = 50
        events = [
            (top, 0),
            (top - max_lateness, 1),  # exactly max_lateness behind: kept
            (top - max_lateness - 1, 2),  # one past: late
            (top - max_lateness, 3),
            (top + 1, 0),
            (top - max_lateness, 1),  # now one past: late
        ]
        for splits in ([], [1], [3, 5], range(6)):
            _assert_every_mode_is_the_oracle(
                _blocks(events, list(splits)), max_lateness
            )

    def test_empty_and_fully_late_blocks(self):
        events = [(30, 0), (31, 1), (2, 2), (1, 3), (0, 0), (33, 1)]
        for splits in ([0, 0, 2, 5, 5], [2, 2, 5]):
            _assert_every_mode_is_the_oracle(_blocks(events, splits), 3)

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_a_negative_timestamp_leaves_the_state_as_it_was(self, mode):
        for carried in ([], [(7, 0), (3, 1), (9, 1)]):
            buffer = ReorderBuffer(2)
            with _kernels(mode):
                for block in _blocks(carried, []):
                    buffer.push_batch(*block)
                before = pickle.dumps(buffer)
                with pytest.raises(ExecutionError, match=">= 0"):
                    buffer.push_batch(
                        np.array([30, 8, -1, 40]),
                        np.zeros(4, dtype=np.int64),
                        np.zeros(4),
                    )
            assert pickle.dumps(buffer) == before

    @needs_kernels
    def test_columns_the_kernel_does_not_take_go_to_numpy(self):
        """A strided column is handed back, not copied or refused."""
        ts = np.arange(20, dtype=np.int64)[::-2]
        keys = np.zeros(10, dtype=np.int64)
        values = np.arange(10, dtype=np.float64)
        assert (
            kernels.reorder_run(ts, keys, values, NO_EVENTS, -1, 100) is None
        )
        _assert_every_mode_is_the_oracle([(ts, keys, values)], 100)

"""``push_many`` is the columnar front door: a batch stays a batch
from the caller to the operators, and must be observationally the
per-event ``push`` loop it replaced — at one shard and at two.

Four feeds of one out-of-order stream — ``push_many(list of rows)``,
``push_many(ndarray)``, ``push_many(already validated columns)`` and a
per-event ``push`` loop — with a
``register`` and a ``deregister`` landing between batches, must agree
bit for bit on results, exact reorder counters and the watermark.
Whole-number values keep every aggregate exact however a live replan
regroups the additions (the carve-out of DESIGN.md invariants 9/10: a
rate replan applies at the end of a ``push_many`` call, so under the
default hysteresis it may land at another event than in the per-event
loop); real-valued streams are held to the same standard with
``hysteresis=None``.
"""

import pickle

import numpy as np
import pytest

from repro.aggregates.registry import AVG, MEDIAN, MIN, SUM
from repro.core.multiquery import Query
from repro.engine.events import event_columns
from repro.errors import ExecutionError
from repro.windows.window import Window, WindowSet

from session_streams import SHARD_COUNTS, serial_session

NUM_KEYS = 4
TICKS = 600
RATE = 4
CHUNK_TICKS = 24  # 96 events: every batch size below straddles chunks

INITIAL = [
    Query("sums", WindowSet([Window(12, 4), Window(24, 8)]), SUM),
    Query("mins", WindowSet([Window(8, 8), Window(16, 16)]), MIN),
    Query("medians", WindowSet([Window(10, 5)]), MEDIAN),
]
LATE = Query("avgs", WindowSet([Window(20, 10)]), AVG)


def arrivals(seed: int, max_lateness: int, whole: bool):
    """A constant-rate stream whose arrival jitter overshoots the
    lateness bound by a few ticks, so some events are late-dropped."""
    rng = np.random.default_rng(seed)
    n = TICKS * RATE
    ts = np.arange(n, dtype=np.int64) // RATE
    keys = rng.integers(0, NUM_KEYS, n)
    values = rng.normal(20.0, 5.0, n)
    if whole:
        values = np.round(values)
    jitter = rng.integers(0, max_lateness + 4, n)
    order = np.argsort(ts + jitter, kind="stable")
    return list(
        zip(ts[order].tolist(), keys[order].tolist(), values[order].tolist())
    )


def feed(rows, mode, batch, max_lateness, hysteresis, shards):
    session = serial_session(
        shards,
        num_keys=NUM_KEYS,
        max_lateness=max_lateness,
        chunk_ticks=CHUNK_TICKS,
        hysteresis=hysteresis,
    )
    for query in INITIAL:
        session.register(query)
    batches = [rows[lo : lo + batch] for lo in range(0, len(rows), batch)]
    ops = {
        len(batches) // 3: lambda: session.register(LATE),
        2 * len(batches) // 3: lambda: session.deregister("sums"),
    }
    for index, piece in enumerate(batches):
        if index in ops:
            ops[index]()
        if mode == "rows":
            session.push_many(piece)
        elif mode == "ndarray":
            session.push_many(np.asarray(piece, dtype=np.float64))
        elif mode == "columns":
            session.push_many(event_columns(piece, NUM_KEYS))
        else:
            for row in piece:
                session.push(*row)
    watermark = session.watermark
    results = session.finish(TICKS)
    return results, session.reorder_stats, watermark, session.switches


def assert_same_results(got, expected, context):
    assert got.keys() == expected.keys(), context
    for name, by_window in expected.items():
        assert got[name].keys() == by_window.keys(), (context, name)
        for window, block in by_window.items():
            other = got[name][window]
            assert other.start_instance == block.start_instance, context
            assert other.frontier == block.frontier, context
            np.testing.assert_array_equal(
                other.values, block.values, err_msg=f"{context} {name} {window}"
            )


def assert_same_reorder(got, expected, context):
    for counter in ("accepted", "late_dropped", "max_observed_lateness"):
        assert getattr(got, counter) == getattr(expected, counter), (
            context,
            counter,
        )


@SHARD_COUNTS
@pytest.mark.parametrize("max_lateness", [0, 8, 32])
@pytest.mark.parametrize("batch", [1, 7, 200, 1000])
@pytest.mark.parametrize(
    "whole, hysteresis", [(True, 0.25), (False, None)],
    ids=["whole-replanning", "real-static"],
)
def test_push_many_is_the_per_event_loop(
    max_lateness, batch, whole, hysteresis, shards, repro_seed
):
    rows = arrivals(repro_seed, max_lateness, whole)
    context = f"seed={repro_seed}"
    config = (batch, max_lateness, hysteresis, shards)
    loop, loop_reorder, loop_wm, _ = feed(rows, "push", *config)
    assert loop_reorder.late_dropped > 0, context  # the counters are live
    listed, listed_reorder, listed_wm, listed_switches = feed(
        rows, "rows", *config
    )
    table, table_reorder, table_wm, table_switches = feed(
        rows, "ndarray", *config
    )
    checked, checked_reorder, checked_wm, _ = feed(rows, "columns", *config)
    assert_same_results(listed, loop, context)
    assert_same_results(table, loop, context)
    assert_same_results(checked, loop, context)
    assert_same_reorder(listed_reorder, loop_reorder, context)
    assert_same_reorder(table_reorder, loop_reorder, context)
    assert_same_reorder(checked_reorder, loop_reorder, context)
    assert listed_wm == table_wm == checked_wm, context
    assert len(listed_switches) == len(table_switches), context
    if hysteresis is None:
        # No replan can shift the chunk grid: the watermark a caller
        # reads after the last batch is the per-event loop's too.
        assert listed_wm == loop_wm, context


GOOD_ROWS = [(3, 0, 1.0), (4, 1, 2.0)]
_EXACT = (
    "events[2]: timestamp and key must be integers below 2**53 "
    "(exact in float64), got "
)
_SHAPE = "events[2]: expected [ts, key, value], got "
_NAN = "(cannot convert float NaN to integer)"
_NONE = "(float() argument must be a string or a real number, not 'NoneType')"
_SHORT = "(not enough values to unpack (expected 3, got 2))"
_LONG = "(too many values to unpack (expected 3))"
nan, inf = float("nan"), float("inf")

#: ``(id, bad row, message on a row list, message on an array)``
#: appended after ``GOOD_ROWS`` — the messages of the validation rules
#: as first written, kept word for word.
MALFORMED = [
    ("nan-ts", (nan, 1, 2.0), f"{_SHAPE}(nan, 1, 2.0) {_NAN}",
     f"{_EXACT}[nan, 1.0, 2.0]"),
    ("inf-ts", (inf, 1, 2.0), f"{_EXACT}[inf, 1, 2.0]",
     f"{_EXACT}[inf, 1.0, 2.0]"),
    ("nan-key", (4, nan, 2.0), f"{_SHAPE}(4, nan, 2.0) {_NAN}",
     f"{_EXACT}[4.0, nan, 2.0]"),
    ("inf-key", (4, inf, 2.0), f"{_EXACT}[4, inf, 2.0]",
     f"{_EXACT}[4.0, inf, 2.0]"),
    ("2**53-ts", (2**53, 1, 2.0), f"{_EXACT}[9007199254740992, 1, 2.0]",
     f"{_EXACT}[9007199254740992.0, 1.0, 2.0]"),
    ("2**53-key", (4, 2**53, 2.0), f"{_EXACT}[4, 9007199254740992, 2.0]",
     f"{_EXACT}[4.0, 9007199254740992.0, 2.0]"),
    ("fractional-ts", (1.5, 1, 2.0), f"{_EXACT}[1.5, 1, 2.0]",
     f"{_EXACT}[1.5, 1.0, 2.0]"),
    ("negative-ts", (-1, 1, 2.0), "events[2]: timestamp -1 must be >= 0",
     "events[2]: timestamp -1 must be >= 0"),
    ("key-num_keys", (4, NUM_KEYS, 2.0),
     "events[2]: key 4 outside dense id space [0, 4)",
     "events[2]: key 4 outside dense id space [0, 4)"),
    ("None", (4, 1, None), f"{_SHAPE}(4, 1, None) {_NONE}",
     f"{_SHAPE}array([4, 1, None], dtype=object) {_NONE}"),
    ("2-field", (4, 1), f"{_SHAPE}(4, 1) {_SHORT}",
     f"{_SHAPE}[4, 1] {_SHORT}"),
    ("4-field", (4, 1, 2.0, 5.0), f"{_SHAPE}(4, 1, 2.0, 5.0) {_LONG}",
     f"{_SHAPE}[4, 1, 2.0, 5.0] {_LONG}"),
]


class TestBatchValidation:
    """A batch is checked whole before any of it is applied.  (A
    fractional timestamp used to be truncated on its way through
    ``astype(int64)`` on the sharded front door.)"""

    @SHARD_COUNTS
    def test_bad_row_applies_nothing(self, shards):
        session = serial_session(
            shards, num_keys=NUM_KEYS, hysteresis=None
        )
        session.register(INITIAL[0])
        session.push_many([(1, 0, 1.0), (2, 1, 2.0)])
        accepted = session.reorder_stats.accepted
        for bad, match in (
            ([(3, 0, 1.0), (-1, 1, 2.0)], r"events\[1\]: timestamp -1"),
            ([(3, 0, 1.0), (4, NUM_KEYS, 2.0)], r"events\[1\]: key 4 outside"),
            ([(3, 0, 1.0), (4.5, 1, 2.0)], r"events\[1\]: .*integers"),
            ([(3, 0, 1.0), (4, 1)], r"events\[1\]: expected \[ts, key, value\]"),
            ([(3, 0, 1.0), (4, 1, None)], r"events\[1\]: expected"),
            ([(3, 0, 1.0), (2**53 + 1, 1, 2.0)], r"events\[1\]: .*2\*\*53"),
        ):
            with pytest.raises(ExecutionError, match=match):
                session.push_many(bad)
            assert session.reorder_stats.accepted == accepted
        session.push_many([(3, 0, 1.0)])  # still healthy
        assert session.reorder_stats.accepted == accepted + 1

    @pytest.mark.parametrize("feed", ["rows", "ndarray"])
    @pytest.mark.parametrize(
        "bad, rows_message, array_message",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_each_malformed_class_names_its_row(
        self, feed, bad, rows_message, array_message
    ):
        """The validation contract, message for message: every class
        of malformed row, on a row list and on an array, raises the
        text below naming row 2 and applies nothing."""
        rows = GOOD_ROWS + [bad]
        if feed == "rows":
            events, expected = rows, rows_message
        elif len(bad) != 3:
            events, expected = np.empty(len(rows), dtype=object), array_message
            events[:] = [list(row) for row in rows]
        else:
            dtype = object if None in bad else np.float64
            events, expected = np.array(rows, dtype=dtype), array_message
        session = serial_session(1, num_keys=NUM_KEYS, hysteresis=None)
        session.register(INITIAL[0])
        session.push_many([(1, 0, 1.0), (2, 1, 2.0)])
        before = pickle.dumps(session._reorder)
        with pytest.raises(ExecutionError) as raised:
            session.push_many(events)
        assert str(raised.value) == expected
        assert pickle.dumps(session._reorder) == before
        session.close()

    def test_exact_conversion_boundary(self):
        ts, keys, values = event_columns(
            [(2**53 - 1, 0, float("nan")), (0, 1, 0.5)], num_keys=2
        )
        assert ts.dtype == np.int64 and keys.dtype == np.int64
        assert ts.tolist() == [2**53 - 1, 0]  # exact, not rounded
        assert np.isnan(values[0]) and values[1] == 0.5  # NaN is a value
        assert all(column.flags.c_contiguous for column in (ts, keys, values))
        assert values.base is None  # no wider copy kept alive by a batch
        with pytest.raises(ExecutionError, match=r"events\[0\]"):
            event_columns([(2**53, 0, 1.0)], num_keys=2)
        with pytest.raises(ExecutionError, match=r"events\[0\]"):
            event_columns(np.array([[np.inf, 0.0, 1.0]]), num_keys=2)
        empty = event_columns([], num_keys=2)
        assert [column.size for column in empty] == [0, 0, 0]

    def test_a_broken_rule_without_an_offending_row_fails_loudly(self):
        """The failure path only looks for the row a broken verdict
        names: a verdict with no such row is a bug, never a message
        about a valid row."""
        from repro.engine.events import _first_invalid_row

        table = np.array([[1.0, 0.0, 1.0]])
        with pytest.raises(AssertionError, match="matched no row"):
            _first_invalid_row(table, table, 2, (True, True, False))
        assert _first_invalid_row(table, table, 2, (True, True, True)) is None

    @SHARD_COUNTS
    def test_validation_is_idempotent(self, shards):
        """Columns checked at one door (the service manager) pass the
        next (``push_many``) untouched — unless that door holds another
        ``num_keys``, which re-runs every check."""
        columns = event_columns([(3, 0, 1.0), (4, 3, 2.0)], NUM_KEYS)
        assert event_columns(columns, NUM_KEYS) is columns
        with pytest.raises(ExecutionError, match=r"events\[1\]: key 3"):
            event_columns(columns, 3)
        wider = event_columns(columns, NUM_KEYS + 1)
        assert wider.num_keys == NUM_KEYS + 1
        assert [c.tolist() for c in wider] == [c.tolist() for c in columns]
        with serial_session(
            shards, num_keys=NUM_KEYS, async_ingest=True
        ) as session:
            session.register(INITIAL[0])
            session.push_many(columns)  # the pump takes rows
            session.results()  # a synchronization point
            assert session.reorder_stats.accepted == 2

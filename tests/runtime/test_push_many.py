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
import threading
from collections import namedtuple

import numpy as np
import pytest

from repro import _kernels as kernels
from repro.aggregates.registry import AVG, MEDIAN, MIN, SUM
from repro.core.multiquery import Query
from repro.engine.events import event_columns
from repro.engine.outoforder import ReorderBuffer
from repro.errors import ExecutionError
from repro.runtime import CheckpointStore, ShardedSession
from repro.runtime.ingest import SessionFrontDoor
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


def ops_for(session, length):
    """The mid-stream workload changes: ``{row index: call}``."""
    return {
        length // 3: lambda: session.register(LATE),
        2 * length // 3: lambda: session.deregister("sums"),
    }


def applied(session):
    stats = session.reorder_stats
    return stats.accepted + stats.late_dropped


def replanning_run(rows, verb, async_ingest, shards, directory):
    """Every row alone through ``verb`` on a session that replans at
    any drift and checkpoints every 25 ticks: ``(results, switches,
    checkpoints, reorder stats)``, each checkpoint paired with the
    applied position its ``checkpoint_meta`` saw."""
    saved = []
    session = serial_session(
        shards,
        num_keys=NUM_KEYS,
        max_lateness=8,
        chunk_ticks=CHUNK_TICKS,
        hysteresis=0.0,
        async_ingest=async_ingest,
        auto_checkpoint=CheckpointStore(directory, every=25),
        checkpoint_meta=lambda: {"position": applied(session)},
        on_checkpoint=lambda snap, path: saved.append(snap),
    )
    with session:
        for query in INITIAL:
            session.register(query)
        ops = ops_for(session, len(rows))
        for index, row in enumerate(rows):
            if index in ops:
                ops[index]()
            if verb == "push":
                session.push(*row)
            else:
                session.push_many([row])
        results = session.finish(TICKS)
        switches = [(s.reason, s.watermark, s.rate) for s in session.switches]
        return results, switches, saved, session.reorder_stats


def position_of(snap):
    """The applied position ``snap`` was cut at, off its own reorder
    counters (residue not yet applied)."""
    stats = pickle.loads(snap.payload["state"])["door"]["_reorder"].stats
    return stats.accepted + stats.late_dropped


def resumed(snap, rows, async_ingest, directory):
    """Restore ``snap`` in ``async_ingest`` mode, its checkpoint cadence
    rolling on from the snapshot, and push the rest of ``rows`` from the
    restored session's own position: ``(results, switches,
    checkpoints, residue)`` — the checkpoints as ``(watermark,
    position)`` and ``residue`` the number of rows the snapshot
    carried."""
    store = CheckpointStore(directory, every=25)
    store.save(snap)
    saved = []
    session = ShardedSession.restore(
        snap,
        async_ingest=async_ingest,
        auto_checkpoint=store,
        on_checkpoint=lambda cut, path: saved.append(
            (cut.watermark, position_of(cut))
        ),
    )
    with session:
        session.results()  # a synchronization point: residue applied
        position = applied(session)
        ops = ops_for(session, len(rows))
        for index in range(position, len(rows)):
            if index in ops:
                ops[index]()
            session.push(*rows[index])
        results = session.finish(TICKS)
        switches = [(s.reason, s.watermark, s.rate) for s in session.switches]
        return results, switches, saved, position - snap.meta["position"]


@SHARD_COUNTS
@pytest.mark.parametrize("async_ingest", [False, True], ids=["sync", "async"])
def test_push_lands_every_epilogue_where_one_row_calls_do(
    shards, async_ingest, tmp_path, repro_seed
):
    """Per-event ``push`` settles its pending rows in pieces, yet every
    chunk flush, rate replan and auto-checkpoint lands after the same
    row as with ``push_many([row])`` — which runs the epilogue per
    call — and every checkpoint, pending rows carried as residue,
    resumes to the uninterrupted results, switches and checkpoints."""
    rows = arrivals(repro_seed, 8, whole=True)
    context = f"seed={repro_seed}"
    config = (async_ingest, shards)
    pushed, pushed_switches, pushed_saves, pushed_reorder = replanning_run(
        rows, "push", *config, tmp_path / "push"
    )
    single, single_switches, single_saves, single_reorder = replanning_run(
        rows, "push_many", *config, tmp_path / "push_many"
    )
    assert_same_results(pushed, single, context)
    assert pushed_switches == single_switches, context
    # A replan moved the rate the later switches were priced at.
    assert {rate for _, _, rate in pushed_switches} != {1}, context
    assert len(pushed_saves) >= 5, context
    cuts = [(snap.watermark, snap.meta["position"]) for snap in pushed_saves]
    assert cuts == [
        (snap.watermark, snap.meta["position"]) for snap in single_saves
    ], context
    assert cuts == [
        (snap.watermark, position_of(snap)) for snap in pushed_saves
    ], context
    assert_same_reorder(pushed_reorder, single_reorder, context)
    carried = 0
    for number, snap in enumerate(pushed_saves):
        where = f"{context} wm={snap.watermark}"
        results, switches, saves, residue = resumed(
            snap, rows, async_ingest, tmp_path / f"resumed-{number}"
        )
        assert_same_results(results, pushed, where)
        assert switches == pushed_switches, where
        assert saves == cuts[number + 1 :], where
        carried += residue > 0
    if async_ingest:
        assert carried, context  # the pump held rows at some cut


@pytest.mark.parametrize("async_ingest", [False, True], ids=["sync", "async"])
def test_close_applies_every_pushed_row(async_ingest, tmp_path, repro_seed):
    """A session closed unfinished has applied every row ``push``
    accepted — auto-checkpoints written, reorder counters moved —
    exactly as ``push_many([row])`` has, in either ingest mode."""
    rows = arrivals(repro_seed, 8, whole=True)[:1000]

    def closed(verb):
        saved = []
        session = serial_session(
            2,
            num_keys=NUM_KEYS,
            max_lateness=8,
            chunk_ticks=CHUNK_TICKS,
            hysteresis=0.0,
            async_ingest=async_ingest,
            auto_checkpoint=CheckpointStore(tmp_path / verb, every=25),
            checkpoint_meta=lambda: {"position": applied(session)},
            on_checkpoint=lambda snap, path: saved.append(
                (snap.watermark, snap.meta["position"])
            ),
        )
        for query in INITIAL:
            session.register(query)
        for row in rows:
            if verb == "push":
                session.push(*row)
            else:
                session.push_many([row])
        if verb == "push" and not async_ingest:
            assert session._rows  # rows still pending at close
        session.close()
        return saved, session.reorder_stats

    saved, stats = closed("push")
    expected_saved, expected_stats = closed("push_many")
    assert saved == expected_saved
    assert len(saved) >= 3
    assert_same_reorder(stats, expected_stats, f"seed={repro_seed}")
    assert stats.accepted + stats.late_dropped == len(rows)


def test_close_drops_pending_rows_only_over_a_failed_backend(monkeypatch):
    """A sync session whose backend has failed still closes without
    raising; its pending rows go with it."""
    session = serial_session(
        1, num_keys=NUM_KEYS, max_lateness=8, chunk_ticks=CHUNK_TICKS,
        hysteresis=None,
    )
    session.register(INITIAL[0])
    for row in arrivals(3, 8, whole=True)[:60]:
        session.push(*row)
    assert session._rows

    def failed(*args):
        raise ExecutionError("worker failed")

    monkeypatch.setattr(session, "_buffer_run", failed)
    session.close()
    assert session._rows == []
    with pytest.raises(ExecutionError, match="closed"):
        session.results()


def test_a_silent_gap_does_not_cut_a_piece_per_row(monkeypatch):
    """After a silent gap longer than ``max_lateness + chunk_ticks``
    the watermark runs past the chunk end with nothing released at or
    past it; rows arriving then cannot flush, so ``push`` keeps them
    pending rather than applying each as a piece of its own (a piece
    copies the whole carry, which would make the catch-up quadratic).
    Without replans or checkpoints every piece ends at a flushing row,
    bar the one ``finish`` settles."""
    rng = np.random.default_rng(5)
    ticks = np.concatenate([np.arange(0, 40), np.arange(400, 440)])
    ts = np.repeat(ticks, 20)
    order = np.argsort(ts + rng.integers(0, 33, ts.size), kind="stable")
    rows = [(int(t), int(t) % NUM_KEYS, 1.0) for t in ts[order]]
    pieces, flushing = [], []
    push_batch = ReorderBuffer.push_batch
    apply_run = SessionFrontDoor._apply_run

    def counted_push_batch(self, *columns):
        pieces.append(len(columns[0]))
        return push_batch(self, *columns)

    def counted_apply_run(self, *run):
        watermark = self._watermark
        apply_run(self, *run)
        flushing.append(self._watermark != watermark)

    monkeypatch.setattr(ReorderBuffer, "push_batch", counted_push_batch)
    monkeypatch.setattr(SessionFrontDoor, "_apply_run", counted_apply_run)
    with serial_session(
        1, num_keys=NUM_KEYS, max_lateness=32, chunk_ticks=4, hysteresis=None
    ) as session:
        session.register(INITIAL[0])
        for row in rows:
            session.push(*row)
        session.finish()
        assert applied(session) == len(rows)
    assert len(pieces) <= sum(flushing) + 1
    assert len(pieces) < len(rows) // 40


@pytest.mark.parametrize("overshoot", [0, 3], ids=["in-bound", "late"])
@pytest.mark.parametrize("max_lateness", [0, 5, 40])
def test_pieces_end_at_the_rows_that_flush(
    monkeypatch, repro_seed, max_lateness, overshoot
):
    """A whole gapped stream as one rows entry (the pump held busy) is
    cut after exactly the rows at which ``push_many([row])`` flushes a
    chunk, and after its last row; late rows (jitter past the bound)
    may only add cuts."""
    rng = np.random.default_rng(repro_seed)
    rows, tick = [], 0
    for _ in range(8):
        span, rate = int(rng.integers(20, 120)), int(rng.integers(1, 6))
        ts = np.repeat(np.arange(tick, tick + span), rate)
        jitter = rng.integers(0, max_lateness + overshoot + 1, ts.size)
        ts = ts[np.argsort(ts + jitter, kind="stable")]
        rows += [(int(t), int(rng.integers(0, NUM_KEYS)), 1.0) for t in ts]
        tick += span + int(rng.choice([0, 5, 60, 200]))
    options = dict(
        num_keys=NUM_KEYS,
        max_lateness=max_lateness,
        chunk_ticks=4,
        hysteresis=None,
    )
    flushes = {len(rows)}
    with serial_session(1, **options) as session:
        session.register(INITIAL[0])
        for index, row in enumerate(rows):
            watermark = session.watermark
            session.push_many([row])
            if session.watermark != watermark:
                flushes.add(index + 1)
    cuts = set()
    push_run_now = SessionFrontDoor._push_run_now

    def recorded(self, columns):
        push_run_now(self, columns)
        cuts.add(self._reorder.stats.total)

    monkeypatch.setattr(SessionFrontDoor, "_push_run_now", recorded)
    with serial_session(1, async_ingest=True, **options) as session:
        session.register(INITIAL[0])
        entered, gate = threading.Event(), threading.Event()

        def hold():
            entered.set()
            gate.wait()

        holder = threading.Thread(target=session._pump.submit_call, args=(hold,))
        holder.start()
        assert entered.wait(timeout=30)
        for row in rows:
            session.push(*row)
        gate.set()
        holder.join(timeout=30)
        assert not holder.is_alive()
        assert session.ingest_stats.max_depth_events == len(rows)
    context = f"seed={repro_seed}"
    assert len(flushes) > 20, context
    if overshoot:
        assert cuts >= flushes, (context, sorted(flushes - cuts))
    else:
        assert cuts == flushes, (context, sorted(cuts ^ flushes))


def gapped_rows():
    """Whole-valued spans at rate 1 or 30, some followed by a silent
    gap: a replan's clock sync can then cross a chunk end no event
    reached and park the next replan inside the epilogue itself."""
    rng = np.random.default_rng(8)
    rows, tick = [], 0
    for _ in range(12):
        rate = int(rng.choice([1, 30]))
        span = int(rng.integers(4, 40))
        for t in range(tick, tick + span):
            rows += [
                (t, int(rng.integers(0, 4)), float(rng.integers(0, 100)))
                for _ in range(rate)
            ]
        tick += span + int(rng.choice([0, 0, 30, 90]))
    return rows


@SHARD_COUNTS
@pytest.mark.parametrize("max_lateness", [0, 3])
def test_one_rows_entry_replans_where_one_row_calls_do(shards, max_lateness):
    """The whole stream as one rows entry — the pump held busy while
    it queues — against ``push_many([row])``: a replan still parked
    after an epilogue is applied after the very next row."""
    rate_sensitive = Query("f", WindowSet([Window(6, 3), Window(8, 4)]), MIN)
    rows = gapped_rows()

    def switches(held):
        with serial_session(
            shards, num_keys=4, max_lateness=max_lateness, chunk_ticks=8,
            hysteresis=0.0, async_ingest=held,
        ) as session:
            session.register(rate_sensitive)
            if held:
                entered, gate = threading.Event(), threading.Event()

                def hold():
                    entered.set()
                    gate.wait()

                holder = threading.Thread(
                    target=session._pump.submit_call, args=(hold,)
                )
                holder.start()
                assert entered.wait(timeout=30)
                for row in rows:
                    session.push(*row)
                gate.set()
                holder.join(timeout=30)
                assert not holder.is_alive()
            else:
                for row in rows:
                    session.push_many([row])
            session.finish()
            return [(s.reason, s.watermark, s.rate) for s in session.switches]

    expected = switches(held=False)
    assert sum(reason == "rate" for reason, _, _ in expected) >= 3
    assert switches(held=True) == expected


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


Row = namedtuple("Row", "ts key value")

#: ``(id, rows)`` that ``event_columns`` must turn into the same
#: columns or the same message with and without the compiled parser:
#: every id and value shape it takes, and every one it must hand to the
#: NumPy path (which accepts some of them, e.g. a float id ``3.0``),
#: the ``MALFORMED`` rows included.
PARSER_CASES = [
    ("clean", [
        (0, 0, 1.5), [2**53 - 1, NUM_KEYS - 1, -2.0], (5, 1, nan),
        [6, 2, inf], (7, 3, 2**60 + 1), (8, 0, -inf), [9, 1, -0.0],
    ]),
    ("tuples", [(3, 0, 1.0), (4, 1, 2.0)]),
    ("lists", [[3, 0, 1.0], [4, 1, 2.0]]),
    ("int-value", [(3, 0, 7), (4, 1, -(2**70))]),
    ("key-minus-1", GOOD_ROWS + [(4, -1, 1.0)]),
    ("None-ts", GOOD_ROWS + [(None, 0, 1.0)]),
    ("bool-ts", GOOD_ROWS + [(True, 0, 1.0)]),
    ("bool-key", GOOD_ROWS + [(4, False, 1.0)]),
    ("bool-value", GOOD_ROWS + [(4, 0, True)]),
    ("np.int64-ts", GOOD_ROWS + [(np.int64(4), 0, 1.0)]),
    ("np.int64-key", GOOD_ROWS + [(4, np.int64(2**53), 1.0)]),
    ("np.float64-value", GOOD_ROWS + [(4, 0, np.float64(0.1))]),
    ("float-ts-3.0", GOOD_ROWS + [(3.0, 0, 1.0)]),
    ("float-key-3.0", GOOD_ROWS + [(4, 3.0, 1.0)]),
    ("float-key-3.5", GOOD_ROWS + [(4, 3.5, 1.0)]),
    ("str-value", GOOD_ROWS + [(4, 0, "1.5")]),
    ("str-key", GOOD_ROWS + [(4, "x", 1.0)]),
    ("4-field-list", GOOD_ROWS + [[4, 0, 1.0, 2.0]]),
    ("ts-beyond-int64", GOOD_ROWS + [(2**64, 0, 1.0)]),
    ("value-beyond-float64", GOOD_ROWS + [(4, 0, 10**400)]),
    ("tuple-subclass", GOOD_ROWS + [Row(4, 0, 1.0)]),
] + [(f"malformed-{name}", GOOD_ROWS + [bad]) for name, bad, *_ in MALFORMED]


class TestBatchValidation:
    """A batch is checked whole before any of it is applied.  (A
    fractional timestamp used to be truncated on its way through
    ``astype(int64)`` on the sharded front door.)"""

    @pytest.mark.parametrize("verb", ["push", "push_many"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ((1.5, 0, 1.0), "got [1.5, 0, 1.0]"),
            ((3, 1.7, 1.0), "got [3, 1.7, 1.0]"),
            ((4, 0, None), f"{_SHAPE}(4, 0, None) {_NONE}"),
            ((2**60, 0, 1.0), f"got [{2**60}, 0, 1.0]"),
        ],
        ids=["fractional-ts", "fractional-key", "None-value", "2**60-ts"],
    )
    def test_push_validates_like_push_many(self, verb, bad, message):
        """``push(*row)`` raises what ``push_many([row])`` raises — the
        same rule, word for word — and applies nothing.  (``push``
        used to truncate a fractional timestamp or key, take a
        timestamp beyond float64's exact range, and let ``None`` out
        as a bare ``TypeError``.)"""
        if message.startswith("got "):
            message = _EXACT + message[len("got "):]
        expected = message.replace("events[2]", "events[0]")
        with serial_session(1, num_keys=NUM_KEYS, hysteresis=None) as session:
            session.register(INITIAL[0])
            session.push_many([(1, 0, 1.0), (2, 1, 2.0)])
            with pytest.raises(ExecutionError) as raised:
                if verb == "push":
                    session.push(*bad)
                else:
                    session.push_many([bad])
            assert str(raised.value) == expected
            assert applied(session) == 2
            session.push(3, 0, 1.0)  # still healthy
            assert applied(session) == 3

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

    @pytest.mark.parametrize("mode", ["1", "require"])
    @pytest.mark.parametrize(
        "rows", [case[1] for case in PARSER_CASES],
        ids=[case[0] for case in PARSER_CASES],
    )
    def test_parser_and_numpy_path_agree(self, rows, mode, monkeypatch):
        """A row list gives the same columns (dtype and bits) or the
        same message under every ``REPRO_KERNELS`` setting: the
        compiled parser takes only what the NumPy path takes unchanged
        and hands it every other batch whole.  Without a compiler,
        ``1`` is the NumPy path again."""
        if mode == "require" and not kernels.available():
            pytest.skip(f"no kernels: {kernels.availability_error()}")

        def outcome(setting):
            monkeypatch.setenv("REPRO_KERNELS", setting)
            try:
                columns = event_columns(list(rows), NUM_KEYS)
            except ExecutionError as exc:
                return str(exc)
            return [(c.dtype, c.tobytes()) for c in columns]

        assert outcome(mode) == outcome("0")

    def test_parser_takes_a_clean_list_whole(self, monkeypatch):
        """A clean row list — tuples and lists, boundary ids, NaN and
        infinite values, int values — never reaches the NumPy table
        under ``require``."""
        from repro.engine import events

        if not kernels.available():
            pytest.skip(f"no kernels: {kernels.availability_error()}")
        monkeypatch.setenv("REPRO_KERNELS", "require")

        def no_table(rows):
            raise AssertionError("the batch reached the NumPy path")

        monkeypatch.setattr(events, "_row_table", no_table)
        rows = [case[1] for case in PARSER_CASES if case[0] == "clean"][0]
        ts, keys, values = event_columns(rows, NUM_KEYS)
        assert ts.tolist() == [0, 2**53 - 1, 5, 6, 7, 8, 9]
        assert keys.tolist() == [0, NUM_KEYS - 1, 1, 2, 3, 0, 1]
        assert values.base is None and values[4] == float(2**60 + 1)

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

"""One chunk clock (DESIGN.md §8): however a stream reaches a session —
event by event, as row lists, arrays or validated columns, as sorted
batches, through a pump or not, across a snapshot/restore — the
watermark advances at the same events, and every chunk end is
accounted where the plain per-event loop flushes.

Every script is held to the per-event ``push`` loop of the same
session, at one shard and at two, on real-valued streams:

* bit-identical results and the same reorder counters.  A call that
  crosses several chunk ends hands the operators its run once where
  the loop flushes at every one of them; exact pane folds make the
  two the same bits;
* the same ``watermark``, ``slot_loads()`` and rate-controller state
  after every call;
* the same ``ExecutionStats.total_pairs`` / ``total_physical``, and the
  same number of delivered events.  No flush copies an event, so
  ``bytes_copied`` and ``copies_elided`` are held equal where the calls
  are equal (the same script, sync vs async) and their sum against
  the loop (in-process cores only: the shm ring's own copies land in
  the same counter).

Half the scripts run the default hysteresis: the rate controller is
live and re-prices every group, but no plan of this workload depends
on the rate, so a replan never switches a plan and never moves the
clock (a switch would land at the end of a push *call*, where the loop
and a batch differ by construction).

Data steps are sized in events, or run through the next tick a freshly
registered operator's instance starts on — a switch right there is the
alignment that hid the one wrong answer this file has caught (a sorted
batch's newest tick delivered before the switch; the last test).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aggregates.registry import AVG, MEDIAN, MIN, SUM
from repro.core.multiquery import Query
from repro.engine.events import EVENT_BYTES, EventBatch, event_columns
from repro.runtime import ShardedSession
from repro.windows.window import Window, WindowSet

from session_streams import SHARD_COUNTS, assert_identical

NUM_KEYS = 5
TICKS = 90
RATE = 3

INITIAL = [
    (Query("sums", WindowSet([Window(12, 4), Window(24, 8)]), SUM), "per_key"),
    (Query("mins", WindowSet([Window(8, 8)]), MIN), "global"),
    (Query("medians", WindowSet([Window(10, 5)]), MEDIAN), "per_key"),
]
#: Raw-forwarded to the coordinator's own core.
FORWARDED = (Query("spread", WindowSet([Window(9, 3)]), MEDIAN), "global")
LATE_SLIDE = 10
LATE = (Query("avgs", WindowSet([Window(20, LATE_SLIDE)]), AVG), "per_key")

COUNTERS = ("total_pairs", "total_physical", "bytes_copied", "copies_elided")
DATA_STEPS = ("push", "rows", "array", "columns", "batch")
#: A data step of this size runs through the next tick that is a
#: multiple of ``LATE_SLIDE``.
ALIGNED = 0
STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(DATA_STEPS),
            st.one_of(st.integers(1, 60), st.just(ALIGNED)),
        ),
        st.tuples(
            st.sampled_from(("register", "deregister", "stats", "restore")),
            st.just(0),
        ),
    ),
    min_size=4,
    max_size=14,
)


def make_events(seed: int, lateness: int, in_order: bool):
    """A constant-rate real-valued stream; unless ``in_order``, arrival
    jitter overshoots the lateness bound so some events are
    late-dropped."""
    rng = np.random.default_rng(seed)
    n = TICKS * RATE
    ts = np.arange(n, dtype=np.int64) // RATE
    keys = rng.integers(0, NUM_KEYS, n)
    values = rng.normal(20.0, 5.0, n)
    if not in_order:
        jitter = rng.integers(0, lateness + 4, n)
        order = np.argsort(ts + jitter, kind="stable")
        ts, keys, values = ts[order], keys[order], values[order]
    return list(zip(ts.tolist(), keys.tolist(), values.tolist()))


def open_cell(
    shards, backend, lateness, chunk_ticks, hysteresis, async_ingest
):
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=shards,
        backend=backend,
        max_lateness=lateness,
        chunk_ticks=chunk_ticks,
        hysteresis=hysteresis,
        async_ingest=async_ingest,
    )
    for query, scope in INITIAL + [FORWARDED]:
        session.register(query, scope=scope)
    return session


def take_piece(events, cursor, step, size):
    """The events of one data step: ``size`` of them, or (``ALIGNED``)
    all up to the end of the next tick a fresh ``LATE`` instance starts
    on; a ``batch`` step keeps the longest prefix one sorted
    ``EventBatch`` can hold."""
    if size == ALIGNED:
        tick = 0
        while (tick + 1) * RATE <= cursor:
            tick += LATE_SLIDE
        size = (tick + 1) * RATE - cursor
    piece = events[cursor : cursor + size]
    if step == "batch":
        for i in range(1, len(piece)):
            if piece[i][0] < piece[i - 1][0]:
                return piece[:i]
    return piece


def push_piece(session, how, piece):
    if how == "push":
        for row in piece:
            session.push(*row)
    elif how == "rows":
        session.push_many(piece)
    elif how == "array":
        session.push_many(np.asarray(piece, dtype=np.float64))
    elif how == "columns":
        session.push_many(event_columns(piece, NUM_KEYS))
    else:
        ts, keys, values = event_columns(piece, NUM_KEYS)
        session.push_batch(
            EventBatch(ts, keys, values, horizon=TICKS, num_keys=NUM_KEYS)
        )


def clock(session):
    """What a call leaves on the clock: the watermark, the slot loads
    and the rate observer's epoch, with its controller's estimate."""
    loads = session.slot_loads()[0].tolist()  # a synchronization point
    observer = session._rate_observer
    controller = observer.controller
    rate = None if controller is None else (
        controller.planned_rate, dict(vars(controller.estimator))
    )
    return (
        session.watermark, loads, observer.epoch_start,
        observer.epoch_events, observer.pending_rate, rate,
    )


def run(
    shards, backend, events, steps, config, *, as_loop=False,
    async_ingest=False,
):
    """Play ``steps`` over ``events``; returns ``(results, reorder
    stats, {step: clock}, execution stats)``.  ``as_loop`` replaces
    every data step by the per-event loop and skips the steps that
    mutate nothing (``stats`` / ``restore``)."""
    lateness, chunk_ticks, hysteresis = config
    session = open_cell(
        shards, backend, lateness, chunk_ticks, hysteresis, async_ingest
    )
    try:
        marks, cursor, late = {}, 0, False
        for index, (step, size) in enumerate(steps):
            synced = not async_ingest
            if step in DATA_STEPS:
                piece = take_piece(events, cursor, step, size)
                cursor += len(piece)
                push_piece(session, "push" if as_loop else step, piece)
            elif step == "register" and not late:
                session.register(LATE[0], scope=LATE[1])
                late = synced = True
            elif step == "deregister" and late:
                session.deregister(LATE[0].name)
                late, synced = False, True
            elif step == "stats" and not as_loop:
                session.stats()
                synced = True
            elif step == "restore" and not as_loop:
                snap = session.snapshot()
                session.close()
                session = ShardedSession.restore(
                    snap, backend=backend, async_ingest=async_ingest
                )
                synced = True
            if synced:
                marks[index] = clock(session)
        push_piece(session, "push" if as_loop else "rows", events[cursor:])
        stats = session.stats()
        marks["end"] = clock(session)
        assert all(s.reason != "rate" for s in session.switches)
        results = session.finish(TICKS)
        return results, session.reorder_stats, marks, stats
    finally:
        session.close()


def delivered(stats):
    return stats.bytes_copied // EVENT_BYTES + stats.copies_elided


def check_clock(
    shards, backend, seed, lateness, chunk_ticks, in_order, replanning, steps
):
    events = make_events(seed, lateness, in_order)
    config = (lateness, chunk_ticks, 0.25 if replanning else None)
    context = (
        f"{shards}x{backend} seed={seed} in_order={in_order} "
        f"config={config} {steps}"
    )
    loop, loop_reorder, loop_marks, loop_stats = run(
        shards, backend, events, steps, config, as_loop=True
    )
    sync, sync_reorder, sync_marks, sync_stats = run(
        shards, backend, events, steps, config
    )
    pumped, pumped_reorder, pumped_marks, pumped_stats = run(
        shards, backend, events, steps, config, async_ingest=True
    )
    for results, reorder in ((sync, sync_reorder), (pumped, pumped_reorder)):
        assert_identical(loop, results, context)
        assert (reorder.accepted, reorder.late_dropped) == (
            loop_reorder.accepted,
            loop_reorder.late_dropped,
        ), context
    if not in_order:
        assert loop_reorder.late_dropped > 0, context  # the bound is live
    # Sync and async run the same calls through the same functions.
    assert pumped_marks == {i: sync_marks[i] for i in pumped_marks}, context
    # (Copy accounting on in-process cores only: a shm worker also
    # counts ring copies, which depend on when its ring went idle.)
    for counter in COUNTERS if backend == "serial" else COUNTERS[:2]:
        assert getattr(pumped_stats, counter) == getattr(
            sync_stats, counter
        ), (context, counter)
    assert sync_stats.total_pairs == loop_stats.total_pairs, context
    # The loop skipped the steps that only read; everywhere else the
    # clocks agree call by call and the operators saw the same events.
    assert {i: sync_marks[i] for i in loop_marks} == loop_marks, context
    assert sync_stats.total_physical == loop_stats.total_physical, context
    if backend == "serial":
        assert delivered(sync_stats) == delivered(loop_stats), context


CASE = dict(
    seed=st.integers(0, 2**16),
    lateness=st.sampled_from([0, 3, 8]),
    chunk_ticks=st.sampled_from([None, 7, 24]),
    in_order=st.booleans(),
    replanning=st.booleans(),
    steps=STEPS,
)


@SHARD_COUNTS
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(**CASE)
def test_every_interleaving_is_the_per_event_loop(shards, **case):
    check_clock(shards, "serial", **case)


@pytest.mark.chaos
@pytest.mark.parametrize("backend", ["process", "shm"])
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(**CASE)
def test_every_interleaving_is_the_per_event_loop_on_workers(backend, **case):
    check_clock(2, backend, **case)


@SHARD_COUNTS
def test_register_after_a_sorted_batch_sees_its_last_tick(shards):
    """Three events at tick 0, then a registration, then the rest: the
    late query's first instance starts at 0 and must count all three
    (a sorted batch used to bypass the reorder buffer, newest tick
    included, so the switch found that tick already delivered)."""
    events = make_events(seed=0, lateness=0, in_order=True)

    def run_registering(as_loop):
        session = open_cell(shards, "serial", 0, None, None, False)
        try:
            push_piece(session, "push" if as_loop else "batch", events[:RATE])
            session.register(LATE[0], scope=LATE[1])
            push_piece(session, "push", events[RATE:])
            return session.finish(TICKS)
        finally:
            session.close()

    assert_identical(run_registering(True), run_registering(False), "aligned")


@SHARD_COUNTS
def test_a_call_across_many_chunk_ends_is_delivered_once(shards):
    """Ticks 0-29 at ``chunk_ticks=7`` cross the chunk ends 7, 14, 21
    and 28: the per-event loop delivers at each of them, one
    ``push_many`` delivers its run once, to the last — and both leave
    the same clock behind."""

    def deliveries(as_loop):
        session = open_cell(shards, "serial", 0, 7, None, False)
        try:
            delivered, deliver = [], session._deliver
            session._deliver = lambda to: (delivered.append(to), deliver(to))
            push_piece(session, "push" if as_loop else "rows", EVENTS)
            return delivered, clock(session)
        finally:
            session.close()

    EVENTS = make_events(seed=0, lateness=0, in_order=True)[: 30 * RATE]
    loop, loop_clock = deliveries(as_loop=True)
    batch, batch_clock = deliveries(as_loop=False)
    assert loop == [7, 14, 21, 28] and batch == [28]
    assert batch_clock == loop_clock

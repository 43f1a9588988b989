"""Backpressure properties of the async ingest front door and the
shared-memory ring data plane (DESIGN.md §8, invariant 11).

The contract under test: a slow consumer — a full ring, a full ingest
queue, or both — may only ever slow the producer down.  It must never
drop a chunk, reorder chunks, or change a single emitted value; and
polling ``drain_results()`` must keep buffered result state bounded
regardless of how long the session runs.
"""

import sys
import threading
from queue import SimpleQueue

import numpy as np
import pytest

from repro.aggregates.registry import AVG, MEDIAN, SUM
from repro.core.multiquery import Query
from repro.engine.events import EventColumns
from repro.errors import ExecutionError
from repro.runtime import (
    CheckpointStore,
    ShardedSession,
    SharedMemoryShardBackend,
)
from repro.runtime.ingest import _CALL, _ROWS, IngestPump, IngestQueue
from repro.windows.window import Window, WindowSet

from session_streams import SHARD_COUNTS, integer_stream, serial_session

NUM_KEYS = 8
QUERIES = [
    (Query("sums", WindowSet([Window(30, 10)]), SUM), "per_key"),
    (Query("avgs", WindowSet([Window(20, 10)]), AVG), "global"),
    (Query("meds", WindowSet([Window(12, 6)]), MEDIAN), "global"),
]


def _reference_results(batch):
    session = ShardedSession(
        num_keys=NUM_KEYS, num_shards=2, backend="serial", hysteresis=None
    )
    try:
        for query, scope in QUERIES:
            session.register(query, scope=scope)
        session.push_batch(batch)
        return session.finish(horizon=batch.horizon)
    finally:
        session.close()


def _assert_identical(expected, actual, context):
    assert set(expected) == set(actual), context
    for name in expected:
        for window, reference in expected[name].items():
            emitted = actual[name][window]
            assert (
                emitted.start_instance == reference.start_instance
                and emitted.frontier == reference.frontier
            ), (context, name, window)
            np.testing.assert_array_equal(
                emitted.values, reference.values, err_msg=f"{context} {name}"
            )


# ----------------------------------------------------------------------
# IngestQueue unit behaviour
# ----------------------------------------------------------------------
class TestIngestQueue:
    def test_watermark_validation(self):
        with pytest.raises(ExecutionError):
            IngestQueue(high_watermark=0)
        queue = IngestQueue(high_watermark=11)
        assert queue.low_watermark == 5

    def test_gate_hysteresis_and_exact_wait_counters(self):
        queue = IngestQueue(high_watermark=6)
        for i in range(6):
            queue.put_data(("event", i), 1)
        assert queue.stats.max_depth_events == 6
        assert not queue._gate_open  # at the high watermark: shut
        # Drain above half the high watermark: still shut (hysteresis).
        queue.get()
        queue.get()
        assert not queue._gate_open
        queue.get()  # depth 3 == half the high watermark: reopens
        assert queue._gate_open
        assert queue.stats.backpressure_waits == 0  # nobody had to block

    def test_control_items_bypass_the_gate(self):
        queue = IngestQueue(high_watermark=2)
        queue.put_data(("event", 0), 1)
        queue.put_data(("event", 1), 1)
        assert not queue._gate_open
        queue.put_control(("call", None))  # must not block
        assert queue.stats.enqueued_calls == 1

    def test_rows_join_the_open_entry_until_another_item_or_the_pump(self):
        """Rows append to the tail rows entry, each weighing one event;
        a call (or any item) after them, or the pump taking the entry,
        closes it — so a call never lands inside a rows entry."""
        queue = IngestQueue(high_watermark=4)
        queue.put_data((_ROWS, [(0, 0, 1.0)]), 1)
        queue.put_data((_ROWS, [(1, 0, 2.0)]), 1)
        queue.put_control(("call", None))
        queue.put_data((_ROWS, [(2, 1, 3.0)]), 1)
        assert queue.stats.enqueued_events == 3
        assert queue.stats.max_depth_events == 3
        assert queue.peek_data() == [
            (_ROWS, [(0, 0, 1.0), (1, 0, 2.0)]),
            (_ROWS, [(2, 1, 3.0)]),
        ]
        assert queue.get() == ((_ROWS, [(0, 0, 1.0), (1, 0, 2.0)]), 2)
        assert queue.get() == (("call", None), 0)
        taken, weight = queue.get()
        assert (taken, weight) == ((_ROWS, [(2, 1, 3.0)]), 1)
        queue.put_data((_ROWS, [(3, 0, 4.0)]), 1)  # the taken entry stays
        assert taken == (_ROWS, [(2, 1, 3.0)])
        for ts in range(4, 7):
            queue.put_data((_ROWS, [(ts, 0, 5.0)]), 1)
        assert not queue._gate_open  # four rows: the high watermark
        assert queue.get() == (
            (_ROWS, [(ts, 0, v) for ts, v in ((3, 4.0), (4, 5.0), (5, 5.0),
                                                (6, 5.0))]),
            4,
        )
        assert queue._gate_open


# ----------------------------------------------------------------------
# Front-door error parking
# ----------------------------------------------------------------------
@SHARD_COUNTS
def test_pump_error_is_parked_and_surfaces_on_next_call(shards):
    session = serial_session(shards, num_keys=2, async_ingest=True)
    session.push(0, 99, 1.0)  # key outside the dense id space
    with pytest.raises(ExecutionError, match="async ingest failed"):
        # The failure was asynchronous; it must surface on the next
        # synchronization point rather than vanish.
        session.results()
    # ...and the front door stays poisoned for later submissions too.
    with pytest.raises(ExecutionError, match="async ingest failed"):
        while True:
            session.push(1, 0, 1.0)
    session.close()


# ----------------------------------------------------------------------
# Drain-or-raise close semantics
# ----------------------------------------------------------------------
class TestDrainOrRaiseClose:
    """``stop()``/``close()`` must either flush queued data through or
    raise the parked error with an exact count of what was discarded —
    never silently drop pending input (DESIGN.md §9)."""

    @staticmethod
    def _unreachable_run(columns):  # pragma: no cover - never queued
        raise AssertionError("no column run was submitted")

    def test_clean_stop_flushes_queued_events(self):
        applied = []
        gate = threading.Event()

        def push_rows(rows):
            gate.wait()
            applied.extend(rows)

        pump = IngestPump(push_rows, self._unreachable_run, high_watermark=64)
        for i in range(5):
            pump.submit_row((i, 0, 1.0))
        gate.set()
        pump.stop()  # must not raise, must apply everything queued
        assert applied == [(i, 0, 1.0) for i in range(5)]

    def test_stop_raises_parked_error_with_exact_discard_count(self):
        applied = []
        gate = threading.Event()

        def push_rows(rows):
            # The session's contract: rows left behind a failing row
            # in its entry are counted through discard().
            gate.wait()
            for index, row in enumerate(rows):
                if row[1] == 99:
                    pump.discard(len(rows) - index - 1)
                    raise ValueError("boom")
                applied.append(row)

        pump = IngestPump(push_rows, self._unreachable_run, high_watermark=64)
        pump.submit_row((0, 99, 1.0))  # poison, held at the gate
        for i in range(5):
            pump.submit_row((i + 1, 0, 1.0))  # queued FIFO behind it
        gate.set()
        with pytest.raises(
            ExecutionError,
            match=r"5 queued event\(s\) were discarded, not applied",
        ):
            pump.stop()
        assert applied == []  # nothing behind the poison was applied...
        pump.stop()  # ...and a second stop does not raise it twice

    @SHARD_COUNTS
    def test_a_rows_entry_failing_validation_is_discarded_whole(self, shards):
        """A rows entry is validated like a batch: one bad row parks
        the error, and every event of the entry is discarded."""
        session = serial_session(shards, num_keys=2, async_ingest=True)
        session.push(0, 1, 1.0)
        session.results()  # the first row applied, in an entry alone
        gate = threading.Event()  # hold the pump: the rows form one entry
        session._pump.queue.put_control(
            (_CALL, (SimpleQueue(), gate.wait, (), {}))
        )
        for row in ((1, 0, 1.0), (2, 99, 1.0), (3, 0, 1.0)):
            session.push(*row)
        gate.set()
        with pytest.raises(
            ExecutionError,
            match=(
                r"events\[1\]: key 99 outside dense id space \[0, 2\); "
                r"3 queued event\(s\) were discarded"
            ),
        ):
            session.close()
        assert session.reorder_stats.total == 1

    def test_stop_counts_batch_discards_by_event(self):
        batch = integer_stream(ticks=10, num_keys=NUM_KEYS, seed=7, rate=3)
        gate = threading.Event()

        def push_rows(rows):
            gate.wait()
            raise ValueError("boom")

        def push_run(columns):  # pragma: no cover - parked error skips it
            raise AssertionError("batch must be discarded, not applied")

        pump = IngestPump(push_rows, push_run, high_watermark=256)
        pump.submit_row((0, 1, 1.0))
        pump.submit_run(
            EventColumns(batch.timestamps, batch.keys, batch.values, NUM_KEYS)
        )
        gate.set()
        with pytest.raises(
            ExecutionError,
            match=rf"{batch.num_events} queued event\(s\) were discarded",
        ):
            pump.stop()

    @SHARD_COUNTS
    def test_a_row_failing_inside_its_entry_discards_the_rows_behind(
        self, shards, tmp_path
    ):
        """A row fails — its auto-checkpoint callback raises — inside a
        rows entry that still holds the rows behind it: ``close()``
        counts exactly those rows, and the run queued after the entry,
        as discarded.  The failing row is the one ``push_many([row])``
        checkpoints at."""
        batch = integer_stream(ticks=40, num_keys=NUM_KEYS, seed=3, rate=3)
        columns = (batch.timestamps, batch.keys, batch.values)
        rows = list(zip(*(column.tolist() for column in columns)))
        tail = EventColumns(
            batch.timestamps[:5], batch.keys[:5], batch.values[:5], NUM_KEYS
        )

        def run(async_ingest, directory, on_checkpoint):
            session = serial_session(
                shards,
                num_keys=NUM_KEYS,
                chunk_ticks=4,
                hysteresis=None,
                async_ingest=async_ingest,
                auto_checkpoint=CheckpointStore(directory, every=10),
                checkpoint_meta=lambda: {
                    "position": session.reorder_stats.total
                },
                on_checkpoint=on_checkpoint,
            )
            for query, scope in QUERIES:
                session.register(query, scope=scope)
            return session

        positions = []
        with run(
            False,
            tmp_path / "rows",
            lambda snap, path: positions.append(snap.meta["position"]),
        ) as reference:
            for row in rows:
                reference.push_many([row])
        failing = positions[0]
        assert 0 < failing < len(rows)

        def fail(snap, path):
            assert snap.meta["position"] == failing
            raise ValueError("disk full")

        session = run(True, tmp_path / "push", fail)
        gate = threading.Event()  # hold the pump: the rows form one entry
        session._pump.queue.put_control(
            (_CALL, (SimpleQueue(), gate.wait, (), {}))
        )
        for row in rows:
            session.push(*row)
        session.push_many(tail)
        gate.set()
        discarded = len(rows) - failing + tail.ts.size
        with pytest.raises(
            ExecutionError,
            match=(
                rf"disk full; {discarded} queued event\(s\) were "
                "discarded, not applied"
            ),
        ):
            session.close()

    @SHARD_COUNTS
    def test_session_close_raises_unobserved_parked_error_once(self, shards):
        session = serial_session(shards, num_keys=2, async_ingest=True)
        session.push(0, 99, 1.0)  # key outside the dense id space
        with pytest.raises(ExecutionError, match="async ingest failed"):
            session.close()
        session.close()  # idempotent: the error does not surface twice

    @SHARD_COUNTS
    def test_session_close_stays_silent_after_error_surfaced(self, shards):
        session = serial_session(shards, num_keys=2, async_ingest=True)
        session.push(0, 99, 1.0)
        with pytest.raises(ExecutionError, match="async ingest failed"):
            session.results()  # the error surfaces here...
        session.close()  # ...so close() has nothing left to report

    def test_sharded_close_raises_but_still_tears_down_workers(self):
        session = ShardedSession(
            num_keys=NUM_KEYS,
            num_shards=2,
            backend="process",
            hysteresis=None,
            async_ingest=True,
        )
        session.push(0, 99, 1.0)
        with pytest.raises(ExecutionError, match="async ingest failed"):
            session.close()
        # The raise must not leak the data plane: workers are reaped
        # and a second close() is a no-op.
        assert session.backend._procs == []
        session.close()


# ----------------------------------------------------------------------
# Backpressure never drops or reorders
# ----------------------------------------------------------------------
def test_full_ring_slow_consumer_never_drops_or_reorders(repro_seed):
    """A deliberately tiny ring (2 slots × 64 events) forces the
    coordinator to block on every chunk while workers catch up; the
    merged results must still be bit-identical to the serial oracle."""
    rng = np.random.default_rng((repro_seed, 41))
    batch = integer_stream(
        ticks=400, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000)), rate=6
    )
    reference = _reference_results(batch)
    backend = SharedMemoryShardBackend(slot_events=64, num_slots=2)
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=2,
        backend=backend,
        hysteresis=None,
        chunk_ticks=40,
    )
    try:
        for query, scope in QUERIES:
            session.register(query, scope=scope)
        session.push_batch(batch)
        results = session.finish(horizon=batch.horizon)
    finally:
        session.close()
    _assert_identical(
        reference, results, f"seed={repro_seed} tiny-ring"
    )


def test_full_queue_backpressure_never_drops_or_reorders(repro_seed):
    """A tiny ingest queue (high watermark far below the stream size)
    must engage backpressure — counted exactly — while the emitted
    results stay bit-identical to the sync serial run."""
    rng = np.random.default_rng((repro_seed, 43))
    batch = integer_stream(
        ticks=400, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000)), rate=6
    )
    reference = _reference_results(batch)
    backend = SharedMemoryShardBackend(slot_events=64, num_slots=2)
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=2,
        backend=backend,
        hysteresis=None,
        chunk_ticks=40,
        async_ingest=True,
        ingest_high_watermark=128,
    )
    try:
        for query, scope in QUERIES:
            session.register(query, scope=scope)
        session.push_batch(batch)
        results = session.finish(horizon=batch.horizon)
        stats = session.ingest_stats
    finally:
        session.close()
    context = f"seed={repro_seed} tiny-queue"
    _assert_identical(reference, results, context)
    assert stats.enqueued_events == batch.num_events, context
    # The queue was two orders of magnitude smaller than the stream:
    # the gate must actually have engaged, and the backlog must have
    # respected the documented bound (< 2x the high watermark, since a
    # split batch slice may land on a just-reopened gate).
    assert stats.backpressure_waits > 0, context
    assert stats.max_depth_events <= 2 * 128, context


@SHARD_COUNTS
def test_an_empty_batch_or_run_is_never_enqueued(shards):
    """``IngestStats`` is exact: nothing was pushed, so nothing was
    enqueued (an empty batch used to weigh one event) — and the big
    run that follows is weighed in events, slice by slice."""
    empty = integer_stream(ticks=0, num_keys=NUM_KEYS)
    with serial_session(
        shards,
        num_keys=NUM_KEYS,
        hysteresis=None,
        async_ingest=True,
        ingest_high_watermark=64,
    ) as session:
        session.push_batch(empty)
        session.push_batch(empty)
        session.push_many([])
        session.push_many(np.empty((0, 3)))
        assert session.stats().total_pairs == 0  # a synchronization point
        assert session.ingest_stats.enqueued_events == 0
        assert session.reorder_stats.accepted == 0
        rows = [(t, t % NUM_KEYS, 1.0) for t in range(200)]
        session.push_many(rows)
        session.stats()
        assert session.ingest_stats.enqueued_events == 200
        assert session.ingest_stats.max_depth_events <= 2 * 64
        assert session.reorder_stats.accepted == 200


def test_mid_stream_introspection_is_safe_in_async_mode(repro_seed):
    """stats()/switches/shard_watermarks talk to the worker pipes, so
    in async mode they must serialize through the pump — calling them
    from the producer thread while the pump is mid-flush must never
    interleave bytes on a worker connection (which would corrupt the
    pickle stream and crash or hang the session)."""
    rng = np.random.default_rng((repro_seed, 53))
    batch = integer_stream(
        ticks=400, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000)), rate=6
    )
    reference = _reference_results(batch)
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=2,
        backend="shm",
        hysteresis=None,
        chunk_ticks=40,
        async_ingest=True,
        ingest_high_watermark=256,
    )
    try:
        for query, scope in QUERIES:
            session.register(query, scope=scope)
        for i, (ts, key, value) in enumerate(batch.rows()):
            session.push(ts, key, value)
            if i % 401 == 0:
                marks = session.shard_watermarks()
                assert min(marks) == max(marks)
                assert session.stats().total_physical >= 0
                assert isinstance(session.switches, list)
        results = session.finish(horizon=batch.horizon)
    finally:
        session.close()
    _assert_identical(
        reference, results, f"seed={repro_seed} mid-stream-introspection"
    )


def test_drain_results_stays_bounded_under_async_ingest(repro_seed):
    """Polling ``drain_results()`` between pushes releases every
    subscription's buffered blocks (frontier == start after each poll)
    and the reassembled drains equal the one-shot sync results: the
    bounded-memory read path loses nothing."""
    rng = np.random.default_rng((repro_seed, 47))
    batch = integer_stream(
        ticks=600, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000)), rate=4
    )
    reference = _reference_results(batch)
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=2,
        backend="serial",
        hysteresis=None,
        chunk_ticks=40,
        async_ingest=True,
        ingest_high_watermark=256,
    )
    drained: dict = {}
    try:
        for query, scope in QUERIES:
            session.register(query, scope=scope)
        for i, (ts, key, value) in enumerate(batch.rows()):
            session.push(ts, key, value)
            if i % 997 == 0 and i:
                _merge_drain(drained, session.drain_results())
                _assert_subscriptions_released(session)
        _merge_drain(drained, session.finish(horizon=batch.horizon))
    finally:
        session.close()
    final = {
        name: {
            window: _concat_block(blocks)
            for window, blocks in by_window.items()
        }
        for name, by_window in drained.items()
    }
    _assert_identical(reference, final, f"seed={repro_seed} drain-bounded")


def _assert_subscriptions_released(session):
    """After a drain, every live subscription on every (serial-backend)
    shard core and on the coordinator's global-scope core holds zero
    buffered instances."""
    cores = list(session.backend.cores)
    if session._forward is not None:
        cores.append(session._forward)
    for core in cores:
        for sub in core._subs.values():
            assert sub.emitted_instances == 0


def _merge_drain(accum, results):
    """Append drained blocks, asserting contiguity (no gap, overlap,
    or reordering between consecutive drains)."""
    for name, by_window in results.items():
        for window, block in by_window.items():
            blocks = accum.setdefault(name, {}).setdefault(window, [])
            if blocks:
                assert block.start_instance == blocks[-1].frontier, (
                    name,
                    window,
                    "drain blocks must abut",
                )
            blocks.append(block)


def _concat_block(blocks):
    from repro.runtime import WindowResults

    values = np.concatenate([b.values for b in blocks], axis=1)
    return WindowResults(
        query=blocks[0].query,
        window=blocks[0].window,
        start_instance=blocks[0].start_instance,
        frontier=blocks[-1].frontier,
        values=values,
    )


# ----------------------------------------------------------------------
# MPSC: many producers, one session, one serial truth
# ----------------------------------------------------------------------
def _mpsc_run(session, batch, producers):
    """Feed ``batch`` through ``producers`` threads, each pushing its
    own strided (and therefore sorted) subsequence concurrently."""
    ts, keys, values = batch.timestamps, batch.keys, batch.values
    errors = []

    def producer(lane: int) -> None:
        try:
            for i in range(lane, ts.size, producers):
                session.push(int(ts[i]), int(keys[i]), float(values[i]))
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=producer, args=(lane,))
        for lane in range(producers)
    ]
    # Switch threads often, so producers race each other and the pump
    # on the open rows entry.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


@SHARD_COUNTS
@pytest.mark.parametrize("producers", [2, 4])
def test_mpsc_producers_equal_serial_oracle(repro_seed, shards, producers):
    """The MPSC contract of the async front door (DESIGN.md §8): any
    thread may call ``push`` concurrently, and the merged timeline is
    indistinguishable from the serial sorted oracle — a sync-ingest
    twin of the same topology, so concurrency is the only variable.

    Each producer owns a strided lane of one sorted stream, so each
    lane is itself sorted but the interleaving at the queue is
    arbitrary scheduling; ``max_lateness`` spanning the stream makes
    the reorder buffer the serializer, so *no* interleaving may drop
    an event or change a value (the median rides raw forwarding)."""
    batch = integer_stream(60, rate=3, num_keys=NUM_KEYS, seed=repro_seed)
    span = int(batch.horizon) + 1

    def build(**kw):
        session = serial_session(
            shards, num_keys=NUM_KEYS, max_lateness=span, hysteresis=None,
            **kw,
        )
        for query, scope in QUERIES:
            session.register(query, scope=scope)
        return session

    with build() as oracle:
        for i in range(batch.num_events):
            oracle.push(
                int(batch.timestamps[i]),
                int(batch.keys[i]),
                float(batch.values[i]),
            )
        expected = oracle.finish(horizon=batch.horizon)

    with build(async_ingest=True) as session:
        _mpsc_run(session, batch, producers)
        actual = session.finish(horizon=batch.horizon)
        stats = session.reorder_stats  # pump fully drained by finish()
        assert stats.accepted == batch.num_events
        assert session.ingest_stats.enqueued_events == batch.num_events
        assert stats.late_dropped == 0
    _assert_identical(
        expected, actual, f"seed={repro_seed} producers={producers}"
    )

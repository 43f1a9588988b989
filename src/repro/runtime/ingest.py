"""The session front door (DESIGN.md §8): the session's life-cycle and
its one chunk clock, and the non-blocking async ingest in front of
them.

:class:`SessionFrontDoor` is the base class of
:class:`~repro.runtime.sharding.ShardedSession`: ``push`` /
``push_many`` / ``push_batch`` / ``snapshot`` / ``restore`` /
``finish`` / ``results`` / ``close`` — and where the watermark
advances between them — are written here, over a handful of hooks the
coordinator supplies, and :func:`synchronized` is how a method declares
itself a synchronization point.  The rest of this module is the async
half.

A live session's ``push`` is synchronous: the producer thread pays for
routing, partitioning, and — on chunk boundaries — the whole flush
before the call returns.  With ``async_ingest=True`` a session puts a
bounded :class:`IngestQueue` and one background :class:`IngestPump`
thread in front of that machinery instead:

* ``push`` / ``push_many`` / ``push_batch`` enqueue and return
  immediately — the producer never waits on a flush;
* the pump thread dequeues in FIFO order and applies each command
  through the session's *synchronous* path, so the coordinator clock,
  the reorder buffer, and every shard see exactly the command stream
  they would have seen without the queue — watermark-lockstep
  semantics are inherited, not re-implemented, which is what keeps
  shard invariance (invariant 10) and switch invisibility (invariant
  9) intact in async mode (invariant 11 ties the two modes together);
* workload mutations and reads (every :func:`synchronized` method:
  ``register`` / ``deregister`` / ``results`` / ``drain_results`` /
  ``snapshot`` / ``stats`` / …) enqueue a *call* command and wait for
  the pump to execute it, making them synchronization points: a
  registration lands after every previously pushed event, exactly as
  in sync mode.

**Backpressure, not loss.**  The queue is bounded in *events* (a batch
weighs its length): once the backlog reaches ``high_watermark`` the
gate closes and data producers block until the pump drains it to half
that (hysteresis, so producers wake to a usefully empty queue instead
of thrashing at the boundary).  Nothing is ever dropped
or reordered — a slow consumer slows the producer down, it never
corrupts results (``tests/runtime/test_ingest.py`` holds this as a
property).  Waits and the backlog high-water mark are counted exactly
in :class:`IngestStats`.

**Multi-producer, single-consumer.**  The queue is MPSC: any number
of threads may ``feed`` one session concurrently — every producer-side
entry point (``put_data`` / ``put_control`` and the pump's ``submit_*``
wrappers) runs under one lock, so admissions are atomic and the pump
still sees one totally-ordered command stream.  What the queue cannot
restore is an order the producers never had: events from different
threads interleave in admission order, so cross-thread timestamp
ordering is the producers' problem (give the session ``max_lateness``
slack, or keep each key's events on one thread);
``tests/runtime/test_ingest.py`` holds N-producers ≡ serial-oracle as
a property.  The multi-tenant service (:mod:`repro.service`) does not
use this queue: it serializes a tenant's handlers on a lock over a
sync session.

**Errors.**  The pump applies data commands fire-and-forget, so a
failure (e.g. a key outside the dense id space) is parked and raised
on the *next* front-door call — the same park-and-surface discipline
the shard workers use for their fire-and-forget data plane.  After an
error the front door is poisoned: data commands are discarded and
every submission raises.
"""

from __future__ import annotations

import functools
import pickle
import threading
from collections import deque
from dataclasses import dataclass
from queue import SimpleQueue

import numpy as np

from ..core.adaptive import RateController
from ..engine.events import NO_EVENTS, EventBatch, EventColumns, event_columns
from ..engine.outoforder import ReorderBuffer
from ..errors import ExecutionError
from .checkpoint import (
    CheckpointStore,
    Snapshot,
    read_checkpoint,
    require_cadence,
    write_checkpoint,
)
from .core import INITIAL_EVENT_RATE, EpochRateObserver

__all__ = [
    "DEFAULT_INGEST_HIGH_WATERMARK",
    "IngestPump",
    "IngestQueue",
    "IngestStats",
    "SessionFrontDoor",
    "synchronized",
]

#: Past every valid timestamp (they stay below 2**53): "no event".
_NEVER = 2**62

#: Default backlog bound, in events.  At the benchmark's ~1-3M ev/s
#: single-shard drain rate this is tens of milliseconds of slack —
#: deep enough to absorb producer bursts, shallow enough that a
#: stalled consumer surfaces as backpressure almost immediately.
DEFAULT_INGEST_HIGH_WATERMARK = 65_536


@dataclass
class IngestStats:
    """Exact counters of one session's async front door."""

    enqueued_events: int = 0  # events accepted (rows + runs)
    enqueued_calls: int = 0  # synchronous commands routed through
    backpressure_waits: int = 0  # producer blocks on a closed gate
    max_depth_events: int = 0  # backlog high-water mark, in events


class IngestQueue:
    """A bounded FIFO of ingest commands, weighed in events.

    Data items (rows entries, column runs) respect the gate — it shuts
    at ``high_watermark`` queued events and reopens once the backlog
    has drained to half that; call and stop items bypass it (they are
    control plane — blocking a ``register`` behind the very backlog it
    is meant to synchronize with would invert its priority).

    Per-event rows join the *open* rows entry — the tail item, while
    it is a rows entry the pump has not taken — or open a new one, so
    a row is one list append under the lock and every later item
    orders itself after the rows.  Each row weighs one event.

    Multi-producer safe: every entry point takes the one internal
    lock, so concurrent ``put_data``/``put_control`` callers admit
    atomically in lock-acquisition order and blocked producers wake
    fairly off the same gate condition.  There is exactly one
    consumer (the pump thread) — ``get`` is not designed for more.
    """

    def __init__(self, high_watermark: int = DEFAULT_INGEST_HIGH_WATERMARK):
        if high_watermark < 1:
            raise ExecutionError(
                f"high_watermark must be >= 1, got {high_watermark}"
            )
        self.high_watermark = high_watermark
        self.low_watermark = high_watermark // 2
        self.stats = IngestStats()
        self._items: deque = deque()
        self._depth_events = 0
        self._gate_open = True
        self._closed = False
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._gate = threading.Condition(self._lock)

    def _admit(self, item, weight: int) -> None:
        tail = self._items[-1] if self._items else None
        if item[0] == _ROWS and tail is not None and tail[0][0] == _ROWS:
            tail[0][1].extend(item[1])  # the open rows entry
            tail[1] += weight
        else:
            self._items.append([item, weight])
        self._depth_events += weight
        if self._depth_events > self.stats.max_depth_events:
            self.stats.max_depth_events = self._depth_events
        if self._depth_events >= self.high_watermark:
            self._gate_open = False
        self._not_empty.notify()

    def put_data(self, item, weight: int) -> None:
        """Enqueue one data command, blocking while the gate is shut
        (a rows item joins the open rows entry)."""
        with self._lock:
            if self._closed:
                raise ExecutionError("ingest queue is closed")
            if not self._gate_open:
                self.stats.backpressure_waits += 1
                while not self._gate_open and not self._closed:
                    self._gate.wait()
                if self._closed:
                    raise ExecutionError("ingest queue is closed")
            self.stats.enqueued_events += weight
            self._admit(item, weight)

    def put_control(self, item, counted: bool = True) -> None:
        """Enqueue one control command (bypasses the gate)."""
        with self._lock:
            if self._closed:
                raise ExecutionError("ingest queue is closed")
            if counted:
                self.stats.enqueued_calls += 1
            self._admit(item, 0)

    def get(self):
        """Dequeue the next ``(command, weight)`` (pump side; blocks
        when empty)."""
        with self._lock:
            while not self._items:
                self._not_empty.wait()
            item, weight = self._items.popleft()
            self._depth_events -= weight
            if not self._gate_open and self._depth_events <= self.low_watermark:
                self._gate_open = True
                self._gate.notify_all()
            return item, weight

    def peek_data(self) -> list:
        """The queued *data* items (row lists copied), in order,
        without consuming them — the ingest-queue residue a session
        snapshot captures so queued but not-yet-applied events survive
        a restore (DESIGN.md §9)."""
        with self._lock:
            return [
                (kind, list(payload) if kind == _ROWS else payload)
                for (kind, payload), _ in self._items
                if kind in _DATA
            ]

    def close(self) -> list:
        """Refuse further puts; wake blocked producers; return the
        still-queued ``(item, weight)`` pairs (the pump fails their
        calls and counts discarded data exactly — never silently)."""
        with self._lock:
            self._closed = True
            self._gate_open = True
            self._gate.notify_all()
            leftovers = list(self._items)
            self._items.clear()
            self._depth_events = 0
            return leftovers


#: Queue item kinds, each a ``(kind, payload)`` pair: a list of
#: per-event rows, one validated column run, one synchronous call
#: (``(reply, fn, args, kwargs)``: the pump puts ``(error, result)`` on
#: the one-shot ``reply`` queue), the stop sentinel.
_ROWS, _RUN, _CALL, _STOP = range(4)
_DATA = (_ROWS, _RUN)


def synchronized(method):
    """Mark a session method as a *synchronization point*: it runs at
    its own position in the command stream — through
    :meth:`IngestPump.submit_call` while a pump is accepting and the
    caller is not the pump thread itself (re-entrant calls, e.g. the
    auto-checkpoint taking a snapshot, run inline), directly otherwise,
    after the pending rows settle."""

    @functools.wraps(method)
    def at_stream_position(self, *args, **kwargs):
        pump = self._pump
        if pump is not None and pump.accepting and not pump.in_pump_thread():
            return pump.submit_call(method, self, *args, **kwargs)
        self._settle()
        return method(self, *args, **kwargs)

    at_stream_position.synchronized = True
    return at_stream_position


class SessionFrontDoor:
    """The session life-cycle and its one chunk clock (DESIGN.md §8).

    The base owns the time-keeping — the reorder buffer, the rate
    controller and its epoch observer, the auto-name counter, the
    checkpoint store / meta / callback, the pump, the pending rows
    per-event ``push`` appends to, and **the chunk clock**
    (``_watermark``, ``_chunk_ticks``, ``_chunk_end``,
    ``_max_event_ts``, ``_pending_events``) — and every verb around
    it: ``push`` / ``push_many`` / ``push_batch``, the settle rule that
    applies pending rows (:meth:`_push_rows_now`), the one loop that
    finds the chunk ends in a released run (:meth:`_apply_run`),
    ``_flush`` / ``_sync``, the end-of-push epilogue (rate replan, then
    auto-checkpoint cadence), ``snapshot`` / ``restore`` and their
    framing, ``finish``, ``results`` / ``drain_results``, ``close``.
    The coordinator (:class:`~repro.runtime.sharding.ShardedSession`)
    supplies:

    * ``generation`` / ``queries`` — coordinator-local reads;
    * ``_buffer_run(ts, keys, values, ends)`` — take one sorted column
      run into its buffers *without* advancing time; ``ends`` holds,
      per chunk end the run closes, the position just past that
      chunk's last event (for the per-chunk slot loads);
    * ``_deliver(to_watermark)`` — hand everything buffered to the
      operators and advance them to ``to_watermark``;
    * ``_apply_rate(rate)`` — re-plan at a new event rate;
    * ``_collect(drain)`` — the merged result dict;
    * ``_capture()`` / ``_adopt(state, **placement)`` — its own durable
      state out and back in.

    **The rule.**  *Every* public method that touches session or
    backend state — introspection like ``stats()`` included — is
    :func:`synchronized`, because while a pump runs its thread may be
    mid-flush inside the backend (two threads writing one worker pipe
    interleave their bytes and corrupt the stream).  Exempt are the
    data-plane enqueues (``push`` / ``push_many`` / ``push_batch``),
    ``finish`` / ``close`` (they stop the pump) and reads of one
    coordinator-local value (``watermark``, ``reorder_stats``; the two
    that depend on the events settle the pending rows first).
    ``tests/runtime/test_front_door.py`` holds the session to it, and
    fails a subclass that grows a chunk cut of its own.
    """

    _pump: "IngestPump | None" = None

    #: What a snapshot frame carries of the front door itself
    #: (DESIGN.md §9): time-keeping state, then the chunk clock.
    #: ``_pending_events`` counts partial-chunk events already handed
    #: to ``_buffer_run`` — the rate observer still owes them to the
    #: next ``observe_flush``.  Rows not yet applied travel as residue.
    _FRAME = (
        "controller",
        "_reorder",
        "_rate_observer",
        "_auto_names",
        "_chunk_ticks",
        "_chunk_end",
        "_watermark",
        "_max_event_ts",
        "_pending_events",
        "_closed",
    )

    def _open_front_door(
        self, max_lateness: int, chunk_ticks: "int | None", hysteresis
    ) -> None:
        """Fresh time-keeping state (a restored session adopts it from
        the snapshot instead)."""
        self.controller = (
            None
            if hysteresis is None
            else RateController(
                hysteresis=hysteresis, initial_rate=INITIAL_EVENT_RATE
            )
        )
        self._reorder = ReorderBuffer(max_lateness)
        self._rate_observer = EpochRateObserver(self.controller)
        self._auto_names = 0
        self._chunk_ticks = chunk_ticks or 1
        self._chunk_end = self._chunk_ticks
        self._watermark = 0
        self._max_event_ts = -1
        self._pending_events = 0
        self._closed = False

    def _attach(
        self,
        async_ingest: bool,
        ingest_high_watermark: int,
        auto_checkpoint: "CheckpointStore | None",
        checkpoint_meta,
        on_checkpoint,
    ) -> None:
        """What is an override, never part of a snapshot: the ingest
        mode, the longest run a batch is applied in, and the checkpoint
        cadence.  Last step of both ``__init__`` and :meth:`restore`,
        after the backend is up — so a refused setting closes the
        session before it raises."""
        self._rows: "list[tuple]" = []
        self._settling: "tuple[list, int]" = ([], 0)
        try:
            if ingest_high_watermark < 1:
                raise ExecutionError(
                    "high_watermark must be >= 1, got "
                    f"{ingest_high_watermark}"
                )
            self._auto_store = require_cadence(auto_checkpoint)
        except ExecutionError:
            self.close()
            raise
        self._run_events = ingest_high_watermark
        self._checkpoint_meta = checkpoint_meta
        self._on_checkpoint = on_checkpoint
        self._pump = (
            IngestPump(
                push_rows=self._push_rows_now,
                push_run=self._push_run_now,
                high_watermark=ingest_high_watermark,
            )
            if async_ingest
            else None
        )

    # ------------------------------------------------------------------
    # Coordinator-local reads
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> int:
        """The chunk clock: instances ending at or before this are
        final and emitted, and every core is at it after any flush."""
        self._settle()
        return self._watermark

    @property
    def ingest_stats(self) -> "IngestStats | None":
        """Front-door counters (``None`` when ``async_ingest=False``)."""
        return None if self._pump is None else self._pump.stats

    @property
    def reorder_stats(self):
        self._settle()
        return self._reorder.stats

    def _next_auto_name(self) -> str:
        self._auto_names += 1
        return f"q{self._auto_names}"

    def _safe_watermark(self) -> int:
        return max(self._watermark, self._reorder.watermark, 0)

    def _require_open(self) -> None:
        if self._closed:
            raise ExecutionError("session is finished")

    # ------------------------------------------------------------------
    # Ingestion: three public verbs, each enqueued (async) or applied
    # inline (sync) by the same ``_push_*_now`` function
    # ------------------------------------------------------------------
    def push(self, ts: int, key: int, value: float) -> None:
        """Ingest one (possibly out-of-order) event.

        The event joins the pending rows — a list on the session in
        sync mode, the ingest queue's open rows entry in async mode —
        which are applied as column runs through :meth:`push_many`'s
        path, cut by the settle rule (:meth:`_push_rows_now`) so every
        chunk flush, rate replan and auto-checkpoint lands after the
        same event as if each event were applied alone.  Sync mode
        validates the row here, by the rule and with the messages of
        ``push_many([row])``, and settles at the row that may flush a
        chunk (its watermark passes an event at or past the chunk end,
        carried or pending) — so flushes and checkpoints still happen
        inside that row's call — when the list reaches the ingest run
        size, before every other verb, before a ``watermark`` or
        ``reorder_stats`` read and on ``close``.  In
        async mode this enqueues and returns immediately, blocking
        only under backpressure; the pump validates each rows entry
        whole."""
        pump = self._pump
        if pump is not None and pump.accepting:
            pump.submit_row((ts, key, value))
            return
        self._require_open()
        # Plain ints and a float that ``event_columns`` takes as they
        # are (ids exact in float64) skip the batch check here; the
        # settle converts the rows whole.
        if not (
            type(ts) is int
            and type(key) is int
            and type(value) is float
            and 0 <= ts < 2**53
            and 0 <= key < self.num_keys
        ):
            event_columns([(ts, key, value)], self.num_keys)
        rows = self._rows
        if not rows:
            self._flush_at = self._reorder.next_held(self._chunk_end, _NEVER)
        rows.append((ts, key, value))
        if self._chunk_end <= ts < self._flush_at:
            self._flush_at = ts
        if (
            ts - self._reorder.max_lateness > self._flush_at
            or len(rows) >= self._run_events
        ):
            self._settle()

    def push_many(self, events) -> None:
        """Ingest ``(ts, key, value)`` events — an iterable of rows,
        an ``(n, 3)`` array, or columns ``event_columns`` has already
        validated (they are not validated twice).

        The batch stays a batch: it is validated whole
        (:func:`~repro.engine.events.event_columns` — nothing is
        applied from a batch holding one bad row), and split into runs
        of at most the ingest high watermark (column views, no copies).
        Each run crosses the reorder buffer in one columnar pass
        (:meth:`~repro.engine.outoforder.ReorderBuffer.push_batch`) and
        reaches the operators once, however many chunk ends it crosses,
        with the same results, late-drop decisions and reorder
        counters as pushing event by event.  Rate replans and the
        auto-checkpoint cadence apply once, at the end of the batch.
        In async mode the runs enqueue without waiting for flushes, so
        the queue's event bound stays meaningful — the backlog never
        exceeds twice the high watermark — and the pump applies each
        through the same function.  An empty batch is never
        enqueued."""
        columns = event_columns(events, self.num_keys)
        pump = self._pump
        if pump is None or not pump.accepting:
            self._settle()
            self._push_run_now(columns)
            return
        ts, keys, values = columns
        high = self._run_events
        for lo in range(0, int(ts.size), high):
            hi = lo + high
            pump.submit_run(
                EventColumns(
                    ts[lo:hi], keys[lo:hi], values[lo:hi], columns.num_keys
                )
            )

    def _push_run_now(self, columns) -> None:
        self._require_open()
        ts, keys, values = columns
        high = self._run_events
        for lo in range(0, int(ts.size), high):
            hi = lo + high
            self._apply_run(
                *self._reorder.push_batch(ts[lo:hi], keys[lo:hi], values[lo:hi])
            )
        if ts.size:
            self._end_push()

    def _settle(self) -> None:
        """Apply the pending rows of sync mode, if any.  The list is
        swapped out first, so a read nested in an epilogue (the CLI's
        ``checkpoint_meta`` reading ``reorder_stats``) finds nothing to
        settle."""
        rows = self._rows
        if rows:
            self._rows = []
            self._push_rows_now(rows)

    def _push_rows_now(self, rows: list) -> None:
        """Validate per-event rows whole, like a batch, and apply them
        in pieces (:meth:`_piece_end`), each a :meth:`_push_run_now`
        and so ended by the epilogue — flushes, replans and
        checkpoints land after the same rows as when each row is
        applied alone.  The rows after the current piece are snapshot
        residue until applied; if validation or a piece fails, the
        pump counts them discarded."""
        n, hi = len(rows), 0
        try:
            ts, keys, values = event_columns(rows, self.num_keys)
            passes = np.maximum(
                np.maximum.accumulate(ts) - self._reorder.max_lateness,
                self._reorder.watermark,
            )
            while hi < n:
                lo, hi = hi, self._piece_end(ts, passes, hi)
                self._settling = rows, hi
                self._push_run_now((ts[lo:hi], keys[lo:hi], values[lo:hi]))
        except BaseException:
            if self._pump is not None:
                self._pump.discard(n - hi)
            raise
        finally:
            self._settling = [], 0

    def _piece_end(self, ts, passes, lo: int) -> int:
        """Where the piece of rows from ``lo`` ends: just after ``lo``
        while the epilogue is owed from before it (a replan parked, a
        checkpoint due), else just after the first row whose watermark
        (``passes``) passes an event at or past the chunk end —
        carried, or among the rows from ``lo`` up to it — so that its
        release flushes, or after the last row.  The epilogue of every
        row in between would find nothing to do.  A late row counted
        among them can only end a piece early.  No row before the
        first whose watermark passes the chunk end itself can flush;
        from there the rows are scanned in doubling blocks, so the
        cost is linear in the rows the piece then applies."""
        store = self._auto_store
        if self._rate_observer.pending_rate is not None or (
            store is not None and store.due(self._watermark)
        ):
            return lo + 1
        end, n = self._chunk_end, int(ts.size)
        row = max(lo, int(np.searchsorted(passes, end, "right")))
        first, size = self._reorder.next_held(end, _NEVER), 16
        while row < n - 1:
            block = ts[lo : row + size]
            at = np.minimum.accumulate(np.where(block >= end, block, _NEVER))
            at = np.minimum(at[row - lo :], first)
            flushes = passes[row : row + size] > at
            if flushes.any():
                return row + int(flushes.argmax()) + 1
            first = int(at[-1])
            lo = row = row + size
            size *= 2
        return n

    def push_batch(self, batch: EventBatch) -> None:
        """Ingest one sorted columnar batch: :meth:`push_many` of its
        columns, which the batch's own constructor has validated.

        The same call on any session — whatever its ``max_lateness``,
        whatever the front door already holds, wherever the batch
        starts: the batch crosses the reorder buffer as columns (one
        running maximum for its late events, which are dropped and
        counted, and no sort when it joins the carried columns in
        order), and leaves a copy of its own newest tick carried until
        the next one, like any pushed event."""
        if batch.num_keys != self.num_keys:
            raise ExecutionError(
                f"batch has {batch.num_keys} keys, session has "
                f"{self.num_keys}"
            )
        self.push_many(
            EventColumns(
                batch.timestamps, batch.keys, batch.values, batch.num_keys
            )
        )

    # ------------------------------------------------------------------
    # The chunk clock: where the watermark advances
    # ------------------------------------------------------------------
    def _apply_run(self, ts, keys, values) -> None:
        """Apply one *released* (timestamp-sorted) column run — the
        only chunk cut in the runtime.

        Every chunk end the run crosses is accounted just *after* the
        chunk-crossing event, with that chunk's count — where applying
        the events one at a time would flush — and then the operators
        get the run once: everything up to the last crossing event in
        one ``_buffer_run``, delivered to the last chunk end in one
        ``_deliver``.  Exact pane folds make the chunks in between
        unobservable.  The events after the last crossing stay
        buffered until a later chunk end."""
        n = int(ts.size)
        if n == 0:
            return
        pos, ends = 0, []
        while True:
            cut = int(np.searchsorted(ts, self._chunk_end, side="left")) + 1
            if cut > n:
                break
            self._pending_events += cut - pos
            pos = cut
            while ts[cut - 1] >= self._chunk_end:
                ends.append(cut)
                self._close_chunk(self._chunk_end)
        if ends:
            self._buffer_run(ts[:pos], keys[:pos], values[:pos], ends)
            self._deliver(self._watermark)
        if pos < n:
            self._buffer_run(ts[pos:], keys[pos:], values[pos:], ())
            self._pending_events += n - pos
        self._max_event_ts = max(self._max_event_ts, int(ts[-1]))

    def _close_chunk(self, to_watermark: int) -> None:
        """Advance the clock to a chunk end and account its epoch."""
        count, self._pending_events = self._pending_events, 0
        self._watermark = to_watermark
        self._chunk_end = to_watermark + self._chunk_ticks
        self._rate_observer.observe_flush(
            to_watermark, count, self._chunk_ticks, bool(self.queries)
        )

    def _flush(self, to_watermark: int) -> None:
        """Close a chunk end at ``to_watermark`` (the slot loads step
        too) and deliver."""
        self._buffer_run(*NO_EVENTS, (0,))
        self._close_chunk(to_watermark)
        self._deliver(to_watermark)

    def _sync(self, at: int) -> None:
        """Advance to the newest safe watermark before a workload
        mutation.  Absorbs at most the buffered partial chunk;
        everything newer still sits in the reorder buffer and reaches
        fresh operators through the normal path — a switch never
        replays more than the reorder buffer plus one chunk."""
        at = max(self._watermark, at)
        if self._pending_events or at > self._watermark:
            self._flush(at)

    def _end_push(self) -> None:
        """What every ``push_many`` call and every settled piece of
        rows ends with."""
        # Rate-driven switches are deferred to this point: a switch
        # advances operators up to the reorder watermark, which is only
        # safe once every event the buffer has released is applied.
        if self._rate_observer.pending_rate is not None:
            self._apply_rate(self._rate_observer.take_pending())
        self._maybe_auto_checkpoint()

    def _maybe_auto_checkpoint(self) -> None:
        """Cadence-driven checkpointing, inside the ingest path itself:
        fires on the same thread that applies pushes (the pump thread
        in async mode), so every saved cut is prefix-consistent with
        the command stream by construction.  It runs at the end of a
        ``push_many`` call or a settled piece, so a cut never falls
        inside a batch; the unapplied rest of the rows being settled
        is residue."""
        store = self._auto_store
        if store is None or not store.due(self.watermark):
            return
        meta = (
            {} if self._checkpoint_meta is None else self._checkpoint_meta()
        )
        snap = self.snapshot(meta=meta)
        path = store.save(snap)
        if self._on_checkpoint is not None:
            self._on_checkpoint(snap, path)

    # ------------------------------------------------------------------
    # Durability (DESIGN.md §9, invariant 12)
    # ------------------------------------------------------------------
    @synchronized
    def snapshot(self, path=None, meta: "dict | None" = None) -> Snapshot:
        """Capture the whole session at one consistent cut.

        The capture is *complete*: the session's own state
        (``_capture`` — every shard core's operators, provider
        partials, routing table, retired archive and workload,
        serialized at exactly the coordinator's stream position
        without advancing the watermark, plus the coordinator's
        layout), the front door's
        own frame (``_FRAME``: reorder buffer, rate controller and
        chunk clock), and the residue: the rows of a settle in progress
        not yet applied and — in async mode — the ingest queue's
        (events enqueued but not yet applied).
        Like every synchronization point it runs at its position in
        the command stream, so it is prefix-consistent with everything
        pushed before it, and taking it never perturbs results.

        The returned :class:`~repro.runtime.checkpoint.Snapshot` is an
        isolated deep copy — the live session keeps running unaffected.
        With ``path`` it is also written to disk atomically.  Restoring
        it (:meth:`restore`) and replaying the remainder of the stream
        is bit-identical to never having stopped (invariant 12).
        """
        rows, applied = self._settling
        graph = {
            "session": self._capture(),
            "door": {name: getattr(self, name) for name in self._FRAME},
            "residue": [(_ROWS, rows[applied:])]
            + ([] if self._pump is None else self._pump.queue.peek_data()),
        }
        # One dumps over the whole graph: shared references (the
        # controller inside the observer) survive, and the snapshot is
        # isolated from further mutation of the live session.
        snap = Snapshot(
            watermark=self.watermark,
            generation=self.generation,
            queries=self.queries,
            payload={
                "state": pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
            },
            meta=dict(meta or {}),
        )
        if path is not None:
            write_checkpoint(snap, path)
        return snap

    @classmethod
    def restore(
        cls,
        source,
        *,
        async_ingest: bool = False,
        ingest_high_watermark: int = DEFAULT_INGEST_HIGH_WATERMARK,
        auto_checkpoint: "CheckpointStore | None" = None,
        checkpoint_meta=None,
        on_checkpoint=None,
        **placement,
    ):
        """Rebuild a session from a :class:`Snapshot` or a checkpoint
        file and resume exactly where it left off.

        The ingest mode is an override, not part of the snapshot —
        invariant 11 makes it observationally invisible, so a session
        snapshotted in async mode may restore in sync mode and vice
        versa; so is ``placement`` (``backend`` / ``fault_plan`` /
        ``worker_recovery`` / ``control_timeout`` — invariant 10: the
        snapshot's shard layout runs anywhere, placed by the
        constructor's rule, so one shard runs in-process).  Everything
        after ``source`` is keyword-only.  Captured residue is replayed
        through the restored front door first — column runs through
        ``push_many``, rows through ``push`` — so the restored timeline
        applies exactly the events the original had accepted, with
        every epilogue after the same event.  The auto-checkpoint
        knobs mirror the constructor's (cadence state lives in the
        store, not the snapshot — pass the same store to keep the
        cadence rolling).
        """
        snap = source if isinstance(source, Snapshot) else read_checkpoint(source)
        graph = pickle.loads(snap.payload["state"])
        self = cls.__new__(cls)
        for name in cls._FRAME:
            setattr(self, name, graph["door"][name])
        self._adopt(graph["session"], **placement)
        self._attach(
            async_ingest,
            ingest_high_watermark,
            auto_checkpoint,
            checkpoint_meta,
            on_checkpoint,
        )
        for kind, events in graph["residue"]:
            if kind == _RUN:
                self.push_many(events)
            else:
                for row in events:
                    self.push(*row)
        return self

    # ------------------------------------------------------------------
    # Termination and results
    # ------------------------------------------------------------------
    def finish(self, horizon: "int | None" = None):
        """Drain the reorder buffer, close every instance ending at or
        before ``horizon`` (default: last event + 1), and return
        :meth:`results`.  The session accepts no events afterwards (in
        async mode the pump thread is stopped; the backend stays up for
        result reads until ``close``)."""
        results = self._drain_and_seal(horizon)
        self._stop_pump()
        return results

    @synchronized
    def _drain_and_seal(self, horizon: "int | None"):
        self._require_open()
        self._apply_run(*self._reorder._drain())
        if horizon is None:
            horizon = max(self._watermark, self._max_event_ts + 1)
        if horizon < self._watermark:
            raise ExecutionError(
                f"horizon {horizon} is behind the watermark "
                f"{self._watermark}"
            )
        self._flush(horizon)
        self._closed = True
        return self._collect(False)

    @synchronized
    def results(self):
        """Per-query, per-window emitted results, live and retired
        subscriptions both, merged at the coordinator: per-key rows
        scattered back to the global key space, global-scope rows
        passed through from the coordinator's one-key core.

        Non-consuming: every call returns everything accumulated since
        each subscription started, so memory grows with emitted
        instances.  Long-lived sessions over unbounded streams should
        poll :meth:`drain_results` instead.
        """
        return self._collect(False)

    @synchronized
    def drain_results(self):
        """Consume emitted results: return every block accumulated
        since the previous drain and release it (each subscription's
        ``start_instance`` moves to its frontier).  Polling this keeps
        per-subscription memory bounded by the emission rate between
        polls — the service-shaped read path.  Retired subscriptions
        are drained too and dropped once read."""
        return self._collect(True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _stop_pump(self) -> None:
        """Apply what is still pending, so both modes close having
        applied every accepted event (idempotent): the pump drains its
        queue and stops (drain or raise); in sync mode the pending rows
        settle, and are dropped only when the backend has failed (an
        ``ExecutionError``: closing over dead workers never raises)."""
        if self._pump is not None:
            self._pump.stop()
            return
        try:
            self._settle()
        except ExecutionError:
            pass


class IngestPump:
    """The background thread draining an :class:`IngestQueue` into a
    session's synchronous ingest path.

    ``push_rows`` / ``push_run`` are the session's *synchronous*
    single-threaded entry points, one per data item kind (a list of
    rows, which it validates whole; validated
    :class:`~repro.engine.events.EventColumns`) — the pump is their
    only caller while it runs, which is the whole concurrency story:
    one producer-facing bounded MPSC queue (any number of submitting
    threads), one consumer thread, zero shared mutable session state
    across threads.  A failure parks its error; ``push_rows`` counts
    the rows it left unapplied through :meth:`discard`, so they join
    the exact discard tally.
    """

    def __init__(
        self,
        push_rows,
        push_run,
        high_watermark: int = DEFAULT_INGEST_HIGH_WATERMARK,
    ):
        self._apply = {_ROWS: push_rows, _RUN: push_run}
        self.queue = IngestQueue(high_watermark)
        self._error: "BaseException | None" = None
        self._error_seen = False
        self._discarded_events = 0
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, name="repro-ingest-pump", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Producer-side API
    # ------------------------------------------------------------------
    @property
    def stats(self) -> IngestStats:
        return self.queue.stats

    @property
    def accepting(self) -> bool:
        return not self._stopped

    def in_pump_thread(self) -> bool:
        return threading.current_thread() is self._thread

    def _raise_pending(self) -> None:
        if self._error is not None:
            self._error_seen = True
            raise ExecutionError(
                f"async ingest failed: {self._error}"
            ) from self._error

    def submit_row(self, row) -> None:
        self._raise_pending()
        self.queue.put_data((_ROWS, [row]), 1)

    def discard(self, events: int) -> None:
        """Count events of the rows entry being applied that a failure
        left unapplied."""
        self._discarded_events += events

    def submit_run(self, columns: EventColumns) -> None:
        self._raise_pending()
        self.queue.put_data((_RUN, columns), int(columns.ts.size))

    def submit_call(self, fn, *args, **kwargs):
        """Enqueue ``fn(*args, **kwargs)`` and wait for the pump to
        execute it at its position in the command stream."""
        self._raise_pending()
        reply = SimpleQueue()
        self.queue.put_control((_CALL, (reply, fn, args, kwargs)))
        error, result = reply.get()
        if error is not None:
            raise error
        self._raise_pending()
        return result

    def stop(self) -> None:
        """Drain everything already queued, then stop the pump.  Safe
        to call more than once; later submissions raise.

        **Drain-or-raise**: queued data either flushes through the
        pump (the stop sentinel queues FIFO behind it) or — when the
        pump is poisoned by a parked error — the error is raised here
        with an exact count of the discarded events, so pending input
        is never silently dropped.  A parked error that already
        surfaced on an earlier front-door call is not raised twice.
        """
        if self._stopped and not self._thread.is_alive():
            return
        try:
            self.queue.put_control((_STOP, None), counted=False)
        except ExecutionError:  # already closed by a crashed pump
            pass
        self._thread.join()
        self._stopped = True
        if self._error is not None and not self._error_seen:
            self._error_seen = True
            dropped = (
                f"; {self._discarded_events} queued event(s) were "
                "discarded, not applied"
                if self._discarded_events
                else ""
            )
            raise ExecutionError(
                f"async ingest failed: {self._error}{dropped}"
            ) from self._error

    # ------------------------------------------------------------------
    # Pump side
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            while True:
                (kind, payload), weight = self.queue.get()
                if kind == _STOP:
                    break
                if kind == _CALL:
                    reply, fn, args, kwargs = payload
                    if self._error is not None:
                        # Failing the call surfaces the parked error to
                        # the producer blocked in submit_call(); mark it
                        # seen so stop() does not raise it a second time.
                        self._error_seen = True
                        error = f"async ingest failed: {self._error}"
                        reply.put((ExecutionError(error), None))
                        continue
                    try:
                        reply.put((None, fn(*args, **kwargs)))
                    except BaseException as exc:  # noqa: BLE001 - relayed
                        reply.put((exc, None))
                    continue
                if self._error is not None:
                    # Poisoned: discard data (counted — stop() raises
                    # with the exact tally), surface on submit.
                    self._discarded_events += weight
                    continue
                try:
                    self._apply[kind](payload)
                except BaseException as exc:  # noqa: BLE001 - parked
                    self._error = exc
        finally:
            self._stopped = True
            for (kind, payload), weight in self.queue.close():
                if kind == _CALL:
                    payload[0].put(
                        (ExecutionError("ingest pump stopped"), None)
                    )
                else:
                    self._discarded_events += weight

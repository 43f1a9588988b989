"""The non-blocking async ingest front door (DESIGN.md §8).

A live session's ``push`` is synchronous: the producer thread pays for
routing, partitioning, and — on chunk boundaries — the whole flush
before the call returns.  With ``async_ingest=True`` a session puts a
bounded :class:`IngestQueue` and one background :class:`IngestPump`
thread in front of that machinery instead:

* ``push`` / ``push_batch`` enqueue and return immediately — the
  producer never waits on a flush;
* the pump thread dequeues in FIFO order and applies each command
  through the session's *synchronous* path, so the coordinator clock,
  the reorder buffer, and every shard see exactly the command stream
  they would have seen without the queue — watermark-lockstep
  semantics are inherited, not re-implemented, which is what keeps
  shard invariance (invariant 10) and switch invisibility (invariant
  9) intact in async mode (invariant 11 ties the two modes together);
* workload mutations and reads (``register`` / ``deregister`` /
  ``results`` / ``drain_results`` / ``finish``) enqueue a *call*
  command and wait for the pump to execute it, making them
  synchronization points: a registration lands after every previously
  pushed event, exactly as in sync mode.

**Backpressure, not loss.**  The queue is bounded in *events* (a batch
weighs its length): once the backlog reaches ``high_watermark`` the
gate closes and data producers block until the pump drains it to
``low_watermark`` (hysteresis, so producers wake to a usefully empty
queue instead of thrashing at the boundary).  Nothing is ever dropped
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
slack, or keep each key's events on one thread).  The multi-tenant
service (:mod:`repro.service`) leans on exactly this: N connection
handlers feed one tenant's session concurrently
(``tests/runtime/test_ingest.py`` holds N-producers ≡ serial-oracle as
a property).

**Errors.**  The pump applies data commands fire-and-forget, so a
failure (e.g. a key outside the dense id space) is parked and raised
on the *next* front-door call — the same park-and-surface discipline
the shard workers use for their fire-and-forget data plane.  After an
error the front door is poisoned: data commands are discarded and
every submission raises.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from ..errors import ExecutionError

__all__ = [
    "AsyncIngestFrontDoor",
    "DEFAULT_INGEST_HIGH_WATERMARK",
    "IngestPump",
    "IngestQueue",
    "IngestStats",
]

#: Default backlog bound, in events.  At the benchmark's ~1-3M ev/s
#: single-shard drain rate this is tens of milliseconds of slack —
#: deep enough to absorb producer bursts, shallow enough that a
#: stalled consumer surfaces as backpressure almost immediately.
DEFAULT_INGEST_HIGH_WATERMARK = 65_536


@dataclass
class IngestStats:
    """Exact counters of one session's async front door."""

    enqueued_events: int = 0  # events accepted (push + push_batch)
    enqueued_calls: int = 0  # synchronous commands routed through
    backpressure_waits: int = 0  # producer blocks on a closed gate
    max_depth_events: int = 0  # backlog high-water mark, in events


class _Call:
    """One synchronous command in flight through the queue."""

    __slots__ = ("fn", "args", "kwargs", "done", "result", "error")

    def __init__(self, fn, args, kwargs):
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.done = threading.Event()
        self.result = None
        self.error: "BaseException | None" = None

    def run(self) -> None:
        try:
            self.result = self.fn(*self.args, **self.kwargs)
        except BaseException as exc:  # noqa: BLE001 - relayed to caller
            self.error = exc
        finally:
            self.done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done.set()

    def wait(self):
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.result


class IngestQueue:
    """A bounded FIFO of ingest commands, weighed in events.

    Data items (events, batches) respect the high/low-watermark gate;
    call and stop items bypass it (they are control plane — blocking a
    ``register`` behind the very backlog it is meant to synchronize
    with would invert its priority).

    Multi-producer safe: every entry point takes the one internal
    lock, so concurrent ``put_data``/``put_control`` callers admit
    atomically in lock-acquisition order and blocked producers wake
    fairly off the same gate condition.  There is exactly one
    consumer (the pump thread) — ``get`` is not designed for more.
    """

    def __init__(
        self,
        high_watermark: int = DEFAULT_INGEST_HIGH_WATERMARK,
        low_watermark: "int | None" = None,
    ):
        if high_watermark < 1:
            raise ExecutionError(
                f"high_watermark must be >= 1, got {high_watermark}"
            )
        if low_watermark is None:
            low_watermark = high_watermark // 2
        if not 0 <= low_watermark < high_watermark:
            raise ExecutionError(
                f"low_watermark must lie in [0, {high_watermark}), "
                f"got {low_watermark}"
            )
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.stats = IngestStats()
        self._items: deque = deque()
        self._depth_events = 0
        self._gate_open = True
        self._closed = False
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._gate = threading.Condition(self._lock)

    @property
    def depth_events(self) -> int:
        """Events currently queued (racy snapshot outside the pump)."""
        return self._depth_events

    def _admit(self, item, weight: int) -> None:
        self._items.append((item, weight))
        self._depth_events += weight
        if self._depth_events > self.stats.max_depth_events:
            self.stats.max_depth_events = self._depth_events
        if self._depth_events >= self.high_watermark:
            self._gate_open = False
        self._not_empty.notify()

    def put_data(self, item, weight: int) -> None:
        """Enqueue one data command, blocking while the gate is shut."""
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
        """Dequeue the next command (pump side; blocks when empty)."""
        with self._lock:
            while not self._items:
                self._not_empty.wait()
            item, weight = self._items.popleft()
            self._depth_events -= weight
            if not self._gate_open and self._depth_events <= self.low_watermark:
                self._gate_open = True
                self._gate.notify_all()
            return item

    def peek_data(self) -> list:
        """The queued *data* items, in order, without consuming them —
        the ingest-queue residue a session snapshot captures so queued
        but not-yet-applied events survive a restore (DESIGN.md §9)."""
        with self._lock:
            return [
                item
                for item, _ in self._items
                if item[0] in (_EVENT, _BATCH)
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


#: Queue item kinds.
_EVENT, _BATCH, _CALL, _STOP = range(4)


class AsyncIngestFrontDoor:
    """Mixin: the session-side routing half of the async front door.

    A session using it sets ``self._pump`` (an :class:`IngestPump` or
    ``None``) and routes every public entry point through the helpers
    below.  Keeping the routing in one place matters beyond tidiness:
    *every* call that touches session or backend state — including
    introspection like ``stats()`` — must serialize through the pump
    while it runs, because the pump thread may be mid-flush inside the
    backend (two threads writing one worker pipe interleave their
    bytes and corrupt the stream).  Reads that only load a coordinator
    local scalar (``watermark``, ``reorder_stats``) are exempt.
    """

    _pump: "IngestPump | None" = None

    @property
    def ingest_stats(self) -> "IngestStats | None":
        """Front-door counters (``None`` when ``async_ingest=False``)."""
        return None if self._pump is None else self._pump.stats

    def _via_pump(self, fn, *args, **kwargs):
        """Run ``fn`` at its position in the async command stream (a
        synchronization point), or directly in sync mode."""
        pump = self._pump
        if pump is not None and pump.accepting and not pump.in_pump_thread():
            return pump.submit_call(fn, *args, **kwargs)
        return fn(*args, **kwargs)

    def _route_event(self, ts: int, key: int, value: float) -> bool:
        """Enqueue one event in async mode; ``False`` means the caller
        should run its synchronous path."""
        pump = self._pump
        if pump is not None and pump.accepting:
            pump.submit_event(ts, key, value)
            return True
        return False

    def push_many(self, events) -> None:
        """Ingest ``(ts, key, value)`` events — an iterable of rows or
        an ``(n, 3)`` array.

        Sync mode keeps the batch a batch: it is validated whole
        (:func:`~repro.engine.events.event_columns` — nothing is
        applied from a batch holding one bad row), crosses the reorder
        buffer in one columnar pass
        (:meth:`~repro.engine.outoforder.ReorderBuffer.push_batch`) and
        reaches the operators as column runs cut at chunk boundaries,
        with the same results, late-drop decisions and reorder
        counters as pushing event by event.  Rate replans and the
        auto-checkpoint cadence apply once, at the end of the batch.
        Async mode enqueues per event."""
        if self._pump is not None and self._pump.accepting:
            for ts, key, value in events:
                self.push(ts, key, value)
            return
        self._push_many_now(events)

    def _stop_pump(self) -> None:
        """Drain and stop the pump (idempotent; no-op in sync mode)."""
        if self._pump is not None:
            self._pump.stop()


class IngestPump:
    """The background thread draining an :class:`IngestQueue` into a
    session's synchronous ingest path.

    ``push`` / ``push_batch`` are the session's *synchronous*
    single-threaded entry points — the pump is their only caller while
    it runs, which is the whole concurrency story: one producer-facing
    bounded MPSC queue (any number of submitting threads), one
    consumer thread, zero shared mutable session state across
    threads.
    """

    def __init__(
        self,
        push,
        push_batch=None,
        high_watermark: int = DEFAULT_INGEST_HIGH_WATERMARK,
        low_watermark: "int | None" = None,
        name: str = "repro-ingest-pump",
    ):
        self._push = push
        self._push_batch = push_batch
        self.queue = IngestQueue(high_watermark, low_watermark)
        self._error: "BaseException | None" = None
        self._error_seen = False
        self._discarded_events = 0
        self._stopped = False
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
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

    def pending_data(self) -> list:
        """The queued-but-unapplied data items (snapshot residue)."""
        return self.queue.peek_data()

    def submit_event(self, ts: int, key: int, value: float) -> None:
        self._raise_pending()
        self.queue.put_data((_EVENT, ts, key, value), 1)

    def submit_batch(self, batch) -> None:
        if self._push_batch is None:  # pragma: no cover - defensive
            raise ExecutionError("this session has no batch ingest path")
        self._raise_pending()
        self.queue.put_data((_BATCH, batch), max(1, batch.num_events))

    def submit_call(self, fn, *args, **kwargs):
        """Enqueue ``fn(*args, **kwargs)`` and wait for the pump to
        execute it at its position in the command stream."""
        self._raise_pending()
        call = _Call(fn, args, kwargs)
        self.queue.put_control((_CALL, call))
        result = call.wait()
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
            self.queue.put_control((_STOP,), counted=False)
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
                item = self.queue.get()
                kind = item[0]
                if kind == _STOP:
                    break
                if kind == _CALL:
                    call = item[1]
                    if self._error is not None:
                        # Failing the call surfaces the parked error to
                        # the producer blocked in submit_call(); mark it
                        # seen so stop() does not raise it a second time.
                        self._error_seen = True
                        call.fail(
                            ExecutionError(
                                f"async ingest failed: {self._error}"
                            )
                        )
                    else:
                        call.run()
                    continue
                if self._error is not None:
                    # Poisoned: discard data (counted — stop() raises
                    # with the exact tally), surface on submit.
                    self._discarded_events += (
                        1 if kind == _EVENT else max(1, item[1].num_events)
                    )
                    continue
                try:
                    if kind == _EVENT:
                        self._push(item[1], item[2], item[3])
                    else:
                        self._push_batch(item[1])
                except BaseException as exc:  # noqa: BLE001 - parked
                    self._error = exc
        finally:
            self._stopped = True
            for item, weight in self.queue.close():
                if item[0] == _CALL:
                    item[1].fail(
                        ExecutionError("ingest pump stopped")
                    )
                elif item[0] in (_EVENT, _BATCH):
                    self._discarded_events += max(1, weight)

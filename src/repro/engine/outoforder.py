"""Out-of-order ingestion with bounded disorder.

Real event streams (including the DEBS trace family) arrive out of
order.  The engines in this package require timestamp-sorted input, so
this module provides the standard streaming front door: a reorder
buffer with a *bounded-lateness* watermark.

An event with timestamp ``t`` may arrive any time before the watermark
passes ``t``; the watermark trails the maximum seen timestamp by
``max_lateness`` ticks.  Events older than the watermark are *late*:
they are counted and dropped (the drop-late policy of Flink/ASA's
default).  Everything the buffer releases is globally sorted, so the
downstream engines' results are identical to running on pre-sorted
input — which is exactly what the tests assert.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from ..errors import ExecutionError
from .events import EVENT_COLUMN_DTYPES, EventBatch

Event = tuple[int, int, float]  # (timestamp, key, value)


#: Default bound on *retained* late events (counters stay exact).
DEFAULT_LATE_EVENT_CAP = 64


@dataclass
class ReorderStats:
    """Counters of a reorder pass.

    ``late_events`` retains at most ``late_event_cap`` dropped events
    (the earliest ones — debugging wants the first offenders); an
    unbounded list would contradict the bounded-state guarantee every
    operator downstream of this front door maintains (DESIGN.md §5).
    The *counters* — ``late_dropped``, ``max_observed_lateness`` — are
    exact regardless of the cap.
    """

    accepted: int = 0
    late_dropped: int = 0
    max_observed_lateness: int = 0
    late_events: list[Event] = field(default_factory=list)
    late_event_cap: int = DEFAULT_LATE_EVENT_CAP
    late_events_elided: int = 0

    def note_late(
        self, count: int, lateness: int, events: Iterable[Event], keep: bool
    ) -> None:
        """Count ``count`` late drops, the worst ``lateness`` ticks
        behind the watermark; ``events`` yields them in arrival order
        and is read only as far as the cap has room."""
        self.late_dropped += count
        self.max_observed_lateness = max(self.max_observed_lateness, lateness)
        if keep:
            room = max(self.late_event_cap - len(self.late_events), 0)
            self.late_events.extend(islice(events, room))
            self.late_events_elided += max(count - room, 0)

    @property
    def total(self) -> int:
        return self.accepted + self.late_dropped


class ReorderBuffer:
    """Min-heap reorder buffer with a trailing watermark.

    ``push`` accepts one (possibly out-of-order) event and yields every
    event whose timestamp the new watermark has passed, in order;
    ``push_batch`` does the same for a columnar block in one pass.
    ``flush`` drains the remainder at end of stream.
    """

    def __init__(
        self,
        max_lateness: int,
        keep_late_events: bool = False,
        late_event_cap: int = DEFAULT_LATE_EVENT_CAP,
    ):
        if max_lateness < 0:
            raise ExecutionError(
                f"max_lateness must be >= 0, got {max_lateness}"
            )
        if late_event_cap < 0:
            raise ExecutionError(
                f"late_event_cap must be >= 0, got {late_event_cap}"
            )
        self.max_lateness = max_lateness
        self.stats = ReorderStats(late_event_cap=late_event_cap)
        self._keep_late = keep_late_events
        self._heap: list[Event] = []
        self._max_seen = -1
        self._sequence = 0  # tie-break to keep same-timestamp arrival order

    @property
    def watermark(self) -> int:
        """Timestamps strictly below this are final."""
        return self._max_seen - self.max_lateness

    def push(self, ts: int, key: int, value: float) -> Iterator[Event]:
        if ts < 0:
            raise ExecutionError(f"timestamps must be >= 0, got {ts}")
        if ts < self.watermark:
            self.stats.note_late(
                1, self.watermark - ts, [(ts, key, value)], self._keep_late
            )
            return
        self.stats.accepted += 1
        heapq.heappush(self._heap, (ts, self._sequence, key, value))
        self._sequence += 1
        self._max_seen = max(self._max_seen, ts)
        while self._heap and self._heap[0][0] < self.watermark:
            out_ts, _, out_key, out_value = heapq.heappop(self._heap)
            yield (out_ts, out_key, out_value)

    def push_batch(
        self, ts: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Push a columnar block of (possibly out-of-order) events.

        Returns the released events as ``(ts, keys, values)`` arrays —
        the exact sequence ``push`` would have yielded event by event,
        with identical late-drop decisions and counters, in one pass
        over the block instead of one heap operation per event:

        * an event is late iff it is behind the watermark of everything
          seen *before* it — a running maximum (a late event is below
          that maximum, so folding it in changes nothing);
        * ``push`` releases in ``(ts, arrival)`` order and never
          releases a tick that can still receive an event, so what a
          run of pushes releases is the stable timestamp sort of the
          carried events followed by the accepted ones, cut at the
          final watermark.  An in-order block is already that sort.

        The remainder is carried as the ``(ts, seq, key, value)`` list
        ``push`` keeps (sorted, hence a valid heap), so the two verbs
        interleave freely on one buffer.  A negative timestamp rejects
        the whole block before any state moves.
        """
        ts = np.asarray(ts, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if ts.size == 0:
            return ts, keys, values
        if int(ts.min()) < 0:
            raise ExecutionError(
                f"timestamps must be >= 0, got {int(ts.min())}"
            )
        seen = np.maximum.accumulate(np.concatenate(([self._max_seen], ts)))
        behind = seen[:-1] - ts
        late = behind > self.max_lateness
        if late.any():
            dropped = np.flatnonzero(late)
            first = dropped[: self.stats.late_event_cap]
            self.stats.note_late(
                int(dropped.size),
                int(behind[dropped].max()) - self.max_lateness,
                zip(*(c[first].tolist() for c in (ts, keys, values))),
                self._keep_late,
            )
            accepted = ~late
            ts, keys, values = ts[accepted], keys[accepted], values[accepted]
        self._max_seen = int(seen[-1])
        self.stats.accepted += int(ts.size)
        columns = [
            ts,
            np.arange(self._sequence, self._sequence + ts.size),
            keys,
            values,
        ]
        self._sequence += int(ts.size)
        if self._heap:
            columns = [
                np.concatenate((np.asarray(held, dtype=column.dtype), column))
                for held, column in zip(zip(*sorted(self._heap)), columns)
            ]
        merged = columns[0]
        if (merged[1:] < merged[:-1]).any():
            order = np.argsort(merged, kind="stable")
            columns = [column[order] for column in columns]
        cut = int(np.searchsorted(columns[0], self.watermark, side="left"))
        self._heap = list(zip(*(column[cut:].tolist() for column in columns)))
        out_ts, _, out_keys, out_values = (column[:cut] for column in columns)
        return out_ts, out_keys, out_values

    def flush(self) -> Iterator[Event]:
        """Drain all buffered events (end of stream)."""
        while self._heap:
            ts, _, key, value = heapq.heappop(self._heap)
            yield (ts, key, value)

    @property
    def buffered(self) -> int:
        return len(self._heap)


def _columns(rows: "list[Event]") -> "list[np.ndarray]":
    columns = tuple(zip(*rows)) or ((), (), ())
    return [
        np.asarray(column, dtype=dtype)
        for column, (_, dtype) in zip(columns, EVENT_COLUMN_DTYPES)
    ]


def _reorder_columns(
    events: Iterable[Event], max_lateness: int
) -> "tuple[list[np.ndarray], ReorderStats]":
    """One ``push_batch`` of the whole iterable, then the end-of-stream
    flush: ``([ts, keys, values], stats)`` of everything released."""
    buffer = ReorderBuffer(max_lateness)
    released = buffer.push_batch(*_columns(list(events)))
    tail = _columns(list(buffer.flush()))
    return [np.concatenate(pair) for pair in zip(released, tail)], buffer.stats


def reorder_events(
    events: Iterable[Event], max_lateness: int
) -> tuple[list[Event], ReorderStats]:
    """Reorder a finite event iterable; returns (sorted events, stats)."""
    columns, stats = _reorder_columns(events, max_lateness)
    return list(zip(*(column.tolist() for column in columns))), stats


def batch_from_unordered(
    events: Iterable[Event],
    max_lateness: int,
    horizon: "int | None" = None,
    num_keys: "int | None" = None,
) -> tuple[EventBatch, ReorderStats]:
    """Build a sorted :class:`EventBatch` from an out-of-order iterable.

    The returned batch feeds either engine directly; ``stats`` reports
    what the lateness bound cost in dropped events.
    """
    (ts, keys, values), stats = _reorder_columns(events, max_lateness)
    if not ts.size:
        horizon, num_keys = horizon or 1, num_keys or 1
    if num_keys is None:
        num_keys = int(keys.max()) + 1
    if horizon is None:
        horizon = int(ts[-1]) + 1
    batch = EventBatch(
        timestamps=ts,
        keys=keys,
        values=values,
        horizon=horizon,
        num_keys=num_keys,
    )
    return batch, stats


def scramble_batch(
    batch: EventBatch, max_lateness: int, seed: int = 0
) -> list[Event]:
    """Test/demo helper: displace each event by up to ``max_lateness``
    arrival positions while keeping disorder within the bound.

    Each event's arrival position is its timestamp index plus uniform
    jitter in ``[0, max_lateness]``; sorting by that jittered key yields
    a stream whose disorder a ``ReorderBuffer(max_lateness)`` absorbs
    without drops (events only ever arrive *early* relative to their
    jittered slot, never later than the bound).
    """
    rng = np.random.default_rng(seed)
    jitter = rng.integers(0, max_lateness + 1, batch.num_events)
    order = np.argsort(batch.timestamps + jitter, kind="stable")
    return [
        (
            int(batch.timestamps[i]),
            int(batch.keys[i]),
            float(batch.values[i]),
        )
        for i in order
    ]

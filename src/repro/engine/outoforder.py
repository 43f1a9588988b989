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
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..errors import ExecutionError
from .events import EVENT_COLUMN_DTYPES, EventBatch

Event = tuple[int, int, float]  # (timestamp, key, value)


@dataclass
class ReorderStats:
    """Exact counters of a reorder pass.  Late events are counted and
    dropped, never kept, so the front door's state stays as bounded as
    every operator downstream of it (DESIGN.md §5)."""

    accepted: int = 0
    late_dropped: int = 0
    max_observed_lateness: int = 0

    def note_late(self, count: int, lateness: int) -> None:
        """Count ``count`` late drops, the worst ``lateness`` ticks
        behind the watermark."""
        self.late_dropped += count
        self.max_observed_lateness = max(self.max_observed_lateness, lateness)

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

    def __init__(self, max_lateness: int):
        if max_lateness < 0:
            raise ExecutionError(
                f"max_lateness must be >= 0, got {max_lateness}"
            )
        self.max_lateness = max_lateness
        self.stats = ReorderStats()
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
            self.stats.note_late(1, self.watermark - ts)
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
            self.stats.note_late(
                int(np.count_nonzero(late)),
                int(behind[late].max()) - self.max_lateness,
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

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
from typing import Iterable, Iterator

import numpy as np

from .. import _kernels as kernels
from ..errors import ExecutionError
from .events import EventBatch

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

    def note_late(self, event: Event, keep: bool) -> None:
        """Count one late drop; retain the event within the cap."""
        self.late_dropped += 1
        if keep:
            if len(self.late_events) < self.late_event_cap:
                self.late_events.append(event)
            else:
                self.late_events_elided += 1

    @property
    def total(self) -> int:
        return self.accepted + self.late_dropped


class ReorderBuffer:
    """Min-heap reorder buffer with a trailing watermark.

    ``push`` accepts one (possibly out-of-order) event and yields every
    event whose timestamp the new watermark has passed, in order.
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
            lateness = self.watermark - ts
            self.stats.max_observed_lateness = max(
                self.stats.max_observed_lateness, lateness
            )
            self.stats.note_late((ts, key, value), self._keep_late)
            return
        self.stats.accepted += 1
        heapq.heappush(self._heap, (ts, self._sequence, key, value))
        self._sequence += 1
        self._max_seen = max(self._max_seen, ts)
        while self._heap and self._heap[0][0] < self.watermark:
            out_ts, _, out_key, out_value = heapq.heappop(self._heap)
            yield (out_ts, out_key, out_value)

    def push_batch(
        self,
        ts: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        native: "bool | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Push a columnar block of (possibly out-of-order) events.

        Returns the released events as ``(ts, keys, values)`` arrays —
        the exact sequence ``push`` would have yielded event by event,
        with identical late-drop decisions and counters.  When the
        compiled kernels are enabled (``repro._kernels``) the heap
        churn runs in C; the pure-Python fallback literally loops
        :meth:`push`, so both paths are bit-identical by construction.
        """
        ts = np.ascontiguousarray(ts, dtype=np.int64)
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        n = int(ts.size)
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        if n == 0:
            return empty
        if int(ts.min()) < 0:
            raise ExecutionError(
                f"timestamps must be >= 0, got {int(ts.min())}"
            )
        if kernels.resolve(native):
            (
                out_ts,
                out_keys,
                out_values,
                late_idx,
                late_lateness,
                heap,
                max_seen,
                sequence,
            ) = kernels.NativeReorderHeap.push_batch(
                self._heap,
                self._max_seen,
                self._sequence,
                self.max_lateness,
                ts,
                keys,
                values,
            )
            self._heap = heap
            self._max_seen = max_seen
            self._sequence = sequence
            self.stats.accepted += n - int(late_idx.size)
            for i, lateness in zip(
                late_idx.tolist(), late_lateness.tolist()
            ):
                self.stats.max_observed_lateness = max(
                    self.stats.max_observed_lateness, int(lateness)
                )
                self.stats.note_late(
                    (int(ts[i]), int(keys[i]), float(values[i])),
                    self._keep_late,
                )
            return out_ts, out_keys, out_values
        # One ``tolist`` per column: boxing element by element
        # (``int(ts[i])``) costs more than the push it feeds.
        released: list[Event] = []
        for event in zip(ts.tolist(), keys.tolist(), values.tolist()):
            released.extend(self.push(*event))
        if not released:
            return empty
        rel_ts, rel_keys, rel_values = zip(*released)
        return (
            np.asarray(rel_ts, dtype=np.int64),
            np.asarray(rel_keys, dtype=np.int64),
            np.asarray(rel_values, dtype=np.float64),
        )

    def accept_sorted(
        self, count: int, first_ts: int, last_ts: int
    ) -> None:
        """Account a pre-sorted batch that bypasses the heap (the
        sorted fast path of batch ingestion).

        Only valid on an in-order front door (``max_lateness == 0``)
        with nothing buffered, and only for a batch starting at or
        after the newest seen timestamp — otherwise the bypass could
        reorder events relative to earlier pushes.  Keeps the exact
        ``accepted`` counter and the watermark coherent with
        :meth:`push`.
        """
        if self.max_lateness != 0 or self._heap:
            raise ExecutionError(
                "sorted-batch bypass requires max_lateness=0 and an "
                "empty reorder buffer; push events individually instead"
            )
        if first_ts < self._max_seen:
            raise ExecutionError(
                f"sorted batch starts at {first_ts}, before the newest "
                f"seen timestamp {self._max_seen}"
            )
        self.stats.accepted += count
        self._max_seen = max(self._max_seen, last_ts)

    def flush(self) -> Iterator[Event]:
        """Drain all buffered events (end of stream)."""
        while self._heap:
            ts, _, key, value = heapq.heappop(self._heap)
            yield (ts, key, value)

    @property
    def buffered(self) -> int:
        return len(self._heap)


def reorder_events(
    events: Iterable[Event], max_lateness: int
) -> tuple[list[Event], ReorderStats]:
    """Reorder a finite event iterable; returns (sorted events, stats)."""
    buffer = ReorderBuffer(max_lateness)
    ordered: list[Event] = []
    for ts, key, value in events:
        ordered.extend(buffer.push(ts, key, value))
    ordered.extend(buffer.flush())
    return ordered, buffer.stats


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
    ordered, stats = reorder_events(events, max_lateness)
    if not ordered:
        return (
            EventBatch(
                timestamps=np.empty(0, dtype=np.int64),
                keys=np.empty(0, dtype=np.int64),
                values=np.empty(0, dtype=np.float64),
                horizon=horizon or 1,
                num_keys=num_keys or 1,
            ),
            stats,
        )
    ts = np.asarray([e[0] for e in ordered], dtype=np.int64)
    keys = np.asarray([e[1] for e in ordered], dtype=np.int64)
    values = np.asarray([e[2] for e in ordered], dtype=np.float64)
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

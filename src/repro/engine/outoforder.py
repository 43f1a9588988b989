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

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .. import _kernels as kernels
from ..errors import ExecutionError
from .events import NO_EVENTS, EventBatch

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
    """Reorder buffer with a trailing watermark.

    ``push_batch`` accepts a columnar block of (possibly out-of-order)
    events and returns every event the new watermark has passed, in
    order; ``flush`` drains the remainder at end of stream.  The
    carried events are three sorted columns (``EVENT_COLUMN_DTYPES``),
    so the buffer never builds a Python object per event and a pickle
    is its plain state.  The per-event definition the block pass is
    checked against lives in the tests (``oracle_reorder.py``).
    """

    def __init__(self, max_lateness: int):
        if max_lateness < 0:
            raise ExecutionError(
                f"max_lateness must be >= 0, got {max_lateness}"
            )
        self.max_lateness = max_lateness
        self.stats = ReorderStats()
        self._max_seen = -1
        self._held = NO_EVENTS

    @property
    def watermark(self) -> int:
        """Timestamps strictly below this are final."""
        return self._max_seen - self.max_lateness

    def push_batch(
        self, ts: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Push a columnar block of (possibly out-of-order) events.

        Returns the released events as ``(ts, keys, values)`` arrays —
        the exact sequence the per-event definition (drop an event
        behind the watermark, else hold it; release every held event
        below the new watermark in ``(ts, arrival)`` order) yields
        event by event, with identical late-drop decisions and
        counters, in one pass over the block:

        * an event is late iff it is behind the watermark of everything
          seen *before* it — a running maximum (a late event is below
          that maximum, so folding it in changes nothing);
        * the definition releases in ``(ts, arrival)`` order and never
          releases a tick that can still receive an event, so what a
          run of events releases is the stable timestamp sort of the
          carried columns followed by the accepted events, cut at the
          final watermark.  An in-order concatenation is already that
          sort.

        The remainder is kept as sorted columns (a copy of the tail
        only, never a view of the caller's arrays).  A negative
        timestamp rejects the whole block before any state moves.

        With the kernels on, everything before the cut is one call
        (:func:`repro._kernels.reorder_run`), whose counting sort on
        the tick offset is the same stable sort; a block it does not
        take runs the NumPy body below, the reference.
        """
        ts = np.asarray(ts, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if ts.size == 0:
            return ts, keys, values
        if kernels.resolve():
            run = kernels.reorder_run(
                ts, keys, values, self._held, self._max_seen,
                self.max_lateness,
            )
            if run is not None:
                columns, late, worst, self._max_seen = run
                if late:
                    self.stats.note_late(late, worst)
                self.stats.accepted += int(ts.size) - late
                return self._cut(*columns)
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
        if self._held[0].size:
            ts, keys, values = (
                np.concatenate(pair)
                for pair in zip(self._held, (ts, keys, values))
            )
        if (ts[1:] < ts[:-1]).any():
            order = np.argsort(ts, kind="stable")
            ts, keys, values = ts[order], keys[order], values[order]
        return self._cut(ts, keys, values)

    def _cut(self, ts, keys, values):
        """Release the sorted columns below the watermark; carry a copy
        of the rest."""
        cut = int(np.searchsorted(ts, self.watermark, side="left"))
        self._held = (
            NO_EVENTS
            if cut == ts.size
            else (ts[cut:].copy(), keys[cut:].copy(), values[cut:].copy())
        )
        return ts[:cut], keys[:cut], values[:cut]

    def _drain(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Take every carried event, as sorted columns (end of
        stream)."""
        columns, self._held = self._held, NO_EVENTS
        return columns

    def flush(self) -> Iterator[Event]:
        """Drain all buffered events (end of stream), in order."""
        return zip(*(column.tolist() for column in self._drain()))

    @property
    def buffered(self) -> int:
        return self._held[0].size

    def next_held(self, at: int, default: int) -> int:
        """The smallest carried timestamp at or after ``at`` (``default``
        when there is none)."""
        ts = self._held[0]
        index = int(np.searchsorted(ts, at, side="left"))
        return int(ts[index]) if index < ts.size else default


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

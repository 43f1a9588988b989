"""The per-event test oracle of the reorder buffer: the heap it is
defined by.

:class:`OracleReorderBuffer` is the bounded-lateness reorder buffer
written event by event, the way its rule reads: drop an event more
than ``max_lateness`` behind the largest timestamp seen so far, else
push it on a ``(ts, arrival seq)`` min-heap, and pop everything now
below the watermark ``max_seen - max_lateness``.  The columnar
:meth:`~repro.engine.outoforder.ReorderBuffer.push_batch` is the same
function of a whole block; ``tests/engine/test_outoforder.py`` holds it
to this class piece by piece — releases, watermark, held count and
every counter.

Importable from every test directory (``tests/conftest.py`` puts this
directory on the path).
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.engine.outoforder import ReorderStats
from repro.errors import ExecutionError

Event = tuple[int, int, float]  # (timestamp, key, value)


class OracleReorderBuffer:
    """The reorder buffer, one heap operation per event."""

    def __init__(self, max_lateness: int):
        if max_lateness < 0:
            raise ExecutionError(
                f"max_lateness must be >= 0, got {max_lateness}"
            )
        self.max_lateness = max_lateness
        self.stats = ReorderStats()
        self._max_seen = -1
        self._heap: list[tuple[int, int, int, float]] = []
        self._sequence = 0  # tie-break: same-timestamp arrival order

    @property
    def watermark(self) -> int:
        """Timestamps strictly below this are final."""
        return self._max_seen - self.max_lateness

    def push(self, ts: int, key: int, value: float) -> Iterator[Event]:
        """Accept one event; yield every event the new watermark has
        passed, in ``(ts, arrival)`` order."""
        if ts < 0:
            raise ExecutionError(f"timestamps must be >= 0, got {ts}")
        watermark = self.watermark
        if ts < watermark:
            self.stats.note_late(1, watermark - ts)
            return
        self.stats.accepted += 1
        heapq.heappush(self._heap, (ts, self._sequence, key, value))
        self._sequence += 1
        self._max_seen = max(self._max_seen, ts)
        while self._heap and self._heap[0][0] < self.watermark:
            out_ts, _, out_key, out_value = heapq.heappop(self._heap)
            yield (out_ts, out_key, out_value)

    def flush(self) -> Iterator[Event]:
        """Drain all held events (end of stream), in order."""
        while self._heap:
            ts, _, key, value = heapq.heappop(self._heap)
            yield (ts, key, value)

    @property
    def buffered(self) -> int:
        return len(self._heap)

"""Result routing: subscriptions and their emitted-result snapshots.

A session routes every finalized operator block to the
:class:`Subscription` of each (query, window) pair reading that
operator: it buffers finalized ``(num_keys, span)`` blocks, and its
:class:`WindowResults` snapshot is what
:meth:`~repro.runtime.QuerySession.results` returns.  A global-scope
query is a per-key query on a one-key core (DESIGN.md §7), so this one
read path serves both scopes.

Emitted blocks must abut the subscription's frontier (instances that
predate it are skipped — the invariant-9 carve-out), so a gap or
duplicate is an error, never a silently wrong result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.multiquery import GroupKey
from ..errors import ExecutionError
from ..windows.window import Window


@dataclass
class PlanSwitchRecord:
    """One applied generation switch (register/deregister/rate)."""

    generation: int
    reason: str
    key: GroupKey
    watermark: int
    seconds: float
    adopted: int
    fresh: int
    draining: int
    rate: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"gen {self.generation} [{self.reason}] {self.key[0]} "
            f"@wm={self.watermark}: {self.adopted} adopted, "
            f"{self.fresh} fresh, {self.draining} draining "
            f"({self.seconds * 1e3:.2f} ms)"
        )


@dataclass
class WindowResults:
    """Everything one (query, window) subscription has received.

    ``values[:, i]`` is instance ``start_instance + i``; instances
    before ``start_instance`` predate the subscription (or the
    window's activation) and were never owned by the session — the
    invariant-9 carve-out.
    """

    query: str
    window: Window
    start_instance: int
    frontier: int
    values: np.ndarray  # (num_keys, frontier - start_instance)

    def value(self, key: int, instance: int) -> float:
        if not self.start_instance <= instance < self.frontier:
            raise ExecutionError(
                f"instance {instance} outside emitted range "
                f"[{self.start_instance}, {self.frontier})"
            )
        return float(self.values[key, instance - self.start_instance])


class Subscription:
    """Routes one (query, requested window)'s emitted result blocks.

    Row ``i`` of every buffered block belongs to global key
    ``key_ids[i]``.  When the owning core's key set changes at a
    migration barrier, :meth:`rekey` *seals* the blocks buffered so far
    as a segment ``(key_ids, first instance, blocks)`` and opens a new
    one — O(1), no block is touched: the instances are closed, so the
    rows stay where they are (DESIGN.md §12) and a sharding coordinator
    places them by label.  A subscription that is never rekeyed (every
    :class:`~repro.runtime.QuerySession`) holds one open segment.
    """

    def __init__(
        self, query: str, window: Window, start: int, key_ids: np.ndarray
    ):
        self.query = query
        self.window = window
        self.start = start
        self.frontier = start
        self.key_ids = key_ids
        self._blocks: list[np.ndarray] = []
        self._sealed: "list[tuple[np.ndarray, int, list[np.ndarray]]]" = []

    def accept(self, m0: int, m1: int, block: np.ndarray) -> None:
        if m1 <= self.frontier:
            return  # instances that predate this subscription
        if m0 < self.frontier:
            block = block[:, self.frontier - m0:]
            m0 = self.frontier
        if m0 != self.frontier:
            raise ExecutionError(
                f"{self.query}/{self.window}: emission gap — got block "
                f"[{m0}, {m1}) at frontier {self.frontier}"
            )
        self._blocks.append(block)
        self.frontier = m1

    def snapshot(self) -> WindowResults:
        """The open segment's rows, right-aligned at the frontier —
        the whole emitted range unless :meth:`sealed` holds the rest."""
        if self._blocks:
            values = np.concatenate(self._blocks, axis=1)
        else:
            values = np.empty((self.key_ids.size, 0), dtype=np.float64)
        return WindowResults(
            query=self.query,
            window=self.window,
            start_instance=self.start,
            frontier=self.frontier,
            values=values,
        )

    def sealed(self) -> "list[tuple[np.ndarray, int, np.ndarray]]":
        """The segments closed off by earlier barriers, as ``(key_ids,
        first instance, values)``."""
        return [
            (key_ids, lo, np.concatenate(blocks, axis=1))
            for key_ids, lo, blocks in self._sealed
        ]

    def drain(self) -> WindowResults:
        """Hand over the open segment and release everything buffered
        (callers needing :meth:`sealed` read it first) — the
        bounded-memory read path for unbounded sessions."""
        snapshot = self.snapshot()
        self._blocks = []
        self._sealed = []
        self.start = self.frontier
        return snapshot

    @property
    def emitted_instances(self) -> int:
        """Instances currently buffered (retention accounting)."""
        return self.frontier - self.start

    # ------------------------------------------------------------------
    # Elastic-shard protocol (DESIGN.md §12): closed rows never move.
    # ------------------------------------------------------------------
    def rekey(self, key_ids: np.ndarray) -> None:
        """Seal the open segment under its current labels; rows emitted
        from here on belong to ``key_ids``."""
        if self._blocks:
            width = sum(block.shape[1] for block in self._blocks)
            self._sealed.append(
                (self.key_ids, self.frontier - width, self._blocks)
            )
            self._blocks = []
        self.key_ids = key_ids

    def extract_remnant(self) -> list:
        """A retiring (keyless) core's sealed segments: addressed by
        global key id, so any surviving core can hold them."""
        return self._sealed

    def absorb_remnant(self, sealed: list) -> None:
        self._sealed.extend(sealed)

"""Result routing: subscriptions and their emitted-result snapshots.

A session routes every finalized operator block to the subscriptions
of the (query, window) pairs reading that operator.  Two subscription
kinds exist:

* :class:`Subscription` — the per-key read path: buffers finalized
  ``(num_keys, span)`` blocks; its :class:`WindowResults` snapshot is
  what :meth:`~repro.runtime.QuerySession.results` returns.
* :class:`PartialSubscription` — the cross-key *partial* read path of
  the sharded runtime (DESIGN.md §7): buffers pre-finalize aggregate
  components reduced over the session's local keys, so a coordinator
  can ``combine`` the partials of disjoint key shards and finalize
  once.  Only mergeable aggregates have a partial form.

Both enforce the same contiguity contract: emitted blocks must abut
the subscription's frontier (instances that predate it are skipped —
the invariant-9 carve-out), so a gap or duplicate is an error, never a
silently wrong result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..aggregates.base import AggregateFunction
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


@dataclass
class PartialResults:
    """One session's cross-key *partial* emission for a (query, window).

    ``components[c][i]`` is component ``c`` of instance
    ``start_instance + i``, already reduced over the emitting session's
    local keys.  Partials from disjoint key shards merge with the
    aggregate's vectorized ``combine``; ``aggregate`` names the
    function (resolvable via the registry) so a coordinator can merge
    without extra bookkeeping.
    """

    query: str
    window: Window
    start_instance: int
    frontier: int
    aggregate: str
    components: tuple  # per-component (frontier - start_instance,) arrays


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


class PartialSubscription:
    """Routes one (query, window)'s pre-finalize component blocks.

    Components arrive as per-key ``(num_keys, span)`` arrays from the
    operator's partial sink and are reduced over the key axis *at
    accept time*, so the retained state per instance is one scalar per
    component regardless of the key count.
    """

    def __init__(
        self,
        query: str,
        window: Window,
        start: int,
        aggregate: AggregateFunction,
    ):
        if not aggregate.mergeable:
            raise ExecutionError(
                f"{aggregate.name} is holistic: it has no partial form "
                "to subscribe to — use raw forwarding instead"
            )
        self.query = query
        self.window = window
        self.start = start
        self.frontier = start
        self.aggregate = aggregate
        self._blocks: list[tuple] = []

    def accept(self, m0: int, m1: int, components: tuple) -> None:
        if m1 <= self.frontier:
            return
        if m0 < self.frontier:
            skip = self.frontier - m0
            components = tuple(
                np.asarray(part)[:, skip:] for part in components
            )
            m0 = self.frontier
        if m0 != self.frontier:
            raise ExecutionError(
                f"{self.query}/{self.window}: partial emission gap — got "
                f"block [{m0}, {m1}) at frontier {self.frontier}"
            )
        self._blocks.append(
            tuple(
                ufunc.reduce(
                    np.asarray(part, dtype=np.float64), axis=0
                )
                for ufunc, part in zip(
                    self.aggregate.component_ufuncs, components
                )
            )
        )
        self.frontier = m1

    def _components(self) -> tuple:
        n = self.aggregate.num_components
        if self._blocks:
            return tuple(
                np.concatenate([block[i] for block in self._blocks])
                for i in range(n)
            )
        return tuple(np.empty(0, dtype=np.float64) for _ in range(n))

    def snapshot(self) -> PartialResults:
        return PartialResults(
            query=self.query,
            window=self.window,
            start_instance=self.start,
            frontier=self.frontier,
            aggregate=self.aggregate.name,
            components=self._components(),
        )

    def drain(self) -> PartialResults:
        snapshot = self.snapshot()
        self._blocks = []
        self.start = self.frontier
        return snapshot

    @property
    def emitted_instances(self) -> int:
        return self.frontier - self.start

    # ------------------------------------------------------------------
    # Elastic-shard protocol (DESIGN.md §12).  Partials are already
    # reduced over local keys, so a key *move* ships nothing: closed
    # instances keep their contributions on the emitting core and every
    # instance still counts each key exactly once.  Only shard
    # retirement folds state — the remnant combine below — and a
    # spawned sibling must first neutralize its inherited blocks.
    # ------------------------------------------------------------------
    def neutralize(self) -> None:
        """Replace every buffered block with identity components,
        keeping the spans (a fresh sibling core contributed nothing to
        the instances already emitted)."""
        identity = self.aggregate.identity_components
        self._blocks = [
            tuple(
                np.full(part.shape, ident, dtype=np.float64)
                for part, ident in zip(block, identity)
            )
            for block in self._blocks
        ]

    def extract_remnant(self) -> dict:
        """Export buffered blocks for folding into a surviving core."""
        return {
            "start": self.start,
            "frontier": self.frontier,
            "blocks": self._blocks,
        }

    def absorb_remnant(self, state: dict) -> None:
        """Elementwise-combine a retiring core's blocks into ours."""
        if (
            state["start"] != self.start
            or state["frontier"] != self.frontier
            or len(state["blocks"]) != len(self._blocks)
        ):
            raise ExecutionError(
                f"{self.query}/{self.window}: partial block structure "
                "mismatch on remnant absorb"
            )
        self._blocks = [
            self.aggregate.combine(mine, theirs)
            for mine, theirs in zip(self._blocks, state["blocks"])
        ]


def finalize_partials(
    aggregate: AggregateFunction, parts: "list[PartialResults]"
) -> WindowResults:
    """Merge per-shard partials into one finalized global result row.

    The vectorized coordinator merge of DESIGN.md §7: one
    ``combine`` per shard over whole instance arrays, one ``finalize``
    at the end.  All parts must cover the same instance range (the
    coordinator advances every shard to the same watermark).
    """
    if not parts:
        raise ExecutionError("cannot finalize zero partial results")
    first = parts[0]
    for part in parts[1:]:
        if (
            part.start_instance != first.start_instance
            or part.frontier != first.frontier
        ):
            raise ExecutionError(
                f"{first.query}/{first.window}: shard partial ranges "
                f"disagree — [{first.start_instance}, {first.frontier}) "
                f"vs [{part.start_instance}, {part.frontier})"
            )
    combined = first.components
    for part in parts[1:]:
        combined = aggregate.combine(combined, part.components)
    values = np.asarray(
        aggregate.finalize(combined), dtype=np.float64
    ).reshape(1, -1)
    return WindowResults(
        query=first.query,
        window=first.window,
        start_instance=first.start_instance,
        frontier=first.frontier,
        values=values,
    )

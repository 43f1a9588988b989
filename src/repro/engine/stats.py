"""Execution statistics: logical pair counters, physical touches, throughput.

The paper's cost model counts *inputs processed* (events for raw reads,
sub-aggregates otherwise).  Every engine maintains exactly that counter
per window — the **logical** pair count — which lets tests equate
measured work with the analytic cost model (DESIGN.md invariant 6) and
lets benchmarks report a deterministic, hardware-independent work
metric next to wall-clock throughput.

Fast execution paths (the pane-partitioned columnar path, the chunked
streaming executor) do strictly less work than the logical count: they
bin each event into one pane and assemble instances from pane partials.
Those paths additionally report **physical** touches — what the
hardware actually did — split into per-window assembly work
(``physical_per_window``) and the shared event-binning passes
(``events_binned``).  The logical counters stay identical across all
paths (DESIGN.md invariant 5/6); the physical counters are the quantity
the engine ablations optimize (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..windows.window import Window


@dataclass
class ExecutionStats:
    """Counters collected while executing one plan on one stream.

    ``pairs_per_window`` is the *logical* count the cost model prices;
    ``physical_per_window`` is the per-window work the execution path
    actually performed (pane/sub-aggregate assembly, raw scans);
    ``events_binned`` counts events routed through shared pane tables
    (charged once per table, not per window, because the binning pass
    is shared by every window reading from that table).
    """

    events: int = 0
    wall_seconds: float = 0.0
    pairs_per_window: dict[Window, int] = field(default_factory=dict)
    physical_per_window: dict[Window, int] = field(default_factory=dict)
    events_binned: int = 0
    bytes_copied: int = 0
    copies_elided: int = 0
    #: Decayed per-shard load report ``{shard: {"events", "bytes",
    #: "slots", "keys"}}`` — attached by the sharded coordinator only
    #: (``None`` on single-core stats; excluded from :meth:`merge`, as
    #: it describes a layout, not additive work).
    shard_loads: "dict[int, dict[str, float]] | None" = None

    def record_pairs(
        self, window: Window, pairs: int, physical: "int | None" = None
    ) -> None:
        """Record ``pairs`` logical inputs processed for ``window``.

        ``physical`` overrides the physical-touch count for paths that
        do less (or different) actual work; by default physical work
        mirrors the logical count (the naive paths touch exactly the
        pairs the cost model prices).
        """
        self.pairs_per_window[window] = (
            self.pairs_per_window.get(window, 0) + pairs
        )
        self.record_physical(window, pairs if physical is None else physical)

    def record_physical(self, window: Window, touches: int) -> None:
        """Record per-window physical touches without logical pairs."""
        if touches:
            self.physical_per_window[window] = (
                self.physical_per_window.get(window, 0) + touches
            )

    def record_binned(self, events: int) -> None:
        """Record one shared pane-table binning pass over ``events``."""
        self.events_binned += events

    @property
    def total_pairs(self) -> int:
        """Total logical inputs processed across all window operators."""
        return sum(self.pairs_per_window.values())

    @property
    def total_physical(self) -> int:
        """Total physical touches: per-window assembly + shared binning."""
        return sum(self.physical_per_window.values()) + self.events_binned

    @property
    def physical_fraction(self) -> float:
        """Physical / logical work ratio (< 1 on the fast paths)."""
        logical = self.total_pairs
        if logical == 0:
            return 1.0
        return self.total_physical / logical

    @property
    def throughput(self) -> float:
        """Events per second of wall-clock time."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.events / self.wall_seconds

    def merge(self, other: "ExecutionStats") -> None:
        self.events += other.events
        self.wall_seconds += other.wall_seconds
        self.events_binned += other.events_binned
        self.bytes_copied += other.bytes_copied
        self.copies_elided += other.copies_elided
        for window, pairs in other.pairs_per_window.items():
            self.pairs_per_window[window] = (
                self.pairs_per_window.get(window, 0) + pairs
            )
        for window, touches in other.physical_per_window.items():
            self.physical_per_window[window] = (
                self.physical_per_window.get(window, 0) + touches
            )

"""The Window Coverage Graph (WCG) — Section II-C and IV-A.

Nodes are windows; a directed edge ``(provider, consumer)`` exists when
``consumer <= provider`` under the chosen coverage semantics, i.e. the
consumer may be computed by aggregating the provider's sub-aggregates.

The *augmented* WCG additionally contains the virtual tumbling root
``S⟨1, 1⟩``, with an edge to every window that has no other provider.
``S`` stands for the raw input stream itself: it is never materialized
and its cost is never charged to a plan (see DESIGN.md §3).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable

from ..errors import InvalidWindowError
from ..windows.coverage import CoverageSemantics, strictly_relates
from ..windows.window import VIRTUAL_ROOT, Window, WindowSet


def _position(neighbours: list[Window], window: Window) -> tuple[int, bool]:
    """Where ``window`` sits (or belongs) in a sorted adjacency list."""
    index = bisect_left(neighbours, window)
    return index, index < len(neighbours) and neighbours[index] == window


def _link(neighbours: list[Window], window: Window) -> None:
    index, present = _position(neighbours, window)
    if not present:
        neighbours.insert(index, window)


def _unlink(neighbours: list[Window], window: Window) -> None:
    index, present = _position(neighbours, window)
    if present:
        del neighbours[index]


@dataclass
class WindowCoverageGraph:
    """A mutable WCG with user, factor, and virtual-root nodes.

    Attributes
    ----------
    semantics:
        Which coverage relation edges encode.
    _consumers / _providers:
        Forward and reverse adjacency (provider → consumers and
        consumer → providers), each list kept sorted by
        ``(range, slide)`` so the deterministic traversals every
        algorithm relies on never sort.
    _factors:
        The subset of nodes that are factor windows (Definition 6) —
        auxiliary windows whose results are not exposed to the user.
    """

    semantics: CoverageSemantics
    _consumers: dict[Window, list[Window]] = field(default_factory=dict)
    _providers: dict[Window, list[Window]] = field(default_factory=dict)
    _factors: set[Window] = field(default_factory=set)
    _order: list[Window] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        windows: "WindowSet | Iterable[Window]",
        semantics: CoverageSemantics,
        factors: Iterable[Window] = (),
        augment: bool = True,
    ) -> "WindowCoverageGraph":
        """Construct the WCG for ``windows`` (O(n²), Section II-C).

        ``factors`` are added as factor nodes participating in edges
        exactly like user windows.  With ``augment=True`` the virtual
        root ``S`` is added per Section IV-A.
        """
        graph = cls(semantics=semantics)
        for window in windows:
            graph.add_node(window)
        for factor in factors:
            graph.add_node(factor, is_factor=True)
        graph._rebuild_edges()
        if augment:
            graph.augment()
        return graph

    def add_node(self, window: Window, is_factor: bool = False) -> None:
        """Add a node without edges; duplicates are rejected."""
        if window in self._consumers:
            raise InvalidWindowError(f"{window} already in WCG")
        self._consumers[window] = []
        self._providers[window] = []
        self._order.append(window)
        if is_factor:
            self._factors.add(window)

    def add_edge(self, provider: Window, consumer: Window) -> None:
        """Add edge ``(provider, consumer)``; both nodes must exist."""
        if provider not in self._consumers or consumer not in self._consumers:
            raise InvalidWindowError("edge endpoints must be WCG nodes")
        _link(self._consumers[provider], consumer)
        _link(self._providers[consumer], provider)

    def remove_edge(self, provider: Window, consumer: Window) -> None:
        _unlink(self._consumers[provider], consumer)
        _unlink(self._providers[consumer], provider)

    def _rebuild_edges(self) -> None:
        """Recompute all coverage edges among current nodes."""
        for window in self._order:
            self._consumers[window].clear()
            self._providers[window].clear()
        # Visiting both ends in sorted order appends every adjacency
        # list already sorted.
        ordered = sorted(w for w in self._order if w is not VIRTUAL_ROOT)
        for consumer in ordered:
            for provider in ordered:
                if strictly_relates(consumer, provider, self.semantics):
                    self._consumers[provider].append(consumer)
                    self._providers[consumer].append(provider)

    def augment(self) -> None:
        """Add the virtual root ``S⟨1,1⟩`` (Section IV-A).

        ``S`` gains an edge to every window currently lacking a
        provider.  If a user window equal to ``S`` already exists it
        plays the root's role and nothing is added.
        """
        if VIRTUAL_ROOT in self._consumers:
            return
        orphans = [w for w in self._order if not self._providers[w]]
        self.add_node(VIRTUAL_ROOT)
        for window in orphans:
            self.add_edge(VIRTUAL_ROOT, window)

    def insert_factor(self, factor: Window) -> None:
        """Insert ``factor`` and connect it with full coverage edges.

        This is a superset of the Figure-9 edge set (provider → factor →
        downstream): we connect the factor to *every* related node, so
        the subsequent cost minimization can only do better.  The
        virtual root connects to the factor when nothing else covers it.
        """
        self.add_node(factor, is_factor=True)
        has_provider = False
        for other in self._order:
            if other is factor or other is VIRTUAL_ROOT:
                continue
            if strictly_relates(factor, other, self.semantics):
                self.add_edge(other, factor)
                has_provider = True
            if strictly_relates(other, factor, self.semantics):
                self.add_edge(factor, other)
        if not has_provider and VIRTUAL_ROOT in self._consumers:
            self.add_edge(VIRTUAL_ROOT, factor)

    def remove_node(self, window: Window) -> None:
        """Remove ``window`` and all incident edges."""
        for consumer in list(self._consumers[window]):
            self.remove_edge(window, consumer)
        for provider in list(self._providers[window]):
            self.remove_edge(provider, window)
        del self._consumers[window]
        del self._providers[window]
        self._order.remove(window)
        self._factors.discard(window)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[Window, ...]:
        """All nodes in insertion order (root and factors included)."""
        return tuple(self._order)

    @property
    def user_windows(self) -> tuple[Window, ...]:
        """Nodes that are neither factor windows nor the virtual root."""
        return tuple(
            w for w in self._order
            if w not in self._factors and w is not VIRTUAL_ROOT
        )

    @property
    def factor_windows(self) -> tuple[Window, ...]:
        return tuple(w for w in self._order if w in self._factors)

    @property
    def edges(self) -> tuple[tuple[Window, Window], ...]:
        """All edges as ``(provider, consumer)`` pairs, deterministic."""
        result = []
        for provider in self._order:
            for consumer in self._consumers[provider]:
                result.append((provider, consumer))
        return tuple(result)

    def is_factor(self, window: Window) -> bool:
        return window in self._factors

    def has_node(self, window: Window) -> bool:
        return window in self._consumers

    def has_edge(self, provider: Window, consumer: Window) -> bool:
        return _position(self._consumers.get(provider, []), consumer)[1]

    def consumers_of(self, window: Window) -> tuple[Window, ...]:
        """Downstream windows of ``window`` (its out-neighbours)."""
        return tuple(self._consumers[window])

    def providers_of(self, window: Window) -> tuple[Window, ...]:
        """Windows that can feed ``window`` (its in-neighbours)."""
        return tuple(self._providers[window])

    def out_degree(self, window: Window) -> int:
        return len(self._consumers[window])

    def in_degree(self, window: Window) -> int:
        return len(self._providers[window])

    def is_forest(self) -> bool:
        """Theorem 7 check: every node has at most one provider."""
        return all(len(p) <= 1 for p in self._providers.values())

    def copy(self) -> "WindowCoverageGraph":
        clone = WindowCoverageGraph(semantics=self.semantics)
        clone._order = list(self._order)
        clone._factors = set(self._factors)
        clone._consumers = {w: list(c) for w, c in self._consumers.items()}
        clone._providers = {w: list(p) for w, p in self._providers.items()}
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        edges = ", ".join(f"{p.label}->{c.label}" for p, c in self.edges)
        return f"WCG({self.semantics}; {len(self._order)} nodes; {edges})"

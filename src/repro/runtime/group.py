"""Per-(aggregate, semantics) group operator runtime.

One :class:`GroupRuntime` owns the chunked operators of one shared
plan across generations: the current generation's operators, any
still-draining displaced operators, the providers-first advance order
spanning both, and the routing of finalized blocks to
:class:`~repro.runtime.results.Subscription` objects.
"""

from __future__ import annotations

import numpy as np

from ..core.multiquery import GroupKey
from ..engine.stats import ExecutionStats
from ..engine.streaming import (
    _ChunkedHolisticOperator,
    _ChunkedOperator,
    _ChunkedRawOperator,
    _ChunkedSubAggOperator,
)
from ..errors import ExecutionError
from ..plans.nodes import LogicalPlan
from ..windows.window import Window
from .results import Subscription


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class GroupRuntime:
    """Operators of one (aggregate, semantics) group, across generations."""

    def __init__(self, key: GroupKey, core):
        self.key = key
        self.core = core
        self.stats = ExecutionStats()
        self.ops: dict[Window, _ChunkedOperator] = {}
        self.draining: list[_ChunkedOperator] = []
        self.advance_order: list[_ChunkedOperator] = []
        self.absorbers: list[_ChunkedOperator] = []
        self.subs_by_window: dict[Window, list[Subscription]] = {}

    # ------------------------------------------------------------------
    # Emission sink: operator blocks → subscriptions
    # ------------------------------------------------------------------
    def sink(self, window: Window, m0: int, m1: int, block: np.ndarray) -> None:
        for sub in self.subs_by_window.get(window, ()):
            sub.accept(m0, m1, block)

    # ------------------------------------------------------------------
    # Generation switch
    # ------------------------------------------------------------------
    def rebuild(self, plan: LogicalPlan, watermark: int) -> tuple[int, int, int]:
        """Install ``plan`` as the new generation at ``watermark``.

        Returns ``(adopted, fresh, draining)`` operator counts.
        """
        core = self.core
        old_gen = self.ops
        # A dropped window's operator may still be draining for an old
        # consumer when the window comes back.  It is then the
        # predecessor its replacement takes over from, like any
        # displaced operator — left dropped, it and the replacement
        # would both feed the window's new, uncapped consumers.
        dropped = {
            op.window: op
            for op in self.draining
            if getattr(op, "_dropped", False)
        }
        new_ops: dict[Window, _ChunkedOperator] = {}
        adopted: set[Window] = set()
        for node in plan.topological_window_order():
            window, aggregate, provider = (
                node.window,
                node.aggregate,
                node.provider,
            )
            if provider is None:
                cls = (
                    _ChunkedRawOperator
                    if aggregate.mergeable
                    else _ChunkedHolisticOperator
                )
            else:
                cls = _ChunkedSubAggOperator
            old = old_gen.get(window)
            compatible = (
                old is not None
                and type(old) is cls
                and getattr(old, "provider", None) == provider
                and old.aggregate.name == aggregate.name
            )
            if compatible:
                start = old.start_instance
            else:
                if old is None:
                    old = dropped.get(window)
                if provider is None:
                    # Raw readers: first instance starting at/after the
                    # switch watermark — all of its events are still in
                    # (or ahead of) the reorder buffer.
                    start = _ceil_div(watermark, window.slide)
                else:
                    # Sub-aggregate readers: first instance whose whole
                    # covering set the (possibly fresh) provider can
                    # still deliver.
                    provider_op = new_ops[provider]
                    stride = window.slide // provider.slide
                    start = _ceil_div(provider_op.next_close, stride)
                if old is not None:
                    # Seamless handover: the displaced operator drains
                    # everything below the fresh start.
                    start = max(start, old.next_close)
            args = (window, aggregate, core.num_keys, None, self.stats)
            kwargs = dict(
                start_instance=start,
                sink=None if node.is_factor else self.sink,
            )
            if provider is None:
                op = cls(*args, **kwargs)
            else:
                op = cls(provider, *args, **kwargs)
            op.gen_seq = core._next_seq()
            if compatible:
                op.adopt(old.handoff())
                adopted.add(window)
            new_ops[window] = op

        # Displaced operators drain; dropped providers are retained
        # (and capped) only while a draining consumer still needs them.
        fresh_draining: list[_ChunkedOperator] = []
        for window, old in old_gen.items():
            if window in adopted:
                continue
            replacement = new_ops.get(window)
            if replacement is not None:
                old.cap_instances(replacement.start_instance)
            else:
                old._dropped = True
            if replacement is None or not old.drained:
                fresh_draining.append(old)
        for window, old in dropped.items():
            replacement = new_ops.get(window)
            if replacement is not None:
                old._dropped = False
                old.cap_instances(replacement.start_instance)
        self.draining = [
            op for op in self.draining if not op.drained
        ] + fresh_draining
        self.ops = new_ops
        self._rewire()
        self.cleanup()
        return (
            len(adopted),
            len(new_ops) - len(adopted),
            len(self.draining),
        )

    def _rewire(self) -> None:
        """Rebuild consumer edges and the advance order across the
        current generation and every still-draining operator."""
        live = self.draining + list(self.ops.values())
        live.sort(key=lambda op: op.gen_seq)
        for op in live:
            op.consumers = []
        by_window: dict[Window, list[_ChunkedOperator]] = {}
        for op in live:
            by_window.setdefault(op.window, []).append(op)
        for op in live:
            provider = getattr(op, "provider", None)
            if provider is None:
                continue
            sources = by_window.get(provider)
            if not sources:
                raise ExecutionError(
                    f"{op.window} reads from {provider}, which has no "
                    "live operator"
                )
            # A capped consumer is not wired to a generation that
            # starts past its last covering set: after a dropped window
            # comes back, the instances between the old operator's cap
            # and the fresh start belong to nobody, and a block from
            # beyond that gap would not be contiguous.
            needed = _needed_from_provider(op)
            for source in sources:
                if needed is None or source.start_instance < needed:
                    source.consumers.append(op)
        self.advance_order = _toposort(live, by_window)
        # Dropped providers stay only as long as a draining consumer
        # still needs their instances; reverse topological order
        # resolves consumer caps before provider caps along chains.
        for op in reversed(self.advance_order):
            if getattr(op, "_dropped", False):
                needed = op.next_close
                for consumer in op.consumers:
                    if consumer.num_instances is None:
                        raise ExecutionError(
                            f"uncapped operator {consumer.window} reads "
                            f"from dropped window {op.window}"
                        )
                    needed = max(needed, _needed_from_provider(consumer))
                op.cap_instances(needed)
        self.absorbers = [
            op
            for op in self.advance_order
            if isinstance(op, (_ChunkedRawOperator, _ChunkedHolisticOperator))
        ]

    def cleanup(self) -> None:
        """Retire drained operators and detach them everywhere."""
        dead = {id(op) for op in self.draining if op.drained}
        if not dead:
            return
        self.draining = [op for op in self.draining if id(op) not in dead]
        self.advance_order = [
            op for op in self.advance_order if id(op) not in dead
        ]
        for op in self.advance_order:
            if op.consumers:
                op.consumers = [
                    c for c in op.consumers if id(c) not in dead
                ]
        self.absorbers = [
            op for op in self.absorbers if id(op) not in dead
        ]

    # ------------------------------------------------------------------
    # Steady-state processing
    # ------------------------------------------------------------------
    def absorb(
        self, ts: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> None:
        self.stats.events += int(ts.size)
        for op in self.absorbers:
            op.absorb(ts, keys, values)

    def advance(self, watermark: int) -> None:
        for op in self.advance_order:
            op.advance(watermark)
        if self.draining:
            self.cleanup()

    def max_retained_state(self) -> int:
        if not self.advance_order:
            return 0
        return max(op.max_retained for op in self.advance_order)


def _needed_from_provider(op: _ChunkedSubAggOperator) -> "int | None":
    """Exclusive bound of the provider instances a sub-aggregate reader
    still consumes: the end of its last owned instance's covering set,
    ``None`` while it runs uncapped."""
    if op.num_instances is None:
        return None
    return (op.num_instances - 1) * op.stride + op.multiplier


def _toposort(
    live: "list[_ChunkedOperator]",
    by_window: "dict[Window, list[_ChunkedOperator]]",
) -> "list[_ChunkedOperator]":
    """Order operators providers-first; generations of the same window
    stay in age order (an old operator's closes must reach a shared
    consumer before its replacement's)."""
    edges: dict[int, list[_ChunkedOperator]] = {}
    indegree: dict[int, int] = {id(op): 0 for op in live}

    def add_edge(src: _ChunkedOperator, dst: _ChunkedOperator) -> None:
        edges.setdefault(id(src), []).append(dst)
        indegree[id(dst)] += 1

    for op in live:
        for consumer in op.consumers:
            add_edge(op, consumer)
    for chain in by_window.values():
        for older, newer in zip(chain, chain[1:]):
            add_edge(older, newer)

    ready = sorted(
        (op for op in live if indegree[id(op)] == 0),
        key=lambda op: op.gen_seq,
    )
    order: list[_ChunkedOperator] = []
    while ready:
        op = ready.pop(0)
        order.append(op)
        woke = []
        for consumer in edges.get(id(op), ()):
            indegree[id(consumer)] -= 1
            if indegree[id(consumer)] == 0:
                woke.append(consumer)
        if woke:
            ready.extend(woke)
            ready.sort(key=lambda o: o.gen_seq)
    if len(order) != len(live):
        raise ExecutionError("cycle in operator graph across generations")
    return order

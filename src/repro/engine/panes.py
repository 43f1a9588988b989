"""Pane-partitioned physical execution — the columnar fast path.

:func:`~repro.engine.columnar.aggregate_raw` routes every event to all
``k = r/s`` covering instances, materializing ``N * k`` (event,
instance) pairs.  That matches the cost model's *logical* work but is
physically wasteful: within one window, consecutive instances share
almost all of their events.  This module exploits the classic
pane/slice decomposition (Li et al., "No pane, no gain"; the paper's
Scotty baseline slices the same way): with pane width
``p = gcd(r, s)``, every instance interval is a disjoint union of
``r/p`` panes, so it suffices to

1. **bin** each event once into a per-(key, pane) partial table —
   ``O(N)`` pair touches in one indexed scatter (no sort: see
   ``AggregateFunction.segment_reduce``), shared by every window with
   the same pane width and aggregate; then
2. **assemble** each instance by folding its ``r/p`` consecutive panes
   where they lie (``fold_covering_sets``) — ``num_keys * n_instances
   * (r/p)`` touches.

Total physical work is ``N + Σ_w num_keys * n_w * (r_w/p_w)`` instead
of ``Σ_w N * k_w`` — the engine scales with panes, not with ``k``.
Soundness needs only that panes *partition* each instance exactly
(``p | s`` and ``p | r``), so it holds for every mergeable aggregate,
including the partitioned-by-only ones (SUM/COUNT/AVG/...): sharing a
pane table across windows never merges overlapping inputs because each
window's fold reads disjoint panes.

The *logical* pair counters are still reported exactly as the naive
paths count them (DESIGN.md invariant 6); the binning/assembly work is
reported separately as *physical* touches (DESIGN.md §5).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..aggregates.base import AggregateFunction
from ..errors import ExecutionError
from ..plans.nodes import LogicalPlan
from ..windows.window import Window
from .columnar import (
    WindowState,
    aggregate_from_provider,
    aggregate_raw_holistic,
    fold_covering_sets,
    num_complete_instances,
)
from .events import EventBatch
from .stats import ExecutionStats


def pane_width(window: Window) -> int:
    """``p = gcd(r, s)`` — the widest pane that tiles every instance."""
    return math.gcd(window.range, window.slide)


def logical_raw_pairs(
    timestamps: np.ndarray,
    window: Window,
    num_instances: "int | None",
    start_instance: int = 0,
) -> int:
    """(event, instance) pairs :func:`aggregate_raw` would materialize.

    ``timestamps`` must be non-decreasing (an :class:`EventBatch`
    column or a reorder-released chunk — every caller's input already
    is).  Instance ``m`` holds the events in ``[m*s, m*s + r)``, so the
    count is ``Σ_m searchsorted(ts, m*s + r) - searchsorted(ts, m*s)``
    over the owned instances ``[start_instance, num_instances)`` that
    any event can reach: O(instances * log N), no per-event array.
    ``num_instances=None`` means unbounded above (live operators), and
    ``start_instance`` clips below (operators activated mid-stream own
    no instance before their aligned start).
    """
    if timestamps.size == 0:
        return 0
    r, s = window.range, window.slide
    first = max(start_instance, (int(timestamps[0]) - r) // s + 1)
    stop = int(timestamps[-1]) // s + 1
    if num_instances is not None:
        stop = min(stop, num_instances)
    if stop <= first:
        return 0
    opens = s * np.arange(first, stop, dtype=np.int64)
    held = np.searchsorted(timestamps, opens + r) - np.searchsorted(
        timestamps, opens
    )
    return int(held.sum())


@dataclass
class PaneTable:
    """Per-(key, pane) partial aggregates of one event batch.

    ``components[c][key, pane]`` is component ``c`` of the partial over
    pane interval ``[pane * width, (pane + 1) * width)``.  One table is
    shared by every raw-reading window with the same pane width and
    aggregate.
    """

    width: int
    components: tuple[np.ndarray, ...]
    num_keys: int
    num_panes: int


def build_pane_table(
    batch: EventBatch,
    width: int,
    aggregate: AggregateFunction,
    stats: "ExecutionStats | None" = None,
) -> PaneTable:
    """Bin every event once into per-(key, pane) partials — O(N)."""
    num_panes = -(-batch.horizon // width)
    panes = batch.timestamps if width == 1 else batch.timestamps // width
    codes = batch.keys * num_panes + panes
    flat = aggregate.segment_reduce(
        codes, batch.values, batch.num_keys * num_panes
    )
    if stats is not None:
        stats.record_binned(batch.num_events)
    comps = tuple(c.reshape(batch.num_keys, num_panes) for c in flat)
    return PaneTable(width, comps, batch.num_keys, num_panes)


def assemble_from_panes(
    table: PaneTable,
    window: Window,
    aggregate: AggregateFunction,
    num_instances: int,
    stats: "ExecutionStats | None" = None,
    logical_pairs: "int | None" = None,
) -> WindowState:
    """Fold pane partials into per-instance partials.

    Instance ``m`` spans panes ``[m * s/p, m * s/p + r/p)``; the fold
    touches ``num_keys * num_instances * (r/p)`` pane partials.
    """
    if window.slide % table.width or window.range % table.width:
        raise ExecutionError(
            f"pane width {table.width} does not tile {window}"
        )
    stride = window.slide // table.width
    per_instance = window.range // table.width
    if num_instances == 0:
        comps = tuple(
            np.full((table.num_keys, 0), ident, dtype=np.float64)
            for ident in aggregate.identity_components
        )
        return WindowState(window, comps, table.num_keys, 0)
    if stats is not None:
        if logical_pairs is not None:
            stats.record_pairs(window, logical_pairs, physical=0)
        stats.record_physical(
            window, table.num_keys * num_instances * per_instance
        )
    comps = tuple(
        fold_covering_sets(ufunc, comp, 0, stride, per_instance, num_instances)
        for ufunc, comp in zip(aggregate.component_ufuncs, table.components)
    )
    return WindowState(window, comps, table.num_keys, num_instances)


def aggregate_raw_panes(
    batch: EventBatch,
    window: Window,
    aggregate: AggregateFunction,
    stats: "ExecutionStats | None" = None,
    table: "PaneTable | None" = None,
) -> WindowState:
    """Pane-partitioned drop-in for :func:`aggregate_raw`.

    Produces a bit-identical :class:`WindowState` and identical
    *logical* pair counts while touching ``N + num_keys * n_inst *
    (r/p)`` inputs instead of ``N * k``.  Pass ``table`` to reuse a
    shared pane table (its width must tile the window).
    """
    n_inst = num_complete_instances(window, batch.horizon)
    if n_inst == 0 or batch.num_events == 0:
        identities = aggregate.identity_components
        comps = tuple(
            np.full((batch.num_keys, n_inst), ident, dtype=np.float64)
            for ident in identities
        )
        return WindowState(window, comps, batch.num_keys, n_inst)
    if table is None:
        table = build_pane_table(batch, pane_width(window), aggregate, stats)
    logical = logical_raw_pairs(batch.timestamps, window, n_inst)
    return assemble_from_panes(
        table, window, aggregate, n_inst, stats, logical_pairs=logical
    )


def plan_pane_groups(
    plan: LogicalPlan,
) -> "dict[tuple[int, str], list[Window]]":
    """Group raw-reading mergeable windows by (pane width, aggregate).

    Windows in one group share a single pane table: the binning pass is
    paid once per group rather than once per window.
    """
    groups: dict[tuple[int, str], list[Window]] = {}
    for node in plan.window_nodes():
        if node.provider is None and node.aggregate.mergeable:
            key = (pane_width(node.window), node.aggregate.name)
            groups.setdefault(key, []).append(node.window)
    return groups


def execute_plan_panes(
    plan: LogicalPlan, batch: EventBatch, native: "bool | None" = None
) -> "tuple[dict[Window, np.ndarray], ExecutionStats]":
    """Execute ``plan`` on the pane-partitioned columnar path.

    Raw mergeable reads go through shared pane tables; provider reads
    use the same covering-set fold over provider partials; holistic reads
    fall back to the direct segmented evaluator.  Results and logical
    stats are identical to the plain columnar engine.

    ``native=True`` routes the holistic segment kernel through the
    compiled backend when available (the ``columnar-panes-native``
    engine path) — same bits, fewer cycles.  Pane binning is the same
    NumPy scatter either way.
    """
    stats = ExecutionStats(events=batch.num_events)
    started = time.perf_counter()
    tables: dict[tuple[int, str], PaneTable] = {}
    for (width, agg_name), group in plan_pane_groups(plan).items():
        node = plan.node_for(group[0])
        tables[(width, agg_name)] = build_pane_table(
            batch, width, node.aggregate, stats
        )

    states: dict[Window, WindowState] = {}
    results: dict[Window, np.ndarray] = {}
    for node in plan.topological_window_order():
        aggregate = node.aggregate
        if node.provider is None:
            if aggregate.mergeable:
                table = tables[(pane_width(node.window), aggregate.name)]
                state = aggregate_raw_panes(
                    batch, node.window, aggregate, stats, table=table
                )
                states[node.window] = state
                if not node.is_factor:
                    results[node.window] = state.finalized(aggregate)
            else:
                if node.is_factor:
                    raise ExecutionError(
                        "holistic aggregates cannot be factor windows"
                    )
                results[node.window] = aggregate_raw_holistic(
                    batch, node.window, aggregate, stats, native=native
                )
        else:
            state = aggregate_from_provider(
                states[node.provider],
                node.window,
                aggregate,
                batch.horizon,
                stats,
            )
            states[node.window] = state
            if not node.is_factor:
                results[node.window] = state.finalized(aggregate)

    stats.wall_seconds = time.perf_counter() - started
    return results, stats

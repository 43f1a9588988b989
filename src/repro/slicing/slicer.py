"""Scotty-style general stream slicing — the paper's baseline (§V-F).

Eager slicing executes a multi-window aggregate in two phases:

1. **Slice pass** — one pass over raw events computes a partial
   aggregate per (key, slice); every event is touched exactly once.
2. **Assembly pass** — each window instance merges the partials of the
   slices it spans.

Slices are disjoint by construction, so assembly is sound for every
distributive/algebraic aggregate (no covered-by restriction) — matching
Scotty's generality.  What slicing does *not* do is share
sub-aggregates *between* windows: every window assembles from the
common slice store, paying ``slices-per-instance`` merges per instance
even when another window's results could be reused.  That difference
is exactly what Figures 13 and 22 measure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..aggregates.base import AggregateFunction
from ..errors import ExecutionError
from ..windows.window import Window, WindowSet
from ..engine.events import EventBatch
from ..engine.stats import ExecutionStats
from .edges import assign_slices, slice_edges, window_slice_spans


@dataclass
class SliceStore:
    """Per-(key, slice) partial aggregates plus the slice geometry."""

    edges: np.ndarray
    components: tuple[np.ndarray, ...]  # each (num_keys, num_slices)
    num_keys: int

    @property
    def num_slices(self) -> int:
        return len(self.edges) - 1


def build_slice_store(
    batch: EventBatch,
    windows: Iterable[Window],
    aggregate: AggregateFunction,
    stats: "ExecutionStats | None" = None,
) -> SliceStore:
    """Phase 1: aggregate raw events into slices (one touch per event)."""
    if not aggregate.mergeable:
        raise ExecutionError(
            f"slicing cannot pre-aggregate holistic {aggregate.name}"
        )
    edges = slice_edges(windows, batch.horizon)
    num_slices = len(edges) - 1
    slice_ids = assign_slices(batch.timestamps, edges)
    codes = batch.keys * num_slices + slice_ids
    if stats is not None:
        stats.record_pairs(Window(1, 1, name="slices"), batch.num_events)
    flat = aggregate.segment_reduce(
        codes, batch.values, batch.num_keys * num_slices
    )
    components = tuple(
        c.reshape(batch.num_keys, num_slices) for c in flat
    )
    return SliceStore(edges=edges, components=components, num_keys=batch.num_keys)


def assemble_window(
    store: SliceStore,
    window: Window,
    aggregate: AggregateFunction,
    horizon: int,
    stats: "ExecutionStats | None" = None,
) -> np.ndarray:
    """Phase 2: merge each instance's slice partials; finalize.

    Returns finalized results of shape ``(num_keys, num_instances)``.
    Work: ``num_keys * Σ_m (slices in instance m)`` pair touches.

    This stays a masked gather: slice edges are the union of several
    windows' boundaries, so an instance's covering set has no fixed
    width or stride for the engine's ``fold_covering_sets`` to walk.
    """
    num_instances = len(window.instance_range(horizon))
    if num_instances == 0:
        return np.full((store.num_keys, 0), np.nan, dtype=np.float64)
    lo, hi = window_slice_spans(window, store.edges, num_instances)
    counts = hi - lo
    max_count = int(counts.max())
    offsets = np.arange(max_count, dtype=np.int64)[None, :]
    index = lo[:, None] + offsets  # (num_instances, max_count)
    mask = offsets < counts[:, None]
    index = np.where(mask, index, 0)  # clipped; masked below
    if stats is not None:
        stats.record_pairs(window, store.num_keys * int(counts.sum()))
    merged = []
    for ufunc, comp, ident in zip(
        aggregate.component_ufuncs,
        store.components,
        aggregate.identity_components,
    ):
        gathered = comp[:, index]  # (num_keys, num_instances, max_count)
        gathered = np.where(mask[None, :, :], gathered, ident)
        merged.append(ufunc.reduce(gathered, axis=2))
    return np.asarray(aggregate.finalize(tuple(merged)), dtype=np.float64)


@dataclass
class SlicedExecutionResult:
    """Results and statistics of a sliced multi-window execution."""

    results: dict[Window, np.ndarray]
    stats: ExecutionStats
    num_slices: int

    @property
    def throughput(self) -> float:
        return self.stats.throughput


def execute_sliced(
    windows: "WindowSet | Iterable[Window]",
    aggregate: AggregateFunction,
    batch: EventBatch,
) -> SlicedExecutionResult:
    """Execute the whole window set with eager stream slicing."""
    window_list = list(windows)
    stats = ExecutionStats(events=batch.num_events)
    started = time.perf_counter()
    store = build_slice_store(batch, window_list, aggregate, stats)
    results = {
        window: assemble_window(store, window, aggregate, batch.horizon, stats)
        for window in window_list
    }
    stats.wall_seconds = time.perf_counter() - started
    return SlicedExecutionResult(
        results=results, stats=stats, num_slices=store.num_slices
    )

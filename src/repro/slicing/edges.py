"""Slice-edge computation for general stream slicing.

Stream slicing (Pairs / Panes / Cutty / Scotty) chops the stream into
*slices*: maximal spans in which no window instance starts or ends.
For the hopping/tumbling windows handled here (``slide | range``),
instance starts and ends both fall on multiples of each window's
slide, so slice edges are the union of all slide multiples.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..errors import ExecutionError
from ..windows.window import Window


def slice_edges(windows: Iterable[Window], horizon: int) -> np.ndarray:
    """Sorted, unique slice boundaries covering ``[0, horizon]``.

    Always includes 0 and ``horizon``; a slice ``i`` spans
    ``[edges[i], edges[i+1})``.
    """
    window_list = list(windows)
    if not window_list:
        raise ExecutionError("cannot slice for an empty window set")
    if horizon <= 0:
        raise ExecutionError(f"horizon must be positive, got {horizon}")
    slides = sorted({w.slide for w in window_list})
    # Collapse slides that are multiples of a smaller slide: their edges
    # are a subset of the finer slide's edges.
    effective = [
        s for s in slides
        if not any(other != s and s % other == 0 for other in slides)
    ]
    parts = [np.arange(0, horizon + 1, s, dtype=np.int64) for s in effective]
    edges = np.unique(np.concatenate(parts + [np.asarray([0, horizon])]))
    return edges


def expected_edge_count(windows: Iterable[Window], horizon: int) -> int:
    """Edge count predicted by inclusion–exclusion over slide lattices.

    An independent check of :func:`slice_edges` for window sets with at
    most two distinct slides: edges are ``{0} ∪ multiples ∪ {horizon}``
    and ``|A ∪ B| = |A| + |B| − |A ∩ B|`` with the intersection lattice
    stepping by ``lcm(sA, sB)``.
    """
    slides = sorted({w.slide for w in windows})
    if len(slides) == 1:
        positive_marks = horizon // slides[0]
        if horizon % slides[0] == 0:
            positive_marks -= 1  # horizon counted separately below
    elif len(slides) == 2:
        a, b = slides
        lcm = math.lcm(a, b)
        positive_marks = horizon // a + horizon // b - horizon // lcm
        if horizon % a == 0 or horizon % b == 0:
            positive_marks -= 1  # horizon counted separately below
    else:
        raise ExecutionError("expected_edge_count supports <= 2 distinct slides")
    return positive_marks + 2  # plus 0 and horizon


def assign_slices(timestamps: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Slice index of each timestamp (``edges[i] <= ts < edges[i+1]``)."""
    return np.searchsorted(edges, timestamps, side="right") - 1


def window_slice_spans(
    window: Window, edges: np.ndarray, num_instances: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-instance slice ranges ``[lo, hi)`` for ``window``.

    Instance ``m`` spans slices ``lo[m] .. hi[m]-1``; both bounds index
    ``edges``-defined slices.  Instance boundaries always coincide with
    slice edges by construction.
    """
    starts = window.slide * np.arange(num_instances, dtype=np.int64)
    ends = starts + window.range
    lo = np.searchsorted(edges, starts, side="left")
    hi = np.searchsorted(edges, ends, side="left")
    if num_instances and (
        not np.array_equal(edges[lo], starts) or not np.array_equal(edges[hi], ends)
    ):
        raise ExecutionError(
            f"instance boundaries of {window} do not align with slice edges"
        )
    return lo, hi

"""Pane arithmetic — what the pane engine's operators compute with.

:func:`~repro.engine.columnar.aggregate_raw` routes every event to all
``k = r/s`` covering instances, materializing ``N * k`` (event,
instance) pairs.  That matches the cost model's *logical* work but is
physically wasteful: within one window, consecutive instances share
almost all of their events.  The classic pane/slice decomposition
(Li et al., "No pane, no gain"; the paper's Scotty baseline slices the
same way) removes the waste: with pane width ``p = gcd(r, s)``, every
instance interval is a disjoint union of ``r/p`` panes, so it suffices
to

1. **bin** each event once into per-(key, pane) partials — ``O(N)``
   pair touches in one indexed scatter (no sort: see
   ``AggregateFunction.segment_reduce``); then
2. **assemble** each instance by folding its ``r/p`` consecutive panes
   where they lie (``fold_covering_sets``) — ``num_keys * n_instances
   * (r/p)`` touches.

Total physical work is ``Σ_w (N + num_keys * n_w * (r_w/p_w))``
instead of ``Σ_w N * k_w`` — the engine scales with panes, not with ``k``.
Soundness needs only that panes *partition* each instance exactly
(``p | s`` and ``p | r``), so it holds for every mergeable aggregate,
including the partitioned-by-only ones (SUM/COUNT/AVG/...).

Both steps live in :class:`~repro.engine.streaming._ChunkedRawOperator`
— the one pane engine, whatever the chunk size (DESIGN.md §5); this
module keeps the two pieces of arithmetic it shares with the holistic
operator.  The *logical* pair counters are still reported exactly as
the naive paths count them (DESIGN.md invariant 6); the binning and
assembly work is reported separately as *physical* touches.
"""

from __future__ import annotations

import math

import numpy as np

from ..windows.window import Window


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
    is).  Event ``t`` lies in the ``k = r/s`` instances ``(t - r)/s <
    m <= t/s``, all of them owned unless it sits within ``k - 1``
    slides of an end of the owned range ``[start_instance,
    num_instances)``: the count is ``k`` per event in between, two
    binary searches find the edges, and only the edge events are
    counted one by one.  ``num_instances=None`` means unbounded above
    (live operators), and ``start_instance`` clips below (operators
    activated mid-stream own no instance before their aligned start).
    """
    n = int(timestamps.size)
    if n == 0:
        return 0
    r, s = window.range, window.slide
    k = r // s
    lo = (start_instance + k - 1) * s  # first tick owning all k below
    i0 = 0 if timestamps[0] >= lo else int(np.searchsorted(timestamps, lo))
    i1 = n
    if num_instances is not None and timestamps[-1] >= num_instances * s:
        i1 = max(i0, int(np.searchsorted(timestamps, num_instances * s)))
    if i0 == 0 and i1 == n:
        return n * k
    edges = np.concatenate((timestamps[:i0], timestamps[i1:]))
    top = edges // s
    if num_instances is not None:
        top = np.minimum(top, num_instances - 1)
    owned = top - np.maximum((edges - r) // s + 1, start_instance) + 1
    return (i1 - i0) * k + int(np.maximum(owned, 0).sum())

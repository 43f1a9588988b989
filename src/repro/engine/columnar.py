"""The columnar engine: vectorized window-aggregate operators.

This is the primary execution path (the repo's Trill stand-in).  Each
window-aggregate operator produces a *window state*: per-key, per-
instance partial-aggregate component arrays of shape
``(num_keys, num_instances)``.  States flow between operators exactly
like Trill streams of grouped sub-aggregates flow in the paper's
rewritten plans; finalization happens once, at the union.

Work performed is proportional to the number of (input, instance)
pairs each operator touches — the quantity the paper's cost model
prices — and every operator reports that count to
:class:`~repro.engine.stats.ExecutionStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..aggregates.base import AggregateFunction
from ..errors import ExecutionError
from .. import _kernels as kernels
from ..windows.coverage import covering_multiplier
from ..windows.window import Window
from .events import EventBatch
from .stats import ExecutionStats


@dataclass
class WindowState:
    """Partial aggregates of one window over a finite stream.

    ``components[c][k, m]`` is component ``c`` of the partial aggregate
    for key ``k`` and window instance ``m``.
    """

    window: Window
    components: tuple[np.ndarray, ...]
    num_keys: int
    num_instances: int

    def finalized(self, aggregate: AggregateFunction) -> np.ndarray:
        """Finalize to a ``(num_keys, num_instances)`` result array."""
        return np.asarray(aggregate.finalize(self.components), dtype=np.float64)


def num_complete_instances(window: Window, horizon: int) -> int:
    """Instances of ``window`` that close at or before ``horizon``."""
    return len(window.instance_range(horizon))


def aggregate_raw(
    batch: EventBatch,
    window: Window,
    aggregate: AggregateFunction,
    stats: "ExecutionStats | None" = None,
) -> WindowState:
    """Aggregate raw events into per-instance partials.

    Every event is routed to each of the ``k = r/s`` instances whose
    interval contains it, so the operator materializes ``N * k`` pairs
    and scatters them in one ``segment_reduce`` pass — matching the
    cost model's ``n * (η * r)`` per hyper-period.
    """
    n_inst = num_complete_instances(window, batch.horizon)
    k = window.instances_per_event
    identities = aggregate.identity_components
    if n_inst == 0 or batch.num_events == 0:
        comps = tuple(
            np.full((batch.num_keys, max(n_inst, 0)), ident, dtype=np.float64)
            for ident in identities
        )
        return WindowState(window, comps, batch.num_keys, n_inst)

    base = batch.timestamps // window.slide
    code_parts = []
    value_parts = []
    for j in range(k):
        instance = base - j
        valid = (instance >= 0) & (instance < n_inst)
        if not np.any(valid):
            continue
        code_parts.append(
            batch.keys[valid] * n_inst + instance[valid]
        )
        value_parts.append(batch.values[valid])
    if code_parts:
        codes = np.concatenate(code_parts)
        values = np.concatenate(value_parts)
    else:  # all events fall outside complete instances
        codes = np.empty(0, dtype=np.int64)
        values = np.empty(0, dtype=np.float64)
    if stats is not None:
        stats.record_pairs(window, int(codes.size))
    flat = aggregate.segment_reduce(codes, values, batch.num_keys * n_inst)
    comps = tuple(c.reshape(batch.num_keys, n_inst) for c in flat)
    return WindowState(window, comps, batch.num_keys, n_inst)


#: Widest covering set folded as ``width - 1`` binary passes; wider
#: sets reduce a strided window view.  Read off the shape table in
#: docs/performance.md, "Fold, don't gather: ledger before and after
#: (PR 22)": passes win up to width 20 for ``add`` and 32 for
#: ``minimum``, the view from 21 and 36.
FOLD_PASSES_MAX_WIDTH = 24

#: Partials one block of rows spans while the passes run over it: each
#: pass re-reads the block, so it has to stay in L2.  256 KiB assumes an
#: L2 of at least 512 KiB per core (accumulator and block side by side);
#: the same section's block table is flat from 64 KiB to 1 MiB and 1.5x
#: slower at 2 MiB on a 2 MiB L2 — re-run that table's snippet to
#: re-derive the value for a smaller cache.
FOLD_BLOCK_BYTES = 1 << 18


def fold_covering_sets(
    ufunc: np.ufunc,
    comp: np.ndarray,
    first: int,
    stride: int,
    width: int,
    count: int,
) -> np.ndarray:
    """Merge ``count`` regularly spaced covering sets of partials.

    ``out[:, m] = fold_j comp[:, first + m*stride + j]`` for
    ``j < width`` — the one merge behind every pane → instance and
    provider → consumer read (Definition 2's covering set, Theorem 3's
    merge), batch and chunked.  The partials are folded where they lie:
    no ``(count, width)`` index and no ``(num_keys, count, width)`` copy
    is built, and ``comp`` may be any 2-D view (its strides are
    honoured).  The result is a fresh array that never aliases ``comp``.

    Up to ``FOLD_PASSES_MAX_WIDTH`` partials the fold is a strict left
    fold in time order; wider sets are NumPy's reduce of each contiguous
    set (DESIGN.md §5, "One merge primitive").
    """
    last = first + (count - 1) * stride + width
    if first < 0 or last > comp.shape[1]:
        raise ExecutionError(
            f"covering sets [{first} + m*{stride}, +{width}) for m < {count} "
            f"span columns [{first}, {last}), outside the {comp.shape[1]} held"
        )
    if width <= FOLD_PASSES_MAX_WIDTH:
        stop = last - width + 1
        if width == 1:
            return comp[:, first:stop:stride].copy()
        # The first pass allocates the accumulator; the rest fold into it.
        out = ufunc(
            comp[:, first:stop:stride], comp[:, first + 1:stop + 1:stride]
        )
        if width > 2:
            rows = max(
                1, FOLD_BLOCK_BYTES // (comp.itemsize * (last - first))
            )
            for lo in range(0, comp.shape[0], rows):
                acc, block = out[lo:lo + rows], comp[lo:lo + rows]
                for j in range(2, width):
                    ufunc(acc, block[:, first + j:stop + j:stride], out=acc)
        return out
    sets = sliding_window_view(comp, width, axis=1)[:, first::stride][:, :count]
    return ufunc.reduce(sets, axis=2)


def aggregate_from_provider(
    provider_state: WindowState,
    window: Window,
    aggregate: AggregateFunction,
    horizon: int,
    stats: "ExecutionStats | None" = None,
) -> WindowState:
    """Aggregate a provider's sub-aggregates into a consumer window.

    Consumer instance ``m`` (interval ``[m*s1, m*s1 + r1)``) merges the
    ``M = covering_multiplier`` provider instances starting at
    ``m*s1 + j*s2`` for ``j in [0, M)`` — the covering set of
    Definition 2.  Work: ``num_keys * n_instances * M`` pair touches.
    """
    provider = provider_state.window
    multiplier = covering_multiplier(window, provider)
    n_inst = num_complete_instances(window, horizon)
    num_keys = provider_state.num_keys
    if n_inst == 0:
        comps = tuple(
            np.full((num_keys, 0), ident, dtype=np.float64)
            for ident in aggregate.identity_components
        )
        return WindowState(window, comps, num_keys, 0)

    stride, rem = divmod(window.slide, provider.slide)
    if rem:
        raise ExecutionError(
            f"{window} cannot read from {provider}: slides incompatible"
        )
    needed = (n_inst - 1) * stride + multiplier
    if needed > provider_state.num_instances:
        raise ExecutionError(
            f"{window} needs provider instance {needed - 1} of "
            f"{provider}, but only {provider_state.num_instances} exist"
        )
    if stats is not None:
        stats.record_pairs(window, num_keys * n_inst * multiplier)
    comps = tuple(
        fold_covering_sets(ufunc, comp, 0, stride, multiplier, n_inst)
        for ufunc, comp in zip(
            aggregate.component_ufuncs, provider_state.components
        )
    )
    return WindowState(window, comps, num_keys, n_inst)


def holistic_segment_values(
    codes: np.ndarray,
    values: np.ndarray,
    aggregate: AggregateFunction,
) -> "tuple[np.ndarray, np.ndarray]":
    """Evaluate a holistic aggregate per integer-coded group.

    Returns ``(segment_ids, results)`` for the non-empty groups.  Values
    are lexsorted by (code, value), so aggregates exposing a
    ``segment_compute`` kernel (MEDIAN/QUANTILE via sorted-segment index
    arithmetic) run in one vectorized pass; others fall back to a
    per-segment ``compute`` loop.  This is the reference the compiled
    close in :func:`holistic_close` repeats.
    """
    order = np.lexsort((values, codes))
    sorted_codes = codes[order]
    sorted_values = values[order]
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [sorted_codes.size]))
    segment_ids = sorted_codes[starts]
    results = aggregate.segment_compute(sorted_values, starts, ends)
    if results is None:
        results = np.fromiter(
            (
                aggregate.compute(sorted_values[lo:hi])
                for lo, hi in zip(starts, ends)
            ),
            dtype=np.float64,
            count=starts.size,
        )
    return segment_ids, np.asarray(results, dtype=np.float64)


def holistic_close(
    ts: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    window: Window,
    m0: int,
    m1: int,
    num_keys: int,
    aggregate: AggregateFunction,
) -> "tuple[np.ndarray, int]":
    """Close instances ``[m0, m1)`` of a holistic window over raw events.

    Every event is routed to each of its ``k = r/s`` instances that
    lies in ``[m0, m1)`` and the aggregate is evaluated per (key,
    instance).  Returns ``(block, pairs)``: the finalized ``(num_keys,
    m1 - m0)`` block, NaN where no event lies, and the number of
    (event, instance) pairs formed.  The events need not be sorted.

    When ``REPRO_KERNELS`` selects the compiled kernel (see
    ``repro._kernels.resolve``) and the aggregate declares a
    ``native_segment_kind``, the whole close — pair codes, grouping,
    per-segment sort, closed form — is one kernel call
    (``repro_close_holistic``).  Its results depend only on each
    segment's ascending value sequence and repeat the NumPy index
    arithmetic operation for operation, so both paths are bit-identical.
    """
    k = window.instances_per_event
    if (
        ts.size
        and kernels.holistic_kind(aggregate) is not None
        and kernels.resolve()
    ):
        return kernels.holistic_close(
            ts, keys, values, window.slide, k, m0, m1, num_keys, aggregate
        )
    span = m1 - m0
    block = np.full((num_keys, span), np.nan, dtype=np.float64)
    if ts.size == 0:
        return block, 0
    base = ts // window.slide
    code_parts, value_parts = [], []
    for j in range(k):
        instance = base - j
        valid = (instance >= m0) & (instance < m1)
        code_parts.append(keys[valid] * span + (instance[valid] - m0))
        value_parts.append(values[valid])
    codes = np.concatenate(code_parts)
    if codes.size:
        segment_ids, results = holistic_segment_values(
            codes, np.concatenate(value_parts), aggregate
        )
        block.reshape(-1)[segment_ids] = results
    return block, int(codes.size)


def aggregate_raw_holistic(
    batch: EventBatch,
    window: Window,
    aggregate: AggregateFunction,
    stats: "ExecutionStats | None" = None,
) -> np.ndarray:
    """Directly evaluate a holistic aggregate per (key, instance).

    Returns finalized values of shape ``(num_keys, num_instances)``.
    There is no partial form, so this only supports the original plan.
    """
    n_inst = num_complete_instances(window, batch.horizon)
    if n_inst == 0 or batch.num_events == 0:
        return np.full((batch.num_keys, n_inst), np.nan, dtype=np.float64)
    out, pairs = holistic_close(
        batch.timestamps, batch.keys, batch.values, window, 0, n_inst,
        batch.num_keys, aggregate,
    )
    if stats is not None:
        stats.record_pairs(window, pairs)
    return out

"""The chunked streaming engine: the one set of pane operators.

:class:`ChunkedStreamingExecutor` runs a logical plan with streaming
semantics — watermark-driven closes, bounded open state, partials
flowing provider → consumer, exactly like the paper's Trill plans — but
advances the watermark in timestamp *blocks* and applies the vectorized
pane reduction (:mod:`~repro.engine.panes`) to each block.  Its state
per raw operator is one rolling per-(key, pane) store covering only the
open instances plus the current block.  Its operators are the one pane
engine: a live session feeds them a chunk per flush,
``streaming-chunked`` a chunk per ``chunk_ticks``, and
``columnar-panes`` one chunk — the whole batch (DESIGN.md §5).

The executor absorbs each chunk serially, then advances the operators
as a DAG: an operator is ready once its provider has advanced.  When
some close folds at least ``HANDOFF_CELLS`` cells, the calling thread
and ``ENGINE_HELPERS`` helper threads (one per further CPU) drain the
ready list together, so sibling subtrees of a factor window run side
by side; otherwise — always on one CPU — the caller advances them in
plan order.  Each operator's output is a function of its provider's
blocks alone, so the schedule shows in no result, counter or error.

They must produce the ``columnar`` reference's results and *logical*
processed-pair counts, and so must the per-event test oracle
(``tests/engine/oracle_streaming.py``; DESIGN.md invariants 5 and 6).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable

import numpy as np

from .. import _kernels as kernels
from ..aggregates.base import AggregateFunction
from ..errors import ExecutionError
from ..plans.nodes import LogicalPlan
from ..windows.coverage import covering_multiplier
from ..windows.window import Window
from .columnar import fold_covering_sets, holistic_close, num_complete_instances
from .events import EventBatch
from .panes import logical_raw_pairs, pane_width
from .stats import ExecutionStats

#: Live emission callback: ``(window, m0, m1, finalized_block)`` where
#: the block is a fresh ``(num_keys, m1 - m0)`` float array.
EmitSink = Callable[[Window, int, int, np.ndarray], None]


def _pad_columns(buf: np.ndarray, width: int, ident: float) -> np.ndarray:
    """Extend ``buf`` to ``width`` columns with identity fill.

    Pane spans are data-dependent (a chunk of far-future events grows
    the buffer), so two lockstep cores can retain different widths for
    the same operator; identity columns are exactly what
    ``_ensure_panes`` would have materialized, so padding is free of
    observable effect.
    """
    missing = width - buf.shape[1]
    if missing <= 0:
        return buf
    pad = np.full((buf.shape[0], missing), ident, dtype=np.float64)
    return np.concatenate((buf, pad), axis=1)


def _splice_rows(
    buf: np.ndarray, rows: np.ndarray, positions: np.ndarray, num_keys: int
) -> np.ndarray:
    """Insert ``rows`` at ``positions`` of a ``num_keys``-row result.

    Surviving rows of ``buf`` keep their relative order; ``positions``
    are the destination-local ids of the incoming keys after the key
    renumbering a migration implies (local id = rank in the sorted
    owned-key set).
    """
    out = np.empty((num_keys, buf.shape[1]), dtype=buf.dtype)
    keep = np.setdiff1d(
        np.arange(num_keys, dtype=np.int64), positions, assume_unique=True
    )
    out[keep] = buf
    out[positions] = rows
    return out


class _ChunkedOperator:
    """Shared chunked machinery: contiguous closes, block emission.

    Beyond the finite-batch mode the :class:`ChunkedStreamingExecutor`
    uses, operators support the live-session protocol (DESIGN.md §6):

    * ``num_instances=None`` runs unbounded — instances close purely by
      watermark, forever;
    * ``start_instance`` makes the operator own only instances at or
      after an aligned start (operators activated mid-stream never
      close — or emit — instances whose inputs predate activation);
    * ``sink`` receives every finalized block ``(window, m0, m1,
      values)`` so a session can route results to subscriptions instead
      of a preallocated array;
    * :meth:`handoff` / :meth:`adopt` transplant buffered state between
      plan generations when a plan switch keeps an operator's
      ``(window, aggregate, provider)`` shape;
    * :meth:`cap_instances` turns an operator into a *draining* one
      that finishes its already-open instances and then retires,
      handing all later instances to its replacement.
    """

    def __init__(
        self,
        window: Window,
        aggregate: AggregateFunction,
        num_keys: int,
        num_instances: "int | None",
        stats: ExecutionStats,
        *,
        start_instance: int = 0,
        sink: "EmitSink | None" = None,
    ):
        self.window = window
        self.aggregate = aggregate
        self.num_keys = num_keys
        self.num_instances = num_instances
        self.stats = stats
        self.start_instance = start_instance
        self.sink = sink
        self.consumers: "list[_ChunkedSubAggOperator]" = []
        self.results: "np.ndarray | None" = None
        self.next_close = start_instance
        self.max_retained = 0

    def expose_results(self) -> None:
        if self.num_instances is None:
            raise ExecutionError(
                "unbounded operators emit through a sink, not a result array"
            )
        # NaN everywhere and no memory yet: a read-only broadcast of one
        # NaN stands in until the first block is stored.
        self.results = np.broadcast_to(
            np.nan, (self.num_keys, self.num_instances)
        )

    def _store_results(self, m0: int, m1: int, block: np.ndarray) -> None:
        """Keep a finalized block: one that covers every instance is
        adopted whole, anything less is written into a NaN-filled array
        allocated on first need."""
        if not self.results.flags.writeable:
            if m1 - m0 == self.results.shape[1]:
                self.results = block
                return
            self.results = self.results.copy()
        self.results[:, m0:m1] = block

    def _close_bound(self, watermark: int) -> int:
        """Largest exclusive instance index closed at ``watermark``."""
        if watermark < self.window.range:
            return self.next_close
        closed = (watermark - self.window.range) // self.window.slide + 1
        if self.num_instances is not None:
            closed = min(self.num_instances, closed)
        return max(self.next_close, closed)

    def advance(self, watermark: int) -> None:
        m1 = self._close_bound(watermark)
        if m1 > self.next_close:
            self._close_range(self.next_close, m1)
            self.next_close = m1

    def _close_range(self, m0: int, m1: int) -> None:
        raise NotImplementedError

    def close_cells(self, watermark: int) -> int:
        """Cells the close at ``watermark`` folds (0: nothing closes)."""
        closing = self._close_bound(watermark) - self.next_close
        return self._fold_cells(closing) if closing > 0 else 0

    def _fold_cells(self, instances: int) -> int:
        raise NotImplementedError

    def _emit(self, m0: int, m1: int, components: tuple) -> None:
        """Finalize a closed block into results and feed consumers.

        The fold's block is fresh: with no consumer to read it, the
        finalize may write into it (``finalize_owned``)."""
        if self.results is not None or self.sink is not None:
            aggregate = self.aggregate
            finalize = (
                aggregate.finalize if self.consumers
                else aggregate.finalize_owned
            )
            block = np.asarray(finalize(components), dtype=np.float64)
            if self.results is not None:
                self._store_results(m0, m1, block)
            if self.sink is not None:
                self.sink(self.window, m0, m1, block)
        for consumer in self.consumers:
            consumer.accept_block(m0, m1, components)

    def _note_retained(self, units: int) -> None:
        if units > self.max_retained:
            self.max_retained = units

    @property
    def retained_state(self) -> int:
        """Current buffered state units (panes / partials / events)."""
        return 0

    # ------------------------------------------------------------------
    # Live-session protocol: draining caps and state handoff
    # ------------------------------------------------------------------
    def cap_instances(self, bound: int) -> None:
        """Stop owning instances at or beyond ``bound`` (drain mode)."""
        bound = max(bound, self.next_close)
        if self.num_instances is None or bound < self.num_instances:
            self.num_instances = bound

    @property
    def drained(self) -> bool:
        """True once every owned instance has closed (safe to retire)."""
        return (
            self.num_instances is not None
            and self.next_close >= self.num_instances
        )

    @property
    def handoff_key(self) -> tuple:
        """Operators with equal keys hold transplant-compatible state."""
        provider = getattr(self, "provider", None)
        return (
            type(self).__name__,
            self.window,
            self.aggregate.name,
            provider,
            self.num_keys,
        )

    def handoff(self) -> dict:
        """Export transplantable state (buffers move, not copy)."""
        return {
            "key": self.handoff_key,
            "next_close": self.next_close,
            "start_instance": self.start_instance,
            "max_retained": self.max_retained,
        }

    def adopt(self, state: dict) -> None:
        """Adopt a predecessor's exported state (same ``handoff_key``)."""
        if state["key"] != self.handoff_key:
            raise ExecutionError(
                f"cannot adopt state across incompatible operators: "
                f"{state['key']} -> {self.handoff_key}"
            )
        self.next_close = state["next_close"]
        self.start_instance = state["start_instance"]
        self.max_retained = state["max_retained"]

    # ------------------------------------------------------------------
    # Elastic-shard protocol: per-key state transplant (DESIGN.md §12)
    # ------------------------------------------------------------------
    @property
    def transplant_key(self) -> tuple:
        """Cross-core identity checked when migrating keys at a barrier.

        Unlike :attr:`handoff_key` it excludes ``num_keys`` (source and
        destination cores own different key counts by construction) and
        includes the close cursor: at a watermark barrier every lockstep
        core has driven the same mutation/watermark history, so two
        cores' instances of the same operator must agree on all of
        these or the migration would splice misaligned state.
        """
        provider = getattr(self, "provider", None)
        return (
            type(self).__name__,
            self.window,
            self.aggregate.name,
            provider,
            self.start_instance,
            self.next_close,
            self.num_instances,
        )

    def extract_keys(self, local_ids: np.ndarray) -> dict:
        """Slice out (and remove) the rows of ``local_ids`` (sorted).

        Only valid at a watermark barrier with no buffered chunk in
        flight, so the operator buffers are exactly the per-key state.
        Remaining keys renumber down to close the gap (local id = rank
        in the sorted owned set).
        """
        self.num_keys -= int(local_ids.size)
        return {"key": self.transplant_key}

    def absorb_keys(
        self, state: dict, positions: np.ndarray, num_keys: int
    ) -> None:
        """Splice an extracted bundle in at ``positions`` of the new
        ``num_keys``-row local key space."""
        if state["key"] != self.transplant_key:
            raise ExecutionError(
                f"cannot absorb keys across incompatible operators: "
                f"{state['key']} -> {self.transplant_key}"
            )
        self.num_keys = num_keys


class _ChunkedRawOperator(_ChunkedOperator):
    """Raw mergeable reads via one rolling per-(key, pane) store.

    Each component's panes live in one owned, C-contiguous ``(num_keys,
    capacity)`` array: column ``_col`` holds global pane
    ``pane_offset``, the ``_span`` panes from there are live, and every
    column after them holds the identity.  ``absorb`` scatters a chunk
    straight into the store, so a pane is the strict left fold of its
    events in input order however the stream was cut into chunks
    (DESIGN.md §5).  Instances close with a fold over their ``r/p``
    panes (``fold_covering_sets``); only panes at or after the next open
    instance's start stay live.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pane = pane_width(self.window)
        self.stride = self.window.slide // self.pane
        self.per_instance = self.window.range // self.pane
        self.pane_offset = self.start_instance * self.stride
        self._own(
            [
                np.empty((self.num_keys, 0))
                for _ in self.aggregate.component_ufuncs
            ]
        )

    def _own(self, panes: list) -> None:
        """Make fresh C-contiguous live panes the whole store."""
        self._store, self._col, self._span = panes, 0, panes[0].shape[1]

    @property
    def _panes(self) -> list:
        """The live panes: views into the store."""
        lo, hi = self._col, self._col + self._span
        return [buf[:, lo:hi] for buf in self._store]

    def __getstate__(self) -> dict:
        """Pickle only the live panes: spare and closed columns are not
        state."""
        state = dict(self.__dict__)
        state.update(_store=self._panes, _col=0)
        return state

    def _ensure_panes(self, upto: int) -> None:
        """Make global panes ``[offset, upto)`` live.  Past the store's
        last column the live panes move to a fresh store of twice the
        need, capped at the last pane an owned instance reads."""
        need = upto - self.pane_offset
        if need <= self._span:
            return
        if self._col + need > self._store[0].shape[1]:
            capacity = 2 * need
            if self.num_instances is not None:
                last = (self.num_instances - 1) * self.stride
                capacity = min(
                    capacity, last + self.per_instance - self.pane_offset
                )
            live = self._panes
            self._store = []
            for buf, ident in zip(live, self.aggregate.identity_components):
                store = np.full((self.num_keys, capacity), ident)
                store[:, :self._span] = buf
                self._store.append(store)
            self._col = 0
        self._span = need

    def absorb(
        self, ts: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> None:
        if ts.size == 0:
            return
        self.stats.record_pairs(
            self.window,
            logical_raw_pairs(
                ts, self.window, self.num_instances, self.start_instance
            ),
            physical=0,
        )
        # Clip to the panes the owned instance range [start, cap) reads:
        # pre-start events belong only to instances this operator never
        # closes, post-cap events only to its replacement's instances.
        # Pane P starts at tick P * pane, so the cuts are searches on ts.
        lo_cut = 0
        if ts[0] < self.pane_offset * self.pane:
            lo_cut = int(
                np.searchsorted(ts, self.pane_offset * self.pane, side="left")
            )
        hi_cut = ts.size
        if self.num_instances is not None:
            last_pane = (
                (self.num_instances - 1) * self.stride + self.per_instance
            )
            hi_cut = int(np.searchsorted(ts, last_pane * self.pane, side="left"))
        if lo_cut or hi_cut < ts.size:
            ts = ts[lo_cut:hi_cut]
            keys = keys[lo_cut:hi_cut]
            values = values[lo_cut:hi_cut]
        if ts.size == 0:
            return
        self.stats.record_binned(ts.size)
        self._ensure_panes(int(ts[-1]) // self.pane + 1)
        shift = self._col - self.pane_offset
        spec = kernels.absorb_spec(self.aggregate)
        if spec is not None and kernels.resolve():
            bad = kernels.absorb_panes(
                ts, keys, values, self.pane, shift, spec, self._store
            )
        else:
            # Columns lie inside the store by construction; a key outside
            # it must raise before anything is written (ufunc.at would
            # wrap a negative code around).
            bad = -1
            if keys.min() < 0 or keys.max() >= self.num_keys:
                bad = int(np.argmax((keys < 0) | (keys >= self.num_keys)))
            else:
                # One flat scatter per component into the raveled store
                # (the tuple-indexed form is several times slower).
                codes = keys * self._store[0].shape[1]
                codes += ts if self.pane == 1 else ts // self.pane
                codes += shift
                for ufunc, buf, comp in zip(
                    self.aggregate.component_ufuncs,
                    self._store,
                    self.aggregate.lift(values),
                ):
                    ufunc.at(buf.reshape(-1), codes, comp)
        if bad >= 0:
            raise ExecutionError(
                f"{self.window}: event {bad} (key {int(keys[bad])}, "
                f"ts {int(ts[bad])}) lies outside the pane store"
            )
        self._note_retained(self._span)

    def _fold_cells(self, instances: int) -> int:
        return (
            self.num_keys * instances * self.per_instance
            * self.aggregate.num_components
        )

    def _close_range(self, m0: int, m1: int) -> None:
        self._ensure_panes((m1 - 1) * self.stride + self.per_instance)
        self.stats.record_physical(
            self.window, self.num_keys * (m1 - m0) * self.per_instance
        )
        first = self._col + m0 * self.stride - self.pane_offset
        components = tuple(
            fold_covering_sets(
                ufunc, buf, first, self.stride, self.per_instance, m1 - m0
            )
            for ufunc, buf in zip(self.aggregate.component_ufuncs, self._store)
        )
        self._emit(m0, m1, components)
        cut = m1 * self.stride - self.pane_offset
        if cut > 0:
            self._col += cut
            self._span -= cut
            self.pane_offset = m1 * self.stride

    def handoff(self) -> dict:
        state = super().handoff()
        state.update(
            pane_offset=self.pane_offset,
            store=(self._store, self._col, self._span),
        )
        return state

    def adopt(self, state: dict) -> None:
        super().adopt(state)
        self.pane_offset = state["pane_offset"]
        self._store, self._col, self._span = state["store"]

    def extract_keys(self, local_ids: np.ndarray) -> dict:
        state = super().extract_keys(local_ids)
        state["pane_offset"] = self.pane_offset
        state["rows"] = [buf[local_ids] for buf in self._panes]
        self._store = [np.delete(buf, local_ids, axis=0) for buf in self._store]
        return state

    def absorb_keys(
        self, state: dict, positions: np.ndarray, num_keys: int
    ) -> None:
        super().absorb_keys(state, positions, num_keys)
        if state["pane_offset"] != self.pane_offset:
            # The pane cursor is a pure function of the watermark
            # history (always next_close * stride at a barrier), so
            # lockstep cores can never disagree here.
            raise ExecutionError(
                f"{self.window}: pane offset mismatch on key absorb — "
                f"{state['pane_offset']} vs {self.pane_offset}"
            )
        width = max(self._span, state["rows"][0].shape[1])
        self._own(
            [
                _splice_rows(
                    _pad_columns(buf, width, ident),
                    _pad_columns(rows, width, ident),
                    positions,
                    num_keys,
                )
                for buf, rows, ident in zip(
                    self._panes,
                    state["rows"],
                    self.aggregate.identity_components,
                )
            ]
        )

    @property
    def retained_state(self) -> int:
        return self._span


class _ChunkedHolisticOperator(_ChunkedOperator):
    """Buffers raw events for open instances; segmented close."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ts = np.empty(0, dtype=np.int64)
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.float64)

    def absorb(
        self, ts: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> None:
        if ts.size == 0:
            return
        self.stats.record_pairs(
            self.window,
            logical_raw_pairs(
                ts, self.window, self.num_instances, self.start_instance
            ),
            physical=0,
        )
        if self.num_instances is not None:
            # Drop events past the owned range (drain mode): they only
            # cover instances the replacement operator owns.
            end = (self.num_instances - 1) * self.window.slide + self.window.range
            cut = int(np.searchsorted(ts, end, side="left"))
            ts, keys, values = ts[:cut], keys[:cut], values[:cut]
            if ts.size == 0:
                return
        self._ts = np.concatenate((self._ts, ts))
        self._keys = np.concatenate((self._keys, keys))
        self._values = np.concatenate((self._values, values))
        self._note_retained(self._ts.size)

    def _fold_cells(self, instances: int) -> int:
        # The close forms an (event, instance) pair per retained event
        # and instance it lies in.
        return int(self._ts.size) * self.window.instances_per_event

    def _close_range(self, m0: int, m1: int) -> None:
        if self.consumers:
            raise ExecutionError(
                f"holistic {self.aggregate.name} cannot feed downstream windows"
            )
        block, pairs = holistic_close(
            self._ts, self._keys, self._values, self.window, m0, m1,
            self.num_keys, self.aggregate,
        )
        if pairs:
            self.stats.record_physical(self.window, pairs)
        if self.results is not None:
            self._store_results(m0, m1, block)
        if self.sink is not None:
            self.sink(self.window, m0, m1, block)
        # Drop events no longer covered by any open instance.
        keep = self._ts >= m1 * self.window.slide
        if not keep.all():
            self._ts = self._ts[keep]
            self._keys = self._keys[keep]
            self._values = self._values[keep]

    def handoff(self) -> dict:
        state = super().handoff()
        state.update(ts=self._ts, keys=self._keys, values=self._values)
        return state

    def adopt(self, state: dict) -> None:
        super().adopt(state)
        self._ts = state["ts"]
        self._keys = state["keys"]
        self._values = state["values"]

    def extract_keys(self, local_ids: np.ndarray) -> dict:
        state = super().extract_keys(local_ids)
        mask = np.isin(self._keys, local_ids)
        # Keys travel as ranks into ``local_ids`` so the destination can
        # relabel them with its own local ids; per-key event order is
        # preserved (and the holistic close is order-insensitive — it
        # computes over the per-(key, instance) value multiset).
        state["ts"] = self._ts[mask]
        state["kidx"] = np.searchsorted(local_ids, self._keys[mask])
        state["values"] = self._values[mask]
        keep = ~mask
        kept = self._keys[keep]
        self._ts = self._ts[keep]
        self._values = self._values[keep]
        self._keys = kept - np.searchsorted(local_ids, kept, side="left")
        return state

    def absorb_keys(
        self, state: dict, positions: np.ndarray, num_keys: int
    ) -> None:
        super().absorb_keys(state, positions, num_keys)
        survivors = np.setdiff1d(
            np.arange(num_keys, dtype=np.int64), positions, assume_unique=True
        )
        if self._keys.size:
            self._keys = survivors[self._keys]
        self._ts = np.concatenate((self._ts, state["ts"]))
        self._keys = np.concatenate((self._keys, positions[state["kidx"]]))
        self._values = np.concatenate((self._values, state["values"]))

    @property
    def retained_state(self) -> int:
        return int(self._ts.size)


class _ChunkedSubAggOperator(_ChunkedOperator):
    """Consumes provider partial blocks; covering-set fold on close."""

    def __init__(self, provider: Window, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.provider = provider
        self.multiplier = covering_multiplier(self.window, provider)
        stride, rem = divmod(self.window.slide, provider.slide)
        if rem:
            raise ExecutionError(
                f"{self.window} cannot read from {provider}: "
                "slides incompatible"
            )
        self.stride = stride
        # Provider instance index of the first buffered column.
        self.offset = self.start_instance * stride
        self._partials = [
            np.full((self.num_keys, 0), ident, dtype=np.float64)
            for ident in self.aggregate.identity_components
        ]

    def accept_block(self, p0: int, p1: int, components: tuple) -> None:
        expected = self.offset + self._partials[0].shape[1]
        if p1 <= expected:
            # Entirely before our coverage: a carried-over provider
            # still draining instances an earlier generation owned.
            return
        if p0 > expected:
            raise ExecutionError(
                f"{self.window}: provider block [{p0}, {p1}) is not "
                f"contiguous with buffered instances"
            )
        if p0 < expected:
            skip = expected - p0
            components = tuple(
                np.asarray(part)[:, skip:] for part in components
            )
        parts = [np.asarray(part, dtype=np.float64) for part in components]
        if self._partials[0].shape[1] == 0:
            # Adopted, not copied.  Sinks, sibling consumers and the
            # provider's result array may hold the same block: all of
            # them only read it, and this operator only folds, cuts,
            # splices or re-concatenates its buffer — none writes into it.
            self._partials = parts
        else:
            self._partials = [
                np.concatenate((buf, part), axis=1)
                for buf, part in zip(self._partials, parts)
            ]
        self._note_retained(self._partials[0].shape[1])

    def _fold_cells(self, instances: int) -> int:
        return (
            self.num_keys * instances * self.multiplier
            * self.aggregate.num_components
        )

    def _close_range(self, m0: int, m1: int) -> None:
        needed = (m1 - 1) * self.stride + self.multiplier
        if needed > self.offset + self._partials[0].shape[1]:
            raise ExecutionError(
                f"{self.window} needs provider instance {needed - 1} of "
                f"{self.provider}, which has not been emitted"
            )
        self.stats.record_pairs(
            self.window, self.num_keys * (m1 - m0) * self.multiplier
        )
        first = m0 * self.stride - self.offset
        components = tuple(
            fold_covering_sets(
                ufunc, buf, first, self.stride, self.multiplier, m1 - m0
            )
            for ufunc, buf in zip(
                self.aggregate.component_ufuncs, self._partials
            )
        )
        self._emit(m0, m1, components)
        # Drop provider instances below the next open instance's
        # covering set — but never past the provider's emitted frontier
        # (when stride > M the frontier lags the cut target, and the
        # next accept_block must still land contiguously).
        span = self._partials[0].shape[1]
        cut = min(m1 * self.stride - self.offset, span)
        if cut > 0:
            self._partials = [buf[:, cut:] for buf in self._partials]
            self.offset += cut

    def handoff(self) -> dict:
        state = super().handoff()
        state.update(offset=self.offset, partials=self._partials)
        return state

    def adopt(self, state: dict) -> None:
        super().adopt(state)
        self.offset = state["offset"]
        self._partials = state["partials"]

    def extract_keys(self, local_ids: np.ndarray) -> dict:
        state = super().extract_keys(local_ids)
        state["offset"] = self.offset
        state["rows"] = [buf[local_ids] for buf in self._partials]
        self._partials = [
            np.delete(buf, local_ids, axis=0) for buf in self._partials
        ]
        return state

    def absorb_keys(
        self, state: dict, positions: np.ndarray, num_keys: int
    ) -> None:
        super().absorb_keys(state, positions, num_keys)
        span = self._partials[0].shape[1]
        if state["offset"] != self.offset or state["rows"][0].shape[1] != span:
            # Both are pure functions of the provider emission history,
            # which is watermark-driven and identical across cores.
            raise ExecutionError(
                f"{self.window}: provider-partial cursor mismatch on key "
                f"absorb — [{state['offset']}, +{state['rows'][0].shape[1]}) "
                f"vs [{self.offset}, +{span})"
            )
        self._partials = [
            _splice_rows(buf, rows, positions, num_keys)
            for buf, rows in zip(self._partials, state["rows"])
        ]

    @property
    def retained_state(self) -> int:
        return self._partials[0].shape[1]


#: Threads besides the caller that advance a plan's operators: one per
#: further CPU this process may run on, so none on one CPU.
ENGINE_HELPERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
) - 1

#: Cells a close folds (``close_cells``) from which it wakes a helper;
#: a watermark whose closes all fold fewer advances on the caller's
#: thread alone, in plan order.  Read off the hand-off sweep in
#: docs/performance.md ("Sibling subtrees on two threads"): below it, a
#: thread's start and wake-up cost more than the close it would share.
HANDOFF_CELLS = 1 << 18


class _Round:
    """One watermark's advance over the operator DAG, on several threads.

    An operator is ready once its provider has advanced (and so handed
    it its blocks); every drainer — the caller and the helpers — pops
    the ready list until every operator has advanced.  Each operator
    records into its own stats, merged in plan order afterwards, so the
    counters (and their dicts' order) are the serial loop's.  A failing
    operator's subtree does not advance, and the exception raised is
    the one of the first failing operator in plan order — the serial
    loop's, since every operator before it advances either way.
    """

    def __init__(
        self, executor: "ChunkedStreamingExecutor", watermark: int
    ) -> None:
        self.topo = executor._topo
        self.children = executor._children
        self.watermark = watermark
        self.shared = executor.stats
        self.stats = [ExecutionStats() for _ in self.topo]
        # A stack: the first root, then each operator's first consumer,
        # pops first.
        self.ready = executor._roots[::-1]
        # Operators pushed and not yet advanced (or failed).
        self.pending = len(self.ready)
        self.errors: "dict[int, BaseException]" = {}
        self.cond = threading.Condition()

    def drain(self) -> None:
        cond = self.cond
        while True:
            with cond:
                while not self.ready and self.pending:
                    cond.wait()
                if not self.pending:
                    return
                index = self.ready.pop()
            operator = self.topo[index]
            try:
                operator.advance(self.watermark)
            except BaseException as exc:
                with cond:
                    # Nothing it feeds is pushed: its subtree stays put.
                    self.errors[index] = exc
                    self._finish(0)
                continue
            with cond:
                children = self.children[index]
                self.ready.extend(reversed(children))
                wake = sum(
                    self.topo[child].close_cells(self.watermark)
                    >= HANDOFF_CELLS
                    for child in children
                )
                self._finish(len(children))
                if wake:
                    cond.notify(wake)

    def _finish(self, pushed: int) -> None:
        self.pending += pushed - 1
        if not self.pending:
            self.cond.notify_all()

    def run(self, helpers: int) -> None:
        """Advance every operator: the caller drains with ``helpers``
        threads started and joined here."""
        for operator, stats in zip(self.topo, self.stats):
            operator.stats = stats
        threads = [
            threading.Thread(target=self.drain, name="repro-engine-helper")
            for _ in range(helpers)
        ]
        try:
            for thread in threads:
                thread.start()
            self.drain()
        finally:
            with self.cond:
                # An interrupted caller lets the helpers go at once.
                self.pending = 0
                self.cond.notify_all()
            for thread in threads:
                thread.join()
            for operator, stats in zip(self.topo, self.stats):
                operator.stats = self.shared
                self.shared.merge(stats)
        errors, self.errors = self.errors, None
        if errors:
            error = errors[min(errors)]
            del errors
            try:
                raise error
            finally:
                # No frame of this call may keep the exception (and,
                # through its traceback, every operator) in a cycle.
                del error


class ChunkedStreamingExecutor:
    """Streaming execution in vectorized watermark blocks.

    Identical results and logical pair counts to the ``columnar``
    reference, with bounded open state: each block of ``chunk_ticks``
    timestamps is processed with the pane reduction kernels.
    ``chunk_ticks`` defaults to the largest window range, so each block
    typically closes at least one instance of every window.  A block
    whose closes are large enough advances sibling subtrees on helper
    threads, started and joined inside :meth:`run` (see the module
    docstring).
    """

    def __init__(
        self,
        plan: LogicalPlan,
        batch: EventBatch,
        chunk_ticks: "int | None" = None,
    ):
        self.plan = plan
        self.batch = batch
        self.stats = ExecutionStats()
        if chunk_ticks is None:
            chunk_ticks = max(n.window.range for n in plan.window_nodes())
        if chunk_ticks < 1:
            raise ExecutionError(
                f"chunk_ticks must be >= 1, got {chunk_ticks}"
            )
        self.chunk_ticks = chunk_ticks
        self._operators: dict[Window, _ChunkedOperator] = {}
        self._raw_ops: "list[_ChunkedRawOperator | _ChunkedHolisticOperator]" = []
        self._topo: list[_ChunkedOperator] = []
        # The DAG by plan position: the roots, and each operator's
        # consumers.
        self._roots: list[int] = []
        self._children: list[list[int]] = []
        self._build()

    def _build(self) -> None:
        batch = self.batch
        position: dict[Window, int] = {}
        for node in self.plan.topological_window_order():
            num_instances = num_complete_instances(node.window, batch.horizon)
            args = (
                node.window,
                node.aggregate,
                batch.num_keys,
                num_instances,
                self.stats,
            )
            operator: _ChunkedOperator
            if node.provider is None:
                if node.aggregate.mergeable:
                    operator = _ChunkedRawOperator(*args)
                else:
                    operator = _ChunkedHolisticOperator(*args)
                self._raw_ops.append(operator)
            else:
                provider_op = self._operators.get(node.provider)
                if provider_op is None:
                    raise ExecutionError(
                        f"provider {node.provider} not built before "
                        f"{node.window}"
                    )
                operator = _ChunkedSubAggOperator(node.provider, *args)
                provider_op.consumers.append(operator)
            if not node.is_factor:
                operator.expose_results()
            self._operators[node.window] = operator
            index = position[node.window] = len(self._topo)
            if node.provider is None:
                self._roots.append(index)
            else:
                self._children[position[node.provider]].append(index)
            self._children.append([])
            self._topo.append(operator)
        # Over a watermark span a mergeable close folds at most
        # ``_fold_cells(1) * (1 + span // slide)`` cells (instances
        # close at one per slide), so one sum rules a hand-off out at
        # most watermarks; a holistic close's cells follow its retained
        # events instead, so a plan with one is always asked.
        mergeable = [
            op for op in self._topo
            if not isinstance(op, _ChunkedHolisticOperator)
        ]
        self._holistic = len(mergeable) < len(self._topo)
        self._cells_per_close = max(
            (op._fold_cells(1) for op in mergeable), default=0
        )
        self._cells_per_tick = max(
            (op._fold_cells(1) / op.window.slide for op in mergeable),
            default=0,
        )
        self._advanced_to = 0

    def run(self) -> "dict[Window, np.ndarray]":
        """Process the batch block-by-block; return per-window results."""
        started = time.perf_counter()
        for _, end, ts, keys, values in self.batch.iter_time_chunks(
            self.chunk_ticks
        ):
            # Serial, in plan order: every raw read counts into the one
            # ``events_binned``.
            for raw_op in self._raw_ops:
                raw_op.absorb(ts, keys, values)
            self._advance(end)
        self._advance(self.batch.horizon)
        self.stats.events = self.batch.num_events
        self.stats.wall_seconds = time.perf_counter() - started
        return {
            node.window: self._operators[node.window].results
            for node in self.plan.user_window_nodes()
        }

    def _advance(self, watermark: int) -> None:
        """Close every operator up to ``watermark``: providers before
        their consumers, sibling subtrees on helper threads when a close
        is large enough to share (DESIGN.md §5, "Sibling subtrees")."""
        helpers = ENGINE_HELPERS
        span, self._advanced_to = watermark - self._advanced_to, watermark
        if (
            helpers > 0
            and (
                self._holistic
                or self._cells_per_close + span * self._cells_per_tick
                >= HANDOFF_CELLS
            )
            and any(
                operator.close_cells(watermark) >= HANDOFF_CELLS
                for operator in self._topo
            )
        ):
            _Round(self, watermark).run(helpers)
            return
        # Providers close (and hand blocks downstream) before consumers
        # observe the new watermark: topological order.
        for operator in self._topo:
            operator.advance(watermark)

    def max_retained_state(self) -> int:
        """Largest per-operator buffered-state high-water mark."""
        return max(op.max_retained for op in self._topo)

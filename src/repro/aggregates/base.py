"""Aggregate-function protocol and the Gray et al. taxonomy.

Section III-A of the paper classifies aggregate functions as
*distributive*, *algebraic* or *holistic* (Gray et al., Data Cube) and
derives which window-coverage relation each may exploit:

* distributive/algebraic + ``partitioned_by`` — always sound (Thm 5);
* MIN/MAX + ``covered_by`` — sound because they stay distributive over
  overlapping partitions (Thm 6);
* holistic — no sub-aggregate sharing; every window reads raw events.

The computational protocol mirrors the classic ``(g, h)`` decomposition:
an aggregate is described by *partial components* (a tuple of numbers),
with four operations:

``lift``      raw value → partial components
``combine``   merge two partial component tuples (one NumPy ufunc per
              component, so the same code path is vectorized over whole
              instance arrays or applied to scalars)
``finalize``  partial components → final answer (the paper's ``h``)
``identity``  the neutral partial for an empty instance

The streaming engines move *partials* between windows and finalize only
at the plan's union/sink, which is what makes a user-facing window able
to simultaneously feed downstream windows in a rewritten plan.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from enum import Enum
from typing import Sequence

import numpy as np

from ..errors import ExecutionError, UnsupportedAggregateError
from ..windows.coverage import CoverageSemantics


class Taxonomy(str, Enum):
    """Gray et al.'s classification of aggregate functions."""

    DISTRIBUTIVE = "distributive"
    ALGEBRAIC = "algebraic"
    HOLISTIC = "holistic"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


Components = tuple  # tuple of scalars, or tuple of ndarrays (vectorized)


class AggregateFunction(ABC):
    """Base class for window aggregate functions.

    Subclasses define the partial-aggregate decomposition; this base
    class supplies generic combine/reduce helpers on top of the
    per-component ufuncs.
    """

    #: Lower-case canonical name (``"min"``, ``"avg"``, ...).
    name: str = ""

    #: Gray et al. classification.
    taxonomy: Taxonomy = Taxonomy.DISTRIBUTIVE

    # ------------------------------------------------------------------
    # Sharing capabilities
    # ------------------------------------------------------------------
    @property
    def supports_overlapping_merge(self) -> bool:
        """True when partials may be merged over *overlapping* inputs.

        Theorem 6 establishes this for MIN and MAX; it is what licenses
        the general ``covered_by`` semantics.
        """
        return False

    @property
    def mergeable(self) -> bool:
        """True when the aggregate can be computed from sub-aggregates
        at all (i.e. it is not holistic)."""
        return self.taxonomy is not Taxonomy.HOLISTIC

    @property
    def semantics(self) -> "CoverageSemantics | None":
        """Coverage semantics the optimizer may use for this aggregate.

        Per the paper's implementation note (footnote 2): ``covered_by``
        for MIN/MAX, ``partitioned_by`` for other distributive/algebraic
        functions, ``None`` for holistic ones (no sharing).
        """
        if not self.mergeable:
            return None
        if self.supports_overlapping_merge:
            return CoverageSemantics.COVERED_BY
        return CoverageSemantics.PARTITIONED_BY

    # ------------------------------------------------------------------
    # Partial-aggregate protocol
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def component_ufuncs(self) -> "tuple[np.ufunc, ...]":
        """One commutative/associative ufunc per partial component."""

    @property
    @abstractmethod
    def identity_components(self) -> Components:
        """Neutral partial (the value of an empty instance)."""

    @abstractmethod
    def lift(self, values: np.ndarray) -> Components:
        """Map raw values to per-value partial components.

        ``values`` may be a scalar or an ndarray; components come back
        with matching shape.

        Ownership contract: a component **may alias** the ``values``
        array itself (most lifts return it as their first component),
        so every consumer of lifted components — ``combine``,
        ``reduce_stack``, ``segment_reduce``, the streaming operators —
        must treat them as read-only.  No engine stage mutates lifted
        components or raw event arrays in place; stages that need a
        writable buffer (pane tables, holistic event retention) copy
        into state they own.  This is the same contract that lets the
        zero-copy data plane hand shared-memory ring views directly to
        the engines (see docs/performance.md).
        """

    @abstractmethod
    def finalize(self, components: Components):
        """Partial components → final aggregate value(s).

        Works element-wise on ndarray components; empty instances (the
        identity partial) finalize to the aggregate's empty result
        (NaN for MIN/MAX/AVG/STDEV/SUM, 0 for COUNT).
        """

    @property
    def num_components(self) -> int:
        return len(self.component_ufuncs)

    # ------------------------------------------------------------------
    # Generic helpers built on the protocol
    # ------------------------------------------------------------------
    def combine(self, left: Components, right: Components) -> Components:
        """Merge two partials component-wise (vectorized)."""
        self._require_mergeable("combine")
        return tuple(
            ufunc(a, b)
            for ufunc, a, b in zip(self.component_ufuncs, left, right)
        )

    def reduce_stack(self, stacks: Components, axis: int = 0) -> Components:
        """Reduce stacked partial components along ``axis``.

        Each element of ``stacks`` is an ndarray whose ``axis`` dimension
        enumerates the partials being merged (e.g. the ``M`` provider
        instances feeding one consumer instance).
        """
        self._require_mergeable("reduce")
        return tuple(
            ufunc.reduce(stack, axis=axis)
            for ufunc, stack in zip(self.component_ufuncs, stacks)
        )

    def segment_reduce(
        self,
        codes: np.ndarray,
        values: np.ndarray,
        num_segments: int,
    ) -> Components:
        """Aggregate ``values`` grouped by integer ``codes``.

        Returns identity-filled component arrays of length
        ``num_segments`` with segment aggregates scattered in.  This is
        the one raw-event binning primitive of every engine path: each
        lifted component is scattered with ``ufunc.at`` over the flat
        codes — one indexed pass, O(P) in the number of (event,
        instance) pairs P, no sort and no permutation.

        Fold order is part of the contract (DESIGN.md §5): a segment's
        component is the strict left-to-right fold of its values *in
        input order*, starting from the identity — what a Python
        ``+=`` loop over the events computes, and what the per-event
        test oracle adds in.  ``values`` is only read (it may be a
        read-only shared-memory view).

        A code outside ``[0, num_segments)`` raises
        :class:`~repro.errors.ExecutionError` before anything is
        written (``ufunc.at`` alone would wrap a negative code around).
        """
        components = self.lift(np.asarray(values))
        out = tuple(
            np.full(num_segments, ident, dtype=np.float64)
            for ident in self.identity_components
        )
        if codes.size == 0:
            return out
        lo, hi = int(codes.min()), int(codes.max())
        if lo < 0 or hi >= num_segments:
            bad = lo if lo < 0 else hi
            raise ExecutionError(
                f"segment code {bad} is outside [0, {num_segments})"
            )
        for ufunc, comp, slot in zip(self.component_ufuncs, components, out):
            ufunc.at(slot, codes, comp)
        return out

    def segment_compute(
        self,
        sorted_values: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
    ) -> "np.ndarray | None":
        """Vectorized per-segment direct evaluation, or ``None``.

        ``sorted_values`` holds every segment's values contiguously,
        *sorted ascending within each segment*; segment ``i`` occupies
        ``sorted_values[starts[i]:ends[i]]`` (never empty).  Holistic
        aggregates override this with a closed-form segmented kernel
        (e.g. MEDIAN via index arithmetic on the sorted segments) so the
        columnar engine can evaluate every (key, instance) group in one
        NumPy pass.  Returning ``None`` (the default) tells the caller
        to fall back to a per-segment :meth:`compute` loop.
        """
        return None

    @property
    def native_segment_kind(self) -> "tuple | None":
        """Closed form the compiled holistic kernel implements, if any.

        Holistic aggregates with a segmented closed form declare it
        here — ``("quantile", q)`` or ``("count_distinct",)`` — so the
        native engine path can evaluate segments entirely in C.  ``None``
        (the default) keeps the aggregate on the NumPy
        :meth:`segment_compute` / per-segment :meth:`compute` paths.
        """
        return None

    @property
    def native_components(self) -> "tuple | None":
        """Per component, the ``(op, lift)`` the compiled pane absorb
        folds, if it can.

        ``op`` is ``"add"``, ``"min"`` or ``"max"`` (the component's
        ufunc) and ``lift`` is ``"value"``, ``"square"`` or ``"one"``
        (what :meth:`lift` makes of a raw value), so the raw operator
        can bin a run in one C pass, in the fold order of
        :meth:`segment_reduce`.  ``None`` (the default — holistic
        aggregates, or a lift such as GEOMEAN's ``log``) keeps the
        ``ufunc.at`` scatter.
        """
        return None

    def compute(self, values: Sequence) -> float:
        """Directly aggregate a collection of raw values.

        This is the only computation path available to holistic
        aggregates; mergeable aggregates implement it via lift/finalize
        so tests can cross-check both paths.
        """
        array = np.asarray(list(values), dtype=np.float64)
        if array.size == 0:
            return self.finalize(self.identity_components)
        components = self.lift(array)
        reduced = tuple(
            ufunc.reduce(comp)
            for ufunc, comp in zip(self.component_ufuncs, components)
        )
        return float(self.finalize(reduced))

    def _require_mergeable(self, operation: str) -> None:
        if not self.mergeable:
            raise UnsupportedAggregateError(
                f"{self.name} is holistic: sub-aggregates cannot be "
                f"{operation}d; it must read raw events"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} ({self.taxonomy})>"


def empty_result_is_nan(value: float) -> bool:
    """Helper for tests: does ``value`` denote an empty-instance result?"""
    return isinstance(value, float) and math.isnan(value)

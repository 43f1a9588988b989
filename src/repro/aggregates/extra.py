"""Additional aggregate functions beyond the paper's list.

The paper's implementation note (Section III-A, footnote 2) fixes two
lists — covered-by for MIN/MAX, partitioned-by for COUNT/SUM/AVG — and
says "future work could expand these two lists with other aggregate
functions".  This module does exactly that:

* :class:`Range` (``max - min``) — algebraic, and *overlap-safe*: both
  of its components merge correctly over overlapping partitions, so it
  joins MIN/MAX on the covered-by list.  This is the interesting case
  the paper's taxonomy hints at: overlap-safety is a property of the
  partial components, not of distributivity per se.
* :class:`GeometricMean` — algebraic over (sum of logs, count);
  partitioned-by only.
* :class:`SumOfSquares` — distributive; partitioned-by only.
* :class:`CountDistinct` — holistic (exact distinct counting needs
  unbounded state), evaluated from raw events only.
"""

from __future__ import annotations

import numpy as np

from .base import AggregateFunction, Components, Taxonomy
from .builtin import _Holistic, _as_result


class Range(AggregateFunction):
    """RANGE = MAX − MIN — algebraic and safe over overlapping merges.

    ``g`` records (min, max); ``h`` subtracts.  Because both components
    are idempotent under re-aggregation of shared inputs, RANGE can use
    the general covered-by relation, extending the paper's footnote-2
    list beyond MIN/MAX.
    """

    name = "range"
    taxonomy = Taxonomy.ALGEBRAIC

    @property
    def supports_overlapping_merge(self) -> bool:
        return True

    @property
    def component_ufuncs(self):
        return (np.minimum, np.maximum)

    @property
    def identity_components(self) -> Components:
        return (np.inf, -np.inf)

    @property
    def native_components(self):
        return (("min", "value"), ("max", "value"))

    def lift(self, values) -> Components:
        # Both components may alias the input: lifted components are
        # read-only by contract (see AggregateFunction.lift), so the
        # defensive copy the original implementation made here bought
        # nothing but one allocation + memcpy per lifted chunk.
        array = np.asarray(values, dtype=np.float64)
        return (array, array)

    def finalize(self, components: Components):
        low = np.asarray(components[0], dtype=np.float64)
        high = np.asarray(components[1], dtype=np.float64)
        return _as_result(np.where(low == np.inf, np.nan, high - low))


class GeometricMean(AggregateFunction):
    """Geometric mean — algebraic over (sum of logs, count).

    Defined for positive values; any non-positive input poisons the
    instance to NaN (via ``log`` producing NaN/-inf), matching SQL's
    undefined-result convention.
    """

    name = "geomean"
    taxonomy = Taxonomy.ALGEBRAIC

    @property
    def component_ufuncs(self):
        return (np.add, np.add)

    @property
    def identity_components(self) -> Components:
        return (0.0, 0.0)

    def lift(self, values) -> Components:
        array = np.asarray(values, dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            logs = np.log(array)
        return (logs, np.ones_like(array))

    def finalize(self, components: Components):
        log_sum = np.asarray(components[0], dtype=np.float64)
        count = np.asarray(components[1], dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            result = np.where(
                count > 0,
                np.exp(log_sum / np.where(count > 0, count, 1)),
                np.nan,
            )
        return _as_result(result)


class SumOfSquares(AggregateFunction):
    """Σ v² — distributive; the building block of moment sketches."""

    name = "sumsq"
    taxonomy = Taxonomy.DISTRIBUTIVE

    @property
    def component_ufuncs(self):
        return (np.add,)

    @property
    def identity_components(self) -> Components:
        return (0.0,)

    @property
    def native_components(self):
        return (("add", "square"),)

    def lift(self, values) -> Components:
        array = np.asarray(values, dtype=np.float64)
        return (array * array,)

    def finalize(self, components: Components):
        return _as_result(np.asarray(components[0], dtype=np.float64))


class CountDistinct(_Holistic):
    """Exact COUNT(DISTINCT v) — holistic: no constant-size partial."""

    name = "count_distinct"

    def compute(self, values) -> float:
        array = np.asarray(list(values), dtype=np.float64)
        if array.size == 0:
            return 0.0
        return float(np.unique(array).size)

    def segment_compute(self, sorted_values, starts, ends):
        # Within a sorted segment, distinct values = 1 + number of
        # positions where the value changes; a cumulative change count
        # turns that into subtraction of segment-boundary prefix sums.
        # NaNs sort to the end of each segment and compare unequal to
        # everything, so they are handled separately: np.unique (the
        # compute path) collapses all NaNs to a single distinct value.
        changes = np.concatenate(
            ([0], (sorted_values[1:] != sorted_values[:-1]).astype(np.int64))
        )
        # prefix[i] = change positions < i; changes strictly inside the
        # non-NaN part are positions in (start, nonnan_end).
        prefix = np.concatenate(([0], np.cumsum(changes)))
        nan_prefix = np.concatenate(
            ([0], np.cumsum(np.isnan(sorted_values).astype(np.int64)))
        )
        nans = nan_prefix[ends] - nan_prefix[starts]
        nonnan_ends = ends - nans
        has_values = nonnan_ends > starts
        distinct = np.where(
            has_values,
            1 + prefix[nonnan_ends] - prefix[np.minimum(starts + 1, nonnan_ends)],
            0,
        )
        return (distinct + (nans > 0)).astype(np.float64)

    @property
    def native_segment_kind(self):
        return ("count_distinct",)

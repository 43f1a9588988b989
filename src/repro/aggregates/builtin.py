"""Built-in aggregate functions.

Covers every aggregate the paper names: MIN, MAX, COUNT, SUM
(distributive), AVG, STDEV (algebraic), MEDIAN (holistic), plus a
generic QUANTILE as a second holistic example.

Empty-instance conventions (documented, consistent across all engines
and plans): MIN/MAX/AVG/STDEV/MEDIAN of an empty window instance is
NaN; SUM is 0.0; COUNT is 0.  On the constant-rate streams used by the
paper's evaluation no instance is ever empty.
"""

from __future__ import annotations

import numpy as np

from ..errors import UnsupportedAggregateError
from .base import AggregateFunction, Components, Taxonomy


def _as_result(value):
    """Return a float for 0-d results, the ndarray otherwise."""
    array = np.asarray(value)
    if array.ndim == 0:
        return float(array)
    return array


class Min(AggregateFunction):
    """MIN — distributive, merge-safe over overlapping partitions."""

    name = "min"
    taxonomy = Taxonomy.DISTRIBUTIVE

    @property
    def supports_overlapping_merge(self) -> bool:
        return True

    @property
    def component_ufuncs(self):
        return (np.minimum,)

    @property
    def identity_components(self) -> Components:
        return (np.inf,)

    @property
    def native_components(self):
        return (("min", "value"),)

    def lift(self, values) -> Components:
        return (np.asarray(values, dtype=np.float64),)

    def finalize(self, components: Components):
        comp = np.asarray(components[0], dtype=np.float64)
        return _as_result(np.where(comp == np.inf, np.nan, comp))


class Max(AggregateFunction):
    """MAX — distributive, merge-safe over overlapping partitions."""

    name = "max"
    taxonomy = Taxonomy.DISTRIBUTIVE

    @property
    def supports_overlapping_merge(self) -> bool:
        return True

    @property
    def component_ufuncs(self):
        return (np.maximum,)

    @property
    def identity_components(self) -> Components:
        return (-np.inf,)

    @property
    def native_components(self):
        return (("max", "value"),)

    def lift(self, values) -> Components:
        return (np.asarray(values, dtype=np.float64),)

    def finalize(self, components: Components):
        comp = np.asarray(components[0], dtype=np.float64)
        return _as_result(np.where(comp == -np.inf, np.nan, comp))


class Sum(AggregateFunction):
    """SUM — distributive; requires disjoint partitions (partitioned-by)."""

    name = "sum"
    taxonomy = Taxonomy.DISTRIBUTIVE

    @property
    def component_ufuncs(self):
        return (np.add,)

    @property
    def identity_components(self) -> Components:
        return (0.0,)

    @property
    def native_components(self):
        return (("add", "value"),)

    def lift(self, values) -> Components:
        return (np.asarray(values, dtype=np.float64),)

    def finalize(self, components: Components):
        return _as_result(np.asarray(components[0], dtype=np.float64))


class Count(AggregateFunction):
    """COUNT — distributive with ``g = COUNT`` but ``f`` merged by SUM."""

    name = "count"
    taxonomy = Taxonomy.DISTRIBUTIVE

    @property
    def component_ufuncs(self):
        return (np.add,)

    @property
    def identity_components(self) -> Components:
        return (0.0,)

    @property
    def native_components(self):
        return (("add", "one"),)

    def lift(self, values) -> Components:
        return (np.ones_like(np.asarray(values, dtype=np.float64)),)

    def finalize(self, components: Components):
        return _as_result(np.asarray(components[0], dtype=np.float64))


class Avg(AggregateFunction):
    """AVG — algebraic: ``g`` records (sum, count); ``h`` divides."""

    name = "avg"
    taxonomy = Taxonomy.ALGEBRAIC

    @property
    def component_ufuncs(self):
        return (np.add, np.add)

    @property
    def identity_components(self) -> Components:
        return (0.0, 0.0)

    @property
    def native_components(self):
        return (("add", "value"), ("add", "one"))

    def lift(self, values) -> Components:
        array = np.asarray(values, dtype=np.float64)
        return (array, np.ones_like(array))

    def finalize(self, components: Components):
        total = np.asarray(components[0], dtype=np.float64)
        count = np.asarray(components[1], dtype=np.float64)
        result = np.divide(
            total, count, out=np.full_like(total, np.nan), where=count > 0
        )
        return _as_result(result)


class Stdev(AggregateFunction):
    """STDEV — algebraic: ``g`` records (sum, sum of squares, count).

    Sample standard deviation (``ddof = 1``, the SQL STDEV convention);
    instances with fewer than two events finalize to NaN.
    """

    name = "stdev"
    taxonomy = Taxonomy.ALGEBRAIC

    @property
    def component_ufuncs(self):
        return (np.add, np.add, np.add)

    @property
    def identity_components(self) -> Components:
        return (0.0, 0.0, 0.0)

    @property
    def native_components(self):
        return (("add", "value"), ("add", "square"), ("add", "one"))

    def lift(self, values) -> Components:
        array = np.asarray(values, dtype=np.float64)
        return (array, array * array, np.ones_like(array))

    def finalize(self, components: Components):
        total = np.asarray(components[0], dtype=np.float64)
        squares = np.asarray(components[1], dtype=np.float64)
        count = np.asarray(components[2], dtype=np.float64)
        safe = np.where(count > 1, count, 2.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            variance = (squares - total * total / safe) / (safe - 1.0)
            variance = np.maximum(variance, 0.0)  # guard FP cancellation
            result = np.where(count > 1, np.sqrt(variance), np.nan)
        return _as_result(result)


class _Holistic(AggregateFunction):
    """Shared plumbing for holistic aggregates (no merge path)."""

    taxonomy = Taxonomy.HOLISTIC

    @property
    def component_ufuncs(self):
        return ()

    @property
    def identity_components(self) -> Components:
        return ()

    def lift(self, values) -> Components:
        raise UnsupportedAggregateError(
            f"{self.name} is holistic and has no partial-aggregate form"
        )

    def finalize(self, components: Components):
        return float("nan")


def _segment_quantile(
    sorted_values: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    q: float,
) -> np.ndarray:
    """Per-segment quantile with linear interpolation (NumPy default).

    Each segment of ``sorted_values`` is sorted ascending, so the
    quantile is pure index arithmetic: position ``(L - 1) * q`` between
    the floor and ceil order statistics.
    """
    lengths = ends - starts
    position = (lengths - 1) * q
    lo = np.floor(position).astype(np.int64)
    hi = np.ceil(position).astype(np.int64)
    frac = position - lo
    low_vals = sorted_values[starts + lo]
    high_vals = sorted_values[starts + hi]
    result = low_vals + (high_vals - low_vals) * frac
    # NaN inputs sort to the end of each segment, where the index
    # arithmetic would silently skip them; np.quantile (and thus the
    # per-group compute path) propagates NaN instead.
    return np.where(np.isnan(sorted_values[ends - 1]), np.nan, result)


class Median(_Holistic):
    """MEDIAN — holistic; only computable from raw events."""

    name = "median"

    def compute(self, values) -> float:
        array = np.asarray(list(values), dtype=np.float64)
        if array.size == 0:
            return float("nan")
        return float(np.median(array))

    def segment_compute(self, sorted_values, starts, ends):
        return _segment_quantile(sorted_values, starts, ends, 0.5)

    @property
    def native_segment_kind(self):
        return ("quantile", 0.5)


class Quantile(_Holistic):
    """QUANTILE(q) — holistic; generalizes MEDIAN (``q = 0.5``)."""

    def __init__(self, q: float = 0.5):
        if not 0.0 <= q <= 1.0:
            raise UnsupportedAggregateError(f"quantile q must be in [0, 1], got {q}")
        self.q = q
        self.name = f"quantile({q:g})"

    def compute(self, values) -> float:
        array = np.asarray(list(values), dtype=np.float64)
        if array.size == 0:
            return float("nan")
        return float(np.quantile(array, self.q))

    def segment_compute(self, sorted_values, starts, ends):
        return _segment_quantile(sorted_values, starts, ends, self.q)

    @property
    def native_segment_kind(self):
        return ("quantile", self.q)

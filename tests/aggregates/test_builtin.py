"""Tests for built-in aggregate functions."""

import math

import numpy as np
import pytest

from repro.aggregates.base import Taxonomy
from repro.aggregates.builtin import (
    Avg,
    Count,
    Max,
    Median,
    Min,
    Quantile,
    Stdev,
    Sum,
)
from repro.errors import UnsupportedAggregateError

SAMPLE = [3.0, -1.0, 4.0, 1.5, 9.0, -2.5]


class TestComputeAgainstNumpy:
    @pytest.mark.parametrize(
        "aggregate,reference",
        [
            (Min(), np.min),
            (Max(), np.max),
            (Sum(), np.sum),
            (Count(), len),
            (Avg(), np.mean),
            (Median(), np.median),
        ],
    )
    def test_matches_reference(self, aggregate, reference):
        assert aggregate.compute(SAMPLE) == pytest.approx(
            float(reference(SAMPLE))
        )

    def test_stdev_is_sample_stdev(self):
        assert Stdev().compute(SAMPLE) == pytest.approx(
            float(np.std(SAMPLE, ddof=1))
        )

    def test_quantile(self):
        assert Quantile(0.5).compute(SAMPLE) == pytest.approx(
            float(np.median(SAMPLE))
        )
        assert Quantile(0.0).compute(SAMPLE) == pytest.approx(min(SAMPLE))

    def test_quantile_validates_q(self):
        with pytest.raises(UnsupportedAggregateError):
            Quantile(1.5)


class TestEmptyConventions:
    @pytest.mark.parametrize("aggregate", [Min(), Max(), Avg(), Stdev(), Median()])
    def test_nan_for_empty(self, aggregate):
        result = aggregate.compute([])
        assert isinstance(result, float) and math.isnan(result)

    def test_sum_empty_is_zero(self):
        assert Sum().compute([]) == 0.0

    def test_count_empty_is_zero(self):
        assert Count().compute([]) == 0.0

    def test_stdev_single_value_is_nan(self):
        assert math.isnan(Stdev().compute([5.0]))


class TestPartialProtocol:
    def test_min_merge(self):
        agg = Min()
        left = agg.lift(3.0)
        right = agg.lift(1.0)
        merged = agg.combine(left, right)
        assert float(agg.finalize(merged)) == 1.0

    def test_avg_merge_of_uneven_parts(self):
        agg = Avg()
        a = [1.0, 2.0, 3.0]
        b = [10.0]
        pa = agg.reduce_stack(tuple(np.asarray(c) for c in agg.lift(np.asarray(a))))
        pb = agg.reduce_stack(tuple(np.asarray(c) for c in agg.lift(np.asarray(b))))
        merged = agg.combine(pa, pb)
        assert float(agg.finalize(merged)) == pytest.approx(np.mean(a + b))

    def test_stdev_merge(self):
        agg = Stdev()
        a = np.asarray([1.0, 2.0, 3.0, 4.0])
        b = np.asarray([10.0, 20.0])
        pa = agg.reduce_stack(agg.lift(a))
        pb = agg.reduce_stack(agg.lift(b))
        merged = agg.combine(pa, pb)
        expected = float(np.std(np.concatenate([a, b]), ddof=1))
        assert float(agg.finalize(merged)) == pytest.approx(expected)

    def test_count_merge_sums_counts(self):
        agg = Count()
        pa = agg.reduce_stack(agg.lift(np.asarray([1.0, 2.0])))
        pb = agg.reduce_stack(agg.lift(np.asarray([3.0])))
        assert float(agg.finalize(agg.combine(pa, pb))) == 3.0

    def test_identity_is_neutral(self):
        for agg in (Min(), Max(), Sum(), Count(), Avg(), Stdev()):
            partial = agg.reduce_stack(agg.lift(np.asarray(SAMPLE)))
            merged = agg.combine(partial, agg.identity_components)
            assert float(agg.finalize(merged)) == pytest.approx(
                float(agg.finalize(partial)), nan_ok=True
            )

    def test_finalize_vectorized(self):
        agg = Avg()
        sums = np.asarray([6.0, 0.0, 10.0])
        counts = np.asarray([3.0, 0.0, 4.0])
        out = agg.finalize((sums, counts))
        assert out[0] == pytest.approx(2.0)
        assert math.isnan(out[1])
        assert out[2] == pytest.approx(2.5)

    def test_min_finalize_maps_identity_to_nan(self):
        agg = Min()
        out = agg.finalize((np.asarray([np.inf, 2.0]),))
        assert math.isnan(out[0]) and out[1] == 2.0

    @pytest.mark.parametrize("agg,empty", [(Min(), np.inf), (Max(), -np.inf)])
    def test_min_max_finalize_is_the_where_bit_for_bit(self, agg, empty):
        """Blocks with and without an empty cell, ±inf, ±0.0 and a NaN
        with a payload: every bit of ``np.where(comp == empty, nan,
        comp)``, always in a fresh array (consumers hold the
        components); a 0-d component is a float."""
        payload_nan = np.array([0x7FF8_0000_0000_0123]).view(np.float64)[0]
        rng = np.random.default_rng(5)
        for trial in range(60):
            comp = rng.normal(0.0, 10.0, (4, 9))
            flat = comp.reshape(-1)
            for special in (empty, -empty, 0.0, -0.0, payload_nan):
                if trial % 3 and rng.random() < 0.5:
                    flat[rng.integers(0, flat.size)] = special
            want = np.where(comp == empty, np.nan, comp)
            got = agg.finalize((comp,))
            assert not np.shares_memory(got, comp)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        for scalar in (empty, 3.5):
            got = agg.finalize((np.float64(scalar),))
            assert isinstance(got, float)
            assert math.isnan(got) if scalar == empty else got == scalar


class TestHolisticRestrictions:
    def test_median_has_no_lift(self):
        with pytest.raises(UnsupportedAggregateError):
            Median().lift(np.asarray([1.0]))

    def test_median_cannot_combine(self):
        with pytest.raises(UnsupportedAggregateError):
            Median().combine((), ())

    def test_median_not_mergeable(self):
        assert not Median().mergeable
        assert Median().semantics is None


class TestTaxonomy:
    def test_classifications(self):
        assert Min().taxonomy is Taxonomy.DISTRIBUTIVE
        assert Max().taxonomy is Taxonomy.DISTRIBUTIVE
        assert Sum().taxonomy is Taxonomy.DISTRIBUTIVE
        assert Count().taxonomy is Taxonomy.DISTRIBUTIVE
        assert Avg().taxonomy is Taxonomy.ALGEBRAIC
        assert Stdev().taxonomy is Taxonomy.ALGEBRAIC
        assert Median().taxonomy is Taxonomy.HOLISTIC

    def test_overlapping_merge_only_min_max(self):
        assert Min().supports_overlapping_merge
        assert Max().supports_overlapping_merge
        for agg in (Sum(), Count(), Avg(), Stdev()):
            assert not agg.supports_overlapping_merge

    def test_semantics_assignment(self):
        # Paper footnote 2: covered-by for MIN/MAX, partitioned-by for
        # COUNT/SUM/AVG (and other algebraic functions).
        from repro.windows.coverage import CoverageSemantics

        assert Min().semantics is CoverageSemantics.COVERED_BY
        assert Max().semantics is CoverageSemantics.COVERED_BY
        for agg in (Sum(), Count(), Avg(), Stdev()):
            assert agg.semantics is CoverageSemantics.PARTITIONED_BY


class TestSegmentCompute:
    """Vectorized holistic kernels agree with per-group compute."""

    @pytest.mark.parametrize(
        "aggregate", [Median(), Quantile(0.25), Quantile(0.9)],
        ids=lambda a: a.name,
    )
    def test_matches_compute_on_random_segments(self, aggregate):
        rng = np.random.default_rng(9)
        lengths = rng.integers(1, 12, 40)
        segments = [rng.normal(0, 10, n) for n in lengths]
        sorted_values = np.concatenate([np.sort(s) for s in segments])
        ends = np.cumsum(lengths)
        starts = ends - lengths
        got = aggregate.segment_compute(sorted_values, starts, ends)
        expected = [aggregate.compute(s) for s in segments]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_mergeable_aggregates_have_no_kernel(self):
        starts = np.array([0])
        ends = np.array([2])
        values = np.array([1.0, 2.0])
        assert Min().segment_compute(values, starts, ends) is None
        assert Sum().segment_compute(values, starts, ends) is None

    def test_nan_values_propagate_like_compute(self):
        # NaNs sort to the segment end; the kernel must propagate them
        # exactly like np.median/np.quantile, not skip them.
        aggregate = Median()
        sorted_values = np.array([1.0, 2.0, 3.0, 1.0, 2.0, np.nan])
        starts = np.array([0, 3])
        ends = np.array([3, 6])
        got = aggregate.segment_compute(sorted_values, starts, ends)
        assert got[0] == 2.0
        assert math.isnan(got[1])

"""Tests for the statistical helpers (cross-checked against SciPy)."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.bench.analysis import SampleStats, pearson_r


class TestPearsonR:
    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 100)
        y = 2 * x + rng.normal(0, 0.5, 100)
        expected = scipy_stats.pearsonr(x, y).statistic
        assert pearson_r(x, y) == pytest.approx(expected)

    def test_perfect_correlation(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson_r(x, [2 * v for v in x]) == pytest.approx(1.0)
        assert pearson_r(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_constant_series_is_nan(self):
        assert np.isnan(pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            pearson_r([1.0], [2.0])
        with pytest.raises(ValueError):
            pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSampleStats:
    def test_mean_and_std(self):
        stats = SampleStats.of([2.0, 4.0, 6.0])
        assert stats.mean == pytest.approx(4.0)
        assert stats.std == pytest.approx(np.std([2.0, 4.0, 6.0]))
        assert stats.count == 3

    def test_empty(self):
        stats = SampleStats.of([])
        assert stats.count == 0 and stats.mean == 0.0

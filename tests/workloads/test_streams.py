"""Tests for synthetic and DEBS-like stream generators."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.workloads.debs import MF01_BASE_LEVEL, debs_like_stream
from repro.workloads.streams import constant_rate_stream


class TestConstantRateStream:
    def test_one_event_per_tick(self):
        batch = constant_rate_stream(100)
        assert list(batch.timestamps) == list(range(100))
        assert batch.horizon == 100

    def test_rate_packs_events(self):
        batch = constant_rate_stream(100, rate=4)
        assert batch.horizon == 25
        # Exactly 4 events per tick.
        _, counts = np.unique(batch.timestamps, return_counts=True)
        assert np.all(counts == 4)

    def test_keys_round_robin(self):
        batch = constant_rate_stream(12, num_keys=3)
        assert list(batch.keys[:6]) == [0, 1, 2, 0, 1, 2]
        assert batch.num_keys == 3

    def test_deterministic(self):
        a = constant_rate_stream(50, seed=9)
        b = constant_rate_stream(50, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_validation(self):
        with pytest.raises(ExecutionError):
            constant_rate_stream(0)
        with pytest.raises(ExecutionError):
            constant_rate_stream(10, rate=0)


class TestDebsLikeStream:
    def test_constant_sampling_rate(self):
        batch = debs_like_stream(200)
        assert list(batch.timestamps) == list(range(200))

    def test_values_near_base_level(self):
        batch = debs_like_stream(5000)
        mean = float(np.mean(batch.values))
        assert abs(mean - MF01_BASE_LEVEL) < 1500

    def test_bursts_present(self):
        batch = debs_like_stream(50_000, burst_probability=0.01)
        spikes = np.sum(batch.values > MF01_BASE_LEVEL + 1500)
        assert spikes > 0

    def test_deterministic(self):
        a = debs_like_stream(100, seed=5)
        b = debs_like_stream(100, seed=5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_multi_key(self):
        batch = debs_like_stream(10, num_keys=2)
        assert set(batch.keys) == {0, 1}

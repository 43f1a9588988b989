"""Tests for the RandomGen / SequentialGen window-set generators."""

import pytest

from repro.errors import InvalidWindowError
from repro.workloads.generators import (
    DEFAULT_SEED_RANGES,
    DEFAULT_SEED_SLIDES,
    RandomGen,
    SequentialGen,
)


class TestRandomGen:
    def test_deterministic_per_seed(self):
        gen = RandomGen()
        a = gen.generate(5, tumbling=True, seed=1)
        b = gen.generate(5, tumbling=True, seed=1)
        assert a == b

    def test_different_seeds_differ(self):
        gen = RandomGen()
        sets = {gen.generate(5, tumbling=True, seed=s) for s in range(8)}
        assert len(sets) > 1

    def test_tumbling_windows_are_seed_multiples(self):
        gen = RandomGen()
        for seed in range(5):
            for window in gen.generate(5, tumbling=True, seed=seed):
                assert window.is_tumbling
                multipliers = [
                    window.range // r0
                    for r0 in DEFAULT_SEED_RANGES
                    if window.range % r0 == 0
                ]
                # Algorithm 6 avoids r = r0 (multiplier >= 2).
                assert any(2 <= m <= 50 for m in multipliers)

    def test_hopping_windows_have_range_twice_slide(self):
        gen = RandomGen()
        for window in gen.generate(6, tumbling=False, seed=3):
            assert window.range == 2 * window.slide
            assert any(
                window.slide % s0 == 0 and 2 <= window.slide // s0 <= 50
                for s0 in DEFAULT_SEED_SLIDES
            )

    def test_requested_size(self):
        gen = RandomGen()
        for size in (1, 5, 10, 20):
            assert len(gen.generate(size, tumbling=True, seed=0)) == size

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidWindowError):
            RandomGen().generate(0, tumbling=True, seed=0)

    def test_impossible_size_detected(self):
        # Only 2 distinct windows exist for this configuration.
        gen = RandomGen(seed_ranges=(5,), kr=3)
        with pytest.raises(InvalidWindowError):
            gen.generate(5, tumbling=True, seed=0)


class TestSequentialGen:
    def test_sequential_multipliers(self):
        gen = SequentialGen(seed_ranges=(10,))
        windows = gen.generate(4, tumbling=True, seed=0)
        assert [w.range for w in windows] == [20, 30, 40, 50]

    def test_hopping_sequential(self):
        gen = SequentialGen(seed_slides=(5,))
        windows = gen.generate(3, tumbling=False, seed=0)
        assert [(w.range, w.slide) for w in windows] == [
            (20, 10),
            (30, 15),
            (40, 20),
        ]

    def test_deterministic_per_seed(self):
        gen = SequentialGen()
        assert gen.generate(5, True, seed=4) == gen.generate(5, True, seed=4)

    def test_size_exceeding_multiplier_rejected(self):
        gen = SequentialGen(kr=5)
        with pytest.raises(InvalidWindowError):
            gen.generate(5, tumbling=True, seed=0)

    def test_all_cost_model_valid(self):
        gen = SequentialGen()
        for tumbling in (True, False):
            windows = gen.generate(8, tumbling=tumbling, seed=2)
            windows.validate_for_cost_model()

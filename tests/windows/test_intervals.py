"""Tests for interval enumeration and the brute-force oracles."""

from itertools import islice

from oracle_intervals import (
    brute_force_covered_by,
    brute_force_multiplier,
    brute_force_partitioned_by,
    covering_set,
    intervals,
    iter_intervals,
)
from repro.windows.window import Window


class TestIntervalEnumeration:
    def test_intervals_prefix(self):
        assert intervals(Window(10, 2), 3) == [(0, 10), (2, 12), (4, 14)]

    def test_iter_intervals_is_infinite_prefix(self):
        w = Window(8, 4)
        assert list(islice(iter_intervals(w), 4)) == intervals(w, 4)


class TestCoveringSet:
    def test_example_2_first_interval(self):
        # [0, 10) of W1(10,2) covered by [0,8) and [2,10) of W2(8,2).
        cover = covering_set((0, 10), Window(8, 2))
        assert cover == [(0, 8), (2, 10)]

    def test_example_2_second_interval(self):
        cover = covering_set((2, 12), Window(8, 2))
        assert cover == [(2, 10), (4, 12)]

    def test_no_cover_when_interval_too_small(self):
        assert covering_set((0, 6), Window(8, 2)) is None

    def test_no_cover_when_misaligned(self):
        assert covering_set((1, 11), Window(8, 2)) is None

    def test_degenerate_interval(self):
        assert covering_set((5, 5), Window(2, 2)) is None

    def test_partition_case_is_disjoint(self):
        cover = covering_set((0, 40), Window(10, 10))
        assert cover == [(0, 10), (10, 20), (20, 30), (30, 40)]


class TestBruteForceOracles:
    def test_covered_matches_example(self):
        assert brute_force_covered_by(Window(10, 2), Window(8, 2))

    def test_not_covered(self):
        assert not brute_force_covered_by(Window(11, 2), Window(8, 2))
        assert not brute_force_covered_by(Window(30, 30), Window(20, 20))

    def test_partitioned_requires_tumbling_provider(self):
        assert brute_force_partitioned_by(Window(40, 40), Window(10, 10))
        assert not brute_force_partitioned_by(Window(10, 2), Window(8, 2))

    def test_multiplier_matches_theorem_3(self):
        assert brute_force_multiplier(Window(10, 2), Window(8, 2)) == 2
        assert brute_force_multiplier(Window(40, 40), Window(10, 10)) == 4

    def test_multiplier_none_when_uncovered(self):
        assert brute_force_multiplier(Window(30, 30), Window(20, 20)) is None

    def test_self_coverage(self):
        w = Window(6, 3)
        assert brute_force_covered_by(w, w)
        assert brute_force_multiplier(w, w) == 1

"""Tests for the coverage/partitioning theorems (Section II-B)."""

import pytest

from repro.errors import InvalidWindowError
from repro.windows.coverage import (
    CoverageSemantics,
    covered_by,
    covering_multiplier,
    partitioned_by,
    relates,
    strictly_relates,
)
from repro.windows.window import Window


class TestCoveredBy:
    def test_paper_example_2(self):
        # W1(r=10, s=2) is covered by W2(r=8, s=2).
        assert covered_by(Window(10, 2), Window(8, 2))

    def test_reflexive(self):
        w = Window(10, 2)
        assert covered_by(w, w)

    def test_requires_larger_range(self):
        assert not covered_by(Window(8, 2), Window(10, 2))

    def test_slide_must_be_multiple(self):
        assert not covered_by(Window(10, 3), Window(8, 2))
        assert covered_by(Window(10, 4), Window(8, 2))

    def test_range_difference_must_be_multiple_of_provider_slide(self):
        assert not covered_by(Window(11, 2), Window(8, 2))  # 11-8=3, s2=2

    def test_tumbling_divisibility(self):
        assert covered_by(Window(40, 40), Window(20, 20))
        assert covered_by(Window(30, 30), Window(10, 10))
        assert not covered_by(Window(30, 30), Window(20, 20))

    def test_mutually_prime_tumbling_not_covered(self):
        # The paper's limitation example: 15/17/19 share nothing.
        for a, b in [(17, 15), (19, 15), (19, 17)]:
            assert not covered_by(Window(a, a), Window(b, b))


class TestPartitionedBy:
    def test_paper_example_5(self):
        # W1(10,2), W2(8,2): covered but NOT partitioned (W2 not tumbling).
        assert covered_by(Window(10, 2), Window(8, 2))
        assert not partitioned_by(Window(10, 2), Window(8, 2))

    def test_provider_must_be_tumbling(self):
        assert partitioned_by(Window(20, 10), Window(5, 5))
        assert not partitioned_by(Window(20, 10), Window(10, 5))

    def test_range_must_be_multiple_of_provider_slide(self):
        assert not partitioned_by(Window(25, 25), Window(10, 10))
        assert partitioned_by(Window(30, 30), Window(10, 10))

    def test_consumer_slide_must_be_multiple(self):
        assert not partitioned_by(Window(20, 15), Window(10, 10))

    def test_partitioned_implies_covered(self):
        pairs = [
            (Window(40, 40), Window(10, 10)),
            (Window(20, 10), Window(5, 5)),
            (Window(30, 15), Window(3, 3)),
        ]
        for consumer, provider in pairs:
            assert partitioned_by(consumer, provider)
            assert covered_by(consumer, provider)

    def test_reflexive(self):
        w = Window(10, 5)
        assert partitioned_by(w, w)


class TestCoveringMultiplier:
    def test_theorem_3_formula(self):
        # M = 1 + (r1 - r2)/s2; Example 2 has M = 2.
        assert covering_multiplier(Window(10, 2), Window(8, 2)) == 2

    def test_tumbling_ratio(self):
        assert covering_multiplier(Window(40, 40), Window(10, 10)) == 4
        assert covering_multiplier(Window(40, 40), Window(20, 20)) == 2

    def test_self_multiplier_is_one(self):
        w = Window(10, 2)
        assert covering_multiplier(w, w) == 1

    def test_undefined_without_coverage(self):
        with pytest.raises(InvalidWindowError):
            covering_multiplier(Window(30, 30), Window(20, 20))

    def test_virtual_root_multiplier_equals_range(self):
        # M(W, S) = 1 + (r - 1)/1 = r.
        assert covering_multiplier(Window(40, 40), Window(1, 1)) == 40


class TestSemanticsDispatch:
    def test_relation_lookup(self):
        assert CoverageSemantics.COVERED_BY.relation() is covered_by
        assert CoverageSemantics.PARTITIONED_BY.relation() is partitioned_by

    def test_relates(self):
        consumer, provider = Window(10, 2), Window(8, 2)
        assert relates(consumer, provider, CoverageSemantics.COVERED_BY)
        assert not relates(consumer, provider, CoverageSemantics.PARTITIONED_BY)

    def test_strictly_relates_excludes_self(self):
        w = Window(10, 2)
        assert not strictly_relates(w, w, CoverageSemantics.COVERED_BY)
        assert strictly_relates(
            Window(10, 2), Window(8, 2), CoverageSemantics.COVERED_BY
        )

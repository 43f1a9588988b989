"""Property-based tests: theorems vs definitions, partial-order laws.

These are the DESIGN.md invariants 1-2: the closed-form tests of
Theorems 1, 3 and 4 must agree with brute-force enumeration straight
from Definitions 1/2/5 on arbitrary window pairs, and the coverage
relation must be a partial order (Theorem 2).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.windows.coverage import (
    covered_by,
    covering_multiplier,
    partitioned_by,
)
from oracle_intervals import (
    brute_force_covered_by,
    brute_force_multiplier,
    brute_force_partitioned_by,
)
from repro.windows.window import Window

# Arbitrary small windows (no r % s == 0 restriction: the theorems hold
# for any valid window pair).
any_window = st.builds(
    lambda s, extra: Window(s + extra, s),
    st.integers(1, 10),
    st.integers(0, 20),
)


@given(consumer=any_window, provider=any_window)
@settings(max_examples=300)
def test_theorem_1_matches_definition_1(consumer, provider):
    assert covered_by(consumer, provider) == brute_force_covered_by(
        consumer, provider
    )


@given(consumer=any_window, provider=any_window)
@settings(max_examples=300)
def test_theorem_4_matches_definition_5(consumer, provider):
    assert partitioned_by(consumer, provider) == brute_force_partitioned_by(
        consumer, provider
    )


@given(consumer=any_window, provider=any_window)
@settings(max_examples=300)
def test_theorem_3_matches_enumeration(consumer, provider):
    if covered_by(consumer, provider):
        assert covering_multiplier(consumer, provider) == brute_force_multiplier(
            consumer, provider
        )


@given(window=any_window)
def test_coverage_is_reflexive(window):
    assert covered_by(window, window)
    assert partitioned_by(window, window)


@given(a=any_window, b=any_window)
@settings(max_examples=300)
def test_coverage_is_antisymmetric(a, b):
    if covered_by(a, b) and covered_by(b, a):
        assert a == b


@given(a=any_window, b=any_window, c=any_window)
@settings(max_examples=500)
def test_coverage_is_transitive(a, b, c):
    if covered_by(a, b) and covered_by(b, c):
        assert covered_by(a, c)


@given(a=any_window, b=any_window)
@settings(max_examples=300)
def test_partitioned_implies_covered(a, b):
    if partitioned_by(a, b):
        assert covered_by(a, b)


@given(consumer=any_window, provider=any_window)
@settings(max_examples=300)
def test_multiplier_positive_and_bounded(consumer, provider):
    if covered_by(consumer, provider) and consumer != provider:
        m = covering_multiplier(consumer, provider)
        assert m >= 2  # strictly larger window needs at least two pieces
        # Each covering interval contributes at least s2 fresh ticks.
        assert m <= consumer.range


@given(consumer=any_window)
@settings(max_examples=200)
def test_virtual_root_covers_everything(consumer):
    root = Window(1, 1)
    assert covered_by(consumer, root)
    assert partitioned_by(consumer, root)

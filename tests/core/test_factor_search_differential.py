"""The integer factor-window search against the object-level oracle.

``repro.core`` searches on ``(range, slide)`` integers and allocates a
``Window`` only for a winner; ``oracle_factor_search`` is the search it
replaced, one validated ``Window`` and a full graph walk per grid
point.  Same candidates in the same order with the same first-wins
tie-break, so every output must be *identical* — not merely as cheap.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_factor_search as oracle
from repro.aggregates.registry import MIN
from repro.core.cost import CostModel
from repro.core.explain import explain
from repro.core.factor import (
    candidate_grid,
    node_rows,
    price_factor,
    split_by_slide,
    subset_signature,
)
from repro.core.optimizer import (
    SearchStats,
    insert_factor_windows,
    min_cost_wcg_with_factors,
    optimize,
)
from repro.core.wcg import WindowCoverageGraph
from repro.windows.coverage import CoverageSemantics
from repro.windows.window import Window, WindowSet
from repro.workloads.generators import RandomGen, SequentialGen

PART = CoverageSemantics.PARTITIONED_BY
COV = CoverageSemantics.COVERED_BY

LEDGER_SET_NAMES = (
    "random_hopping", "random_tumbling",
    "sequential_hopping", "sequential_tumbling",
)


def union_of(window_sets) -> WindowSet:
    return WindowSet(list(dict.fromkeys(
        window for windows in window_sets.values() for window in windows
    )))


def assert_same_search(windows: WindowSet, semantics, event_rate: int):
    model = CostModel(event_rate=event_rate)
    got, got_inserted = min_cost_wcg_with_factors(windows, semantics, model)
    want, want_inserted = oracle.min_cost_wcg_with_factors(
        windows, semantics, model
    )
    # Window, benefit and insertion order of every factor.
    assert got_inserted == want_inserted
    assert got.provider == want.provider
    assert list(got.provider) == list(want.provider)
    assert got.costs == want.costs
    assert got.total_cost == want.total_cost
    assert got.factor_windows == want.factor_windows


generated_sets = st.builds(
    lambda generator, k, size, tumbling, seed: generator(ks=k, kr=k).generate(
        min(size, k - 1), tumbling, seed
    ),
    st.sampled_from([RandomGen, SequentialGen]),
    st.sampled_from([8, 21, 50]),
    st.integers(2, 20),
    st.booleans(),
    st.integers(0, 2**31),
)


@given(
    windows=generated_sets,
    semantics=st.sampled_from([COV, PART]),
    event_rate=st.sampled_from([1, 8]),
)
@settings(max_examples=500, deadline=None)
def test_generated_sets_plan_identically(windows, semantics, event_rate):
    assert_same_search(windows, semantics, event_rate)


mixed_sets = st.lists(
    st.builds(
        lambda s, k: Window(k * s, s), st.integers(1, 12), st.integers(1, 6)
    ),
    min_size=2, max_size=8, unique=True,
).map(WindowSet)


@given(
    windows=mixed_sets,
    semantics=st.sampled_from([COV, PART]),
    event_rate=st.sampled_from([1, 8]),
)
@settings(max_examples=200, deadline=None)
def test_mixed_sets_plan_identically(windows, semantics, event_rate):
    """Tumbling and hopping windows in one set, W(1, 1) included (it
    then plays the virtual root's role as an ordinary node)."""
    assert_same_search(windows, semantics, event_rate)


@pytest.mark.parametrize("event_rate", [1, 8])
@pytest.mark.parametrize("semantics", [COV, PART])
@pytest.mark.parametrize("name", LEDGER_SET_NAMES)
def test_ledger_sets_plan_identically(
    name, semantics, event_rate, ledger_window_sets
):
    assert_same_search(ledger_window_sets[name], semantics, event_rate)


@pytest.mark.parametrize("semantics", [COV, PART])
def test_ledger_union_plans_identically(semantics, ledger_window_sets):
    union = union_of(ledger_window_sets)
    assert len(union) == 39
    assert_same_search(union, semantics, 1)


@given(
    windows=mixed_sets,
    target_index=st.integers(0, 8),
    semantics=st.sampled_from([COV, PART]),
    event_rate=st.sampled_from([1, 8]),
)
@settings(max_examples=200, deadline=None)
def test_public_wrappers_match_the_oracle(
    windows, target_index, semantics, event_rate
):
    """``candidate_grid`` enumerates the oracle's Algorithm 2 / 5
    candidates in order, and ``split_by_slide`` + ``price_factor``
    price each one as the oracle's object-level exact benefit does,
    candidate by candidate."""
    model = CostModel(event_rate=event_rate)
    graph = WindowCoverageGraph.build(windows, semantics)
    period = model.hyper_period(windows)
    target = graph.nodes[target_index % len(graph.nodes)]
    downstream = list(graph.consumers_of(target))
    partitioned = semantics is PART
    generate = (
        oracle.generate_candidates_partitioned
        if partitioned
        else oracle.generate_candidates_covered
    )
    want = generate(target, downstream, graph.nodes)
    got = []
    if downstream:
        nodes = {(w.range, w.slide) for w in graph.nodes}
        grid = candidate_grid(
            target.range, target.slide, *subset_signature(downstream),
            partitioned,
        )
        got = [
            (rf, sf) for sf, ranges in grid for rf in ranges
            if (rf, sf) not in nodes
        ]
    assert got == [(w.range, w.slide) for w in want]
    rows = node_rows(graph, period, model)
    for factor in want:
        readers, sources = split_by_slide(rows, factor.slide, partitioned)
        assert price_factor(
            factor.range, factor.slide, readers, sources,
            model.event_rate, period,
        ) == oracle.global_factor_benefit(graph, factor, period, model)


# ----------------------------------------------------------------------
# Work counters: the search's cost as exact counts, not seconds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name, expected", [
    ("random_tumbling", SearchStats(5, 32, 846)),
    ("random_hopping", SearchStats(4, 34, 2845)),
    ("sequential_tumbling", SearchStats(5, 24, 234)),
    ("sequential_hopping", SearchStats(5, 24, 202)),
])
def test_ledger_set_work_is_pinned(name, expected, ledger_window_sets):
    result = optimize(ledger_window_sets[name], MIN)
    assert result.search_stats == expected
    assert str(expected) in result.summary()
    assert str(expected) in explain(result)


def test_ledger_union_work_is_pinned(ledger_window_sets):
    """Registering the fourth ledger query re-plans this 39-window
    group.  Each of the 3 719 candidates costs one pass over the few
    nodes sharing its slide, so the count bounds the time: a search
    that stays here cannot take the second the object-level one did."""
    result = optimize(union_of(ledger_window_sets), MIN)
    assert result.search_stats == SearchStats(27, 445, 3719)


@pytest.mark.parametrize("generator", [RandomGen(), SequentialGen()])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_priced_candidates_grow_at_most_quadratically(generator, seed):
    """|W| = 40 hopping (the incremental-group scale) against |W| = 10:
    a target's candidate grid depends on the ranges and slides present,
    not on how many windows there are, so candidates grow with the
    number of targets — observed 2-3x, gated at (40 / 10)²."""
    small = optimize(generator.generate(10, False, seed), MIN).search_stats
    large = optimize(generator.generate(40, False, seed), MIN).search_stats
    assert large.targets <= 41
    assert large.candidates <= 16 * small.candidates
    assert large.subsets <= 16 * small.subsets


@pytest.mark.parametrize("semantics", [COV, PART])
def test_only_inserted_factors_become_windows(monkeypatch, semantics):
    windows = RandomGen().generate(40, semantics is PART, seed=1)
    model = CostModel()
    graph = WindowCoverageGraph.build(windows, semantics)
    constructed = []
    validate = Window.__post_init__

    def counting(self):
        constructed.append(self)
        validate(self)

    monkeypatch.setattr(Window, "__post_init__", counting)
    inserted, stats = insert_factor_windows(
        graph, model, model.hyper_period(windows)
    )
    assert stats.candidates > 10 * len(inserted) > 0
    assert constructed == [candidate.window for candidate in inserted]

"""Tests for the columnar engine's window-aggregate operators."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine
from repro.aggregates.registry import (
    AVG,
    COUNT,
    MAX,
    MEDIAN,
    MIN,
    SUM,
    get_aggregate,
    known_aggregates,
)
from repro.engine.columnar import (
    FOLD_BLOCK_BYTES,
    FOLD_PASSES_MAX_WIDTH,
    aggregate_from_provider,
    aggregate_raw,
    aggregate_raw_holistic,
    fold_covering_sets,
    num_complete_instances,
)
from repro.engine.events import make_batch
from repro.engine.stats import ExecutionStats
from repro.errors import ExecutionError
from repro.windows.window import Window


def _brute_force(batch, window, aggregate, key=0):
    """Reference: aggregate each instance directly from raw events."""
    out = []
    for m in window.instance_range(batch.horizon):
        start, end = window.interval(m)
        values = [
            v
            for t, k, v in batch.rows()
            if start <= t < end and k == key
        ]
        out.append(aggregate.compute(values))
    return np.asarray(out)


@pytest.fixture
def tiny_batch():
    rng = np.random.default_rng(3)
    n = 60
    return make_batch(
        np.arange(n), rng.normal(0, 10, n), keys=rng.integers(0, 2, n),
        num_keys=2, horizon=n,
    )


class TestAggregateRaw:
    @pytest.mark.parametrize("aggregate", [MIN, MAX, SUM, COUNT, AVG])
    @pytest.mark.parametrize(
        "window", [Window(10, 10), Window(10, 5), Window(12, 4)]
    )
    def test_matches_brute_force(self, tiny_batch, aggregate, window):
        state = aggregate_raw(tiny_batch, window, aggregate)
        finalized = state.finalized(aggregate)
        for key in range(2):
            expected = _brute_force(tiny_batch, window, aggregate, key)
            np.testing.assert_allclose(
                finalized[key], expected, rtol=1e-9, equal_nan=True
            )

    def test_pair_count_tumbling(self, tiny_batch):
        stats = ExecutionStats()
        aggregate_raw(tiny_batch, Window(10, 10), MIN, stats)
        # Every event hits exactly one complete instance.
        assert stats.total_pairs == 60

    def test_pair_count_hopping(self, tiny_batch):
        stats = ExecutionStats()
        aggregate_raw(tiny_batch, Window(10, 5), MIN, stats)
        # k = 2 instances per event, minus edge effects at stream start
        # (events in [0,5) hit one instance) and end (instances past the
        # horizon are not produced).
        assert 100 <= stats.total_pairs <= 120

    def test_empty_batch(self):
        batch = make_batch([], [], horizon=40)
        state = aggregate_raw(batch, Window(10, 10), MIN)
        assert state.num_instances == 4
        assert np.all(np.isnan(state.finalized(MIN)))

    def test_short_horizon_no_instances(self):
        batch = make_batch([0, 1], [1.0, 2.0], horizon=5)
        state = aggregate_raw(batch, Window(10, 10), MIN)
        assert state.num_instances == 0

    def test_num_complete_instances(self):
        assert num_complete_instances(Window(10, 5), 30) == 5
        assert num_complete_instances(Window(10, 5), 9) == 0


class TestAggregateFromProvider:
    @pytest.mark.parametrize("aggregate", [MIN, MAX])
    def test_covered_merge_matches_raw(self, tiny_batch, aggregate):
        provider, consumer = Window(8, 2), Window(10, 2)
        provider_state = aggregate_raw(tiny_batch, provider, aggregate)
        state = aggregate_from_provider(
            provider_state, consumer, aggregate, tiny_batch.horizon
        )
        direct = aggregate_raw(tiny_batch, consumer, aggregate)
        np.testing.assert_allclose(
            state.finalized(aggregate),
            direct.finalized(aggregate),
            equal_nan=True,
        )

    @pytest.mark.parametrize("aggregate", [SUM, COUNT, AVG])
    def test_partitioned_merge_matches_raw(self, tiny_batch, aggregate):
        provider, consumer = Window(5, 5), Window(20, 10)
        provider_state = aggregate_raw(tiny_batch, provider, aggregate)
        state = aggregate_from_provider(
            provider_state, consumer, aggregate, tiny_batch.horizon
        )
        direct = aggregate_raw(tiny_batch, consumer, aggregate)
        np.testing.assert_allclose(
            state.finalized(aggregate),
            direct.finalized(aggregate),
            rtol=1e-9,
            equal_nan=True,
        )

    def test_pair_count_matches_multiplier(self, tiny_batch):
        provider, consumer = Window(10, 10), Window(30, 30)
        provider_state = aggregate_raw(tiny_batch, provider, MIN)
        stats = ExecutionStats()
        aggregate_from_provider(
            provider_state, consumer, MIN, tiny_batch.horizon, stats
        )
        # 2 complete consumer instances * M=3 * 2 keys.
        assert stats.pairs_per_window[consumer] == 2 * 3 * 2

    def test_uncovered_provider_rejected(self, tiny_batch):
        from repro.errors import ReproError

        provider_state = aggregate_raw(tiny_batch, Window(4, 4), MIN)
        with pytest.raises(ReproError):
            aggregate_from_provider(
                provider_state, Window(10, 10), MIN, tiny_batch.horizon
            )

    def test_chained_providers(self, tiny_batch):
        # W(10) -> W(20) -> W(40)' three-level chain, still exact.
        s10 = aggregate_raw(tiny_batch, Window(10, 10), MIN)
        s20 = aggregate_from_provider(
            s10, Window(20, 20), MIN, tiny_batch.horizon
        )
        s40 = aggregate_from_provider(
            s20, Window(40, 40), MIN, tiny_batch.horizon
        )
        direct = aggregate_raw(tiny_batch, Window(40, 40), MIN)
        np.testing.assert_allclose(
            s40.finalized(MIN), direct.finalized(MIN), equal_nan=True
        )


class TestHolisticPath:
    def test_median_matches_brute_force(self, tiny_batch):
        out = aggregate_raw_holistic(tiny_batch, Window(12, 4), MEDIAN)
        for key in range(2):
            expected = _brute_force(tiny_batch, Window(12, 4), MEDIAN, key)
            np.testing.assert_allclose(out[key], expected, equal_nan=True)

    def test_empty_batch_all_nan(self):
        batch = make_batch([], [], horizon=24)
        out = aggregate_raw_holistic(batch, Window(12, 4), MEDIAN)
        assert np.all(np.isnan(out))


MERGE_UFUNCS = sorted(
    {
        ufunc
        for name in known_aggregates()
        for ufunc in get_aggregate(name).component_ufuncs
    },
    key=lambda ufunc: ufunc.__name__,
)
CROSSOVER = FOLD_PASSES_MAX_WIDTH


class TestFoldCoveringSets:
    """The one covering-set merge (DESIGN.md §5, "One merge primitive")."""

    @pytest.mark.parametrize("cut", [0, 3], ids=["contiguous", "column-cut"])
    @pytest.mark.parametrize(
        "width", [1, 2, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, 64]
    )
    @pytest.mark.parametrize("ufunc", MERGE_UFUNCS, ids=lambda u: u.__name__)
    @given(
        pool=st.lists(st.floats(width=64), min_size=1, max_size=24),
        seed=st.integers(0, 2**32 - 1),
        num_keys=st.integers(1, 3),
        count=st.sampled_from([1, 2, 20]),
        first=st.integers(1, 4),
        stride_vs_width=st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=20, deadline=None)
    def test_is_the_fold_of_each_set_exactly(
        self, ufunc, width, cut, pool, seed, num_keys, count, first,
        stride_vs_width,
    ):
        """``==``, not ``allclose``, over arbitrary float64 (NaN and
        ±inf included): a strict left fold in time order up to the
        crossover, NumPy's own reduce of each contiguous set above it —
        whatever the table's strides, and without ever aliasing it."""
        rng = np.random.default_rng(seed)
        stride = max(1, width + stride_vs_width * int(rng.integers(1, 4)))
        columns = first + (count - 1) * stride + width + int(rng.integers(0, 3))
        backing = rng.choice(np.array(pool), size=(num_keys, cut + columns))
        comp = backing[:, cut:]
        with np.errstate(all="ignore"):
            got = fold_covering_sets(ufunc, comp, first, stride, width, count)
            expected = np.empty((num_keys, count))
            for key in range(num_keys):
                for m in range(count):
                    members = comp[key, first + m * stride:][:width]
                    if width <= CROSSOVER:
                        acc = members[0]
                        for x in members[1:]:
                            acc = ufunc(acc, x)
                    else:
                        acc = ufunc.reduce(members)
                    expected[key, m] = acc
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)
        assert not np.shares_memory(got, backing)
        backing[...] = 0.0
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("ufunc", MERGE_UFUNCS, ids=lambda u: u.__name__)
    def test_a_table_wider_than_one_block_folds_the_same(self, ufunc):
        """The passes run over ``FOLD_BLOCK_BYTES`` of partials at a
        time; where the row blocks fall must not show."""
        rng = np.random.default_rng(5)
        comp = rng.normal(0, 50, (5, 8 + FOLD_BLOCK_BYTES // 32))
        count = (comp.shape[1] - 3) // 2  # one row spans a quarter block
        got = fold_covering_sets(ufunc, comp, 1, 2, 3, count)
        stop = 1 + 2 * count
        expected = ufunc(
            ufunc(comp[:, 1:stop:2], comp[:, 2:stop:2]), comp[:, 3:stop + 1:2]
        )
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("ufunc", [np.minimum, np.maximum])
    @pytest.mark.parametrize("width", [CROSSOVER, CROSSOVER + 1, 64])
    def test_order_insensitive_merges_match_the_gathered_reduce(
        self, ufunc, width
    ):
        rng = np.random.default_rng(width)
        comp = rng.normal(0, 50, (4, 300))
        index = 2 + 7 * np.arange(30)[:, None] + np.arange(width)[None, :]
        np.testing.assert_array_equal(
            fold_covering_sets(ufunc, comp, 2, 7, width, 30),
            ufunc.reduce(comp[:, index], axis=2),
        )

    @pytest.mark.parametrize("width", [1, CROSSOVER, CROSSOVER + 1])
    @pytest.mark.parametrize(
        "first, count", [(-1, 2), (0, 50), (5, 3)],
        ids=["before-the-table", "over-long", "one-column-short"],
    )
    def test_out_of_range_sets_are_refused_before_any_read(
        self, width, first, count
    ):
        stride = width
        comp = np.zeros((2, 5 + 2 * stride + width - 1))
        with pytest.raises(ExecutionError, match="outside the"):
            fold_covering_sets(np.add, comp, first, stride, width, count)


def test_only_the_merge_primitive_builds_strided_views_or_gathers():
    """A strided view reads whatever the arithmetic says; the bound
    check lives in ``fold_covering_sets``, so nothing else in the engine
    may build one — nor gather a ``[:, index]`` copy of its own."""
    users = set()
    for path in sorted(Path(repro.engine.__file__).parent.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and any(
                name in ast.unparse(node)
                for name in ("as_strided", "sliding_window_view", "[:, index]")
            ):
                users.add((path.name, node.name))
        if path.name != "columnar.py":
            assert "stride_tricks" not in source, path.name
    assert users == {("columnar.py", "fold_covering_sets")}

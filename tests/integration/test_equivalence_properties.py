"""Property-based end-to-end equivalence (DESIGN.md invariant 5).

For random window sets and random streams, every plan variant — the
original plan, the rewritten plan, the factor-window plan, the slicing
baseline, on both engines — must produce identical per-window results.
This is the single most important guarantee of the whole system: the
optimizer may only make queries *faster*, never *different*.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_streaming
from repro.aggregates.registry import AVG, COUNT, MAX, MIN, SUM
from repro.bench.harness import compare_plans  # noqa: F401  (API sanity)
from repro.core.optimizer import optimize
from repro.core.rewrite import rewrite_plan
from repro.engine.events import make_batch
from repro.engine.executor import execute_plan, results_equal
from repro.plans.builder import original_plan
from repro.slicing.slicer import execute_sliced
from repro.windows.window import Window, WindowSet

tumbling_sets = st.lists(
    st.sampled_from([4, 5, 6, 8, 10, 12, 15, 20, 24, 30]),
    min_size=2,
    max_size=4,
    unique=True,
).map(lambda ranges: WindowSet([Window(r, r) for r in ranges]))

hopping_sets = st.lists(
    st.tuples(st.sampled_from([2, 3, 5, 6]), st.integers(2, 4)),
    min_size=2,
    max_size=3,
    unique=True,
).map(
    lambda pairs: WindowSet(
        _dedupe(Window(k * s, s) for s, k in pairs)
    )
)


def _dedupe(windows):
    seen, out = set(), []
    for w in windows:
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _random_batch(seed: int, horizon: int = 150, num_keys: int = 2):
    rng = np.random.default_rng(seed)
    # Bursty stream with gaps: harder than constant rate.
    n = rng.integers(horizon // 2, horizon * 2)
    ts = np.sort(rng.integers(0, horizon - 1, n))
    keys = rng.integers(0, num_keys, n)
    values = rng.normal(0, 100, n)
    return make_batch(ts, values, keys=keys, num_keys=num_keys, horizon=horizon)


def _all_variants(windows, aggregate):
    result = optimize(windows, aggregate)
    plans = [original_plan(windows, aggregate)]
    if result.without_factors is not None:
        plans.append(rewrite_plan(result.without_factors, aggregate))
    if result.with_factors is not None:
        plans.append(
            rewrite_plan(result.with_factors, aggregate, description="factors")
        )
    return plans


@pytest.mark.parametrize("aggregate", [MIN, MAX], ids=lambda a: a.name)
@given(windows=hopping_sets, seed=st.integers(0, 10_000))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_covered_by_plans_equivalent(aggregate, windows, seed):
    batch = _random_batch(seed)
    reference = None
    for plan in _all_variants(windows, aggregate):
        result = execute_plan(plan, batch)
        if reference is None:
            reference = result
        else:
            assert results_equal(reference, result)


@pytest.mark.parametrize("aggregate", [SUM, COUNT, AVG], ids=lambda a: a.name)
@given(windows=tumbling_sets, seed=st.integers(0, 10_000))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_partitioned_by_plans_equivalent(aggregate, windows, seed):
    batch = _random_batch(seed)
    reference = None
    for plan in _all_variants(windows, aggregate):
        result = execute_plan(plan, batch)
        if reference is None:
            reference = result
        else:
            assert results_equal(reference, result)


@given(windows=tumbling_sets, seed=st.integers(0, 10_000))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_streaming_engine_agrees_with_columnar(windows, seed):
    """The session engine against both references: ``columnar`` and the
    per-event oracle, which share no operator code with it."""
    batch = _random_batch(seed, horizon=100)
    for plan in _all_variants(windows, MIN):
        columnar = execute_plan(plan, batch, engine="columnar")
        streaming = oracle_streaming.execute(plan, batch)
        chunked = execute_plan(plan, batch, engine="streaming-chunked")
        for reference in (columnar, streaming):
            assert results_equal(reference, chunked)
            assert (
                reference.stats.pairs_per_window
                == chunked.stats.pairs_per_window
            )


@pytest.mark.parametrize("aggregate", [SUM, AVG], ids=lambda a: a.name)
@given(windows=hopping_sets, seed=st.integers(0, 10_000))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_raw_reads_share_one_fold_order_on_real_values(
    aggregate, windows, seed
):
    """Every path bins raw events through one primitive whose fold
    order is input order — the order the row-at-a-time oracle adds in —
    so on a real-valued (non-integer) stream the original plan's sums
    are *equal*, not merely close: ``columnar`` against the oracle on
    hopping windows, where an ``allclose`` would hide a pairwise or
    re-sorted reduction."""
    batch = _random_batch(seed, horizon=100)
    assert np.any(batch.values != np.round(batch.values))
    plan = original_plan(windows, aggregate)
    columnar = execute_plan(plan, batch, engine="columnar")
    streaming = oracle_streaming.execute(plan, batch)
    for window in windows:
        np.testing.assert_array_equal(
            columnar.results[window], streaming.results[window]
        )


@given(windows=hopping_sets, seed=st.integers(0, 10_000))
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_slicing_baseline_agrees(windows, seed):
    batch = _random_batch(seed)
    sliced = execute_sliced(windows, MIN, batch)
    reference = execute_plan(original_plan(windows, MIN), batch)
    for window in windows:
        np.testing.assert_allclose(
            sliced.results[window],
            reference.results[window],
            rtol=1e-9,
            equal_nan=True,
        )

"""Property-based equivalence across every engine path and the oracle.

DESIGN.md invariants 5–6 extended to every engine name: for random
window sets (tumbling and hopping), random streams, and every plan
variant (original / rewritten / factor windows), all paths and the
per-event test oracle must produce identical results *and* identical
logical pair counts — and the logical counts must still equal the cost
model's prediction on aligned constant-rate streams even though the
fast paths physically do less work.
"""

import sysconfig
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_streaming
from repro.aggregates.registry import (
    AVG,
    COUNT_DISTINCT,
    MAX,
    MEDIAN,
    MIN,
    STDEV,
    SUM,
)
from repro.core.cost import CostModel
from repro.core.optimizer import min_cost_wcg_with_factors, optimize
from repro.core.rewrite import rewrite_plan
from repro.engine.events import make_batch
from repro.engine.executor import (
    available_engines,
    execute_plan,
    results_equal,
)
from repro.plans.builder import original_plan
from repro.windows.coverage import CoverageSemantics
from repro.windows.window import Window, WindowSet

ENGINES = (
    "columnar",
    "columnar-panes",
    "columnar-panes-native",
    "streaming-chunked",
)
#: Every engine name and the per-event test oracle, as (plan, batch) runs.
ALL_ENGINES = {name: partial(execute_plan, engine=name) for name in ENGINES}
ALL_ENGINES["oracle"] = oracle_streaming.execute

tumbling_sets = st.lists(
    st.sampled_from([4, 5, 6, 8, 10, 12, 15, 20]),
    min_size=2,
    max_size=4,
    unique=True,
).map(lambda ranges: WindowSet([Window(r, r) for r in ranges]))

hopping_sets = st.lists(
    st.tuples(st.sampled_from([2, 3, 5, 6]), st.integers(2, 4)),
    min_size=2,
    max_size=3,
    unique=True,
).map(lambda pairs: WindowSet(_dedupe(Window(k * s, s) for s, k in pairs)))


def _dedupe(windows):
    seen, out = set(), []
    for w in windows:
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _random_batch(seed: int, horizon: int = 130, num_keys: int = 2):
    rng = np.random.default_rng(seed)
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


def test_registry_exposes_all_paths():
    """The matrix below runs every engine name there is."""
    assert available_engines() == ENGINES


@pytest.mark.parametrize(
    "aggregate",
    [MIN, SUM, AVG, STDEV, MEDIAN, COUNT_DISTINCT],
    ids=lambda a: a.name,
)
def test_native_path_bit_identical_to_panes(aggregate, monkeypatch):
    """The C kernel must match the NumPy closed form *bitwise*, not just
    within allclose tolerance.  The pane engine is one callable whatever
    its name; ``REPRO_KERNELS`` alone picks the holistic kernel, so the
    two sides are one engine name under ``0`` and ``1`` (mergeable
    aggregates run the same scatter either way)."""
    from repro import _kernels

    windows = WindowSet([Window(12, 4), Window(20, 4), Window(6, 6)])
    batch = _random_batch(404, horizon=240, num_keys=3)
    plan = original_plan(windows, aggregate)
    monkeypatch.setenv("REPRO_KERNELS", "1")
    if not _kernels.globally_enabled():
        pytest.skip(f"no compiled kernels: {_kernels.availability_error()}")
    native = execute_plan(plan, batch, engine="columnar-panes")
    monkeypatch.setenv("REPRO_KERNELS", "0")
    pure = execute_plan(plan, batch, engine="columnar-panes")
    assert set(pure.results) == set(native.results)
    for window, array in pure.results.items():
        np.testing.assert_array_equal(array, native.results[window])
    assert pure.stats.pairs_per_window == native.stats.pairs_per_window


@pytest.mark.parametrize("aggregate", [MIN, MEDIAN], ids=lambda a: a.name)
def test_native_path_falls_back_without_kernels(aggregate, monkeypatch):
    """Asking for the kernel on a host that cannot build it (CI points
    ``REPRO_CC`` at a missing compiler) silently takes NumPy: results,
    the holistic MEDIAN's included, are those of ``REPRO_KERNELS=0``
    bit for bit.  Where the kernel builds, this is the bit-identity
    above."""
    from repro import _kernels

    windows = WindowSet([Window(12, 4), Window(8, 8)])
    batch = _random_batch(77)
    plan = original_plan(windows, aggregate)
    monkeypatch.setenv("REPRO_KERNELS", "0")
    assert not _kernels.available()
    assert "disabled" in _kernels.availability_error()
    pure = execute_plan(plan, batch, engine="columnar-panes")
    monkeypatch.setenv("REPRO_KERNELS", "1")
    requested = execute_plan(plan, batch, engine="columnar-panes-native")
    assert set(pure.results) == set(requested.results)
    for window, array in pure.results.items():
        np.testing.assert_array_equal(array, requested.results[window])


@pytest.fixture
def fresh_kernels(monkeypatch, tmp_path):
    """The kernel loader as a new process finds it, caching in
    ``tmp_path`` and asked for the kernels (``REPRO_KERNELS=1``); the
    process's own module comes back after the test."""
    from repro import _kernels

    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_KERNELS", "1")
    monkeypatch.setattr(_kernels, "_module", None)
    monkeypatch.setattr(_kernels, "_load_attempted", False)
    monkeypatch.setattr(_kernels, "_load_error", None)
    return _kernels


def test_a_module_built_for_another_interpreter_is_never_loaded(
    fresh_kernels, monkeypatch
):
    """The cached module's name carries the interpreter's
    ``EXT_SUFFIX``: a file another interpreter cached beside it (here
    a junk one, which would fail to load) is a different file."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    own = fresh_kernels._module_path()
    config_var = sysconfig.get_config_var
    with monkeypatch.context() as other:
        other.setattr(
            sysconfig, "get_config_var",
            lambda name: ".cpython-39-other.so" if name == "EXT_SUFFIX"
            else config_var(name),
        )
        foreign = fresh_kernels._module_path()
    assert own.name.endswith(suffix) and foreign.name != own.name
    assert foreign.parent == own.parent
    foreign.parent.mkdir(parents=True)
    foreign.write_bytes(b"another interpreter's build")
    if not fresh_kernels.available():
        error = fresh_kernels.availability_error()
        assert "failed to load" not in error
        pytest.skip(f"no compiled kernels: {error}")
    assert fresh_kernels._module.__file__ == str(own)


def test_threads_racing_the_first_load_all_get_the_kernels(
    fresh_kernels, monkeypatch
):
    """The caller's thread and a pump thread may both reach the loader
    first: one builds, the others wait for its verdict instead of
    reading "not loaded" (which ``require`` would raise on)."""
    from repro.engine.events import event_columns

    monkeypatch.setenv("REPRO_KERNELS", "require")
    gate = threading.Barrier(4)
    failures = []

    def convert():
        gate.wait()
        try:
            event_columns([(1, 0, 1.0)], 2)
        except fresh_kernels.KernelsUnavailable as exc:
            failures.append(str(exc))

    threads = [threading.Thread(target=convert) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    if fresh_kernels._module is None:
        pytest.skip(f"no compiled kernels: {fresh_kernels._load_error}")
    assert failures == []


def test_missing_python_headers_fall_back(
    fresh_kernels, monkeypatch, tmp_path
):
    """Without ``Python.h`` at the include path ``sysconfig`` reports,
    nothing is built: the kernels are unavailable and say why,
    ``REPRO_KERNELS=1`` gives NumPy's results bit for bit, and
    ``require`` refuses."""
    from repro.engine.events import event_columns

    get_paths = sysconfig.get_paths
    empty = tmp_path / "include"
    empty.mkdir()
    monkeypatch.setattr(
        sysconfig, "get_paths",
        lambda *args, **kwargs: {
            **get_paths(*args, **kwargs),
            "include": str(empty),
            "platinclude": str(empty),
        },
    )
    assert not fresh_kernels.available()
    assert "Python.h" in fresh_kernels.availability_error()
    assert not list((tmp_path / "cache").glob("*"))
    rows = [(0, 0, 1.5), (3, 1, float("nan")), (7, 0, 2**60 + 1)]
    plan = original_plan(WindowSet([Window(12, 4), Window(8, 8)]), MEDIAN)
    batch = _random_batch(77)
    runs = {}
    for mode in ("0", "1"):
        monkeypatch.setenv("REPRO_KERNELS", mode)
        columns = event_columns(rows, 2)
        runs[mode] = (
            [(c.dtype, c.tobytes()) for c in columns],
            execute_plan(plan, batch, engine="columnar-panes"),
        )
    assert runs["1"][0] == runs["0"][0]
    assert results_equal(runs["1"][1], runs["0"][1])
    monkeypatch.setenv("REPRO_KERNELS", "require")
    with pytest.raises(fresh_kernels.KernelsUnavailable, match="Python.h"):
        fresh_kernels.resolve()
    with pytest.raises(fresh_kernels.KernelsUnavailable, match="Python.h"):
        event_columns(rows, 2)


@pytest.mark.parametrize("aggregate", [MIN, MAX], ids=lambda a: a.name)
@given(windows=hopping_sets, seed=st.integers(0, 10_000))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_all_paths_agree_on_hopping_sets(aggregate, windows, seed):
    batch = _random_batch(seed)
    for plan in _all_variants(windows, aggregate):
        reference = None
        for run in ALL_ENGINES.values():
            result = run(plan, batch)
            if reference is None:
                reference = result
            else:
                assert results_equal(reference, result)
                assert (
                    reference.stats.pairs_per_window
                    == result.stats.pairs_per_window
                )


@pytest.mark.parametrize("aggregate", [SUM, AVG], ids=lambda a: a.name)
@given(windows=tumbling_sets, seed=st.integers(0, 10_000))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_all_paths_agree_on_tumbling_sets(aggregate, windows, seed):
    batch = _random_batch(seed)
    for plan in _all_variants(windows, aggregate):
        reference = None
        for run in ALL_ENGINES.values():
            result = run(plan, batch)
            if reference is None:
                reference = result
            else:
                assert results_equal(reference, result)
                assert (
                    reference.stats.pairs_per_window
                    == result.stats.pairs_per_window
                )


@given(windows=tumbling_sets, periods=st.integers(1, 3))
@settings(max_examples=10, deadline=None)
def test_fast_path_logical_pairs_match_cost_model(windows, periods):
    """The pane path's *logical* counters still equal the analytic cost
    model exactly, even though its physical touches are fewer."""
    model = CostModel()
    period = model.hyper_period(windows)
    horizon = periods * period
    ts = np.arange(horizon)
    batch = make_batch(ts, np.sin(ts / 3.0), horizon=horizon)

    gmin, _ = min_cost_wcg_with_factors(
        windows, CoverageSemantics.PARTITIONED_BY
    )
    plan = rewrite_plan(gmin, MIN)
    for engine in (
        "columnar-panes",
        "columnar-panes-native",
        "streaming-chunked",
    ):
        result = execute_plan(plan, batch, engine=engine)
        assert result.stats.total_pairs == periods * gmin.total_cost
        # Physical work never exceeds logical on constant-rate streams
        # once the plan has any hopping or multi-pane window; at the
        # very least it must stay within logical + one binning pass.
        assert (
            result.stats.total_physical
            <= result.stats.total_pairs + batch.num_events
        )

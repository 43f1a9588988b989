"""The batch executor's schedule: sibling subtrees on helper threads.

``ChunkedStreamingExecutor`` advances a plan's operators as a DAG — an
operator is ready once its provider has advanced — on the calling
thread plus ``ENGINE_HELPERS`` helpers, whenever some close folds at
least ``HANDOFF_CELLS`` cells (DESIGN.md §5, "Sibling subtrees").  Each
operator's output is a function of its provider's blocks alone, so the
schedule must not show: results bit for bit, ``ExecutionStats`` (dict
order included) and the raised exception are the serial loop's.  Every
check runs on both engine names behind the executor and under every
``REPRO_KERNELS`` setting the host can build.
"""

import gc
import os
import threading
import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import _kernels as kernels
from repro.aggregates.registry import MIN, get_aggregate, known_aggregates
from repro.core.optimizer import optimize
from repro.core.rewrite import rewrite_plan
from repro.engine import streaming
from repro.engine.events import make_batch
from repro.engine.executor import execute_plan
from repro.errors import ExecutionError
from repro.plans.builder import original_plan
from repro.windows.window import Window, WindowSet

ENGINES = ("columnar-panes", "streaming-chunked")
KERNEL_MODES = ("0", "1", "require") if kernels.available() else ("0",)
AGGREGATES = tuple(dict.fromkeys(get_aggregate(n) for n in known_aggregates()))
HELPER = "repro-engine-helper"

#: Under MIN: a factor window W(10, 10) feeding W(20, 20), W(30, 30)
#: and W(50, 50), the first two heading chains to W(80, 80) and
#: W(120, 120): sibling subtrees of three, three and one operators.
TREE = WindowSet([Window(r, r) for r in (20, 30, 40, 50, 60, 80, 120)])

hopping_sets = st.lists(
    st.tuples(st.sampled_from([2, 3, 4, 5, 6, 10]), st.integers(1, 4)),
    min_size=2,
    max_size=6,
    unique=True,
).map(lambda pairs: WindowSet(list(dict.fromkeys(
    Window(k * s, s) for s, k in pairs
))))


def _batch(seed: int, horizon: int = 240, num_keys: int = 3):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(horizon // 2, horizon * 3))
    ts = np.sort(rng.integers(0, horizon - 1, n))
    keys = rng.integers(0, num_keys, n)
    values = rng.normal(0, 100, n)
    return make_batch(ts, values, keys=keys, num_keys=num_keys, horizon=horizon)


def _factor_plan(windows, aggregate):
    best = optimize(windows, aggregate).with_factors
    if best is None:  # holistic: no partials to share
        return original_plan(windows, aggregate)
    return rewrite_plan(best, aggregate)


def _schedule(monkeypatch, helpers, handoff=1):
    monkeypatch.setattr(streaming, "ENGINE_HELPERS", helpers)
    monkeypatch.setattr(streaming, "HANDOFF_CELLS", handoff)


def _kernels(mode):
    return mock.patch.dict(os.environ, {"REPRO_KERNELS": mode})


def _observed(run):
    """Every bit of every result, and every counter in dict order."""
    results = [
        (window, run.results[window].view(np.int64).tolist())
        for window in run.results
    ]
    stats = {
        name: list(value.items()) if isinstance(value, dict) else value
        for name, value in vars(run.stats).items()
        if name != "wall_seconds"
    }
    return results, stats


def _helpers_alive():
    return [t for t in threading.enumerate() if t.name == HELPER]


@pytest.mark.parametrize("mode", KERNEL_MODES)
@pytest.mark.parametrize("engine", ENGINES)
@given(
    windows=hopping_sets,
    aggregate=st.sampled_from(AGGREGATES),
    seed=st.integers(0, 2**32 - 1),
    handoff=st.sampled_from([1, 16, 64, 256, 1024]),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_threads_never_show(
    monkeypatch, engine, mode, windows, aggregate, seed, handoff
):
    """Closes on both sides of the hand-off constant: results and
    stats are the serial loop's in every bit and in dict order."""
    plan = _factor_plan(windows, aggregate)
    batch = _batch(seed)
    with _kernels(mode):
        _schedule(monkeypatch, 0)
        serial = _observed(execute_plan(plan, batch, engine=engine))
        _schedule(monkeypatch, 2, handoff)
        threaded = _observed(execute_plan(plan, batch, engine=engine))
    assert threaded == serial


@pytest.mark.parametrize("mode", KERNEL_MODES)
@pytest.mark.parametrize("engine", ENGINES)
def test_a_round_really_runs_on_helpers(monkeypatch, engine, mode):
    """The property above is not vacuous: the factor tree's round
    starts helpers, and they advance operators."""
    plan = _factor_plan(TREE, MIN)
    ran_on = set()
    advance = streaming._ChunkedOperator.advance

    def spy(operator, watermark):
        ran_on.add(threading.current_thread().name)
        advance(operator, watermark)

    _schedule(monkeypatch, 2)
    monkeypatch.setattr(streaming._ChunkedOperator, "advance", spy)
    with _kernels(mode):
        for seed in range(20):
            execute_plan(plan, _batch(seed), engine=engine)
    assert HELPER in ran_on
    assert not _helpers_alive()


def _failing_executor(plan, batch, engine):
    """An executor whose factor window's first and last consumers fail
    at their first close; the earlier one sleeps first, so on helpers
    the later one fails first in time.  Returns it and the earlier
    one's window."""
    executor = streaming.ChunkedStreamingExecutor(
        plan, batch,
        chunk_ticks=batch.horizon if engine == "columnar-panes" else None,
    )
    factor = next(
        i for i, children in enumerate(executor._children) if len(children) > 2
    )
    first, last = executor._children[factor][0], executor._children[factor][-1]
    for index, pause in ((first, 0.05), (last, 0.0)):
        operator = executor._topo[index]

        def fail(m0, m1, window=operator.window, pause=pause):
            time.sleep(pause)
            raise ExecutionError(f"{window} failed")

        operator._close_range = fail
    return executor, executor._topo[first].window


def _failing_siblings(monkeypatch, plan, batch, engine, helpers):
    executor, first = _failing_executor(plan, batch, engine)
    _schedule(monkeypatch, helpers)
    with pytest.raises(ExecutionError) as raised:
        executor.run()
    return str(raised.value), first


@pytest.mark.parametrize("mode", KERNEL_MODES)
@pytest.mark.parametrize("engine", ENGINES)
def test_the_first_failing_operator_raises(monkeypatch, engine, mode):
    plan = _factor_plan(TREE, MIN)
    batch = _batch(3)
    with _kernels(mode):
        serial, first = _failing_siblings(monkeypatch, plan, batch, engine, 0)
        threaded, _ = _failing_siblings(monkeypatch, plan, batch, engine, 2)
    assert serial == threaded == f"{first} failed"
    assert not _helpers_alive()


@pytest.mark.parametrize("mode", KERNEL_MODES)
@pytest.mark.parametrize("engine", ENGINES)
def test_no_helper_outlives_execute_plan(monkeypatch, engine, mode):
    plan = _factor_plan(TREE, MIN)
    _schedule(monkeypatch, 2)
    with _kernels(mode):
        for seed in range(5):
            execute_plan(plan, _batch(seed), engine=engine)
            assert not _helpers_alive()


def test_one_cpu_starts_no_helper(monkeypatch):
    """``ENGINE_HELPERS`` is one per further CPU this process may run
    on, and a run at its own value starts helpers only if it is not
    0: none under ``taskset -c 0``."""
    cpus = len(os.sched_getaffinity(0))
    assert streaming.ENGINE_HELPERS == cpus - 1
    started = []
    thread_start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        thread_start(thread)

    monkeypatch.setattr(streaming, "HANDOFF_CELLS", 1)
    monkeypatch.setattr(threading.Thread, "start", spy)
    execute_plan(_factor_plan(TREE, MIN), _batch(0), engine="columnar-panes")
    assert (started.count(HELPER) > 0) == (streaming.ENGINE_HELPERS > 0)


@pytest.mark.parametrize("mode", KERNEL_MODES)
@pytest.mark.parametrize("engine", ENGINES)
def test_results_die_at_del_without_the_collector(monkeypatch, engine, mode):
    """No reference cycle keeps a threaded run's arrays alive: a cycle
    would hold every operator's blocks until the cyclic GC ran."""
    plan = _factor_plan(TREE, MIN)
    batch = _batch(1)
    _schedule(monkeypatch, 2)
    gc.collect()
    gc.disable()
    try:
        with _kernels(mode):
            run = execute_plan(plan, batch, engine=engine)
        refs = [weakref.ref(array) for array in run.results.values()]
        assert all(ref() is not None for ref in refs)
        del run
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("engine", ENGINES)
def test_a_failed_run_dies_at_del_without_the_collector(monkeypatch, engine):
    """Neither the raised exception nor the helpers' tracebacks close a
    cycle through the executor."""
    executor, _ = _failing_executor(_factor_plan(TREE, MIN), _batch(3), engine)
    refs = [weakref.ref(operator) for operator in executor._topo]
    _schedule(monkeypatch, 2)
    gc.collect()
    gc.disable()
    try:
        try:
            executor.run()
        except ExecutionError:
            pass
        del executor
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()

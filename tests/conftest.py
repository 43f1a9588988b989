"""Shared fixtures and hypothesis strategies for the test suite.

Randomized-seed policy
----------------------
Every randomized (non-hypothesis) property test draws its randomness
from the ``repro_seed`` / ``repro_rng`` fixtures, whose seed comes from
the ``REPRO_TEST_SEED`` environment variable (fresh entropy when
unset).  The seed is printed in the pytest header and embedded in
assertion messages, so any counterexample — e.g. a shard-invariance
violation — reproduces exactly with::

    REPRO_TEST_SEED=<seed> python -m pytest ...

Hypothesis tests draw from the same seed: unless ``--hypothesis-seed``
is given, :func:`pytest_configure` hands ``REPRO_TEST_SEED`` to it, so
a pinned seed replays a fresh seed's examples and two seeds explore
different ones.  The ``repro`` profile prints reproduction blobs on
failure; ``--hypothesis-profile=sweep`` (the scheduled seed sweep,
``.github/workflows/seed-sweep.yml``) also raises every test's example
budget.

Resource fences
---------------
A test that leaves something behind fails itself, not whichever later
test counts:

* the front-door suites: no live ``repro-ingest-pump`` thread;
* every test whose sessions have a backend life-cycle — all of
  ``tests/runtime`` and ``tests/scenarios``, and every ``chaos`` test
  (the service's included): no live worker process, no new
  ``/dev/shm`` entry, and this process's descriptor count back to its
  baseline.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import sys
import threading
import time
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from repro.engine.events import EventBatch, make_batch
from repro.windows.window import Window, WindowSet

# The per-event oracles (``oracle_streaming``, ``oracle_reorder``) live
# beside the engine tests; this makes them importable from every suite.
sys.path.insert(0, str(Path(__file__).parent / "engine"))

_SEED_ENV = os.environ.get("REPRO_TEST_SEED")
REPRO_TEST_SEED = (
    int(_SEED_ENV)
    if _SEED_ENV is not None
    else int.from_bytes(os.urandom(4), "big")
)

#: How many times its own ``max_examples`` a property test runs under
#: the ``sweep`` profile.
_SWEEP_FACTOR = 10

hypothesis_settings.register_profile("repro", print_blob=True)
hypothesis_settings.register_profile(
    "sweep",
    hypothesis_settings.get_profile("repro"),
    max_examples=100 * _SWEEP_FACTOR,
)
hypothesis_settings.load_profile("repro")


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # Runs before hypothesis's own hook, which reads the option.
    if config.getoption("hypothesis_seed", None) is None:
        config.option.hypothesis_seed = REPRO_TEST_SEED


def pytest_collection_modifyitems(items):
    """Under the ``sweep`` profile, raise the budgets a profile cannot
    reach: a test's own ``@settings(max_examples=...)`` wins over any
    profile."""
    if hypothesis_settings.get_current_profile_name() != "sweep":
        return
    raised = set()
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)  # a method's function
        if id(test) in raised or not getattr(
            test, "_hypothesis_internal_settings_applied", False
        ):
            continue
        raised.add(id(test))
        own = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = hypothesis_settings(
            own, max_examples=own.max_examples * _SWEEP_FACTOR
        )


def pytest_report_header(config):  # pragma: no cover - cosmetic
    return (
        f"randomized property tests: REPRO_TEST_SEED={REPRO_TEST_SEED}"
        f" ({'pinned' if _SEED_ENV is not None else 'fresh'};"
        " re-run failures with REPRO_TEST_SEED=<seed>)"
    )


@pytest.fixture
def repro_seed() -> int:
    """The session-wide randomized-test seed (REPRO_TEST_SEED)."""
    return REPRO_TEST_SEED


@pytest.fixture
def repro_rng(repro_seed) -> np.random.Generator:
    """A fresh generator seeded from REPRO_TEST_SEED (per test)."""
    return np.random.default_rng(repro_seed)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
def windows_strategy(
    max_slide: int = 12, max_multiplier: int = 6
) -> st.SearchStrategy[Window]:
    """Windows with ``r = k * s`` (the cost model's standing assumption)
    and small parameters so hyper-periods stay tractable."""
    return st.builds(
        lambda s, k: Window(k * s, s),
        st.integers(1, max_slide),
        st.integers(1, max_multiplier),
    )


def tumbling_strategy(max_range: int = 48) -> st.SearchStrategy[Window]:
    return st.builds(lambda r: Window(r, r), st.integers(1, max_range))


def window_sets_strategy(
    min_size: int = 2, max_size: int = 5, tumbling: bool = False
) -> st.SearchStrategy[WindowSet]:
    base = tumbling_strategy() if tumbling else windows_strategy()
    return st.lists(
        base, min_size=min_size, max_size=max_size, unique=True
    ).map(WindowSet)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def small_batch() -> EventBatch:
    """240 ticks (two hyper-periods of the Example-7 set), one event per
    tick, three keys, deterministic values."""
    rng = np.random.default_rng(42)
    n = 240
    return make_batch(
        timestamps=np.arange(n),
        values=rng.normal(20.0, 5.0, n),
        keys=rng.integers(0, 3, n),
        num_keys=3,
        horizon=n,
    )


@pytest.fixture
def single_key_batch() -> EventBatch:
    """240 ticks, one event per tick, one key — matches the cost model's
    η = 1 assumption exactly."""
    rng = np.random.default_rng(7)
    n = 240
    return make_batch(
        timestamps=np.arange(n),
        values=rng.normal(0.0, 1.0, n),
        horizon=n,
    )


@pytest.fixture
def example7_windows() -> WindowSet:
    """The paper's Example 7 window set: tumbling 20/30/40."""
    return WindowSet([Window(20, 20), Window(30, 30), Window(40, 40)])


@pytest.fixture
def example6_windows() -> WindowSet:
    """The paper's Example 6 window set: tumbling 10/20/30/40."""
    return WindowSet(
        [Window(10, 10), Window(20, 20), Window(30, 30), Window(40, 40)]
    )


@pytest.fixture
def ledger_window_sets() -> "dict[str, WindowSet]":
    """The four window sets of the ledger's ``plan_batch`` workload
    (RandomGen / SequentialGen, |W| = 10, shape seed 7).  Together they
    hold 39 distinct windows — W(80, 80) is in two of them — which is
    the group a session sharing all four queries plans."""
    pairs = {
        "random_tumbling": [
            (8, 8), (35, 35), (80, 80), (84, 84), (92, 92), (150, 150),
            (240, 240), (260, 260), (300, 300), (350, 350),
        ],
        "random_hopping": [
            (180, 90), (240, 120), (370, 185), (420, 210), (500, 250),
            (600, 300), (720, 360), (1000, 500), (1040, 520), (1640, 820),
        ],
        "sequential_tumbling": [(m * 10, m * 10) for m in range(2, 12)],
        "sequential_hopping": [(m * 10, m * 5) for m in range(2, 12)],
    }
    return {
        name: WindowSet([Window(r, s) for r, s in windows])
        for name, windows in pairs.items()
    }


# ----------------------------------------------------------------------
# Resource fences
# ----------------------------------------------------------------------
PUMP_CHECKED = {
    "test_ingest.py",
    "test_front_door.py",
    "test_push_many.py",
    "test_cli.py",
}
BACKEND_CHECKED = {"runtime", "scenarios"}


def pump_threads() -> "list[threading.Thread]":
    return [
        thread
        for thread in threading.enumerate()
        if thread.name == "repro-ingest-pump"
    ]


def shm_entries() -> "set[str]":
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # no /dev/shm on this platform
        return set()


def open_fds() -> "int | None":
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:  # no /proc on this platform
        return None


def settled(probe, expected, within: float = 2.0):
    """``probe()`` once it equals ``expected`` or the wait runs out: a
    stopped pump or a reaped worker lands a moment after its stop."""
    deadline = time.monotonic() + within
    while (got := probe()) != expected and time.monotonic() < deadline:
        time.sleep(0.01)
    return got


@pytest.fixture(autouse=True)
def no_leaked_pump_threads(request):
    if request.node.path.name not in PUMP_CHECKED:
        yield
        return
    before = set(pump_threads())
    yield
    leaked = settled(lambda: set(pump_threads()) - before, set())
    assert not leaked, f"{len(leaked)} ingest pump thread(s) left running"


@pytest.fixture(autouse=True)
def no_leaked_workers_segments_or_fds(request):
    suite = request.node.path.relative_to(Path(__file__).parent).parts[0]
    if suite not in BACKEND_CHECKED and not request.node.get_closest_marker(
        "chaos"
    ):
        yield
        return
    # The shm backend starts this process-wide helper on first use and
    # it keeps a pipe for good: not a per-test leak.
    resource_tracker.ensure_running()
    gc.collect()  # an earlier test's garbage must not close fds in this one
    segments, fds = shm_entries(), open_fds()
    yield
    gc.collect()
    children = settled(multiprocessing.active_children, [])
    assert children == [], f"worker process(es) left running: {children}"
    leaked = settled(lambda: shm_entries() - segments, set())
    assert not leaked, f"shared-memory segment(s) left behind: {leaked}"
    assert settled(open_fds, fds) == fds, "file descriptor(s) left open"


def pytest_collection_finish(session):
    # The fences collect garbage twice per test: freeze what import and
    # collection built, so each collect walks only what tests allocate.
    gc.freeze()

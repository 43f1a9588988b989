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

Hypothesis tests get the same treatment through a profile that prints
reproduction blobs on failure (and derandomizes when a seed is
pinned).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from repro.engine.events import EventBatch, make_batch
from repro.windows.window import Window, WindowSet

_SEED_ENV = os.environ.get("REPRO_TEST_SEED")
REPRO_TEST_SEED = (
    int(_SEED_ENV)
    if _SEED_ENV is not None
    else int.from_bytes(os.urandom(4), "big")
)

hypothesis_settings.register_profile(
    "repro",
    print_blob=True,
    derandomize=_SEED_ENV is not None,
)
hypothesis_settings.load_profile("repro")


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

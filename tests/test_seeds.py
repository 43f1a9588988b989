"""The seed policy reaches hypothesis (tests/conftest.py).

``REPRO_TEST_SEED`` is handed to hypothesis as its seed, so a pinned
seed replays exactly the examples a fresh run under that seed drew,
and a different seed draws different ones; the ``sweep`` profile raises
a test's own example budget.  Each claim is checked on real pytest
runs of :func:`test_draws_are_printed`.
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

HERE = Path(__file__).resolve()
REPO = HERE.parents[1]


@settings(max_examples=5, database=None)
@given(st.integers(0, 10**9))
def test_draws_are_printed(value):
    print(f"drawn={value}")


def drawn(seed: int, *options: str) -> "list[int]":
    """What :func:`test_draws_are_printed` draws in a fresh pytest run
    under ``REPRO_TEST_SEED=seed``."""
    env = dict(os.environ, REPRO_TEST_SEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO / "src"), env.get("PYTHONPATH")))
    )
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-s",
            "-p", "no:cacheprovider", *options,
            f"{HERE.relative_to(REPO)}::test_draws_are_printed",
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    return [
        int(line.split("=", 1)[1])
        for line in run.stdout.splitlines()
        if line.startswith("drawn=")
    ]


def test_a_pinned_seed_replays_and_another_seed_explores():
    first = drawn(1)
    assert len(first) == 5
    assert drawn(1) == first
    assert drawn(2) != first


def test_the_sweep_profile_raises_a_tests_own_budget():
    assert len(drawn(1, "--hypothesis-profile=sweep")) == 5 * 10

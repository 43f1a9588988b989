"""Resource fences for the runtime suites (ROADMAP 1(d)): a test that
leaves something behind fails itself, not whichever later test counts.

* The front-door suites: no live ``repro-ingest-pump`` thread.
* The suites whose sessions have a backend life-cycle — every session
  does, one shard included: no live worker process, no new
  ``/dev/shm`` entry, and this process's descriptor count back to its
  baseline.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
import time
from multiprocessing import resource_tracker

import pytest

PUMP_CHECKED = {"test_ingest.py", "test_front_door.py", "test_push_many.py"}
BACKEND_CHECKED = {
    "test_session.py",
    "test_checkpoint.py",
    "test_sharding.py",
    "test_sharding_properties.py",
    "test_faults.py",
}


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
    if request.node.path.name not in BACKEND_CHECKED:
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

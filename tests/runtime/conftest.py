"""Resource check for the front-door suites (ROADMAP 3(c), first
runtime slice): a test that leaves a live ``repro-ingest-pump`` thread
behind fails itself, not whichever later test counts threads."""

from __future__ import annotations

import threading
import time

import pytest

CHECKED = {"test_ingest.py", "test_front_door.py", "test_push_many.py"}


def pump_threads() -> "list[threading.Thread]":
    return [
        thread
        for thread in threading.enumerate()
        if thread.name == "repro-ingest-pump"
    ]


@pytest.fixture(autouse=True)
def no_leaked_pump_threads(request):
    if request.node.path.name not in CHECKED:
        yield
        return
    before = set(pump_threads())
    yield
    # A stopped pump's thread has been joined; give a stop issued from
    # another thread a moment to land before calling it a leak.
    deadline = time.monotonic() + 2.0
    while (leaked := set(pump_threads()) - before) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not leaked, f"{len(leaked)} ingest pump thread(s) left running"

"""Leak checks every service test runs under (ROADMAP 3(c), first
slice): a transport that forgets a thread or a descriptor fails the
test that leaked it, not a soak run a week later."""

from __future__ import annotations

import gc
from multiprocessing import resource_tracker

import pytest

from service_helpers import open_fds, service_threads, settled


@pytest.fixture(autouse=True)
def no_leaked_threads_or_fds():
    # The shm backend starts this process-wide helper on first use and
    # it keeps a pipe for good: not a per-test leak.
    resource_tracker.ensure_running()
    gc.collect()  # an earlier test's garbage must not close fds in this one
    before = open_fds()
    yield
    assert settled(service_threads, []) == []
    gc.collect()
    assert settled(open_fds, before) == before

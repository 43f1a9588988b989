"""Shared helpers for the service suites: fake clocks, oracle runs.

The oracle for every service-level bit-identity assertion is the
plainest possible timeline: a fresh sync-ingest session fed the same
events in the same order with the same registrations, serialized
through the same wire codec.  Integer-valued events keep every
mergeable aggregate exact in float64, so "equal" means ``==`` on the
serialized payload — no tolerances anywhere.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.runtime import QuerySession
from repro.service.protocol import serialize_results

SQL_SUM = "SELECT SUM(v) FROM s GROUP BY WINDOWS(HOPPING(second, 10, 5))"
SQL_AVG = "SELECT AVG(v) FROM s GROUP BY WINDOWS(HOPPING(second, 20, 10))"


def open_fds() -> "int | None":
    """This process's open descriptor count (``None`` off Linux)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def service_threads() -> list:
    """Names of the live threads a ``ServiceServer`` started."""
    return [
        t.name for t in threading.enumerate()
        if t.name.startswith("repro-service")
    ]


def settled(probe, expected, within: float = 2.0):
    """``probe()`` once it equals ``expected`` or the wait runs out —
    a handler closes its socket a moment after its client goes."""
    deadline = time.monotonic() + within
    while (got := probe()) != expected and time.monotonic() < deadline:
        time.sleep(0.01)
    return got


class FakeClock:
    """A hand-cranked monotonic clock for deterministic admission."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class RecordingSleeper:
    """Stands in for ``time.sleep``: records, never blocks."""

    def __init__(self, clock: "FakeClock | None" = None):
        self.calls: list = []
        self.clock = clock

    def __call__(self, seconds: float) -> None:
        self.calls.append(seconds)
        if self.clock is not None:
            self.clock.advance(seconds)


def integer_events(
    ticks: int, num_keys: int, seed: int, rate: int = 2
) -> "list[tuple[int, int, float]]":
    """A sorted integer-valued event list (exact float64 arithmetic)."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(1, ticks + 1):
        for _ in range(rate):
            out.append((t, int(rng.integers(0, num_keys)), float(rng.integers(0, 1000))))
    return out


def oracle_results(
    events, registrations, num_keys: int
) -> dict:
    """Serialized drain of an undisturbed sync session over the same
    timeline: ``registrations`` is ``[(index, query, name, scope)]``
    in stream order (index = how many events precede the register)."""
    session = QuerySession(num_keys=num_keys)
    try:
        points = {i: (q, n, s) for i, q, n, s in registrations}
        for i, (ts, key, value) in enumerate(events):
            if i in points:
                query, name, scope = points[i]
                session.register(query, name=name, scope=scope)
            session.push(ts, key, value)
        return serialize_results(session.drain_results())
    finally:
        session.close()

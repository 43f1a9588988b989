"""Closed rows never move (DESIGN.md §12).

A migration barrier ships *live* operator state only: rows a core has
already emitted are closed window instances, so they stay on that core
as key-labelled segments and the coordinator places them by label.
These tests pin the cost side of that contract — barrier payloads and
sibling clones independent of emitted history, no lazy ``numpy.ma``
import on the first barrier — and the safety side: the coordinator's
coverage check refuses a lost or duplicated segment, and the retired
archive (rename + eviction) behaves exactly as in an unsharded session
across a migration.  Layout invariance under random schedules lives in
``test_sharding_properties.py``.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.aggregates.registry import MEDIAN, MIN, SUM
from repro.core.multiquery import Query
from repro.engine.events import DEFAULT_NUM_SLOTS
from repro.errors import ExecutionError
from repro.runtime import QuerySession, ShardedSession
from repro.runtime import core as core_module
from repro.runtime.core import SessionCore
from repro.windows.window import Window, WindowSet

from session_streams import integer_stream

NUM_KEYS = 8
RATE = 2  # integer_stream's default events per tick
QUERIES = [
    Query("sums", WindowSet([Window(12, 4), Window(24, 8)]), SUM),
    Query("meds", WindowSet([Window(6, 3)]), MEDIAN),
    Query("mins", WindowSet([Window(8, 4)]), MIN),
]
#: Most a barrier payload may differ between two stream positions: the
#: holistic operator's live buffer (every event of the last range) plus
#: a few bytes of integer widths.
LIVE_BOUND = 6 * RATE * 24 + 16


def core_at(ticks):
    """A standalone core fed ``ticks`` ticks and parked at a barrier,
    with everything it emitted still buffered."""
    core = SessionCore(num_keys=NUM_KEYS)
    for query in QUERIES:
        core.register(query)
    batch = integer_stream(ticks=ticks, num_keys=NUM_KEYS, seed=3)
    for _, end, ts, keys, values in batch.iter_time_chunks(core.chunk_ticks):
        core.buffer_arrays(ts, keys, values)
        core.advance_to(end)
    emitted = sum(sub.emitted_instances for sub in core._subs.values())
    return core, emitted


def test_barrier_payload_is_independent_of_history():
    moved = np.array([1, 4, 6])
    early, early_rows = core_at(240)
    late, late_rows = core_at(2400)
    assert late_rows >= 9 * early_rows
    early_bytes = len(pickle.dumps(early.extract_keys(moved)))
    late_bytes = len(pickle.dumps(late.extract_keys(moved)))
    assert abs(late_bytes - early_bytes) <= LIVE_BOUND, (
        f"extract bundle grew with history: {early_bytes} B after "
        f"{early_rows} emitted instances, {late_bytes} B after {late_rows}"
    )
    # The moved keys' rows were not dropped either: they sit sealed,
    # under their global labels, on the core that emitted them.
    for sub in late._subs.values():
        (key_ids, lo, blocks), = sub._sealed
        assert list(key_ids) == list(range(NUM_KEYS))
        assert lo == sub.start
        assert sum(b.shape[1] for b in blocks) == sub.emitted_instances
        assert list(sub.key_ids) == [0, 2, 3, 5, 7]


def test_sibling_clone_is_independent_of_history():
    early, early_rows = core_at(240)
    late, late_rows = core_at(2400)
    assert late_rows >= 9 * early_rows
    early_bytes = len(pickle.dumps(early.spawn_sibling()))
    late_bytes = len(pickle.dumps(late.spawn_sibling()))
    assert abs(late_bytes - early_bytes) <= 64, (early_bytes, late_bytes)
    # ... and the donor kept every row it had.
    assert sum(
        sub.emitted_instances for sub in late._subs.values()
    ) == late_rows
    assert all(sub._blocks for sub in late._subs.values())


def test_first_barrier_does_not_import_numpy_ma():
    """``np.unique`` / ``np.union1d`` lazily import ``numpy.ma`` (tens
    of milliseconds, charged to the first barrier of every process):
    the migration plan must not reach for them."""
    script = """
import sys
import numpy as np
from repro import ShardedSession
from repro.aggregates.registry import MEDIAN, SUM
from repro.core.multiquery import Query
from repro.windows.window import Window, WindowSet

session = ShardedSession(num_keys=16, num_shards=2, hysteresis=None)
session.register(Query("s", WindowSet([Window(8, 4)]), SUM))
session.register(Query("m", WindowSet([Window(6, 3)]), MEDIAN))
rng = np.random.default_rng(0)
for tick in range(200):
    for _ in range(3):
        session.push(tick, int(rng.zipf(1.5)) % 16, 1.0)
assert "numpy.ma" not in sys.modules, "imported before any barrier"
assert session.rebalance() > 0
session.split_shard()
session.merge_shard(0)
session.finish()
session.close()
print("numpy.ma" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def run_cycles(session, events, horizon, barriers=()):
    """Register / retire ``mins`` three times over (so its archive is
    renamed ``mins@gN`` and, under a cap of 2 retired results, evicted)
    with ``sums`` live throughout; ``barriers`` maps an event index to
    a callable taking the session."""
    n = len(events)
    session.register(QUERIES[0])
    register_at = {0, n // 4, n // 2, 3 * n // 4}
    deregister_at = {n // 8, 3 * n // 8, 5 * n // 8}
    barriers = dict(barriers)
    for index, (ts, key, value) in enumerate(events):
        if index in register_at:
            session.register(QUERIES[2])
        if index in deregister_at:
            session.deregister("mins")
        if index in barriers:
            barriers[index](session)
        session.push(ts, key, value)
    return session.finish(horizon=horizon)


def test_archive_rename_and_eviction_straddle_a_migration(monkeypatch):
    # Lower the archive cap so three retirements evict one.
    monkeypatch.setattr(core_module, "RETIRED_RESULT_CAP", 2)
    batch = integer_stream(ticks=320, num_keys=NUM_KEYS, seed=11)
    events = list(batch.rows())
    n = len(events)
    half = np.arange(DEFAULT_NUM_SLOTS // 2, dtype=np.int64)

    plain = QuerySession(num_keys=NUM_KEYS, hysteresis=None)
    expected = run_cycles(plain, events, batch.horizon)
    assert plain.backend.cores[0].retired_results_evicted == 1
    assert any("@g" in name for name in expected)

    sharded = ShardedSession(
        num_keys=NUM_KEYS, num_shards=2, hysteresis=None
    )
    # One barrier while the first archive is the only one, one between
    # the second retirement and the eviction it causes, one after.
    actual = run_cycles(
        sharded, events, batch.horizon,
        barriers={
            n // 5: lambda s: s.move_slots(half, 1),
            7 * n // 16: lambda s: s.move_slots(half, 0),
            11 * n // 16: lambda s: s.rebalance(),
        },
    )
    cores = sharded.backend.cores
    sharded.close()
    assert set(actual) == set(expected)
    for name, by_window in expected.items():
        for window, reference in by_window.items():
            emitted = actual[name][window]
            assert (emitted.start_instance, emitted.frontier) == (
                reference.start_instance, reference.frontier,
            ), (name, window)
            np.testing.assert_array_equal(emitted.values, reference.values)
    one = plain.backend.cores[0]
    for core in cores:
        assert core.retired_results_evicted == one.retired_results_evicted
        assert core.retired_instances_evicted == one.retired_instances_evicted


def test_coordinator_refuses_a_lost_or_duplicated_segment():
    batch = integer_stream(ticks=120, num_keys=NUM_KEYS, seed=5)
    session = ShardedSession(num_keys=NUM_KEYS, num_shards=2, hysteresis=None)
    session.register(QUERIES[0])
    events = list(batch.rows())
    for ts, key, value in events[: len(events) // 2]:
        session.push(ts, key, value)
    session.move_slots(np.arange(DEFAULT_NUM_SLOTS // 2, dtype=np.int64), 1)
    for ts, key, value in events[len(events) // 2 :]:
        session.push(ts, key, value)
    session.results()  # intact: every cell covered once
    sub = next(iter(session.backend.cores[0]._subs.values()))
    sealed = list(sub._sealed)
    assert sealed
    sub._sealed = sealed + sealed[:1]
    with pytest.raises(ExecutionError, match="overlaps or leaves a gap"):
        session.results()
    sub._sealed = sealed[1:]
    with pytest.raises(ExecutionError, match="overlaps or leaves a gap|cover"):
        session.results()
    session.close()

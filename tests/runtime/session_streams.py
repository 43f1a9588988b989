"""Stream builders for the live-session runtime tests.

Integer-valued streams make every built-in mergeable aggregate's
partial arithmetic *exact* in float64, so session output must be
**bit**-identical to a cold batch run regardless of how the live chunk
boundaries fall (DESIGN.md invariant 9's strongest form).  Real-valued
streams (:func:`real_stream`) serve the comparisons that need no such
help: one session against another of the same workload.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.multiquery import optimize_workload
from repro.engine.events import EventBatch
from repro.engine.executor import execute_plan
from repro.plans.builder import original_plan
from repro.runtime import ShardedSession

#: The shard-count cells every one-session test runs in: one core (what
#: ``QuerySession`` is) and two, both on the serial backend.
SHARD_COUNTS = pytest.mark.parametrize(
    "shards", [1, 2], ids=["1-shard", "2-shard"]
)


def serial_session(shards: int, **options) -> ShardedSession:
    """A session of ``shards`` serial shards (``options`` as for
    :class:`ShardedSession`)."""
    return ShardedSession(num_shards=shards, backend="serial", **options)


def group_runtimes(session) -> list:
    """Every shard core's group runtimes (serial backend, any shard
    count)."""
    return [
        runtime
        for core in session.backend.cores
        for runtime in core._groups.values()
    ]


def core_counter(session, name: str) -> int:
    """A per-core counter every lockstep core agrees on (the retired
    archive's eviction counts), read off every serial shard core."""
    values = {getattr(core, name) for core in session.backend.cores}
    assert len(values) == 1, (name, values)
    return values.pop()


def integer_stream(
    ticks: int,
    rate: int = 2,
    num_keys: int = 2,
    seed: int = 0,
    rate_segments: "tuple[tuple[int, int], ...] | None" = None,
) -> EventBatch:
    """A sorted stream of integer-valued events.

    ``rate_segments`` overrides ``rate`` with ``(rate, span_ticks)``
    pieces — the rate-drift traces the adaptive tests replay.
    """
    rng = np.random.default_rng(seed)
    parts = []
    t0 = 0
    segments = rate_segments or ((rate, ticks),)
    for seg_rate, span in segments:
        if seg_rate > 0:
            parts.append(np.repeat(np.arange(t0, t0 + span), seg_rate))
        t0 += span
    ts = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    n = ts.size
    return EventBatch(
        timestamps=ts.astype(np.int64),
        keys=rng.integers(0, num_keys, n).astype(np.int64),
        values=rng.integers(0, 1000, n).astype(np.float64),
        horizon=t0,
        num_keys=num_keys,
    )


def real_stream(
    ticks: int,
    rate: int = 2,
    num_keys: int = 2,
    seed: int = 0,
    rate_segments: "tuple[tuple[int, int], ...] | None" = None,
) -> EventBatch:
    """:func:`integer_stream`'s timestamps and keys with Gaussian
    values: no sum of these is exact in float64, so a result matches
    another bit for bit only if both folded in the same order."""
    batch = integer_stream(ticks, rate, num_keys, seed, rate_segments)
    values = np.random.default_rng(seed).normal(20.0, 5.0, batch.num_events)
    return dataclasses.replace(batch, values=values)


def cold_reference(queries, batch):
    """Per-(query, window) result arrays of a cold batch optimization —
    the invariant-9 reference every session test compares against."""
    workload = optimize_workload(list(queries))
    out = {}
    for group in workload.groups:
        plan = group.plan or original_plan(group.combined, group.aggregate)
        result = execute_plan(plan, batch, engine="streaming-chunked")
        for query in group.queries:
            for window in query.windows:
                out[(query.name, window)] = result.results[window]
    return out


def assert_identical(expected, actual, context):
    """Two ``results()`` dicts agree bit for bit: same queries, same
    windows, same instance ranges, same values."""
    assert set(expected) == set(actual), context
    for name in expected:
        assert set(expected[name]) == set(actual[name]), (context, name)
        for window, reference in expected[name].items():
            emitted = actual[name][window]
            assert (
                emitted.start_instance == reference.start_instance
                and emitted.frontier == reference.frontier
            ), (context, name, window)
            np.testing.assert_array_equal(
                emitted.values,
                reference.values,
                err_msg=f"{context} {name}/{window}",
            )


def swap_keyed_slots(session) -> None:
    """One migration plan with two donors: every other keyed slot of
    each of two shards moves to the other one (each still receives
    one, so neither retires)."""
    slot_map = session.slot_map
    keyed = np.unique(session.partitioner.slot_of_key)
    swapped = slot_map.copy()
    for shard in (0, 1):
        mine = keyed[slot_map[keyed] == shard]
        assert mine.size, "both shards must own keys to donate"
        swapped[mine[::2]] = 1 - shard
    session._apply_slot_map(swapped, session.num_shards)

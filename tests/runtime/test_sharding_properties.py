"""Property tests for DESIGN.md invariants 10 and 11 (shard and
ingest-mode invariance).

For any shard count, any out-of-order stream, and any randomized
register/deregister/rate schedule over distributive, algebraic, and
holistic aggregates — in both per-key and global scope — a
:class:`~repro.runtime.ShardedSession`'s merged results must be
**bit-identical** to the 1-shard run — which is what a
:class:`~repro.runtime.QuerySession` is, and which invariant 9 already
ties to a cold batch run.

The same identity must hold across every execution configuration:
{serial, process, shm} backends × {sync, async} ingest (invariant 11
— the async front door and the shared-memory data plane may change
*when* work happens, never *what* is computed).  The serial-sync run
is the oracle every other cell of the matrix is compared against.

Streams carry real (Gaussian) values, whose float64 sums are exact in
no order but the one they were folded in: bit-identity is required,
not just closeness.  It holds in both scopes because neither reduces
across shards — a per-key row is folded by the one core owning its
key, and a global row by the coordinator's one-key core, which sees
the same released stream at every shard count.  Schedules are seeded
from ``REPRO_TEST_SEED`` (printed in the pytest header and embedded in
failure messages) so counterexamples reproduce exactly.
"""

import numpy as np
import pytest

from repro.aggregates.registry import AVG, MAX, MEDIAN, MIN, SUM
from repro.core.multiquery import Query
from repro.engine.outoforder import scramble_batch
from repro.runtime import Fault, FaultPlan, ShardedSession
from repro.windows.window import Window, WindowSet

from session_streams import real_stream, swap_keyed_slots

#: (query, scope) pool mixing taxonomies and both result scopes.
POOL = [
    (Query("q0", WindowSet([Window(8, 4), Window(16, 8)]), MIN), "per_key"),
    (Query("q1", WindowSet([Window(6, 3)]), MIN), "per_key"),
    (Query("q2", WindowSet([Window(10, 5)]), SUM), "per_key"),
    (Query("q3", WindowSet([Window(12, 6)]), AVG), "per_key"),
    (Query("q4", WindowSet([Window(9, 3)]), MEDIAN), "per_key"),
    (Query("q5", WindowSet([Window(12, 4)]), SUM), "global"),
    (Query("q6", WindowSet([Window(8, 4)]), AVG), "global"),
    (Query("q7", WindowSet([Window(12, 12)]), MAX), "global"),
    (Query("q8", WindowSet([Window(6, 3)]), MEDIAN), "global"),
]

NUM_KEYS = 5
TICKS = 500
SHARD_COUNTS = (1, 2, 3, 8)


def make_schedule(rng, n_events):
    """One randomized register/deregister schedule over the pool."""
    picks = rng.permutation(len(POOL))[: rng.integers(2, 7)]
    register_at = {}
    deregister_at = {}
    survivors = set()
    for slot, index in enumerate(picks):
        query, scope = POOL[index]
        point = int(rng.uniform(0.0, 0.6) * n_events)
        register_at.setdefault(point, []).append((query, scope))
        # Slot 0 always survives so the final workload is non-empty.
        if slot > 0 and rng.random() < 0.4:
            drop = int(rng.uniform(0.65, 0.95) * n_events)
            deregister_at.setdefault(drop, []).append(query.name)
        else:
            survivors.add(query.name)
    return register_at, deregister_at


def run_sharded(
    schedule,
    events,
    horizon,
    num_shards,
    backend="serial",
    lateness=0,
    hysteresis=None,
    async_ingest=False,
    ingest_high_watermark=97,
    fault_plan=None,
    worker_recovery=False,
    elastic_at=None,
    polls_at=None,
    polled=None,
):
    # ``polls_at`` maps an event index to ``drain`` flags: each reads
    # ``drain_results()`` / ``results()`` there and appends it to
    # ``polled``.
    # The async high watermark is deliberately small and odd so the
    # pump genuinely interleaves with the producer (queueing, gate
    # closes, synchronization points mid-stream) instead of buffering
    # the whole run.
    register_at, deregister_at = schedule
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=num_shards,
        backend=backend,
        max_lateness=lateness,
        hysteresis=hysteresis,
        async_ingest=async_ingest,
        ingest_high_watermark=ingest_high_watermark,
        fault_plan=fault_plan,
        worker_recovery=worker_recovery,
        control_timeout=10.0 if fault_plan is not None else None,
    )
    try:
        dropped = set()
        for i, (ts, key, value) in enumerate(events):
            for query, scope in register_at.get(i, ()):
                session.register(query, scope=scope)
            for name in deregister_at.get(i, ()):
                if name in session.queries:
                    session.deregister(name)
                    dropped.add(name)
            for op in (elastic_at or {}).get(i, ()):
                op(session)
            for drain in (polls_at or {}).get(i, ()):
                polled.append(
                    session.drain_results() if drain else session.results()
                )
        # (registration loop above intentionally interleaves with data)
            session.push(ts, key, value)
        for queries in register_at.values():
            for query, scope in queries:
                if (
                    query.name not in session.queries
                    and query.name not in dropped
                ):
                    session.register(query, scope=scope)
        results = session.finish(horizon=horizon)
        watermarks = session.shard_watermarks()
    finally:
        session.close()
    return results, watermarks


def assert_results_identical(expected, actual, context):
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


@pytest.mark.parametrize("case", range(4))
def test_randomized_schedules_are_shard_invariant(repro_seed, case):
    rng = np.random.default_rng((repro_seed, case))
    lateness = int(rng.integers(0, 9))
    hysteresis = [None, 0.4][int(rng.integers(0, 2))]
    batch = real_stream(
        ticks=TICKS,
        num_keys=NUM_KEYS,
        seed=int(rng.integers(0, 1000)),
        rate_segments=((2, TICKS // 2), (6, TICKS - TICKS // 2)),
    )
    events = scramble_batch(batch, lateness, seed=int(rng.integers(0, 100)))
    schedule = make_schedule(rng, len(events))
    context = f"seed={repro_seed} case={case} lateness={lateness}"

    baseline, base_marks = run_sharded(
        schedule,
        events,
        batch.horizon,
        num_shards=1,
        lateness=lateness,
        hysteresis=hysteresis,
    )
    # Watermarks aligned: min over shards == max over shards.
    assert min(base_marks) == max(base_marks), context
    for num_shards in SHARD_COUNTS[1:]:
        results, marks = run_sharded(
            schedule,
            events,
            batch.horizon,
            num_shards=num_shards,
            lateness=lateness,
            hysteresis=hysteresis,
        )
        assert min(marks) == max(marks), (context, num_shards)
        assert_results_identical(
            baseline, results, f"{context} shards={num_shards}"
        )


#: Every execution configuration that must match the serial-sync
#: oracle bit-for-bit: {process, shm} backends in both ingest modes,
#: plus the serial backend behind the async front door.
MATRIX = [
    ("serial", True),
    ("process", False),
    ("process", True),
    ("shm", False),
    ("shm", True),
]


@pytest.mark.parametrize(
    "backend,async_ingest",
    MATRIX,
    ids=[f"{b}-{'async' if a else 'sync'}" for b, a in MATRIX],
)
@pytest.mark.parametrize("num_shards", [2, 3])
def test_backend_matrix_matches_serial_sync_oracle(
    repro_seed, num_shards, backend, async_ingest
):
    """Every backend × ingest-mode cell is observationally identical
    to the deterministic serial-sync oracle under a randomized
    schedule (invariants 10 and 11)."""
    rng = np.random.default_rng((repro_seed, 77, num_shards))
    lateness = int(rng.integers(0, 5))
    batch = real_stream(
        ticks=300, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000))
    )
    events = scramble_batch(batch, lateness, seed=int(rng.integers(0, 100)))
    schedule = make_schedule(rng, len(events))
    context = (
        f"seed={repro_seed} shards={num_shards} backend={backend} "
        f"async={async_ingest}"
    )

    oracle, _ = run_sharded(
        schedule, events, batch.horizon, num_shards, "serial", lateness
    )
    actual, marks = run_sharded(
        schedule,
        events,
        batch.horizon,
        num_shards,
        backend,
        lateness,
        async_ingest=async_ingest,
    )
    assert min(marks) == max(marks), context
    assert_results_identical(oracle, actual, context)


@pytest.mark.chaos
@pytest.mark.parametrize(
    "backend,async_ingest",
    [("process", False), ("process", True), ("shm", False), ("shm", True)],
    ids=["process-sync", "process-async", "shm-sync", "shm-async"],
)
def test_schedules_survive_injected_worker_crashes(
    repro_seed, backend, async_ingest
):
    """Invariant 12 composed with 10 and 11: a randomized
    register/deregister schedule with a seeded mid-stream worker kill
    — recovered via respawn + replay — still matches the serial-sync
    oracle bit-for-bit, on both worker backends in both ingest modes."""
    from repro.runtime import Fault, FaultPlan

    rng = np.random.default_rng((repro_seed, 131))
    num_shards = int(rng.integers(2, 4))
    lateness = int(rng.integers(0, 5))
    batch = real_stream(
        ticks=300, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000))
    )
    events = scramble_batch(batch, lateness, seed=int(rng.integers(0, 100)))
    schedule = make_schedule(rng, len(events))
    # NUM_KEYS=5 over 3 shards can leave a shard keyless (no worker
    # slot), so the kill targets slot 0 or 1 — both always exist.
    plan = FaultPlan(
        Fault(
            "kill",
            slot=int(rng.integers(0, 2)),
            at_watermark=int(rng.integers(20, 250)),
        )
    )
    context = (
        f"seed={repro_seed} shards={num_shards} backend={backend} "
        f"async={async_ingest} fault={plan.faults[0]}"
    )

    oracle, _ = run_sharded(
        schedule, events, batch.horizon, num_shards, "serial", lateness
    )
    actual, marks = run_sharded(
        schedule,
        events,
        batch.horizon,
        num_shards,
        backend,
        lateness,
        async_ingest=async_ingest,
        fault_plan=plan,
        worker_recovery=True,
    )
    assert plan.exhausted, context
    assert min(marks) == max(marks), context
    assert_results_identical(oracle, actual, context)


@pytest.mark.parametrize(
    "backend,async_ingest",
    [("serial", False), ("serial", True), ("shm", False), ("shm", True)],
    ids=["serial-sync", "serial-async", "shm-sync", "shm-async"],
)
def test_push_batch_matches_per_event_push(repro_seed, backend, async_ingest):
    """The vectorized sorted fast path is observationally identical to
    pushing the same events one at a time — on every backend, in both
    ingest modes."""
    rng = np.random.default_rng((repro_seed, 99))
    batch = real_stream(
        ticks=400, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000))
    )
    queries = [
        (POOL[0][0], "per_key"),
        (POOL[2][0], "per_key"),
        (POOL[6][0], "global"),
        (POOL[8][0], "global"),
    ]

    def run(use_batch):
        session = ShardedSession(
            num_keys=NUM_KEYS,
            num_shards=3,
            backend=backend,
            hysteresis=None,
            async_ingest=async_ingest,
            ingest_high_watermark=113,
        )
        try:
            for query, scope in queries:
                session.register(query, scope=scope)
            if use_batch:
                session.push_batch(batch)
            else:
                session.push_many(batch.rows())
            return session.finish(horizon=batch.horizon)
        finally:
            session.close()

    assert_results_identical(
        run(False),
        run(True),
        f"seed={repro_seed} push_batch {backend} async={async_ingest}",
    )


# ---------------------------------------------------------------------
# The compiled router: ``_buffer_run`` under every kernel setting
# ---------------------------------------------------------------------

import os  # noqa: E402
from unittest import mock  # noqa: E402

from repro import _kernels as kernels  # noqa: E402
from repro.engine.events import DEFAULT_NUM_SLOTS, NO_EVENTS  # noqa: E402

#: A quiet NaN with a payload: its bits must arrive as they left.
PAYLOAD_NAN = np.array([0x7FF8_0000_0000_0123]).view(np.float64)[0]


def _route_runs(rng, owned):
    """Released runs as ``_buffer_run`` gets them: sorted ticks, keys
    from every shard or from one shard's keys only, values with a NaN
    payload, ``ends`` anywhere in the run (repeats included); and
    ``_flush``'s empty run with its one end at 0."""
    runs = [(*NO_EVENTS, (0,))]
    for _ in range(12):
        n = int(rng.integers(0, 300))
        pool = owned[int(rng.integers(0, len(owned)))]
        keys = rng.choice(
            pool if rng.random() < 0.3 else np.concatenate(owned), n
        ).astype(np.int64)
        values = rng.normal(0.0, 50.0, n)
        values[rng.random(n) < 0.05] = PAYLOAD_NAN
        ends = np.sort(rng.integers(0, n + 1, int(rng.integers(0, 4))))
        runs.append(
            (
                np.sort(rng.integers(0, 10_000, n)).astype(np.int64),
                keys,
                values,
                tuple(ends.tolist()),
            )
        )
        runs.append((*NO_EVENTS, (0,)))
    return runs


def _route_trace(slot_map, runs, num_shards, forward, mode):
    """Each run's ``_buffer_run`` under ``REPRO_KERNELS=mode``: the
    per-shard buffers and forward arrays (values as int64 bits), the
    decayed loads as int64 bits and the pending counts, and whether
    each shard buffer holds the caller's own ``ts``."""
    session = ShardedSession(
        num_keys=NUM_KEYS * 8, num_shards=num_shards, hysteresis=None
    )
    try:
        session._apply_slot_map(slot_map, num_shards)
        if forward:
            session.register(POOL[5][0], scope="global")
        trace = []
        with mock.patch.dict(os.environ, {"REPRO_KERNELS": mode}):
            for ts, keys, values, ends in runs:
                session._buffer_run(ts, keys, values, ends)
                trace.append(
                    (
                        [
                            [
                                [c.view(np.int64).tolist() for c in part]
                                + [part[0] is ts]
                                for part in buf
                            ]
                            for buf in session._array_buf
                        ],
                        [
                            [c.view(np.int64).tolist() for c in part]
                            for part in session._fwd_arrays
                        ],
                        session._slot_events.view(np.int64).tolist(),
                        session._slot_pending.tolist(),
                    )
                )
                session._array_buf = [[] for _ in session.active_shards]
                session._fwd_arrays = []
        return trace
    finally:
        session.close()


@pytest.mark.skipif(
    not kernels.available(), reason="compiled kernels unavailable"
)
@pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
def test_compiled_router_is_the_numpy_split_bit_for_bit(
    repro_seed, num_shards
):
    """``route_run`` (kernels ``1`` and ``require``) ≡ the NumPy body
    (``0``) on random slot maps: every shard's buffered columns in
    order, the forward arrays, ``_slot_events`` bit for bit and
    ``_slot_pending`` — and a shard owning a whole run gets the
    caller's columns, uncopied, under every setting."""
    rng = np.random.default_rng((repro_seed, 4207, num_shards))
    for draw in range(3):
        slot_map = rng.integers(0, num_shards, DEFAULT_NUM_SLOTS)
        slot_map[: num_shards] = np.arange(num_shards)
        probe = ShardedSession(
            num_keys=NUM_KEYS * 8, num_shards=num_shards, hysteresis=None
        )
        try:
            partitioner = probe.partitioner.with_slot_map(slot_map)
        finally:
            probe.close()
        owned = [keys for keys in partitioner.owned if keys.size]
        runs = _route_runs(rng, owned)
        context = f"seed={repro_seed} shards={num_shards} draw={draw}"
        for forward in (False, True):
            want = _route_trace(slot_map, runs, num_shards, forward, "0")
            for mode in ("1", "require"):
                got = _route_trace(slot_map, runs, num_shards, forward, mode)
                assert got == want, (context, forward, mode)


# ---------------------------------------------------------------------
# Zero-copy data plane (DESIGN.md §11)
# ---------------------------------------------------------------------

from repro.engine.events import EVENT_BYTES  # noqa: E402


@pytest.mark.parametrize("backend", ["serial", "shm", "process"])
def test_zero_copy_plane_copies_at_most_once_per_event(
    repro_seed, backend
):
    """End-to-end copy discipline: across partition -> transport ->
    shard-core buffering, each event is materialized at most once
    (``bytes_copied <= EVENT_BYTES * events``), a non-trivial share of
    the stream moves with no copy at all, and the results still match
    the serial oracle bit-for-bit."""
    rng = np.random.default_rng((repro_seed, 1109))
    batch = real_stream(
        ticks=400, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000))
    )
    queries = [(POOL[0][0], "per_key"), (POOL[2][0], "per_key")]

    def run(which):
        session = ShardedSession(
            num_keys=NUM_KEYS,
            num_shards=2,
            backend=which,
            hysteresis=None,
        )
        try:
            for query, scope in queries:
                session.register(query, scope=scope)
            session.push_batch(batch)
            results = session.finish(horizon=batch.horizon)
            stats = session.stats()
        finally:
            session.close()
        return results, stats

    oracle, _ = run("serial")
    results, stats = run(backend)
    assert_results_identical(
        oracle, results, f"seed={repro_seed} backend={backend}"
    )
    assert stats.bytes_copied <= EVENT_BYTES * batch.num_events, (
        f"{backend}: {stats.bytes_copied} bytes copied for "
        f"{batch.num_events} events (> one copy per event)"
    )
    assert stats.copies_elided > 0, backend


@pytest.mark.parametrize("backend", ["serial", "shm", "process"])
def test_ingest_never_mutates_caller_arrays(repro_seed, backend):
    """The zero-copy plane hands caller arrays (and views of them)
    straight to the shard cores; no stage may write into them."""
    rng = np.random.default_rng((repro_seed, 211))
    batch = real_stream(
        ticks=300, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000))
    )
    before = (
        batch.timestamps.copy(),
        batch.keys.copy(),
        batch.values.copy(),
    )
    session = ShardedSession(
        num_keys=NUM_KEYS, num_shards=3, backend=backend, hysteresis=None
    )
    try:
        session.register(POOL[2][0], scope="per_key")
        session.register(POOL[8][0], scope="global")
        session.push_batch(batch)
        session.finish(horizon=batch.horizon)
    finally:
        session.close()
    np.testing.assert_array_equal(batch.timestamps, before[0])
    np.testing.assert_array_equal(batch.keys, before[1])
    np.testing.assert_array_equal(batch.values, before[2])


# ---------------------------------------------------------------------
# Elastic shards (DESIGN.md §12): slot moves, splits, and merges are
# observationally invisible — invariant 10 extended to mid-stream
# resharding.
# ---------------------------------------------------------------------

from repro.engine.events import DEFAULT_NUM_SLOTS  # noqa: E402


def make_elastic_ops(rng, n_events):
    """A randomized mid-stream resharding schedule.

    Guarantees at least 3 slot moves, 1 rebalance, 1 split, and 1 merge
    actually execute (a merge finding a single-shard layout splits
    first — deterministic across backends, since every run applies the
    same ops in the same order to the same stream).  Returns
    ``(ops_at, counts)`` where ``ops_at`` maps an event index to
    callables taking the session.
    """
    n_moves = int(rng.integers(3, 6))
    n_splits = int(rng.integers(1, 3))
    n_merges = int(rng.integers(1, 3))
    n_rebalances = int(rng.integers(1, 3))
    kinds = (
        ["move"] * n_moves
        + ["split"] * n_splits
        + ["merge"] * n_merges
        + ["rebalance"] * n_rebalances
    )
    rng.shuffle(kinds)
    ops = []
    for kind in kinds:
        if kind == "move":
            slots = rng.choice(
                DEFAULT_NUM_SLOTS,
                size=int(rng.integers(1, 33)),
                replace=False,
            ).astype(np.int64)
            pick = int(rng.integers(0, 1 << 30))

            def op(session, slots=slots, pick=pick):
                session.move_slots(slots, pick % session.num_shards)

        elif kind == "split":

            def op(session):
                session.split_shard()

        elif kind == "rebalance":

            def op(session):
                session.rebalance()

        else:
            pick = int(rng.integers(0, 1 << 30))

            def op(session, pick=pick):
                if session.num_shards == 1:
                    session.split_shard()
                session.merge_shard(pick % session.num_shards)

        ops.append(op)
    lo, hi = int(0.1 * n_events), int(0.9 * n_events)
    indices = rng.choice(np.arange(lo, hi), size=len(ops), replace=False)
    ops_at = {}
    for index, op in zip(sorted(int(i) for i in indices), ops):
        ops_at.setdefault(index, []).append(op)
    counts = {
        "move": n_moves,
        "split": n_splits,
        "merge": n_merges,
        "rebalance": n_rebalances,
    }
    return ops_at, counts


@pytest.mark.parametrize("backend", ["serial", "process", "shm"])
def test_elastic_reshard_schedules_are_layout_invariant(repro_seed, backend):
    """Random OOO streams x random slot-move/split/merge schedules x
    every backend: results stay bit-identical to the static 1-shard
    serial oracle, however the layout was reshaped mid-stream."""
    rng = np.random.default_rng((repro_seed, 1201))
    lateness = int(rng.integers(0, 6))
    batch = real_stream(
        ticks=300, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000))
    )
    events = scramble_batch(batch, lateness, seed=int(rng.integers(0, 100)))
    schedule = make_schedule(rng, len(events))
    ops_at, counts = make_elastic_ops(rng, len(events))
    assert counts["move"] >= 3
    assert counts["split"] >= 1 and counts["merge"] >= 1
    context = (
        f"seed={repro_seed} backend={backend} lateness={lateness} "
        f"ops={counts}"
    )

    oracle, _ = run_sharded(
        schedule, events, batch.horizon, 1, "serial", lateness
    )
    actual, marks = run_sharded(
        schedule,
        events,
        batch.horizon,
        int(rng.integers(2, 4)),
        backend,
        lateness,
        elastic_at=ops_at,
    )
    assert min(marks) == max(marks), context
    assert_results_identical(oracle, actual, context)


def test_elastic_reshard_is_bit_identical_per_key_on_real_values(repro_seed):
    """A barrier flushes every core mid-chunk, and a pane it splits
    goes on folding where it stopped: per-key results on a real-valued
    stream stay bit-identical to the static 1-shard run, however the
    layout was reshaped."""
    rng = np.random.default_rng((repro_seed, 1202))
    batch = real_stream(
        ticks=300, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000))
    )
    events = scramble_batch(batch, 3, seed=int(rng.integers(0, 100)))
    schedule = ({0: [entry for entry in POOL if entry[1] == "per_key"]}, {})
    ops_at, counts = make_elastic_ops(rng, len(events))
    context = f"seed={repro_seed} ops={counts}"
    oracle, _ = run_sharded(schedule, events, batch.horizon, 1, "serial", 3)
    actual, _ = run_sharded(
        schedule, events, batch.horizon, 3, "serial", 3, elastic_at=ops_at
    )
    assert_results_identical(oracle, actual, context)


#: Registered at event 0 in the closed-rows tests below, so every
#: barrier has emitted-but-undrained per-key rows on both sides of it.
PINNED = (Query("pin", WindowSet([Window(4, 2)]), SUM), "per_key")
#: Deregistered and re-registered under the same name mid-stream: each
#: re-registration renames the archive to ``cycle@gN``.
CYCLED = (Query("cycle", WindowSet([Window(6, 2)]), MIN), "per_key")


def make_polls(rng, n_events, barriers, gap=40):
    """Random ``results()`` / ``drain_results()`` poll points, each at
    least ``gap`` events (several closed instances of ``PINNED``) away
    from every barrier — so no barrier ever finds its cores drained."""
    candidates = [
        i
        for i in range(int(0.05 * n_events), int(0.95 * n_events))
        if all(abs(i - b) >= gap for b in barriers)
    ]
    # The size is drawn first and only then bounded, so every draw
    # that fits is the one it always was.
    size = min(int(rng.integers(3, 8)), len(candidates))
    picks = rng.choice(candidates, size=size, replace=False)
    return {int(i): [bool(rng.integers(0, 2))] for i in picks}


def stitch(reads, context):
    """Fold a sequence of ``results()`` / ``drain_results()`` reads
    into ``{(query, window): {instance: column}}``.  A barrier shifts
    *when* a chunk flushes, so two layouts may split the same rows
    differently across reads — and across an archive rename, hence the
    ``@gN`` suffix is dropped; what must agree is every cell, and a
    cell read twice (a non-consuming poll, then a later read) must not
    change in between."""
    cells = {}
    for read in reads:
        for name, by_window in read.items():
            for window, emitted in by_window.items():
                seen = cells.setdefault((name.split("@")[0], window), {})
                for offset in range(emitted.frontier - emitted.start_instance):
                    column = emitted.values[:, offset].tobytes()
                    instance = emitted.start_instance + offset
                    assert seen.setdefault(instance, column) == column, (
                        context, name, window, instance
                    )
    return cells


@pytest.mark.parametrize("backend", ["serial", "process", "shm"])
def test_closed_rows_stay_put_across_barriers_and_polls(repro_seed, backend):
    """Emitted rows never move (DESIGN.md §12): random move / rebalance
    / split / merge schedules x random ``results()`` /
    ``drain_results()`` polls, with undrained rows on both sides of
    every barrier and a same-name re-registration (``cycle@gN``
    archives) — every cell ever read is bit-identical to the static
    1-shard run given the same polls."""
    rng = np.random.default_rng((repro_seed, 1251))
    lateness = int(rng.integers(0, 6))
    batch = real_stream(
        ticks=300, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000))
    )
    events = scramble_batch(batch, lateness, seed=int(rng.integers(0, 100)))
    n = len(events)
    register_at, deregister_at = make_schedule(rng, n)
    register_at.setdefault(0, []).append(PINNED)
    for frac in (0.0, 0.45, 0.7):
        register_at.setdefault(int(frac * n), []).append(CYCLED)
    for frac in (0.3, 0.6):
        deregister_at.setdefault(int(frac * n), []).append("cycle")
    ops_at, counts = make_elastic_ops(rng, n)
    # No poll may fall between the second retirement and the
    # re-registration: a drain there would consume the archive before
    # it is ever renamed.
    quiet = list(range(int(0.6 * n), int(0.7 * n) + 1, 20))
    polls_at = make_polls(rng, n, list(ops_at) + quiet)
    context = (
        f"seed={repro_seed} backend={backend} lateness={lateness} "
        f"ops={counts} polls={polls_at}"
    )

    def run(num_shards, which, elastic_at):
        polled = []
        final, marks = run_sharded(
            (register_at, deregister_at),
            events,
            batch.horizon,
            num_shards,
            which,
            lateness,
            elastic_at=elastic_at,
            polls_at=polls_at,
            polled=polled,
        )
        assert min(marks) == max(marks), context
        reads = polled + [final]
        assert any("cycle@g" in name for read in reads for name in read), context
        return stitch(reads, context)

    oracle = run(1, "serial", None)
    actual = run(int(rng.integers(2, 4)), backend, ops_at)
    assert oracle == actual, context


@pytest.mark.parametrize("backend", ["serial", "process", "shm"])
def test_spawn_from_emptied_donor_shard(backend):
    """A single migration plan can retire the shard behind backend
    slot 0 (every one of its keys extracted away) while spawning a
    fresh shard — and extracts run before spawns, so by donation time
    the donor core is already keyless.  Regression: the sibling spawn
    used to die with ``extract_keys needs at least one key``."""
    batch = real_stream(ticks=240, num_keys=NUM_KEYS, seed=7)
    events = list(batch.rows())
    cut = len(events) // 2
    schedule = ({0: [POOL[0], POOL[5]]}, {})

    oracle, _ = run_sharded(schedule, events, batch.horizon, 1, "serial")

    def evacuate(session):
        assert session.partitioner.owned[0].size > 0
        slot_map = session.partitioner.slot_map
        mine = np.where(slot_map == 0)[0].astype(np.int64)
        # One plan, two structural changes: shard 0 retires (all its
        # slots leave) and shard 2 spawns to receive them.
        session.move_slots(mine, 2)
        assert 0 not in session.active_shards
        assert 2 in session.active_shards

    actual, marks = run_sharded(
        schedule, events, batch.horizon, 2, backend,
        elastic_at={cut: [evacuate]},
    )
    assert min(marks) == max(marks)
    assert_results_identical(oracle, actual, f"backend={backend}")


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_elastic_layout_survives_checkpoint_restore(repro_seed, backend):
    """A checkpoint taken after arbitrary resharding records the slot
    map and backend slot order; restore resumes that exact layout and
    the completed run still matches the static serial oracle."""
    rng = np.random.default_rng((repro_seed, 1301))
    batch = real_stream(
        ticks=300, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000))
    )
    events = list(batch.rows())
    queries = [(POOL[0][0], "per_key"), (POOL[2][0], "per_key"),
               (POOL[5][0], "global"), (POOL[4][0], "per_key")]
    cut = int(0.55 * len(events))
    context = f"seed={repro_seed} backend={backend}"

    oracle_session = ShardedSession(
        num_keys=NUM_KEYS, num_shards=1, hysteresis=None
    )
    for query, scope in queries:
        oracle_session.register(query, scope=scope)
    for ts, key, value in events:
        oracle_session.push(ts, key, value)
    oracle = oracle_session.finish(horizon=batch.horizon)
    oracle_session.close()

    session = ShardedSession(
        num_keys=NUM_KEYS, num_shards=2, backend=backend, hysteresis=None
    )
    for query, scope in queries:
        session.register(query, scope=scope)
    for i, (ts, key, value) in enumerate(events[:cut]):
        session.push(ts, key, value)
        if i == int(0.2 * len(events)):
            session.move_slots(
                np.arange(DEFAULT_NUM_SLOTS // 2, dtype=np.int64), 1
            )
        if i == int(0.4 * len(events)):
            session.split_shard()
    snap = session.snapshot()
    layout = (session.slot_map, list(session.active_shards))
    session.close()

    restored = ShardedSession.restore(snap, backend=backend)
    np.testing.assert_array_equal(restored.slot_map, layout[0])
    assert list(restored.active_shards) == layout[1], context
    for ts, key, value in events[cut:]:
        restored.push(ts, key, value)
    restored.merge_shard(restored.num_shards - 1)
    results = restored.finish(horizon=batch.horizon)
    restored.close()
    assert_results_identical(oracle, results, context)


#: (migration op, backend slot it targets, backend) cells for the
#: chaos matrix below.  The fixed schedule — every slot to shard 1,
#: then a split, then a merge — retires shard 0 at the move, so the
#: five migration op kinds all fire at known backend slots.
CHAOS_MIGRATION_CELLS = [
    ("kill", "extract", 0, "process"),
    ("kill", "absorb", 1, "shm"),
    ("kill", "sibling", 0, "process"),
    ("kill", "remnant", 0, "shm"),
    ("kill", "absorb_remnant", 0, "process"),
    # Regression: the worker acked absorb_remnant, then died before
    # the epoch-end snapshot landed — per-slot replay would resurrect
    # its pre-migration state; the epoch must roll back instead.
    ("kill_mid_op", "absorb_remnant", 0, "process"),
    # The survivor acked an absorb_remnant carrying the retired shard's
    # sealed rows, then died before the epoch-end snapshot: rollback
    # must neither lose those segments nor hand them over twice.
    ("kill_after_ack", "absorb_remnant", 0, "shm"),
]

#: Cells for plans in which both workers donate in the same round: an
#: interleaved swap of keyed slots, twice.  Slot 1 is killed on its
#: ``extract`` (the second message of the round, after slot 0's is on
#: the wire) or as it takes it; a worker that acked its ``absorb`` is
#: killed at its next command, the epoch-closing snapshot.
CHAOS_SWAP_CELLS = [
    ("kill", "extract", 1, "process"),
    ("kill", "extract", 1, "shm"),
    ("kill_mid_op", "extract", 1, "shm"),
    ("kill_after_ack", "absorb", 0, "process"),
    ("kill_after_ack", "absorb", 1, "shm"),
]


def one_way_plans(n):
    return {
        int(0.35 * n): [
            lambda s: s.move_slots(
                np.arange(DEFAULT_NUM_SLOTS, dtype=np.int64), 1
            )
        ],
        int(0.55 * n): [lambda s: s.split_shard()],
        int(0.8 * n): [lambda s: s.merge_shard(s.num_shards - 1)],
    }


def swap_plans(n):
    return {
        int(0.35 * n): [swap_keyed_slots],
        int(0.7 * n): [swap_keyed_slots],
    }


CHAOS_CELLS = [(*cell, one_way_plans) for cell in CHAOS_MIGRATION_CELLS] + [
    (*cell, swap_plans) for cell in CHAOS_SWAP_CELLS
]


class KillAfterAck(FaultPlan):
    """Kill ``slot``'s worker at the first control command *after* it
    acknowledged ``op`` — i.e. with the op applied but not yet covered
    by any snapshot."""

    def __init__(self, slot, op):
        super().__init__()
        self.slot, self.op = slot, op
        self.acked = self.done = False

    @property
    def exhausted(self):
        return self.done

    def take(self, point, slot=0, watermark=None, op=None, tenant=None):
        if point != "control" or slot != self.slot or self.done:
            return []
        if not self.acked:
            self.acked = op == self.op
            return []
        self.done = True
        return [Fault(kind="kill", slot=slot, op=op)]


@pytest.mark.chaos
@pytest.mark.parametrize(
    "kind,op,slot,backend,plans",
    CHAOS_CELLS,
    ids=[
        f"{k}-{o}-{b}" + ("-swap" if plans is swap_plans else "")
        for k, o, _, b, plans in CHAOS_CELLS
    ],
)
def test_migrations_survive_worker_kill_mid_op(
    repro_seed, kind, op, slot, backend, plans
):
    """A worker killed mid-migration (on each migration op kind, and
    inside a round where both workers donate) rolls the epoch back,
    redoes the plan, and still matches the serial oracle bit-for-bit —
    with emitted, never-drained rows on every core at every barrier
    (``PINNED`` is live from event 0), so a rollback that lost or
    duplicated a sealed segment would fail the coordinator's coverage
    check."""
    rng = np.random.default_rng((repro_seed, 1401))
    lateness = int(rng.integers(0, 5))
    batch = real_stream(
        ticks=300, num_keys=NUM_KEYS, seed=int(rng.integers(0, 1000))
    )
    events = scramble_batch(batch, lateness, seed=int(rng.integers(0, 100)))
    schedule = make_schedule(rng, len(events))
    schedule[0].setdefault(0, []).append(PINNED)
    ops_at = plans(len(events))
    plan = (
        KillAfterAck(slot, op)
        if kind == "kill_after_ack"
        else FaultPlan(Fault(kind=kind, slot=slot, op=op))
    )
    context = f"seed={repro_seed} {kind} on {op}@{slot} backend={backend}"

    oracle, _ = run_sharded(
        schedule, events, batch.horizon, 1, "serial", lateness
    )
    actual, marks = run_sharded(
        schedule,
        events,
        batch.horizon,
        2,
        backend,
        lateness,
        fault_plan=plan,
        worker_recovery=True,
        elastic_at=ops_at,
    )
    assert plan.exhausted, context
    assert min(marks) == max(marks), context
    assert_results_identical(oracle, actual, context)

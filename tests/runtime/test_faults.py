"""Chaos properties: deterministic fault injection and crash recovery.

The contract under test (DESIGN.md §9): with ``worker_recovery=True``
a shard-worker crash — injected at any point of the coordinator's
command stream — is absorbed by respawn-from-snapshot plus replay, and
the merged results stay **bit-identical** to a crash-free run
(invariant 12 under fire).  Without recovery, the same crash surfaces
as an :class:`~repro.errors.ExecutionError` carrying actionable
diagnostics: the shard, the exit code, the worker's last-acked
watermark, and its traceback when one was flushed.

Fault schedules are seeded from ``REPRO_TEST_SEED`` so every chaos
counterexample reproduces exactly.
"""

import numpy as np
import pytest

from repro.aggregates.registry import AVG, MEDIAN, MIN, SUM
from repro.core.multiquery import Query
from repro.errors import ExecutionError
from repro.runtime import Fault, FaultPlan, ShardedSession
from repro.runtime.sharding import _send_msg
from repro.windows.window import Window, WindowSet

from session_streams import integer_stream

pytestmark = pytest.mark.chaos

NUM_KEYS = 5
NUM_SHARDS = 3
TICKS = 150
#: Slots that actually exist: 5 keys over 3 shards leave one shard
#: empty, so the backend runs two workers (see KeyPartitioner).
SLOTS = 2

WORKLOAD = [
    (Query("mins", WindowSet([Window(8, 4)]), MIN), "per_key"),
    (Query("sums", WindowSet([Window(10, 5)]), SUM), "global"),
    (Query("meds", WindowSet([Window(6, 3)]), MEDIAN), "global"),
]

BACKENDS = ("process", "shm")


def make_events(seed):
    batch = integer_stream(ticks=TICKS, num_keys=NUM_KEYS, seed=seed)
    return (
        list(
            zip(
                batch.timestamps.tolist(),
                batch.keys.tolist(),
                batch.values.tolist(),
            )
        ),
        batch.horizon,
    )


def run_session(
    events,
    horizon,
    backend="serial",
    fault_plan=None,
    worker_recovery=False,
    async_ingest=False,
    snapshot_at=None,
):
    kwargs = {}
    if fault_plan is not None or worker_recovery:
        kwargs.update(
            fault_plan=fault_plan,
            worker_recovery=worker_recovery,
            control_timeout=10.0,
        )
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=NUM_SHARDS,
        backend=backend,
        async_ingest=async_ingest,
        ingest_high_watermark=61,
        **kwargs,
    )
    try:
        for query, scope in WORKLOAD:
            session.register(query, scope=scope)
        for i, (ts, key, value) in enumerate(events):
            session.push(ts, key, value)
            if snapshot_at is not None and i == snapshot_at:
                session.snapshot()
        results = session.finish(horizon=horizon)
        return results, session.worker_recoveries
    finally:
        session.close()


def assert_identical(expected, actual, context):
    assert set(expected) == set(actual), context
    for name in expected:
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


# ----------------------------------------------------------------------
# FaultPlan unit behaviour
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ExecutionError, match="unknown fault kind"):
            Fault("meteor", slot=0, at_watermark=1)
        with pytest.raises(ExecutionError, match="slot must be >= 0"):
            Fault("kill", slot=-1, at_watermark=1)
        with pytest.raises(ExecutionError, match="needs a trigger"):
            Fault("kill", slot=0)
        with pytest.raises(ExecutionError, match="needs op="):
            Fault("drop_control", slot=0, at_watermark=5)

    def test_advance_point_gating(self):
        plan = FaultPlan(Fault("kill", slot=1, at_watermark=20))
        assert plan.take("advance", 0, watermark=25) == []  # wrong slot
        assert plan.take("advance", 1, watermark=19) == []  # too early
        (fired,) = plan.take("advance", 1, watermark=20)
        assert fired.kind == "kill" and fired.fired
        assert plan.take("advance", 1, watermark=99) == []  # fires once
        assert plan.exhausted
        assert plan.fired == [fired]

    def test_control_point_gating(self):
        plan = FaultPlan(
            Fault("drop_control", slot=0, op="collect", at_watermark=30)
        )
        assert plan.take("control", 0, watermark=10, op="collect") == []
        assert plan.take("control", 0, watermark=40, op="register") == []
        assert len(plan.take("control", 0, watermark=40, op="collect")) == 1
        assert plan.exhausted

    def test_unknown_point_rejected(self):
        plan = FaultPlan(Fault("kill", slot=0, at_watermark=1))
        with pytest.raises(ExecutionError, match="unknown injection point"):
            plan.take("teatime", 0, watermark=5)

    def test_serial_backend_rejects_chaos(self):
        with pytest.raises(ExecutionError, match="does not support"):
            ShardedSession(
                num_keys=NUM_KEYS,
                backend="serial",
                fault_plan=FaultPlan(Fault("kill", slot=0, at_watermark=1)),
            )
        with pytest.raises(ExecutionError, match="does not support"):
            ShardedSession(
                num_keys=NUM_KEYS, backend="serial", worker_recovery=True
            )


# ----------------------------------------------------------------------
# Crash recovery: invariant 12 under fire
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", range(3))
def test_killed_worker_recovers_bit_identically(repro_seed, backend, case):
    """Randomized kill schedules: any slot, any watermark, with and
    without a mid-stream snapshot to truncate the replay log."""
    rng = np.random.default_rng((repro_seed, BACKENDS.index(backend), case))
    seed = int(rng.integers(0, 1000))
    events, horizon = make_events(seed)
    expected, _ = run_session(events, horizon)
    kills = [
        Fault(
            "kill",
            slot=int(rng.integers(0, SLOTS)),
            at_watermark=int(rng.integers(1, TICKS)),
        )
        for _ in range(int(rng.integers(1, 3)))
    ]
    snapshot_at = (
        int(rng.integers(0, len(events))) if rng.random() < 0.5 else None
    )
    plan = FaultPlan(*kills)
    context = f"backend={backend} seed={seed} kills={kills} snap={snapshot_at}"
    actual, recoveries = run_session(
        events,
        horizon,
        backend=backend,
        fault_plan=plan,
        worker_recovery=True,
        snapshot_at=snapshot_at,
    )
    assert_identical(expected, actual, context)
    assert recoveries >= 1, context
    assert plan.exhausted, context


@pytest.mark.parametrize("backend", BACKENDS)
def test_recovery_under_async_ingest(repro_seed, backend):
    rng = np.random.default_rng((repro_seed, 77, BACKENDS.index(backend)))
    seed = int(rng.integers(0, 1000))
    events, horizon = make_events(seed)
    expected, _ = run_session(events, horizon)
    plan = FaultPlan(
        Fault(
            "kill",
            slot=int(rng.integers(0, SLOTS)),
            at_watermark=int(rng.integers(1, TICKS)),
        )
    )
    actual, recoveries = run_session(
        events,
        horizon,
        backend=backend,
        fault_plan=plan,
        worker_recovery=True,
        async_ingest=True,
    )
    assert_identical(expected, actual, f"async {backend} seed={seed}")
    assert recoveries == 1


@pytest.mark.parametrize("op", ["register", "deregister", "snapshot"])
def test_crash_during_mutation_recovers(repro_seed, op):
    """kill_mid_op on a state-mutating command: the command was
    delivered but never acked, so recovery must re-issue it without
    double-applying anything."""
    events, horizon = make_events(int(repro_seed) % 1000)
    cut = len(events) // 2

    def drive(session):
        for query, scope in WORKLOAD[:2]:
            session.register(query, scope=scope)
        for ts, key, value in events[:cut]:
            session.push(ts, key, value)
        if op == "deregister":
            # A per-key query: its deregister is a shard op.
            session.deregister(WORKLOAD[0][0].name)
        elif op == "snapshot":
            session.snapshot()
        else:
            session.register(WORKLOAD[2][0], scope="global")
        for ts, key, value in events[cut:]:
            session.push(ts, key, value)
        return session.finish(horizon=horizon)

    oracle = ShardedSession(num_keys=NUM_KEYS, num_shards=NUM_SHARDS)
    expected = drive(oracle)
    oracle.close()

    plan = FaultPlan(Fault("kill_mid_op", slot=1, op=op))
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=NUM_SHARDS,
        backend="process",
        fault_plan=plan,
        worker_recovery=True,
        control_timeout=10.0,
    )
    try:
        actual = drive(session)
        assert session.worker_recoveries == 1
    finally:
        session.close()
    assert plan.exhausted
    assert_identical(expected, actual, f"kill_mid_op {op}")


@pytest.mark.parametrize("read", ["results", "drain_results"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_during_collect_recovers(repro_seed, backend, read):
    """kill_mid_op on ``collect``, whose reply is a multi-part message
    (a skeleton, then one part per result array): the worker dies
    before, while or after writing it.  Either the coordinator reads a
    whole reply, or it re-issues the collect on a rebuilt worker; a
    draining read (``collect`` with ``drain=True``, logged for replay)
    must be consumed exactly once either way, so the mid-stream read
    and the final results equal the crash-free run's."""
    events, horizon = make_events(int(repro_seed) % 1000)
    cut = len(events) // 2

    def drive(session):
        for query, scope in WORKLOAD:
            session.register(query, scope=scope)
        for ts, key, value in events[:cut]:
            session.push(ts, key, value)
        mid = getattr(session, read)()
        for ts, key, value in events[cut:]:
            session.push(ts, key, value)
        return mid, session.finish(horizon=horizon)

    oracle = ShardedSession(num_keys=NUM_KEYS, num_shards=NUM_SHARDS)
    expected = drive(oracle)
    oracle.close()

    plan = FaultPlan(Fault("kill_mid_op", slot=1, op="collect"))
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=NUM_SHARDS,
        backend=backend,
        fault_plan=plan,
        worker_recovery=True,
        control_timeout=10.0,
    )
    try:
        actual = drive(session)
        assert session.worker_recoveries == 1
    finally:
        session.close()
    assert plan.exhausted
    context = f"kill_mid_op collect {backend} {read}"
    assert_identical(expected[0], actual[0], context)
    assert_identical(expected[1], actual[1], context)


def test_snapshot_taken_during_crash_is_still_consistent(repro_seed):
    """A worker killed mid-snapshot: the re-issued snapshot command
    (after respawn + replay) must yield the same consistent cut."""
    events, horizon = make_events(int(repro_seed) % 1000)
    cut = len(events) // 2
    expected, _ = run_session(events, horizon)

    plan = FaultPlan(Fault("kill_mid_op", slot=0, op="snapshot"))
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=NUM_SHARDS,
        backend="process",
        fault_plan=plan,
        worker_recovery=True,
        control_timeout=10.0,
    )
    for query, scope in WORKLOAD:
        session.register(query, scope=scope)
    for ts, key, value in events[:cut]:
        session.push(ts, key, value)
    snap = session.snapshot()
    for ts, key, value in events[cut:]:
        session.push(ts, key, value)
    survivor = session.finish(horizon=horizon)
    assert session.worker_recoveries == 1
    session.close()
    assert_identical(expected, survivor, "session that crashed mid-snapshot")

    restored = ShardedSession.restore(snap)
    for ts, key, value in events[cut:]:
        restored.push(ts, key, value)
    assert_identical(
        expected,
        restored.finish(horizon=horizon),
        "snapshot written during the crash",
    )
    restored.close()


def test_drop_control_recovers_via_timeout(repro_seed):
    """A lost control message leaves the worker alive but desynced;
    the control timeout must detect it and recovery must reconverge."""
    events, horizon = make_events(int(repro_seed) % 1000)
    expected, _ = run_session(events, horizon)
    plan = FaultPlan(Fault("drop_control", slot=1, op="collect"))
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=NUM_SHARDS,
        backend="process",
        fault_plan=plan,
        worker_recovery=True,
        control_timeout=1.5,
    )
    try:
        for query, scope in WORKLOAD:
            session.register(query, scope=scope)
        for ts, key, value in events:
            session.push(ts, key, value)
        actual = session.finish(horizon=horizon)
        assert session.worker_recoveries == 1
    finally:
        session.close()
    assert_identical(expected, actual, "drop_control")


def test_delay_control_is_observationally_invisible(repro_seed):
    events, horizon = make_events(int(repro_seed) % 1000)
    expected, _ = run_session(events, horizon)
    plan = FaultPlan(
        Fault("delay_control", slot=0, op="collect", delay_seconds=0.3)
    )
    actual, recoveries = run_session(
        events, horizon, backend="shm", fault_plan=plan
    )
    assert_identical(expected, actual, "delay_control")
    assert recoveries == 0
    assert plan.exhausted


# ----------------------------------------------------------------------
# Crash diagnostics (no recovery)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_unrecovered_crash_raises_actionable_diagnostics(backend):
    events, horizon = make_events(5)
    plan = FaultPlan(Fault("kill", slot=1, at_watermark=40))
    with pytest.raises(ExecutionError) as excinfo:
        run_session(events, horizon, backend=backend, fault_plan=plan)
    message = str(excinfo.value)
    assert "worker failed" in message
    assert "exitcode=-9" in message  # SIGKILL, not a vague EOF
    assert "last-acked watermark" in message
    assert "worker_recovery=True" in message  # tells the user the fix


@pytest.mark.parametrize("recovery", [False, True])
@pytest.mark.parametrize("backend", BACKENDS)
def test_restore_under_a_killed_worker(repro_seed, backend, recovery):
    """A worker killed as it is handed its snapshotted core fails the
    restore with the shard-named error and leaves no worker process,
    descriptor or ring behind (the resource fences check) — or, with
    recovery armed, is respawned and handed its core again."""
    events, horizon = make_events(int(repro_seed) % 1000)
    cut = len(events) // 2
    with ShardedSession(num_keys=NUM_KEYS, num_shards=NUM_SHARDS) as session:
        for query, scope in WORKLOAD:
            session.register(query, scope=scope)
        for ts, key, value in events[:cut]:
            session.push(ts, key, value)
        snap = session.snapshot()
    plan = FaultPlan(Fault("kill", slot=1, op="restore"))
    placement = dict(backend=backend, fault_plan=plan, control_timeout=10.0)
    if not recovery:
        with pytest.raises(
            ExecutionError, match=r"shard \d+ worker failed during 'restore'"
        ):
            ShardedSession.restore(snap, **placement)
        assert plan.exhausted
        return
    expected, _ = run_session(events, horizon)
    with ShardedSession.restore(
        snap, worker_recovery=True, **placement
    ) as session:
        for ts, key, value in events[cut:]:
            session.push(ts, key, value)
        actual = session.finish(horizon=horizon)
        assert session.worker_recoveries == 1
    assert plan.exhausted
    assert_identical(expected, actual, f"seed={repro_seed} {backend}")


def test_worker_error_ships_worker_traceback():
    """A Python error inside a worker must surface ITS traceback at
    the coordinator, not a bare broken-pipe or a desynced reply."""
    events, horizon = make_events(5)
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=NUM_SHARDS,
        backend="process",
        control_timeout=10.0,
    )
    try:
        session.register(WORKLOAD[0][0], scope="per_key")
        for ts, key, value in events[:60]:
            session.push(ts, key, value)
        # Reach into one worker and make its next control command
        # explode inside the worker process.
        _send_msg(session.backend._conns[1], ("no_such_command",))
        with pytest.raises(ExecutionError) as excinfo:
            session.results()
        # The coordinator's reply stream is one behind now, but the
        # diagnostic content is what matters here.
        assert "no_such_command" in str(excinfo.value)
    finally:
        session.close()


def test_poison_ring_is_an_integrity_error():
    events, horizon = make_events(5)
    plan = FaultPlan(Fault("poison_ring", slot=1, at_watermark=40))
    with pytest.raises(ExecutionError) as excinfo:
        run_session(events, horizon, backend="shm", fault_plan=plan)
    assert "corrupt ring record" in str(excinfo.value)


def test_poison_ring_heals_under_recovery(repro_seed):
    """With recovery armed the poisoned segment is discarded whole and
    the worker replays from the clean coordinator log."""
    events, horizon = make_events(int(repro_seed) % 1000)
    expected, _ = run_session(events, horizon)
    plan = FaultPlan(Fault("poison_ring", slot=1, at_watermark=40))
    actual, recoveries = run_session(
        events,
        horizon,
        backend="shm",
        fault_plan=plan,
        worker_recovery=True,
    )
    assert_identical(expected, actual, "poison + recovery")
    assert recoveries == 1


def test_poison_requires_shm():
    events, horizon = make_events(5)
    plan = FaultPlan(Fault("poison_ring", slot=0, at_watermark=40))
    with pytest.raises(ExecutionError, match="require the shm backend"):
        run_session(events, horizon, backend="process", fault_plan=plan)


# ----------------------------------------------------------------------
# Robust teardown (satellite: close() with dead workers)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_close_is_robust_to_dead_workers(backend):
    events, _ = make_events(5)
    session = ShardedSession(
        num_keys=NUM_KEYS, num_shards=NUM_SHARDS, backend=backend
    )
    session.register(WORKLOAD[0][0], scope="per_key")
    for ts, key, value in events[:40]:
        session.push(ts, key, value)
    for proc in session.backend._procs:
        proc.kill()
        proc.join()
    session.close()  # must not hang, raise, or leak segments
    assert session.backend._procs == []
    with pytest.raises(ExecutionError, match="closed"):
        session.results()


def test_context_manager_closes_after_mid_stream_crash():
    events, _ = make_events(5)
    plan = FaultPlan(Fault("kill", slot=0, at_watermark=30))
    with pytest.raises(ExecutionError, match="worker failed"):
        with ShardedSession(
            num_keys=NUM_KEYS,
            num_shards=NUM_SHARDS,
            backend="process",
            fault_plan=plan,
            control_timeout=10.0,
        ) as session:
            session.register(WORKLOAD[0][0], scope="per_key")
            for ts, key, value in events:
                session.push(ts, key, value)
            session.finish()
    # __exit__ ran close() through the failure path; the session is
    # fully torn down.
    assert session.backend._procs == []

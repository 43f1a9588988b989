"""Durability properties: checkpoint format and invariant 12.

Invariant 12 (DESIGN.md §9): a session restored from a snapshot and
fed the remainder of the stream emits **bit-identical** results to the
uninterrupted session — across {serial, process, shm} backends × {sync,
async} ingest, for snapshots taken at any watermark, and regardless of
which backend the snapshot is restored onto.

The checkpoint *file* contract is all-or-nothing: a torn, truncated,
corrupted, or foreign file raises — it never restores garbage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.registry import AVG, MEDIAN, MIN, SUM
from repro.core.multiquery import Query
from repro.errors import ExecutionError
from repro.runtime import (
    CheckpointStore,
    QuerySession,
    ShardedSession,
    Snapshot,
    latest_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.runtime.checkpoint import CHECKPOINT_MAGIC, CHECKPOINT_VERSION
from repro.windows.window import Window, WindowSet

from session_streams import (
    SHARD_COUNTS,
    assert_identical,
    integer_stream,
    serial_session,
)

NUM_KEYS = 5
TICKS = 200

#: Mixed taxonomies and scopes, including the forward (global-holistic)
#: path the coordinator serves on its own core.
WORKLOAD = [
    (Query("mins", WindowSet([Window(8, 4), Window(16, 8)]), MIN), "per_key"),
    (Query("sums", WindowSet([Window(10, 5)]), SUM), "global"),
    (Query("avgs", WindowSet([Window(12, 4)]), AVG), "global"),
    (Query("meds", WindowSet([Window(6, 3)]), MEDIAN), "global"),
]

MATRIX = [
    ("serial", False),
    ("serial", True),
    ("process", False),
    ("process", True),
    ("shm", False),
    ("shm", True),
]


def stream_events(seed, lateness=0):
    batch = integer_stream(ticks=TICKS, num_keys=NUM_KEYS, seed=seed)
    events = list(
        zip(
            batch.timestamps.tolist(),
            batch.keys.tolist(),
            batch.values.tolist(),
        )
    )
    if lateness:
        rng = np.random.default_rng(seed)
        jitter = rng.integers(0, lateness + 1, size=len(events))
        order = np.argsort(
            np.array([ts for ts, _, _ in events]) + jitter, kind="stable"
        )
        events = [events[i] for i in order]
    return events, batch.horizon


# ----------------------------------------------------------------------
# Checkpoint file format: all-or-nothing
# ----------------------------------------------------------------------
class TestCheckpointFormat:
    def make_snapshot(self):
        return Snapshot(
            watermark=40,
            generation=3,
            queries=("sums",),
            payload={"state": b"\x01\x02\x03" * 100},
            meta={"position": 120},
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.rckpt"
        snap = self.make_snapshot()
        assert write_checkpoint(snap, path) == path
        loaded = read_checkpoint(path)
        assert loaded == snap

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ExecutionError, match="cannot read"):
            read_checkpoint(tmp_path / "nope.rckpt")

    def test_foreign_file_raises(self, tmp_path):
        path = tmp_path / "foreign.rckpt"
        path.write_bytes(b"not a checkpoint at all, but long enough" * 4)
        with pytest.raises(ExecutionError, match="not a .* checkpoint"):
            read_checkpoint(path)

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "ckpt.rckpt"
        write_checkpoint(self.make_snapshot(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ExecutionError, match="corrupt or torn"):
            read_checkpoint(path)

    def test_every_corrupted_body_byte_is_detected(self, tmp_path):
        path = tmp_path / "ckpt.rckpt"
        write_checkpoint(self.make_snapshot(), path)
        blob = bytearray(path.read_bytes())
        # Flip one byte somewhere in the body (past the header).
        for offset in range(len(CHECKPOINT_MAGIC) + 2 + 32, len(blob), 37):
            tampered = bytearray(blob)
            tampered[offset] ^= 0xFF
            path.write_bytes(bytes(tampered))
            with pytest.raises(ExecutionError, match="checksum mismatch"):
                read_checkpoint(path)

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "ckpt.rckpt"
        write_checkpoint(self.make_snapshot(), path)
        blob = bytearray(path.read_bytes())
        blob[len(CHECKPOINT_MAGIC)] = 0xEE  # version word
        path.write_bytes(bytes(blob))
        with pytest.raises(ExecutionError, match="not supported"):
            read_checkpoint(path)

    @pytest.mark.parametrize("old", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_older_checkpoint_is_refused(self, tmp_path, old):
        """A file written before subscriptions held key-labelled
        segments (format v1), before both session kinds shared one
        state-graph layout (v2), before the chunk clock moved into
        the front door's frame (v3), while the async residue still
        had a sorted-batch kind (v4), while a one-shard session
        snapshotted a bare core under its own kind (v5), while a raw
        operator kept its panes as a bare list (v6), or while the
        coordinator carried the factor-window switch, the retired
        cap and the reorder buffer its late-event log (v7), while
        the reorder buffer carried its held events as a tuple heap
        (v8), while the front door's frame carried staged events and
        the buffer heap fields (v9), or while a core carried partial
        subscriptions for global-scope queries (v10) must be rejected
        by its header — even with a valid checksum — never restored
        half-shaped."""
        assert CHECKPOINT_VERSION == 11
        path = tmp_path / "ckpt.rckpt"
        write_checkpoint(self.make_snapshot(), path)
        blob = bytearray(path.read_bytes())
        offset = len(CHECKPOINT_MAGIC)
        assert blob[offset : offset + 2] == (11).to_bytes(2, "little")
        blob[offset : offset + 2] = old.to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(
            ExecutionError,
            match=rf"format v{old} is not supported \(this build reads v11\)",
        ):
            read_checkpoint(path)

    def test_latest_checkpoint_orders_by_watermark(self, tmp_path):
        assert latest_checkpoint(tmp_path / "absent") is None
        store = CheckpointStore(tmp_path)
        for watermark in (30, 10, 200, 90):
            snap = self.make_snapshot()
            snap.watermark = watermark
            store.save(snap)
        assert latest_checkpoint(tmp_path).name == "ckpt-000000000200.rckpt"
        assert store.latest() == latest_checkpoint(tmp_path)

    def test_store_rotation_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for watermark in (10, 20, 30, 40):
            snap = self.make_snapshot()
            snap.watermark = watermark
            store.save(snap)
        names = [p.name for p in store.paths()]
        assert names == ["ckpt-000000000030.rckpt", "ckpt-000000000040.rckpt"]

    def test_store_cadence(self, tmp_path):
        store = CheckpointStore(tmp_path, every=50)
        assert not store.due(49)
        assert store.due(50)
        snap = self.make_snapshot()
        snap.watermark = 60
        store.save(snap)
        assert not store.due(109)
        assert store.due(110)
        assert not CheckpointStore(tmp_path).due(10**9)  # no cadence

    def test_store_validation(self, tmp_path):
        with pytest.raises(ExecutionError):
            CheckpointStore(tmp_path, keep=0)
        with pytest.raises(ExecutionError):
            CheckpointStore(tmp_path, every=0)


# ----------------------------------------------------------------------
# Invariant 12 at one shard and at two, hypothesis-chosen cut points
# ----------------------------------------------------------------------
@SHARD_COUNTS
@settings(max_examples=12, deadline=None)
@given(
    cut=st.integers(min_value=1, max_value=len(stream_events(0)[0]) - 1),
    seed=st.integers(min_value=0, max_value=2**16),
    lateness=st.sampled_from([0, 5]),
    restore_async=st.booleans(),
)
def test_session_restores_bit_identically(
    shards, cut, seed, lateness, restore_async
):
    events, horizon = stream_events(seed, lateness)

    def build():
        session = serial_session(
            shards, num_keys=NUM_KEYS, max_lateness=lateness
        )
        for query, scope in WORKLOAD:
            session.register(query, scope=scope)
        return session

    baseline = build()
    for ts, key, value in events:
        baseline.push(ts, key, value)
    expected = baseline.finish(horizon=horizon)

    live = build()
    for ts, key, value in events[:cut]:
        live.push(ts, key, value)
    snap = live.snapshot()
    restored = ShardedSession.restore(snap, async_ingest=restore_async)
    for ts, key, value in events[cut:]:
        restored.push(ts, key, value)
    actual = restored.finish(horizon=horizon)
    assert_identical(expected, actual, f"cut={cut} seed={seed}")
    # The abandoned original is unaffected by the restore's progress.
    assert live.watermark <= restored.watermark


@SHARD_COUNTS
def test_checkpoint_file_round_trip(shards, tmp_path):
    events, horizon = stream_events(3)
    session = serial_session(shards, num_keys=NUM_KEYS)
    session.register(WORKLOAD[0][0])
    for ts, key, value in events[:250]:
        session.push(ts, key, value)
    path = tmp_path / "session.rckpt"
    snap = session.snapshot(path=str(path), meta={"position": 250})
    assert read_checkpoint(path).meta == {"position": 250}
    assert snap.generation == session.generation
    # Either class restores it: a QuerySession is one serial shard.
    restored = QuerySession.restore(str(path))
    assert isinstance(restored, QuerySession)
    assert restored.num_shards == shards
    for ts, key, value in events[250:]:
        restored.push(ts, key, value)
    for ts, key, value in events[250:]:
        session.push(ts, key, value)
    assert_identical(
        session.finish(horizon=horizon),
        restored.finish(horizon=horizon),
        "file round trip",
    )


@SHARD_COUNTS
def test_async_residue_is_captured_and_replayed(shards):
    events, horizon = stream_events(11)
    baseline = serial_session(shards, num_keys=NUM_KEYS)
    baseline.register(WORKLOAD[0][0])
    for ts, key, value in events:
        baseline.push(ts, key, value)
    expected = baseline.finish(horizon=horizon)

    session = serial_session(
        shards, num_keys=NUM_KEYS, async_ingest=True, ingest_high_watermark=37
    )
    session.register(WORKLOAD[0][0])
    for ts, key, value in events[:300]:
        session.push(ts, key, value)
    # The snapshot synchronizes through the pump: everything pushed
    # before it is either applied or captured as residue.
    snap = session.snapshot()
    session.close()
    restored = ShardedSession.restore(snap, async_ingest=True)
    for ts, key, value in events[300:]:
        restored.push(ts, key, value)
    assert_identical(
        expected, restored.finish(horizon=horizon), "async residue"
    )
    restored.close()


# ----------------------------------------------------------------------
# ShardedSession: invariant 12 across the backend × ingest matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend,async_ingest", MATRIX)
def test_sharded_session_restores_bit_identically(
    repro_seed, backend, async_ingest
):
    rng = np.random.default_rng(
        (repro_seed, MATRIX.index((backend, async_ingest)))
    )
    seed = int(rng.integers(0, 1000))
    events, horizon = stream_events(seed)
    cut = int(rng.integers(1, len(events)))
    context = f"backend={backend} async={async_ingest} seed={seed} cut={cut}"

    def build(be, async_mode):
        session = ShardedSession(
            num_keys=NUM_KEYS,
            num_shards=3,
            backend=be,
            async_ingest=async_mode,
            ingest_high_watermark=97,
        )
        for query, scope in WORKLOAD:
            session.register(query, scope=scope)
        return session

    oracle = build("serial", False)
    for ts, key, value in events:
        oracle.push(ts, key, value)
    expected = oracle.finish(horizon=horizon)
    cold = oracle.stats()
    oracle.close()

    live = build(backend, async_ingest)
    try:
        for ts, key, value in events[:cut]:
            live.push(ts, key, value)
        snap = live.snapshot()
    finally:
        live.close()

    # Restore on the snapshot's own backend *and* on serial: the
    # backend is an execution detail, never part of the state.
    for restore_backend in dict.fromkeys([backend, "serial"]):
        restored = ShardedSession.restore(
            snap, backend=restore_backend, async_ingest=async_ingest
        )
        try:
            for ts, key, value in events[cut:]:
                restored.push(ts, key, value)
            actual = restored.finish(horizon=horizon)
            stats = restored.stats()
        finally:
            restored.close()
        assert_identical(
            expected, actual, f"{context} restore={restore_backend}"
        )
        # The snapshot carries the work counters: a resumed timeline
        # ends with exactly the cold run's logical and physical work.
        assert (stats.total_pairs, stats.total_physical) == (
            cold.total_pairs,
            cold.total_physical,
        ), f"{context} restore={restore_backend}"


def test_sharded_snapshot_preserves_registration_schedule(repro_seed):
    """Snapshot between mutations: the restored session must carry the
    routing table, plan generation, and retired archives across."""
    events, horizon = stream_events(int(repro_seed) % 1000)
    third = len(events) // 3

    def drive(session, resume_from=0, snap_at=None):
        snap = None
        for i, (ts, key, value) in enumerate(events):
            if i < resume_from:
                continue
            if i == third and resume_from <= third:
                session.register(WORKLOAD[2][0], scope="global")
                session.deregister(WORKLOAD[0][0].name)
            session.push(ts, key, value)
            if snap_at is not None and i == snap_at:
                snap = session.snapshot()
        return session.finish(horizon=horizon), snap

    baseline = ShardedSession(num_keys=NUM_KEYS, num_shards=3)
    baseline.register(WORKLOAD[0][0], scope="per_key")
    baseline.register(WORKLOAD[3][0], scope="global")
    expected, _ = drive(baseline)
    baseline.close()

    for snap_at, label in ((third - 1, "before"), (third + 5, "after")):
        live = ShardedSession(num_keys=NUM_KEYS, num_shards=3)
        live.register(WORKLOAD[0][0], scope="per_key")
        live.register(WORKLOAD[3][0], scope="global")
        _, snap = drive(live, snap_at=snap_at)
        live.close()
        assert snap is not None
        restored = ShardedSession.restore(snap)
        actual, _ = drive(restored, resume_from=snap_at + 1)
        restored.close()
        assert_identical(expected, actual, f"mutation {label} snapshot")
        assert snap.generation == restored.generation or label == "before"


def test_sharded_checkpoint_store_rotation_with_live_session(tmp_path):
    events, horizon = stream_events(21)
    store = CheckpointStore(tmp_path, keep=2, every=40)
    session = ShardedSession(num_keys=NUM_KEYS, num_shards=2)
    session.register(WORKLOAD[0][0], scope="per_key")
    saved = 0
    for i, (ts, key, value) in enumerate(events):
        session.push(ts, key, value)
        if store.due(session.watermark):
            # Stream position rides in caller-owned meta — the
            # watermark alone cannot split a tick's events.
            store.save(session.snapshot(meta={"position": i + 1}))
            saved += 1
    expected = session.finish(horizon=horizon)
    session.close()
    assert saved >= 3
    assert len(store.paths()) == 2  # rotated down to keep=2
    latest = read_checkpoint(store.latest())
    restored = ShardedSession.restore(latest)
    for ts, key, value in events[latest.meta["position"] :]:
        restored.push(ts, key, value)
    assert_identical(
        expected, restored.finish(horizon=horizon), "store round trip"
    )
    restored.close()


# ----------------------------------------------------------------------
# Auto-checkpoint: the cadence lives inside the session
# ----------------------------------------------------------------------
@SHARD_COUNTS
class TestAutoCheckpoint:
    """``auto_checkpoint=``: the ingest path itself saves at the
    store's cadence, on the applying thread, so the CLI and the session
    service share one durability code path.  (The cadence / meta /
    callback contract itself is held by ``test_front_door.py``.)"""

    QUERY = WORKLOAD[0]

    def feed(self, session, events):
        for ts, key, value in events:
            session.push(ts, key, value)

    def test_cadence_fires_in_both_push_paths(
        self, shards, tmp_path, repro_seed
    ):
        batch = integer_stream(ticks=TICKS, num_keys=NUM_KEYS, seed=repro_seed)
        saved = []
        store = CheckpointStore(tmp_path, every=40)
        session = serial_session(
            shards,
            num_keys=NUM_KEYS,
            auto_checkpoint=store,
            on_checkpoint=lambda snap, path: saved.append(snap.watermark),
        )
        try:
            query, scope = self.QUERY
            session.register(query, scope=scope)
            half = batch.num_events // 2
            # The batch path first, then the scalar path — the cadence
            # must keep rolling across both.
            from repro.engine.events import EventBatch

            session.push_batch(
                EventBatch(
                    timestamps=batch.timestamps[:half],
                    keys=batch.keys[:half],
                    values=batch.values[:half],
                    horizon=batch.horizon,
                    num_keys=batch.num_keys,
                )
            )
            for i in range(half, batch.num_events):
                session.push(
                    int(batch.timestamps[i]),
                    int(batch.keys[i]),
                    float(batch.values[i]),
                )
        finally:
            session.close()
        assert len(saved) >= 3
        assert all(b - a >= 40 for a, b in zip(saved, saved[1:]))

    def test_restore_keeps_the_cadence_rolling(
        self, shards, tmp_path, repro_seed
    ):
        """Crash after an auto-save, restore with the same store, keep
        streaming: the remaining saves land as if nothing happened, and
        the final results are bit-identical to an uninterrupted run."""
        events, horizon = stream_events(repro_seed)
        query, scope = self.QUERY

        uninterrupted = serial_session(shards, num_keys=NUM_KEYS)
        try:
            uninterrupted.register(query, scope=scope)
            self.feed(uninterrupted, events)
            expected = uninterrupted.finish(horizon=horizon)
        finally:
            uninterrupted.close()

        store = CheckpointStore(tmp_path, every=30)
        cut = len(events) // 2
        first = serial_session(
            shards, num_keys=NUM_KEYS, auto_checkpoint=store
        )
        applied = 0
        try:
            first.register(query, scope=scope)
            self.feed(first, events[:cut])
            stats = first.reorder_stats
            applied = stats.accepted + stats.late_dropped
        finally:
            first.close()  # the "crash": whatever was saved is saved

        resume_from = read_checkpoint(store.latest())
        second = ShardedSession.restore(resume_from, auto_checkpoint=store)
        try:
            # Resume from the snapshot's own exact position (the
            # restored reorder counters), not the crash position.
            stats = second.reorder_stats
            position = stats.accepted + stats.late_dropped
            assert position <= applied
            before = len(store.paths())
            self.feed(second, events[position:])
            assert len(store.paths()) > before  # cadence kept rolling
            actual = second.finish(horizon=horizon)
        finally:
            second.close()
        assert_identical(
            expected, actual, f"seed={repro_seed} auto-restore"
        )

    def test_snapshots_never_perturb_results(
        self, shards, tmp_path, repro_seed
    ):
        """Snapshotting is observationally free: a session
        auto-checkpointing at an aggressive cadence emits results
        bit-identical to one that never snapshots (the pre-snapshot
        feed must not advance the watermark)."""
        events, horizon = stream_events(repro_seed)

        def run(**kw):
            session = serial_session(shards, num_keys=NUM_KEYS, **kw)
            try:
                for query, scope in WORKLOAD:
                    session.register(query, scope=scope)
                self.feed(session, events)
                return session.finish(horizon=horizon)
            finally:
                session.close()

        plain = run()
        chatty = run(auto_checkpoint=CheckpointStore(tmp_path, every=10))
        assert_identical(
            plain, chatty, f"seed={repro_seed} cadence-invariance"
        )

"""API tests for the key-sharded runtime (DESIGN.md §7).

Complements the invariant-10 property suite with directed checks of
the coordinator: global-scope merging against collapsed-key
references, watermark alignment, the consuming read path, stats
aggregation, and the error surface of both backends.
"""

import multiprocessing

import numpy as np
import pytest

from repro.aggregates.registry import AVG, MEDIAN, MIN, STDEV, SUM
from repro.core.multiquery import Query
from repro.errors import ExecutionError
from repro.runtime import (
    RETIRED_RESULT_CAP,
    CheckpointStore,
    SHARD_BACKENDS,
    QuerySession,
    ShardedSession,
)
from repro.windows.window import Window, WindowSet
from repro.workloads.streams import zipf_stream

from session_streams import assert_identical, integer_stream

QA = Query("a", WindowSet([Window(20, 10), Window(40, 20)]), MIN)
QB = Query("b", WindowSet([Window(24, 12)]), SUM)
NUM_KEYS = 6


@pytest.fixture
def int_stream():
    return integer_stream(ticks=600, rate=2, num_keys=NUM_KEYS, seed=21)


def collapsed_reference(stream, query, horizon):
    """The global answer computed the slow, obviously-correct way: all
    keys mapped onto one."""
    session = QuerySession(num_keys=1, hysteresis=None)
    session.register(query)
    for ts, _key, value in stream.rows():
        session.push(ts, 0, value)
    return session.finish(horizon=horizon)


class TestGlobalScope:
    @pytest.mark.parametrize(
        "aggregate", [SUM, AVG, STDEV], ids=lambda a: a.name
    )
    def test_partial_merge_matches_collapsed_keys(
        self, int_stream, aggregate
    ):
        """Vectorized cross-shard ``combine`` equals aggregating the
        un-keyed stream directly (exact for integer values)."""
        query = Query("g", WindowSet([Window(20, 10)]), aggregate)
        reference = collapsed_reference(
            int_stream, query, int_stream.horizon
        )
        session = ShardedSession(
            num_keys=NUM_KEYS, num_shards=3, hysteresis=None
        )
        session.register(query, scope="global")
        session.push_many(int_stream.rows())
        results = session.finish(horizon=int_stream.horizon)
        emitted = results["g"][Window(20, 10)]
        assert emitted.values.shape[0] == 1  # one global row
        if aggregate is STDEV:
            # Gaussian-free integer stream, but STDEV finalization
            # involves a sqrt of a difference — allow reassociation.
            np.testing.assert_allclose(
                emitted.values,
                reference["g"][Window(20, 10)].values,
                rtol=1e-9,
            )
        else:
            np.testing.assert_array_equal(
                emitted.values, reference["g"][Window(20, 10)].values
            )

    def test_holistic_forwarding_matches_collapsed_keys(self, int_stream):
        """Global MEDIAN has no partial form: raw forwarding to the
        coordinator core must equal the collapsed-key run exactly."""
        query = Query("h", WindowSet([Window(30, 15)]), MEDIAN)
        reference = collapsed_reference(
            int_stream, query, int_stream.horizon
        )
        session = ShardedSession(
            num_keys=NUM_KEYS, num_shards=4, hysteresis=None
        )
        session.register(query, scope="global")
        session.push_many(int_stream.rows())
        results = session.finish(horizon=int_stream.horizon)
        np.testing.assert_array_equal(
            results["h"][Window(30, 15)].values,
            reference["h"][Window(30, 15)].values,
        )

    def test_midstream_holistic_registration_starts_aligned(
        self, int_stream
    ):
        """A global holistic query registered mid-stream owns only
        instances from its aligned activation start — and matches the
        collapsed-key reference on that suffix."""
        query = Query("h", WindowSet([Window(30, 15)]), MEDIAN)
        reference = collapsed_reference(
            int_stream, query, int_stream.horizon
        )["h"][Window(30, 15)]
        session = ShardedSession(
            num_keys=NUM_KEYS, num_shards=3, hysteresis=None
        )
        session.register(QA)
        rows = list(int_stream.rows())
        for i, (ts, key, value) in enumerate(rows):
            if i == len(rows) // 2:
                session.register(query, scope="global")
            session.push(ts, key, value)
        results = session.finish(horizon=int_stream.horizon)
        emitted = results["h"][Window(30, 15)]
        assert emitted.start_instance > 0
        assert emitted.frontier == reference.frontier
        np.testing.assert_array_equal(
            emitted.values,
            reference.values[:, emitted.start_instance:],
        )

    def test_global_and_per_key_share_operators(self, int_stream):
        """A global and a per-key query over the same window share one
        operator: logical pairs match the per-key-only run."""
        def pairs(with_global):
            session = ShardedSession(
                num_keys=NUM_KEYS, num_shards=2, hysteresis=None
            )
            session.register(QA)
            if with_global:
                session.register(
                    Query("g", QA.windows, MIN), scope="global"
                )
            session.push_many(int_stream.rows())
            session.finish(horizon=int_stream.horizon)
            return session.stats().total_pairs

        assert pairs(True) == pairs(False)


class TestCoordination:
    def test_watermarks_stay_aligned(self, int_stream):
        session = ShardedSession(
            num_keys=NUM_KEYS, num_shards=4, hysteresis=None
        )
        session.register(QA)
        rows = list(int_stream.rows())
        for i, (ts, key, value) in enumerate(rows):
            session.push(ts, key, value)
            if i % 300 == 299:
                marks = session.shard_watermarks()
                assert min(marks) == max(marks) == session.watermark
        session.finish(horizon=int_stream.horizon)
        marks = session.shard_watermarks()
        assert min(marks) == max(marks) == int_stream.horizon

    def test_stats_match_unsharded_session(self, int_stream):
        """Logical pairs are a pure function of (stream, workload):
        sharding must not change the work the cost model prices."""
        unsharded = QuerySession(num_keys=NUM_KEYS, hysteresis=None)
        sharded = ShardedSession(
            num_keys=NUM_KEYS, num_shards=3, hysteresis=None
        )
        for session in (unsharded, sharded):
            session.register(QA)
            session.register(QB)
            session.push_many(int_stream.rows())
            session.finish(horizon=int_stream.horizon)
        assert (
            sharded.stats().pairs_per_window
            == unsharded.stats().pairs_per_window
        )

    def test_drain_results_consumes_and_reassembles(self, int_stream):
        session = ShardedSession(
            num_keys=NUM_KEYS, num_shards=3, hysteresis=None
        )
        session.register(QA)
        session.register(Query("g", WindowSet([Window(20, 10)]), SUM),
                         scope="global")
        reference = None
        pieces = []
        rows = list(int_stream.rows())
        for i, (ts, key, value) in enumerate(rows):
            session.push(ts, key, value)
            if i % 400 == 399:
                pieces.append(session.drain_results())
        session.finish(horizon=int_stream.horizon)
        pieces.append(session.drain_results())
        cold = ShardedSession(num_keys=NUM_KEYS, num_shards=3,
                              hysteresis=None)
        cold.register(QA)
        cold.register(Query("g", WindowSet([Window(20, 10)]), SUM),
                      scope="global")
        cold.push_many(int_stream.rows())
        reference = cold.finish(horizon=int_stream.horizon)
        for name, window in (
            ("a", Window(20, 10)),
            ("a", Window(40, 20)),
            ("g", Window(20, 10)),
        ):
            parts = [
                p[name][window]
                for p in pieces
                if name in p and window in p[name]
            ]
            for left, right in zip(parts, parts[1:]):
                assert right.start_instance == left.frontier
            stitched = np.concatenate([p.values for p in parts], axis=1)
            np.testing.assert_array_equal(
                stitched, reference[name][window].values
            )

    def test_switch_broadcast_reaches_every_shard(self, int_stream):
        session = ShardedSession(
            num_keys=NUM_KEYS, num_shards=3, hysteresis=None
        )
        session.register(QA)
        rows = list(int_stream.rows())
        for i, (ts, key, value) in enumerate(rows):
            if i == len(rows) // 2:
                session.register(QB)
            session.push(ts, key, value)
        session.finish(horizon=int_stream.horizon)
        logs = session.shard_switches()
        assert len(logs) == len(session.active_shards) >= 2
        for log in logs[1:]:
            assert [
                (s.generation, s.reason, s.key, s.watermark)
                for s in log
            ] == [
                (s.generation, s.reason, s.key, s.watermark)
                for s in logs[0]
            ]


class TestRebalancing:
    """Hot-slot migration flattens Zipf skew (DESIGN.md §12, invariant
    10).  Four serial shards, 256 keys, the stream cut into twelve
    segments; the rebalanced run calls ``rebalance()`` after each.  The
    load counters are deterministic, so this holds on any host: at
    30 000 events the hot shard's share reads 0.37 -> 0.25 at s=0.8
    and 0.52 -> 0.25 at s=1.2."""

    QUERIES = [
        Query("sums", WindowSet([Window(300, 50), Window(600, 100)]), SUM),
        Query("mins", WindowSet([Window(400, 80)]), MIN),
        Query("avgs", WindowSet([Window(480, 120)]), AVG),
    ]

    def run(self, table, horizon, shards, rebalance):
        session = ShardedSession(
            num_keys=256,
            num_shards=shards,
            backend="serial",
            chunk_ticks=1200,
            hysteresis=None,
        )
        with session:
            for query in self.QUERIES:
                session.register(query)
            moved = 0
            for segment in np.array_split(table, 12):
                session.push_many(segment)
                if rebalance:
                    moved += session.rebalance()
            results = session.finish(horizon=horizon)
            loads = [load["events"] for load in session.shard_loads().values()]
            return (
                results,
                moved,
                max(loads) / sum(loads),
                session.stats().total_physical,
            )

    @pytest.mark.parametrize("s", [0.8, 1.2])
    def test_rebalancing_lowers_the_hot_share(self, s):
        # Integer values: the migrated run's extra flush boundaries
        # cannot re-associate a sum away from bit-identity.
        stream = zipf_stream(
            30_000, num_keys=256, s=s, rate=8, seed=7, integer_values=True
        )
        table = np.column_stack(
            (stream.timestamps, stream.keys, stream.values)
        )
        oracle, _, _, physical = self.run(table, stream.horizon, 1, False)
        fixed, no_moves, fixed_share, fixed_physical = self.run(
            table, stream.horizon, 4, False
        )
        moving, moves, moving_share, moving_physical = self.run(
            table, stream.horizon, 4, True
        )
        assert no_moves == 0 and moves > 0
        assert moving_share < fixed_share
        assert fixed_physical == moving_physical == physical
        assert_identical(oracle, fixed, f"s={s} static")
        assert_identical(oracle, moving, f"s={s} rebalanced")


class TestApiSurface:
    def test_scope_validation(self):
        session = ShardedSession(num_keys=2, num_shards=2, hysteresis=None)
        with pytest.raises(ExecutionError):
            session.register(QA, scope="banana")

    def test_duplicate_name_rejected(self):
        session = ShardedSession(num_keys=2, num_shards=2, hysteresis=None)
        session.register(QA)
        with pytest.raises(ExecutionError):
            session.register(QA)

    def test_unknown_deregister_rejected(self):
        session = ShardedSession(num_keys=2, num_shards=2, hysteresis=None)
        with pytest.raises(ExecutionError):
            session.deregister("ghost")

    def test_key_range_validated(self):
        session = ShardedSession(num_keys=2, num_shards=2, hysteresis=None)
        session.register(QA)
        with pytest.raises(ExecutionError):
            session.push(0, 2, 1.0)

    def test_push_after_finish_rejected(self):
        session = ShardedSession(num_keys=2, num_shards=2, hysteresis=None)
        session.register(QA)
        session.finish()
        with pytest.raises(ExecutionError):
            session.push(0, 0, 1.0)

    def test_push_batch_on_a_lateness_session_is_push_many(self, int_stream):
        """``push_batch`` has no precondition: on a ``max_lateness > 0``
        session it is ``push_many`` of the same columns, call by call
        and bit for bit."""
        from repro.engine.events import EventColumns

        def run(as_batches):
            session = ShardedSession(
                num_keys=NUM_KEYS, num_shards=2, max_lateness=4,
                hysteresis=None,
            )
            session.register(QA)
            session.register(QB, scope="global")
            marks = []
            for lo in range(0, int_stream.horizon, 75):
                piece = int_stream.slice_time(lo, lo + 75)
                if as_batches:
                    session.push_batch(piece)
                else:
                    session.push_many(
                        EventColumns(
                            piece.timestamps, piece.keys, piece.values,
                            NUM_KEYS,
                        )
                    )
                marks.append(session.watermark)
            stats = session.stats()
            results = session.finish(int_stream.horizon)
            return results, marks, stats, session.reorder_stats

        many, many_marks, many_stats, many_reorder = run(False)
        batch, batch_marks, batch_stats, batch_reorder = run(True)
        assert_identical(many, batch, "push_batch vs push_many")
        assert batch_marks == many_marks
        assert batch_reorder == many_reorder
        assert batch_reorder.accepted == int_stream.num_events
        for counter in ("events", "total_pairs", "total_physical"):
            assert getattr(batch_stats, counter) == getattr(
                many_stats, counter
            ), counter

    def test_push_batch_behind_the_watermark_drops_and_counts(self):
        """A batch reaching behind the watermark is not refused: it
        loses exactly the events the per-event loop drops as late, with
        the same counters."""
        from repro.engine.events import make_batch

        batches = [
            make_batch([150], [1.0], keys=[0], num_keys=2, horizon=200),
            make_batch(
                [20, 148, 149, 160], [2.0, 3.0, 4.0, 5.0],
                keys=[1, 0, 1, 0], num_keys=2, horizon=200,
            ),
        ]

        def run(as_batches):
            session = ShardedSession(
                num_keys=2, num_shards=2, max_lateness=1,
                chunk_ticks=1000, hysteresis=None,
            )
            session.register(QB)
            for batch in batches:
                if as_batches:
                    session.push_batch(batch)
                else:
                    for row in batch.rows():
                        session.push(*row)
            return session.finish(200), session.reorder_stats

        loop, loop_reorder = run(False)
        batched, batched_reorder = run(True)
        assert_identical(loop, batched, "late events in a sorted batch")
        assert batched_reorder == loop_reorder
        assert (
            batched_reorder.accepted,
            batched_reorder.late_dropped,
            batched_reorder.max_observed_lateness,
        ) == (3, 2, 129)

    def test_closed_session_fails_loudly(self, int_stream):
        """After close() every surface raises — never a silent empty
        result (the backend and its results are gone)."""
        session = ShardedSession(
            num_keys=NUM_KEYS, num_shards=2, backend="process",
            hysteresis=None,
        )
        session.register(QA)
        session.push_many(list(int_stream.rows())[:300])
        session.close()
        with pytest.raises(ExecutionError):
            session.push(9999, 0, 1.0)
        with pytest.raises(ExecutionError):
            session.finish()
        with pytest.raises(ExecutionError):
            session.results()
        with pytest.raises(ExecutionError):
            session.stats()
        session.close()  # idempotent

    def test_mode_memory_stays_bounded(self):
        """The cross-core-set name-collision guard ages out with the
        archives it protects — no unbounded per-name growth."""
        session = ShardedSession(num_keys=2, num_shards=2, hysteresis=None)
        churn = RETIRED_RESULT_CAP + 16
        for i in range(churn):
            name = session.register(
                Query(f"d{i}", WindowSet([Window(10, 5)]), SUM)
            )
            session.deregister(name)
        assert len(session._modes) == RETIRED_RESULT_CAP
        assert {
            core.retired_results_evicted for core in session.backend.cores
        } == {churn - RETIRED_RESULT_CAP}

    def test_cross_core_name_reuse_rejected(self, int_stream):
        """A name whose archive lives on the shard cores cannot be
        re-registered on the forwarding core (and vice versa) — the
        two archives cannot be reconciled."""
        session = ShardedSession(
            num_keys=NUM_KEYS, num_shards=2, hysteresis=None
        )
        session.register(Query("x", WindowSet([Window(10, 5)]), SUM))
        session.push_many(list(int_stream.rows())[:200])
        session.deregister("x")
        with pytest.raises(ExecutionError):
            session.register(
                Query("x", WindowSet([Window(10, 5)]), MEDIAN),
                scope="global",
            )

    def test_sql_registration_with_auto_name(self, int_stream):
        session = ShardedSession(
            num_keys=NUM_KEYS, num_shards=2, hysteresis=None
        )
        name = session.register(
            "SELECT MIN(Reading) FROM Sensors "
            "GROUP BY WINDOWS(HOPPING(second, 20, 10))"
        )
        assert name == "q1"
        session.push_many(int_stream.rows())
        results = session.finish(horizon=int_stream.horizon)
        assert results["q1"][Window(20, 10)].values.shape[0] == NUM_KEYS

    @pytest.mark.parametrize(
        "name",
        ["quantum", "multiprocessing", "shared_memory", "shared-memory"],
    )
    def test_unknown_backend_rejected(self, name):
        """Backends have one name each: the old aliases are unknown
        names, and the refusal lists the three there are."""
        from repro.scenarios import SHARD_BACKENDS as scenario_backends

        assert SHARD_BACKENDS == ("serial", "process", "shm")
        assert scenario_backends is SHARD_BACKENDS
        listed = r"\('serial', 'process', 'shm'\)"
        with pytest.raises(ExecutionError, match=listed):
            ShardedSession(num_keys=2, num_shards=2, backend=name)


class TestProcessBackend:
    def test_worker_error_propagates(self):
        session = ShardedSession(
            num_keys=4, num_shards=2, backend="process", hysteresis=None
        )
        try:
            session.register(QA)
            with pytest.raises(ExecutionError):
                # Duplicate registration fails inside the workers and
                # must surface as a clean coordinator-side error.
                session.backend.register(QA, session.watermark, "per_key")
        finally:
            session.close()

    def test_reply_stream_survives_command_failure(self, int_stream):
        """A failing synchronous command must drain every worker's
        reply: later commands must not consume stale replies."""
        session = ShardedSession(
            num_keys=NUM_KEYS, num_shards=3, backend="process",
            hysteresis=None,
        )
        try:
            session.register(QA)
            rows = list(int_stream.rows())
            session.push_many(rows[:400])
            with pytest.raises(ExecutionError):
                session.backend.deregister("ghost", session.watermark)
            # The reply stream is still aligned: results arrive intact.
            session.push_many(rows[400:])
            results = session.finish(horizon=int_stream.horizon)
            serial = ShardedSession(
                num_keys=NUM_KEYS, num_shards=3, hysteresis=None
            )
            serial.register(QA)
            serial.push_many(rows)
            reference = serial.finish(horizon=int_stream.horizon)
            for window in QA.windows:
                np.testing.assert_array_equal(
                    results["a"][window].values,
                    reference["a"][window].values,
                )
        finally:
            session.close()

    def test_context_manager_closes_workers(self, int_stream):
        with ShardedSession(
            num_keys=NUM_KEYS, num_shards=2, backend="process",
            hysteresis=None,
        ) as session:
            session.register(QA)
            session.push_many(list(int_stream.rows())[:400])
            session.finish()
        for proc in session.backend._procs:
            assert not proc.is_alive()


WORKER_BACKENDS = pytest.mark.parametrize("backend", ["process", "shm"])

#: Front-door settings a session refuses, each after its backend is up.
REFUSED = {
    "high_watermark": lambda tmp_path: {"ingest_high_watermark": 0},
    "cadence": lambda tmp_path: {"auto_checkpoint": CheckpointStore(tmp_path)},
}


class TestPlacement:
    """Where a session runs: a refused setting leaves no worker behind,
    and one shard runs in-process at construction and on restore alike
    (the conftest fence also fails a leaked ``/dev/shm`` segment or
    descriptor here)."""

    @WORKER_BACKENDS
    @pytest.mark.parametrize("setting", sorted(REFUSED))
    def test_refused_setting_leaves_no_worker(self, backend, setting, tmp_path):
        with pytest.raises(ExecutionError):
            ShardedSession(
                num_keys=8, num_shards=2, backend=backend,
                **REFUSED[setting](tmp_path),
            )
        assert multiprocessing.active_children() == []

    @WORKER_BACKENDS
    @pytest.mark.parametrize("setting", sorted(REFUSED))
    def test_refused_setting_on_restore_leaves_no_worker(
        self, backend, setting, tmp_path, int_stream
    ):
        with ShardedSession(
            num_keys=NUM_KEYS, num_shards=2, hysteresis=None
        ) as session:
            session.register(QA)
            session.push_many(list(int_stream.rows())[:200])
            snap = session.snapshot()
        with pytest.raises(ExecutionError):
            ShardedSession.restore(
                snap, backend=backend, **REFUSED[setting](tmp_path)
            )
        assert multiprocessing.active_children() == []

    @WORKER_BACKENDS
    def test_one_shard_restores_in_process(self, backend, int_stream):
        rows = list(int_stream.rows())
        with ShardedSession(
            num_keys=NUM_KEYS, backend=backend, hysteresis=None
        ) as session:
            assert session.backend.name == "serial"
            session.register(QA)
            session.push_many(rows[:300])
            snap = session.snapshot()
            session.push_many(rows[300:])
            expected = session.finish(horizon=int_stream.horizon)
        with ShardedSession.restore(snap, backend=backend) as restored:
            assert restored.backend.name == "serial"
            assert multiprocessing.active_children() == []
            restored.push_many(rows[300:])
            got = restored.finish(horizon=int_stream.horizon)
        assert_identical(expected, got, f"one shard restored on {backend}")

"""SessionManager contract: admission control with exact counters,
supervision (restore + tail replay), and the request/reply protocol
(DESIGN.md §10).

Clocks and sleepers are injected everywhere, so every shed decision,
breaker transition, and retry quote in here is exact arithmetic — a
failing assertion names a wrong counter, not a missed sleep.
"""

import errno
import multiprocessing
import os
import threading

import pytest

from repro.errors import ExecutionError
from repro.runtime.faults import Fault, FaultPlan
from repro.service import (
    BadRequest,
    Overloaded,
    SessionManager,
    deserialize_results,
    serialize_results,
)
from service_helpers import (
    SQL_AVG,
    SQL_SUM,
    FakeClock,
    RecordingSleeper,
    integer_events,
    oracle_results,
)

NUM_KEYS = 4


def make_manager(tmp_path, *, clock=None, sleeper=None, config=None, **kw):
    clock = clock if clock is not None else FakeClock()
    return SessionManager(
        config or {"defaults": {"num_keys": NUM_KEYS, "rate": 1e9, "burst": 1e9}},
        directory=tmp_path / "ckpt",
        clock=clock,
        sleeper=sleeper if sleeper is not None else RecordingSleeper(clock),
        **kw,
    )


# ----------------------------------------------------------------------
# The happy path is the oracle path
# ----------------------------------------------------------------------
class TestBasicOps:
    def test_ingest_results_match_oracle_bit_for_bit(self, tmp_path, repro_seed):
        events = integer_events(40, NUM_KEYS, seed=repro_seed)
        with make_manager(tmp_path) as mgr:
            assert mgr.register("alice", SQL_SUM) == "q1"
            out = mgr.ingest("alice", events)
            assert out["admitted"] == len(events)
            got = mgr.results("alice")
        expected = oracle_results(
            events, [(0, SQL_SUM, "", "per_key")], NUM_KEYS
        )
        assert got == expected, f"seed={repro_seed}"

    def test_results_round_trip_through_the_wire_codec(self, tmp_path, repro_seed):
        events = integer_events(30, NUM_KEYS, seed=repro_seed)
        with make_manager(tmp_path) as mgr:
            mgr.register("alice", SQL_SUM, name="sums")
            mgr.ingest("alice", events)
            payload = mgr.results("alice")
        rebuilt = deserialize_results(payload)
        assert serialize_results(rebuilt) == payload

    def test_tenants_are_isolated_namespaces(self, tmp_path, repro_seed):
        with make_manager(tmp_path) as mgr:
            mgr.register("alice", SQL_SUM, name="q")
            mgr.register("bob", SQL_AVG, name="q")  # same name, fine
            mgr.ingest("alice", [(1, 0, 1.0)])
            assert mgr.stats("alice")["watermark"] is not None
            assert mgr.stats("bob")["queries"] == ["q"]

    def test_deregister_then_reuse_name(self, tmp_path):
        with make_manager(tmp_path) as mgr:
            mgr.register("alice", SQL_SUM, name="q")
            mgr.deregister("alice", "q")
            assert "q" not in mgr.stats("alice")["queries"]
            with pytest.raises(BadRequest):
                mgr.deregister("alice", "q")

    def test_duplicate_name_is_bad_request(self, tmp_path):
        with make_manager(tmp_path) as mgr:
            mgr.register("alice", SQL_SUM, name="q")
            with pytest.raises(BadRequest, match="already registered"):
                mgr.register("alice", SQL_AVG, name="q")

    def test_auto_open_on_first_touch(self, tmp_path):
        with make_manager(tmp_path) as mgr:
            mgr.ingest("zelda", [(1, 0, 1.0)])
            assert "zelda" in mgr.tenants

    def test_reopen_with_conflicting_config_raises(self, tmp_path):
        with make_manager(tmp_path) as mgr:
            mgr.open_tenant("alice", {"rate": 100.0})
            mgr.open_tenant("alice", {"rate": 100.0})  # idempotent
            with pytest.raises(BadRequest, match="different config"):
                mgr.open_tenant("alice", {"rate": 7.0})


# ----------------------------------------------------------------------
# Admission control: shed explicitly, count exactly
# ----------------------------------------------------------------------
class TestAdmission:
    def test_rate_quota_shed_with_honest_retry_after(self, tmp_path):
        clock = FakeClock()
        config = {"defaults": {"num_keys": NUM_KEYS, "rate": 10, "burst": 10}}
        with make_manager(tmp_path, clock=clock, config=config) as mgr:
            mgr.register("alice", SQL_SUM)
            batch = [(1, 0, 1.0)] * 10
            assert mgr.ingest("alice", batch)["admitted"] == 10
            with pytest.raises(Overloaded) as exc_info:
                mgr.ingest("alice", [(2, 0, 1.0)] * 5)
            assert exc_info.value.reason == "rate_quota"
            clock.advance(exc_info.value.retry_after)
            assert mgr.ingest("alice", [(2, 0, 1.0)] * 5)["admitted"] == 5
            stats = mgr.stats("alice")["stats"]
            assert stats["shed_rate_quota"] == 1
            assert stats["admitted_events"] == 15
            assert stats["requests"] == 3 + 1  # 3 ingests + stats itself

    def test_shed_request_applies_nothing(self, tmp_path):
        clock = FakeClock()
        config = {"defaults": {"num_keys": NUM_KEYS, "rate": 5, "burst": 5}}
        with make_manager(tmp_path, clock=clock, config=config) as mgr:
            mgr.register("alice", SQL_SUM)
            mgr.ingest("alice", [(1, 0, 1.0)] * 5)
            wm = mgr.stats("alice")["watermark"]
            with pytest.raises(Overloaded):
                mgr.ingest("alice", [(9, 0, 1.0)] * 5)
            assert mgr.stats("alice")["watermark"] == wm

    def test_oversized_batch_sheds_on_queue_budget(self, tmp_path):
        from repro.engine.events import EVENT_BYTES

        config = {
            "defaults": {
                "num_keys": NUM_KEYS,
                "rate": 1e9,
                "burst": 1e9,
                "queue_budget_bytes": 50 * EVENT_BYTES,
            }
        }
        with make_manager(tmp_path, config=config) as mgr:
            mgr.register("alice", SQL_SUM)
            assert mgr.ingest("alice", [(1, 0, 1.0)] * 50)["admitted"] == 50
            with pytest.raises(Overloaded) as exc_info:
                mgr.ingest("alice", [(2, 0, 1.0)] * 51)
            assert exc_info.value.reason == "queue_budget"
            assert exc_info.value.retry_after > 0
            assert mgr.stats("alice")["stats"]["shed_queue_budget"] == 1

    def test_concurrent_backlog_sheds_on_queue_budget(self, tmp_path):
        """While one request holds the session lock (a planned stall),
        co-requests beyond the byte budget shed instead of queueing."""
        from repro.engine.events import EVENT_BYTES

        plan = FaultPlan(
            Fault(kind="stall_client", tenant="alice", op="ingest",
                  delay_seconds=0.4)
        )
        config = {
            "defaults": {
                "num_keys": NUM_KEYS,
                "rate": 1e9,
                "burst": 1e9,
                "queue_budget_bytes": 120 * EVENT_BYTES,
            }
        }
        import time as _time

        with SessionManager(
            config, directory=tmp_path / "ckpt", fault_plan=plan
        ) as mgr:
            mgr.register("alice", SQL_SUM)
            started = threading.Event()

            def stalled():
                started.set()
                mgr.ingest("alice", [(1, 0, 1.0)] * 100)

            worker = threading.Thread(target=stalled)
            worker.start()
            started.wait()
            deadline = _time.monotonic() + 2.0
            shed = None
            while _time.monotonic() < deadline:
                try:
                    mgr.ingest("alice", [(2, 0, 1.0)] * 100)
                except Overloaded as exc:
                    shed = exc
                    break
                _time.sleep(0.01)
            worker.join()
            assert shed is not None and shed.reason == "queue_budget"
            assert mgr.stats("alice")["stats"]["shed_queue_budget"] >= 1

    def test_flood_fault_drains_the_bucket(self, tmp_path):
        plan = FaultPlan(
            Fault(kind="flood_tenant", tenant="alice", op="ingest")
        )
        config = {"defaults": {"num_keys": NUM_KEYS, "rate": 10, "burst": 100}}
        with make_manager(tmp_path, config=config, fault_plan=plan) as mgr:
            mgr.register("alice", SQL_SUM)
            with pytest.raises(Overloaded) as exc_info:
                mgr.ingest("alice", [(1, 0, 1.0)])
            assert exc_info.value.reason == "rate_quota"
            assert mgr.stats("alice")["stats"]["faults_injected"] == 1

    def test_malformed_events_are_bad_request_not_shed(self, tmp_path):
        with make_manager(tmp_path) as mgr:
            mgr.register("alice", SQL_SUM)
            with pytest.raises(BadRequest, match="events"):
                mgr.ingest("alice", "nope")
            with pytest.raises(BadRequest, match="outside dense id space"):
                mgr.ingest("alice", [(1, 99, 1.0)])
            with pytest.raises(BadRequest, match="already registered"):
                mgr.register("alice", SQL_AVG, name="q1")
            stats = mgr.stats("alice")["stats"]
            assert stats["admitted_events"] == 0
            assert stats["shed_rate_quota"] == 0
            assert stats["bad_requests"] == 3
            assert stats["requests"] == 4  # the register that worked + 3

    def test_bad_timestamp_is_rejected_whole_not_replayed(self, tmp_path):
        """A negative timestamp used to be admitted, applied up to the
        bad row, and then cost a restore + tail replay per request —
        three of them opened the tenant's own breaker."""
        with make_manager(tmp_path, failure_threshold=3) as mgr:
            mgr.register("alice", SQL_SUM)
            mgr.ingest("alice", [(1, 0, 1.0)])
            before = mgr.stats("alice")
            for _ in range(4):
                reply = mgr.handle(
                    {"op": "ingest", "tenant": "alice",
                     "events": [[5, 0, 1.0], [-1, 1, 2.0]]}
                )
                assert reply["error"] == "bad_request"
                assert reply["detail"].startswith("events[1]: timestamp -1")
            for events, detail in (
                ([[5, 0, 1.0], [6.5, 1, 2.0]], "events[1]: timestamp and key"),
                ([[5, 0, 1.0], [6, 1]], "events[1]: expected [ts, key, value]"),
                ([[2**53 + 1, 0, 1.0]], "events[0]: timestamp and key"),
            ):
                reply = mgr.handle(
                    {"op": "ingest", "tenant": "alice", "events": events}
                )
                assert reply["error"] == "bad_request"
                assert reply["detail"].startswith(detail)
            after = mgr.stats("alice")
            assert after["watermark"] == before["watermark"]
            stats = after["stats"]
            assert stats["restores"] == 0
            assert stats["breaker"] == "closed"
            assert stats["bad_requests"] == 7
            assert stats["admitted_events"] == 1
            assert stats["tail_length"] == before["stats"]["tail_length"]
            assert mgr.ingest("alice", [(5, 0, 1.0)])["admitted"] == 1


# ----------------------------------------------------------------------
# Supervision: restore + tail replay, breaker on repeated death
# ----------------------------------------------------------------------
class TestSupervision:
    def test_kill_fault_recovers_to_oracle_results(self, tmp_path, repro_seed):
        events = integer_events(60, NUM_KEYS, seed=repro_seed)
        plan = FaultPlan(
            Fault(kind="kill_session", tenant="alice", op="ingest",
                  at_watermark=25)
        )
        with make_manager(tmp_path, fault_plan=plan, checkpoint_every=16) as mgr:
            mgr.register("alice", SQL_SUM)
            for ts, key, value in events:
                mgr.ingest("alice", [(ts, key, value)])
            stats = mgr.stats("alice")["stats"]
            assert stats["restores"] == 1
            assert stats["faults_injected"] == 1
            got = mgr.results("alice")
        expected = oracle_results(
            events, [(0, SQL_SUM, "", "per_key")], NUM_KEYS
        )
        assert got == expected, f"seed={repro_seed}"

    @pytest.mark.parametrize("backend", ["process", "shm"])
    def test_one_shard_tenant_recovers_in_process(
        self, tmp_path, repro_seed, backend
    ):
        """A one-shard tenant runs in-process whatever backend its
        config names — and still does after recovering from its
        checkpoint."""
        events = integer_events(60, NUM_KEYS, seed=repro_seed)
        plan = FaultPlan(
            Fault(kind="kill_session", tenant="alice", op="ingest",
                  at_watermark=25)
        )
        config = {
            "defaults": {
                "num_keys": NUM_KEYS, "rate": 1e9, "burst": 1e9,
                "num_shards": 1, "backend": backend,
            }
        }
        with make_manager(
            tmp_path, config=config, fault_plan=plan, checkpoint_every=16
        ) as mgr:
            mgr.register("alice", SQL_SUM)
            for ts, key, value in events:
                mgr.ingest("alice", [(ts, key, value)])
            assert mgr.stats("alice")["stats"]["restores"] == 1
            assert list((tmp_path / "ckpt" / "alice").glob("*.rckpt"))
            assert mgr._tenants["alice"].session.backend.name == "serial"
            assert multiprocessing.active_children() == []
            got = mgr.results("alice")
        assert got == oracle_results(
            events, [(0, SQL_SUM, "", "per_key")], NUM_KEYS
        ), f"seed={repro_seed}"

    def test_kill_before_any_checkpoint_replays_full_tail(self, tmp_path, repro_seed):
        events = integer_events(20, NUM_KEYS, seed=repro_seed)
        plan = FaultPlan(
            Fault(kind="kill_session", tenant="alice", op="ingest",
                  at_watermark=8)
        )
        # Cadence far beyond the stream: recovery must rebuild from
        # scratch and replay every op from the tail alone.
        with make_manager(tmp_path, fault_plan=plan, checkpoint_every=10_000) as mgr:
            mgr.register("alice", SQL_SUM)
            for ts, key, value in events:
                mgr.ingest("alice", [(ts, key, value)])
            assert mgr.stats("alice")["stats"]["restores"] == 1
            got = mgr.results("alice")
        assert got == oracle_results(
            events, [(0, SQL_SUM, "", "per_key")], NUM_KEYS
        ), f"seed={repro_seed}"

    def test_drain_consumption_survives_recovery(self, tmp_path, repro_seed):
        """Results drained before a crash are not re-served after it —
        replay reproduces the consumption."""
        events = integer_events(60, NUM_KEYS, seed=repro_seed)
        half = len(events) // 2
        # The watermark trails the newest tick by the chunk size, so
        # the gate must sit at a watermark the second batch's admission
        # actually observes (first half covers ticks 1-30, wm ~21).
        plan = FaultPlan(
            Fault(kind="kill_session", tenant="alice", op="ingest",
                  at_watermark=15)
        )
        with make_manager(tmp_path, fault_plan=plan, checkpoint_every=10_000) as mgr:
            mgr.register("alice", SQL_SUM)
            mgr.ingest("alice", events[:half])
            first = mgr.results("alice")  # drains, tail-logged
            mgr.ingest("alice", events[half:])  # killed + recovered here
            second = mgr.results("alice")
            assert mgr.stats("alice")["stats"]["restores"] == 1

        # The undisturbed twin: same timeline, same drain points.
        from repro.runtime import QuerySession

        ref = QuerySession(num_keys=NUM_KEYS)
        try:
            ref.register(SQL_SUM)
            for ts, key, value in events[:half]:
                ref.push(ts, key, value)
            ref_first = serialize_results(ref.drain_results())
            for ts, key, value in events[half:]:
                ref.push(ts, key, value)
            ref_second = serialize_results(ref.drain_results())
        finally:
            ref.close()
        assert first == ref_first, f"seed={repro_seed}"
        assert second == ref_second, f"seed={repro_seed}"

    def test_auto_checkpoint_truncates_tail(self, tmp_path):
        with make_manager(tmp_path, checkpoint_every=10) as mgr:
            mgr.register("alice", SQL_SUM)
            mgr.ingest("alice", [(t, 0, 1.0) for t in range(1, 9)])
            before = mgr.stats("alice")["stats"]["tail_length"]
            mgr.ingest("alice", [(t, 0, 1.0) for t in range(9, 30)])
            after = mgr.stats("alice")["stats"]["tail_length"]
            assert before == 2  # register + one batch entry
            # The cadence fell due inside the second batch: the cut is
            # taken once the whole batch has been applied, so nothing
            # is left to replay.
            assert after == 0
            assert list((tmp_path / "ckpt" / "alice").glob("*.rckpt"))

    def test_manual_snapshot_clears_tail(self, tmp_path):
        with make_manager(tmp_path) as mgr:
            mgr.register("alice", SQL_SUM)
            mgr.ingest("alice", [(1, 0, 1.0), (2, 1, 2.0)])
            out = mgr.snapshot("alice")
            assert out["watermark"] >= 1
            assert mgr.stats("alice")["stats"]["tail_length"] == 0

    def test_kill_between_batches_replays_whole_batches(
        self, tmp_path, repro_seed
    ):
        events = integer_events(60, NUM_KEYS, seed=repro_seed)
        plan = FaultPlan(
            Fault(kind="kill_session", tenant="alice", op="ingest",
                  at_watermark=25)
        )
        with make_manager(tmp_path, fault_plan=plan, checkpoint_every=16) as mgr:
            mgr.register("alice", SQL_SUM)
            for lo in range(0, len(events), 14):
                mgr.ingest("alice", events[lo : lo + 14])
            stats = mgr.stats("alice")["stats"]
            assert stats["restores"] == 1 and stats["replay_skipped"] == 0
            # One tail entry per admitted batch since the last cut.
            assert stats["tail_length"] <= len(events) // 14
            got = mgr.results("alice")
        assert got == oracle_results(
            events, [(0, SQL_SUM, "", "per_key")], NUM_KEYS
        ), f"seed={repro_seed}"

    def test_session_death_mid_batch_replays_the_whole_batch(
        self, tmp_path, repro_seed, monkeypatch
    ):
        """The session dies in a batch's one flush, after the batch
        reached the operators and before its trailing events did:
        recovery restores the last cut — which sits on a batch boundary
        — and replays whole batches, this one included."""
        from repro.runtime.core import SessionCore

        events = integer_events(60, NUM_KEYS, seed=repro_seed)
        real_flush = SessionCore._flush
        flushes = []

        def dying_flush(core, to_watermark):
            real_flush(core, to_watermark)
            flushes.append(to_watermark)
            if len(flushes) == 1:
                raise ExecutionError("operator fault mid-batch")

        monkeypatch.setattr(SessionCore, "_flush", dying_flush)
        with make_manager(tmp_path, checkpoint_every=10_000) as mgr:
            mgr.register("alice", SQL_SUM)
            # One batch spanning several chunks (the query's range is
            # 10 ticks) flushes once, to its last chunk end.
            mgr.ingest("alice", events)
            stats = mgr.stats("alice")["stats"]
            assert len(flushes) == 2 and flushes[0] == flushes[1] >= 20
            assert stats["restores"] == 1 and stats["replay_skipped"] == 0
            assert stats["breaker"] == "closed"
            got = mgr.results("alice")
        assert got == oracle_results(
            events, [(0, SQL_SUM, "", "per_key")], NUM_KEYS
        ), f"seed={repro_seed}"

    def test_checkpoint_due_mid_batch_cuts_at_the_batch_boundary(
        self, tmp_path, repro_seed
    ):
        events = integer_events(60, NUM_KEYS, seed=repro_seed)
        half = len(events) // 2
        plan = FaultPlan(
            Fault(kind="kill_session", tenant="alice", op="ingest",
                  at_watermark=1)
        )
        with make_manager(tmp_path, fault_plan=plan, checkpoint_every=16) as mgr:
            mgr.register("alice", SQL_SUM)
            plan_fired = len(plan.fired)
            # Ticks 1-30 in one batch: the cadence (16) falls due in
            # its middle, the cut is taken after its last event.
            mgr.ingest("alice", events[:half])
            stats = mgr.stats("alice")["stats"]
            assert stats["tail_length"] == 0
            assert list((tmp_path / "ckpt" / "alice").glob("*.rckpt"))
            # The kill fires on the next request: recovery has only
            # the checkpoint to go on, and must lose nothing.
            mgr.ingest("alice", events[half:])
            stats = mgr.stats("alice")["stats"]
            assert len(plan.fired) == plan_fired + 1
            assert stats["restores"] == 1
            got = mgr.results("alice")
        assert got == oracle_results(
            events, [(0, SQL_SUM, "", "per_key")], NUM_KEYS
        ), f"seed={repro_seed}"

    def test_handle_returns_once_the_owed_checkpoint_is_written(
        self, tmp_path
    ):
        """``dispatch`` answers and leaves the checkpoint its ingest made
        due owed; ``settle`` writes it and truncates the tail; ``handle``
        is the two in turn.  ``settle`` opens no tenant."""
        store = tmp_path / "ckpt" / "alice"
        batch = [(t, 0, 1.0) for t in range(1, 30)]
        with make_manager(tmp_path, checkpoint_every=10) as mgr:
            mgr.handle({"op": "register", "tenant": "alice", "query": SQL_SUM})
            reply = mgr.dispatch(
                {"op": "ingest", "tenant": "alice", "events": batch}
            )
            assert reply["ok"] and reply["admitted"] == len(batch)
            assert not list(store.glob("*.rckpt"))
            for nobody in ("bob", None, ["alice"]):
                mgr.settle(nobody)
            assert mgr.tenants == ("alice",)
            mgr.settle("alice")
            assert len(list(store.glob("*.rckpt"))) == 1
            assert mgr.stats("alice")["stats"]["tail_length"] == 0
            mgr.handle({"op": "ingest", "tenant": "alice", "events": [
                (t, 0, 1.0) for t in range(30, 60)
            ]})
            assert len(list(store.glob("*.rckpt"))) == 2

    def test_a_failed_checkpoint_write_fails_no_ingest(
        self, tmp_path, monkeypatch, repro_seed
    ):
        """The disk is full when an ingest makes a checkpoint due: the
        ingest is answered ok — its batch was applied, so a retry would
        only be late-dropped — the failure is counted, the tail keeps
        every entry, and the next due point writes the checkpoint.  A
        session death in between recovers from the whole tail."""
        sql = "SELECT SUM(v) FROM s GROUP BY WINDOWS(TUMBLING(second, 4))"
        events = integer_events(30, NUM_KEYS, seed=repro_seed)
        first, second = events[:20], events[20:]
        store = tmp_path / "ckpt" / "alice"
        plan = FaultPlan(
            Fault(kind="kill_session", tenant="alice", op="ingest",
                  at_watermark=1)
        )

        def full_disk(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        with make_manager(
            tmp_path, fault_plan=plan, checkpoint_every=8
        ) as mgr:
            mgr.handle({"op": "register", "tenant": "alice", "query": sql})
            with monkeypatch.context() as disk:
                disk.setattr(os, "fsync", full_disk)
                reply = mgr.handle(
                    {"op": "ingest", "tenant": "alice", "events": first}
                )
            assert reply["ok"] and reply["admitted"] == 20, reply
            assert reply["watermark"] >= 8  # the cadence fell due
            stats = mgr.stats("alice")["stats"]
            assert stats["checkpoint_failures"] == 1
            assert stats["tail_length"] == 2  # register + the batch
            assert stats["bad_requests"] == 0
            assert not list(store.glob("*"))  # no file, no temp file
            # The kill fires on the next ingest: recovery has no
            # checkpoint, only the whole tail, and the cadence — still
            # due — writes at its next due point.
            reply = mgr.handle(
                {"op": "ingest", "tenant": "alice", "events": second}
            )
            assert reply["ok"] and reply["admitted"] == len(second), reply
            stats = mgr.stats("alice")["stats"]
            assert stats["restores"] == 1 and stats["replay_skipped"] == 0
            assert stats["checkpoint_failures"] == 1
            assert stats["tail_length"] == 0
            assert list(store.glob("*.rckpt"))
            got = mgr.results("alice")
        assert got == oracle_results(
            events, [(0, sql, "", "per_key")], NUM_KEYS
        ), f"seed={repro_seed}"

    def test_repeated_recovery_failure_opens_breaker(self, tmp_path, monkeypatch):
        clock = FakeClock()
        plan = FaultPlan(
            Fault(kind="kill_session", tenant="alice", op="ingest")
        )
        with make_manager(
            tmp_path, clock=clock, fault_plan=plan,
            failure_threshold=3, reset_after=5.0,
        ) as mgr:
            mgr.register("alice", SQL_SUM)
            # Break recovery itself: every restore attempt now dies.
            # The one kill fault fells the session on the first
            # ingest; each retry then finds the dead stub, records a
            # failure, and fails to rebuild — consecutive failures
            # that must open the breaker instead of thrashing restore
            # forever.
            monkeypatch.setattr(
                mgr, "_build_session",
                lambda state, source: (_ for _ in ()).throw(
                    ExecutionError("restore broken")
                ),
            )
            for ts in (3, 4, 5):
                with pytest.raises(ExecutionError):
                    mgr.ingest("alice", [(ts, 0, 1.0)])
            with pytest.raises(Overloaded) as exc_info:
                mgr.ingest("alice", [(6, 0, 1.0)])
            assert exc_info.value.reason == "circuit_open"
            assert exc_info.value.retry_after == pytest.approx(5.0)
            # Mutating control ops shed too...
            with pytest.raises(Overloaded):
                mgr.register("alice", SQL_AVG, name="later")
            # ...but reads still answer while the breaker is open.
            stats = mgr.stats("alice")["stats"]
            assert stats["shed_circuit_open"] == 2
            assert stats["breaker"] == "open"
            # After reset_after, one probe goes through; recovery is
            # still broken, so it fails and the breaker re-opens.
            clock.advance(5.0)
            with pytest.raises(ExecutionError):
                mgr.ingest("alice", [(7, 0, 1.0)])
            assert mgr.stats("alice")["stats"]["breaker"] == "open"

    def test_poison_op_is_skipped_and_surfaced(self, tmp_path, monkeypatch):
        with make_manager(tmp_path) as mgr:
            mgr.register("alice", SQL_SUM)
            mgr.ingest("alice", [(1, 0, 1.0)])
            real_apply = SessionManager._apply_entry

            def poisoned(session, entry):
                if entry[0] == "batch" and 99 in entry[1].ts:
                    raise ExecutionError("poison event")
                real_apply(session, entry)

            monkeypatch.setattr(SessionManager, "_apply_entry",
                                staticmethod(poisoned))
            with pytest.raises(BadRequest, match="freshly restored"):
                mgr.ingest("alice", [(98, 1, 5.0), (99, 0, 1.0), (99, 2, 7.0)])
            stats = mgr.stats("alice")["stats"]
            assert stats["replay_skipped"] == 1
            assert stats["restores"] == 1
            assert stats["bad_requests"] == 1
            assert stats["tail_length"] == 2  # register + the good batch
            # The tenant is healthy again; the poison batch is not
            # looped, and none of its events — the good rows ahead of
            # the poison one included — reached the session.
            monkeypatch.setattr(SessionManager, "_apply_entry",
                                staticmethod(real_apply))
            mgr.ingest("alice", [(100, 0, 1.0), (140, 0, 1.0)])
            stats = mgr.stats("alice")["stats"]
            assert stats["restores"] == 1 and stats["breaker"] == "closed"
            got = mgr.results("alice")
        assert got == oracle_results(
            [(1, 0, 1.0), (100, 0, 1.0), (140, 0, 1.0)],
            [(0, SQL_SUM, "", "per_key")],
            NUM_KEYS,
        )

    def test_stall_fault_uses_injected_sleeper(self, tmp_path):
        clock = FakeClock()
        sleeper = RecordingSleeper(clock)
        plan = FaultPlan(
            Fault(kind="stall_client", tenant="alice", op="ingest",
                  delay_seconds=1.5)
        )
        with make_manager(
            tmp_path, clock=clock, sleeper=sleeper, fault_plan=plan
        ) as mgr:
            mgr.register("alice", SQL_SUM)
            mgr.ingest("alice", [(1, 0, 1.0)])
            assert sleeper.calls == [1.5]


# ----------------------------------------------------------------------
# The request/reply protocol
# ----------------------------------------------------------------------
class TestHandle:
    def test_dispatch_and_error_shapes(self, tmp_path):
        clock = FakeClock()
        config = {"defaults": {"num_keys": NUM_KEYS, "rate": 5, "burst": 5}}
        with make_manager(tmp_path, clock=clock, config=config) as mgr:
            assert mgr.handle({"op": "nope"})["error"] == "bad_request"
            assert mgr.handle({"op": "ingest"})["error"] == "bad_request"
            reply = mgr.handle(
                {"op": "register", "tenant": "a", "query": SQL_SUM}
            )
            assert reply == {"ok": True, "name": "q1"}
            reply = mgr.handle(
                {"op": "ingest", "tenant": "a",
                 "events": [[1, 0, 1.0]] * 5}
            )
            assert reply["ok"] and reply["admitted"] == 5
            shed = mgr.handle(
                {"op": "ingest", "tenant": "a",
                 "events": [[2, 0, 1.0]] * 5}
            )
            assert shed["ok"] is False
            assert shed["error"] == "overloaded"
            assert shed["reason"] == "rate_quota"
            assert shed["retry_after"] > 0
            results = mgr.handle({"op": "results", "tenant": "a"})
            assert results["ok"] and "q1" in results["results"]
            stats = mgr.handle({"op": "stats", "tenant": "a"})
            assert stats["ok"] and stats["stats"]["shed_rate_quota"] == 1

    def test_open_carries_effective_config(self, tmp_path):
        with make_manager(tmp_path) as mgr:
            reply = mgr.handle(
                {"op": "open", "tenant": "a", "config": {"rate": 77.0}}
            )
            assert reply["ok"] and reply["config"]["rate"] == 77.0
            bad = mgr.handle(
                {"op": "open", "tenant": "a", "config": {"rtae": 1}}
            )
            assert bad["error"] == "bad_request"

    def test_open_with_an_unrunnable_config_is_a_counted_bad_request(
        self, tmp_path
    ):
        """A config the session could not run used to be accepted and
        then fail every request (``rate: 0`` died in the token bucket
        with ``failed``); it is refused at ``open``, counted against an
        open tenant, and creates no new one."""
        with make_manager(tmp_path) as mgr:
            reply = mgr.handle(
                {"op": "open", "tenant": "b", "config": {"rate": 0}}
            )
            assert reply["error"] == "bad_request"
            assert reply["detail"] == "rate must be > 0, got 0"
            assert "b" not in mgr.tenants
            assert mgr.handle({"op": "open", "tenant": "a"})["ok"]
            for config, detail in (
                ({"rate": 0}, "rate must be > 0, got 0"),
                ({"rate": "fast"}, "rate must be a number, got 'fast'"),
                ({"burst": True}, "burst must be a number, got True"),
                ({"backend": "nope"}, "backend must be one of"),
                ({"num_shards": 1.5}, "num_shards must be an integer"),
            ):
                reply = mgr.handle(
                    {"op": "open", "tenant": "a", "config": config}
                )
                assert reply["error"] == "bad_request", config
                assert reply["detail"].startswith(detail)
            assert mgr.stats("a")["stats"]["bad_requests"] == 5
            assert mgr.tenants == ("a",)

    def test_handle_never_raises(self, tmp_path, monkeypatch):
        with make_manager(tmp_path) as mgr:
            monkeypatch.setattr(
                mgr, "stats",
                lambda tenant: (_ for _ in ()).throw(ValueError("boom")),
            )
            reply = mgr.handle({"op": "stats", "tenant": "a"})
            assert reply["ok"] is False
            assert reply["error"] == "failed"
            assert "ValueError" in reply["detail"]

    def test_closed_manager_refuses(self, tmp_path):
        mgr = make_manager(tmp_path)
        mgr.close()
        assert mgr.handle({"op": "stats", "tenant": "a"})["error"] == "failed"
        mgr.close()  # idempotent

"""Invariant 13 under chaos: one tenant's crash or overload never
perturbs another tenant.

The property, stated exactly (DESIGN.md §10):

* the *bystander* tenant's entire reply trace — every admitted count,
  watermark, and drained result payload, in request order — is
  bit-identical between a disturbed run and an undisturbed twin run
  fed the same interleaved schedule; and
* the *victim* tenant's final results are bit-identical to the serial
  sync-ingest oracle over its own timeline, i.e. the fault cost it
  nothing but latency.

Faults are injected by the deterministic :class:`FaultPlan` service
kinds (``kill_session`` / ``flood_tenant`` / ``stall_client``), and
the kill point is *seeded* — run the suite under different
``REPRO_TEST_SEED`` values and the crash lands at different
watermarks; the property must hold at all of them.

These drive :meth:`SessionManager.handle` in-process — the exact code
path the TCP server runs per request — so interleavings are
deterministic and every equality is ``==`` on JSON-ready payloads.
The one genuinely concurrent case (a stalled client must not slow a
co-tenant) runs over the real TCP server at the end.
"""

import threading
import time

import pytest

from repro.runtime.faults import Fault, FaultPlan
from repro.service import SessionManager, ServiceClient, serve_in_thread
from service_helpers import (
    SQL_AVG,
    SQL_SUM,
    FakeClock,
    RecordingSleeper,
    integer_events,
    oracle_results,
)

pytestmark = pytest.mark.chaos

NUM_KEYS = 4
TICKS = 80
BATCH_TICKS = 10

VICTIM = "alice"
BYSTANDER = "bob"


def batches_of(events, batch_ticks=BATCH_TICKS):
    """Split a sorted event list into contiguous tick-range batches."""
    out, current, limit = [], [], batch_ticks
    for ev in events:
        if ev[0] > limit:
            out.append(current)
            current, limit = [], limit + batch_ticks
        current.append(ev)
    if current:
        out.append(current)
    return out


def interleaved_schedule(victim_events, bystander_events):
    """The deterministic request schedule both runs replay: register
    both tenants, then alternate ingest batches, with the bystander
    draining results mid-stream (drains are tail-logged state — they
    must survive the victim's crash untouched too)."""
    schedule = [
        (VICTIM, {"op": "register", "query": SQL_SUM}),
        (BYSTANDER, {"op": "register", "query": SQL_AVG}),
    ]
    va, vb = batches_of(victim_events), batches_of(bystander_events)
    for i in range(max(len(va), len(vb))):
        if i < len(va):
            schedule.append((VICTIM, {"op": "ingest", "events": va[i]}))
        if i < len(vb):
            schedule.append((BYSTANDER, {"op": "ingest", "events": vb[i]}))
        if i == len(vb) // 2:
            schedule.append((BYSTANDER, {"op": "results", "drain": True}))
    schedule.append((BYSTANDER, {"op": "results", "drain": True}))
    schedule.append((VICTIM, {"op": "results", "drain": True}))
    return schedule


def run_schedule(tmp_path, tag, schedule, fault_plan=None, config=None,
                 checkpoint_every=16):
    """Replay one schedule through a fresh manager; returns
    ``(trace_by_tenant, stats_by_tenant)`` where a trace entry is the
    full reply dict (JSON-ready, so ``==`` is bit-identity)."""
    clock = FakeClock()
    traces = {VICTIM: [], BYSTANDER: []}
    with SessionManager(
        config
        or {"defaults": {"num_keys": NUM_KEYS, "rate": 1e9, "burst": 1e9}},
        directory=tmp_path / f"ckpt-{tag}",
        checkpoint_every=checkpoint_every,
        fault_plan=fault_plan,
        clock=clock,
        sleeper=RecordingSleeper(clock),
    ) as mgr:
        for tenant, request in schedule:
            reply = mgr.handle({"tenant": tenant, **request})
            # A well-behaved producer: honor the quote (plus a float
            # epsilon over the refill arithmetic) and try again, a
            # bounded number of times.
            for _ in range(6):
                if reply.get("error") != "overloaded":
                    break
                clock.advance(float(reply["retry_after"]) + 1e-6)
                reply = mgr.handle({"tenant": tenant, **request})
            traces[tenant].append(reply)
        stats = {t: mgr.stats(t)["stats"] for t in traces}
    return traces, stats


class TestInvariant13:
    def test_seeded_kill_never_perturbs_the_bystander(
        self, tmp_path, repro_seed, repro_rng
    ):
        victim_events = integer_events(TICKS, NUM_KEYS, seed=repro_seed)
        bystander_events = integer_events(
            TICKS, NUM_KEYS, seed=repro_seed + 1
        )
        schedule = interleaved_schedule(victim_events, bystander_events)
        # Seeded crash point: any watermark the stream actually crosses.
        kill_at = int(repro_rng.integers(2, 60))
        plan = FaultPlan(
            Fault(kind="kill_session", tenant=VICTIM, op="ingest",
                  at_watermark=kill_at)
        )

        disturbed, d_stats = run_schedule(
            tmp_path, "disturbed", schedule, fault_plan=plan
        )
        undisturbed, u_stats = run_schedule(tmp_path, "twin", schedule)

        assert d_stats[VICTIM]["faults_injected"] == 1, f"kill_at={kill_at}"
        assert d_stats[VICTIM]["restores"] == 1

        # The bystander's world is indistinguishable, reply for reply.
        assert disturbed[BYSTANDER] == undisturbed[BYSTANDER], (
            f"seed={repro_seed} kill_at={kill_at}"
        )
        assert d_stats[BYSTANDER]["restores"] == 0
        assert d_stats[BYSTANDER]["faults_injected"] == 0

        # The victim's final results match the serial sync oracle —
        # the crash cost latency, not data.  (Mid-stream the bystander
        # drained; the victim never did, so one final drain sees all.)
        final = disturbed[VICTIM][-1]
        assert final["ok"], final
        expected = oracle_results(
            victim_events, [(0, SQL_SUM, "", "per_key")], NUM_KEYS
        )
        assert final["results"] == expected, (
            f"seed={repro_seed} kill_at={kill_at}"
        )

    def test_kill_on_a_sharded_victim(self, tmp_path, repro_seed):
        """Same property with the victim running a ShardedSession —
        restore + tail replay goes through the sharded runtime, and
        shard invariance keeps the oracle a plain serial session."""
        victim_events = integer_events(TICKS, NUM_KEYS, seed=repro_seed)
        bystander_events = integer_events(
            TICKS, NUM_KEYS, seed=repro_seed + 1
        )
        schedule = interleaved_schedule(victim_events, bystander_events)
        plan = FaultPlan(
            Fault(kind="kill_session", tenant=VICTIM, op="ingest",
                  at_watermark=30)
        )
        config = {
            "defaults": {"num_keys": NUM_KEYS, "rate": 1e9, "burst": 1e9},
            "tenants": {VICTIM: {"num_shards": 2}},
        }
        disturbed, d_stats = run_schedule(
            tmp_path, "disturbed", schedule, fault_plan=plan, config=config
        )
        undisturbed, _ = run_schedule(
            tmp_path, "twin", schedule, config=config
        )
        assert d_stats[VICTIM]["restores"] == 1
        assert disturbed[BYSTANDER] == undisturbed[BYSTANDER]
        expected = oracle_results(
            victim_events, [(0, SQL_SUM, "", "per_key")], NUM_KEYS
        )
        assert disturbed[VICTIM][-1]["results"] == expected, (
            f"seed={repro_seed}"
        )

    def test_flood_sheds_the_victim_only(self, tmp_path, repro_seed):
        """A compressed traffic flood drains the victim's bucket: the
        next victim batch sheds with an honest quote (and succeeds
        after honoring it); the bystander never sees a ripple."""
        victim_events = integer_events(TICKS, NUM_KEYS, seed=repro_seed)
        bystander_events = integer_events(
            TICKS, NUM_KEYS, seed=repro_seed + 1
        )
        schedule = interleaved_schedule(victim_events, bystander_events)
        plan = FaultPlan(
            Fault(kind="flood_tenant", tenant=VICTIM, op="ingest",
                  at_watermark=20)
        )
        # Finite per-tenant quota so the drained bucket actually sheds.
        config = {
            "defaults": {
                "num_keys": NUM_KEYS, "rate": 1000.0, "burst": 4096,
            }
        }
        disturbed, d_stats = run_schedule(
            tmp_path, "disturbed", schedule, fault_plan=plan, config=config
        )
        undisturbed, u_stats = run_schedule(
            tmp_path, "twin", schedule, config=config
        )
        assert d_stats[VICTIM]["faults_injected"] == 1
        assert d_stats[VICTIM]["shed_rate_quota"] >= 1  # explicit, counted
        assert d_stats[VICTIM]["restores"] == 0  # overload is not death
        # Every shed was made up for by a retry: nothing silently lost.
        assert d_stats[VICTIM]["admitted_events"] == len(victim_events)
        assert disturbed[BYSTANDER] == undisturbed[BYSTANDER], (
            f"seed={repro_seed}"
        )
        assert u_stats[BYSTANDER]["shed_rate_quota"] == 0
        # The retried victim lost nothing.
        expected = oracle_results(
            victim_events, [(0, SQL_SUM, "", "per_key")], NUM_KEYS
        )
        assert disturbed[VICTIM][-1]["results"] == expected

    def test_kill_then_flood_combined(self, tmp_path, repro_seed):
        """Both fault kinds on the same victim in one run — the
        bystander's trace still cannot tell."""
        victim_events = integer_events(TICKS, NUM_KEYS, seed=repro_seed)
        bystander_events = integer_events(
            TICKS, NUM_KEYS, seed=repro_seed + 1
        )
        schedule = interleaved_schedule(victim_events, bystander_events)
        plan = FaultPlan(
            Fault(kind="flood_tenant", tenant=VICTIM, op="ingest",
                  at_watermark=10),
            Fault(kind="kill_session", tenant=VICTIM, op="ingest",
                  at_watermark=40),
        )
        config = {
            "defaults": {
                "num_keys": NUM_KEYS, "rate": 1000.0, "burst": 4096,
            }
        }
        disturbed, d_stats = run_schedule(
            tmp_path, "disturbed", schedule, fault_plan=plan, config=config
        )
        undisturbed, _ = run_schedule(
            tmp_path, "twin", schedule, config=config
        )
        assert d_stats[VICTIM]["faults_injected"] == 2
        assert d_stats[VICTIM]["restores"] == 1
        assert disturbed[BYSTANDER] == undisturbed[BYSTANDER]
        expected = oracle_results(
            victim_events, [(0, SQL_SUM, "", "per_key")], NUM_KEYS
        )
        assert disturbed[VICTIM][-1]["results"] == expected


class TestKillBetweenReplyAndCheckpoint:
    def test_kill_after_the_reply_that_made_a_checkpoint_due(
        self, tmp_path, repro_seed, repro_rng, monkeypatch
    ):
        """The schedule served as the TCP server serves it — ``dispatch``,
        the reply, then ``settle`` — with the victim's session killed
        right after a seeded one of its replies that left a checkpoint
        owed, before the write.  The next victim op restores the
        previous checkpoint and replays the untruncated tail; the
        bystander's trace and the victim's results cannot tell."""
        victim_events = integer_events(TICKS, NUM_KEYS, seed=repro_seed)
        bystander_events = integer_events(
            TICKS, NUM_KEYS, seed=repro_seed + 1
        )
        schedule = interleaved_schedule(victim_events, bystander_events)
        config = {"defaults": {"num_keys": NUM_KEYS, "rate": 1e9, "burst": 1e9}}
        undisturbed, _ = run_schedule(tmp_path, "twin", schedule, config=config)
        sources = []
        build = SessionManager._build_session

        def recording_build(self, state, source):
            if state.name == VICTIM:
                sources.append(source)
            return build(self, state, source)

        monkeypatch.setattr(SessionManager, "_build_session", recording_build)
        traces = {VICTIM: [], BYSTANDER: []}
        due_points, killed = 0, None
        kill_at = int(repro_rng.integers(0, 3))
        with SessionManager(
            config, directory=tmp_path / "ckpt-split", checkpoint_every=16
        ) as mgr:
            for tenant, request in schedule:
                reply = mgr.dispatch({"tenant": tenant, **request})
                traces[tenant].append(reply)
                state = mgr._tenants[tenant]
                if (
                    tenant == VICTIM
                    and killed is None
                    and state.session.checkpoint_owed
                ):
                    if due_points == kill_at:
                        killed = (state.store.latest(), len(state.tail))
                        mgr._kill(state, "killed between reply and checkpoint")
                    due_points += 1
                mgr.settle(tenant)
            stats = {t: mgr.stats(t)["stats"] for t in traces}
        context = f"seed={repro_seed} kill_at={kill_at}"
        assert killed is not None, context
        previous, tail = killed
        assert tail >= 1, context  # the batch that made it due, at least
        # Built once, then restored from the checkpoint before the owed
        # one (or rebuilt from scratch when there was none).
        assert sources == [None, previous], context
        assert stats[VICTIM]["restores"] == 1, context
        assert stats[VICTIM]["checkpoint_failures"] == 0, context
        assert traces[BYSTANDER] == undisturbed[BYSTANDER], context
        assert stats[BYSTANDER]["restores"] == 0
        expected = oracle_results(
            victim_events, [(0, SQL_SUM, "", "per_key")], NUM_KEYS
        )
        assert traces[VICTIM][-1]["results"] == expected, context


class TestConcurrentStallIsolation:
    def test_stalled_client_does_not_slow_a_co_tenant(
        self, tmp_path, repro_seed
    ):
        """Over the real TCP server: the victim's connection wedges
        0.5s *while holding the victim's session lock*; the bystander
        keeps streaming on its own locks and finishes long before the
        stall would allow if isolation leaked."""
        plan = FaultPlan(
            Fault(kind="stall_client", tenant=VICTIM, op="ingest",
                  delay_seconds=0.5)
        )
        events = integer_events(40, NUM_KEYS, seed=repro_seed)
        with SessionManager(
            {"defaults": {"num_keys": NUM_KEYS, "rate": 1e9, "burst": 1e9}},
            directory=tmp_path / "ckpt",
            fault_plan=plan,  # real wall-clock sleeper on purpose
        ) as manager:
            server = serve_in_thread(manager)
            try:
                barrier = threading.Barrier(2)
                bystander_latencies: list = []
                errors: list = []

                def victim() -> None:
                    try:
                        with ServiceClient(port=server.port) as c:
                            c.register(VICTIM, SQL_SUM)
                            barrier.wait()
                            c.ingest(VICTIM, events)  # stalls 0.5s
                    except Exception as exc:  # noqa: BLE001
                        errors.append(("victim", exc))

                def bystander() -> None:
                    try:
                        with ServiceClient(port=server.port) as c:
                            c.register(BYSTANDER, SQL_SUM)
                            barrier.wait()
                            for batch in batches_of(events, 5):
                                t0 = time.monotonic()
                                c.ingest(BYSTANDER, batch)
                                bystander_latencies.append(
                                    time.monotonic() - t0
                                )
                    except Exception as exc:  # noqa: BLE001
                        errors.append(("bystander", exc))

                threads = [
                    threading.Thread(target=victim),
                    threading.Thread(target=bystander),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not errors, errors
                assert manager.stats(VICTIM)["stats"]["faults_injected"] == 1
                # Every bystander request cleared well under the stall.
                worst = max(bystander_latencies)
                assert worst < 0.4, (
                    f"bystander saw {worst:.3f}s behind a 0.5s stall"
                )
            finally:
                server.stop()

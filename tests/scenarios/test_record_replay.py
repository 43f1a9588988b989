"""Record/replay round trips and capture integrity.

A recorded chaos run — seeded worker kills plus slot migration
mid-stream — must replay bit-identically from its ``.rstream``
capture: same digest, same logical counters, on any backend.  And a
damaged capture must refuse loudly; a partial replay would silently
bless wrong results.
"""

import pytest

from repro.errors import ExecutionError
from repro.scenarios import (
    RSTREAM_MAGIC,
    ScenarioRunner,
    load_scenario,
    read_rstream,
    replay_capture,
)

CHAOS_TEXT = """
name: rr_chaos
stream:
  events: 3000
  keys: 48
  seed: 9
  skew: 1.1
  rate: 4
  out_of_order:
    lateness: 24
    seed: 3
workload:
  queries:
    - name: s
      aggregate: sum
      windows: ["200/40"]
    - name: late
      aggregate: max
      windows: ["150"]
      register_at: 300
runtime:
  shards: 3
  backend: process
  slots: 24
  rebalance_every: 700
  worker_recovery: true
chaos:
  faults:
    - kind: kill
      slot: 1
      at_watermark: 200
    - kind: kill_mid_op
      slot: 5
      op: rebalance
"""


@pytest.fixture(scope="module")
def chaos_capture(tmp_path_factory):
    """Record the chaos scenario once; reuse the capture + report."""
    path = tmp_path_factory.mktemp("rstream") / "rr_chaos.rstream"
    runner = ScenarioRunner(load_scenario(CHAOS_TEXT))
    report = runner.run(record=path)
    return path, report


@pytest.mark.scenarios
@pytest.mark.chaos
class TestRecordReplay:
    def test_recording_run_really_faulted(self, chaos_capture):
        _, report = chaos_capture
        assert report.faults_fired >= 1
        assert report.worker_recoveries >= 1
        assert report.slots_moved >= 1

    @pytest.mark.parametrize(
        "backend,shards",
        [("serial", 1), ("serial", 3), ("process", 3), ("shm", 2)],
    )
    def test_replay_bit_identical(self, chaos_capture, backend, shards):
        path, recorded = chaos_capture
        replayed = replay_capture(path, backend=backend, shards=shards)
        # verify=True already asserted outcome identity inside; check
        # the full logical surface explicitly anyway.
        assert replayed.outcome() == recorded.outcome()

    def test_capture_carries_the_outcome(self, chaos_capture):
        path, recorded = chaos_capture
        capture = read_rstream(path)
        assert capture.outcome == recorded.outcome()
        assert capture.meta["chaos"] is True
        assert capture.num_events == recorded.events
        kinds = {kind for _, kind, _ in capture.ops}
        assert kinds == {"register", "rebalance"}

    def test_divergence_is_loud(self, chaos_capture, tmp_path):
        """A capture whose recorded outcome disagrees with what the
        stream actually produces must fail replay, not shrug."""
        from repro.scenarios.rstream import write_rstream

        path, _ = chaos_capture
        capture = read_rstream(path)
        capture.outcome["total_pairs"] += 1
        forged = tmp_path / "forged.rstream"
        write_rstream(capture, forged)
        with pytest.raises(ExecutionError, match="diverged"):
            replay_capture(forged)


@pytest.mark.scenarios
class TestCaptureIntegrity:
    def test_flipped_body_byte_is_rejected(self, chaos_capture, tmp_path):
        path, _ = chaos_capture
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        bad = tmp_path / "flipped.rstream"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ExecutionError, match="checksum mismatch"):
            read_rstream(bad)

    def test_truncation_is_rejected(self, chaos_capture, tmp_path):
        path, _ = chaos_capture
        blob = path.read_bytes()
        bad = tmp_path / "truncated.rstream"
        bad.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ExecutionError):
            read_rstream(bad)

    def test_foreign_file_is_rejected(self, tmp_path):
        bad = tmp_path / "notes.rstream"
        bad.write_bytes(b"this is not a capture")
        with pytest.raises(ExecutionError, match="not a factor-windows"):
            read_rstream(bad)

    def test_wrong_version_is_rejected(self, chaos_capture, tmp_path):
        import hashlib
        import struct

        path, _ = chaos_capture
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, len(RSTREAM_MAGIC), 99)
        bad = tmp_path / "future.rstream"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ExecutionError, match="v99 is not supported"):
            read_rstream(bad)
        # and a re-checksummed v99 body still refuses on version
        body = bytes(blob[len(RSTREAM_MAGIC) + 2 + 32 :])
        blob[len(RSTREAM_MAGIC) + 2 : len(RSTREAM_MAGIC) + 2 + 32] = (
            hashlib.sha256(body).digest()
        )
        bad.write_bytes(bytes(blob))
        with pytest.raises(ExecutionError, match="v99 is not supported"):
            read_rstream(bad)

    def test_never_partial_replays(self, chaos_capture, tmp_path):
        """A corrupt capture must not produce a report at all."""
        path, _ = chaos_capture
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        bad = tmp_path / "torn.rstream"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ExecutionError):
            replay_capture(bad)

    def test_serialization_is_pinned(self, tmp_path):
        """A fixed capture serializes to fixed bytes: ``.rstream`` is a
        shareable format, so any drift in the framing (shared with
        ``.rckpt`` through ``runtime/container.py``), the header JSON
        or the column layout must be a deliberate version bump, not a
        side effect."""
        import hashlib

        import numpy as np

        from repro.scenarios.rstream import StreamCapture, write_rstream

        capture = StreamCapture(
            timestamps=np.array([0, 1, 1, 3, 2, 5], dtype=np.int64),
            keys=np.array([0, 2, 1, 0, 2, 1], dtype=np.int64),
            values=np.array([1.5, -2.0, 0.0, 7.25, 3.0, 1e9]),
            horizon=6,
            num_keys=3,
            max_lateness=2,
            ops=(
                (
                    0,
                    "register",
                    {"name": "s", "aggregate": "sum", "windows": ["4/2"]},
                ),
                (3, "rebalance", None),
                (5, "deregister", "s"),
            ),
            runtime={"shards": 2, "backend": "serial"},
            outcome={"digest": "00ff", "accepted": 6},
            meta={"scenario": "pinned"},
        )
        blob = write_rstream(capture, tmp_path / "pinned.rstream").read_bytes()
        assert len(blob) == 576
        assert hashlib.sha256(blob).hexdigest() == (
            "1106c46949e37812ee6495ec3358e782273848fad22cc87c152ed9ecd1646853"
        )
        assert list(tmp_path.iterdir()) == [tmp_path / "pinned.rstream"]


@pytest.mark.scenarios
class TestOneShardRuns:
    """``shards=1`` runs its one core in-process: no workers, so no
    chaos to arm — and it is fed in columnar batches like any other."""

    def test_chaos_scenario_builds_no_fault_plan(self, monkeypatch):
        from repro.scenarios.schema import ChaosSpec

        built = []
        build_plan = ChaosSpec.build_plan
        monkeypatch.setattr(
            ChaosSpec,
            "build_plan",
            lambda self: built.append(1) or build_plan(self),
        )
        runner = ScenarioRunner(load_scenario(CHAOS_TEXT))
        report = runner.run(shards=1)
        assert built == []  # was: built, then dropped on the floor
        assert (report.backend, report.shards) == ("serial", 1)
        assert report.faults_fired == report.worker_recoveries == 0
        assert report.digest == runner.run(backend="serial").digest
        assert built == []  # 3 serial shards: no workers either

    def test_one_shard_session_refuses_chaos(self):
        from repro.runtime import FaultPlan, ShardedSession

        refusal = "does not support fault injection / worker recovery"
        with pytest.raises(ExecutionError, match=refusal):
            ShardedSession(backend="process", fault_plan=FaultPlan([]))
        with pytest.raises(ExecutionError, match=refusal):
            ShardedSession(backend="shm", worker_recovery=True)

    @pytest.mark.parametrize("async_ingest", [False, True])
    def test_feed_is_columnar(self, monkeypatch, async_ingest):
        from repro.runtime import ShardedSession

        calls = {"push": 0, "push_many": 0}
        for name in calls:
            real = getattr(ShardedSession, name)

            def counted(self, *args, _name=name, _real=real):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(ShardedSession, name, counted)
        ScenarioRunner(load_scenario(CHAOS_TEXT)).run(
            shards=1, async_ingest=async_ingest
        )
        # One batch per stretch between scheduled ops in either ingest
        # mode, no per-event front-door calls (was: one ``push`` per
        # event — always before PR 12, behind the pump until PR 20).
        assert calls["push"] == 0
        assert 0 < calls["push_many"] <= 8

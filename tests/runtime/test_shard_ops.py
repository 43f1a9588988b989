"""One vocabulary: every backend applies the same shard-op table.

``repro.runtime.sharding._SHARD_OPS`` maps each op name to what it does
to a core; the serial backend applies it in-process, the worker loops
to what the pipe or the ring delivers.  One scripted history — register,
feed and advance, a rate replan (reprice, then switch), collects with
drain off and on, stats and retained, snapshot and restore, and the
three elastic operations — is driven through the serial, process and
shm backends.  Every op of the table must be issued, and every backend
must send the same rounds and return the same replies, round for round.

A worker backend runs each round concurrently: every message of a round
is sent before any reply is read, and a round that fails still reads
every reply it is owed before it raises.  The last two tests pin both on
the control pipe's own send / read sequence.
"""

import pickle

import numpy as np
import pytest

from repro.aggregates.registry import MIN, SUM
from repro.core.multiquery import Query
from repro.errors import ExecutionError
from repro.runtime import (
    ProcessShardBackend,
    SerialShardBackend,
    ShardedSession,
    SharedMemoryShardBackend,
)
from repro.runtime.core import SessionCore
from repro.runtime.faults import Fault, FaultPlan
from repro.runtime.sharding import _SHARD_OPS
from repro.windows.window import Window, WindowSet

from session_streams import swap_keyed_slots

NUM_KEYS = 12

QUERIES = [
    # W(6,3)/W(8,4) re-plans between rate 1 and rate 30.
    (Query("f", WindowSet([Window(6, 3), Window(8, 4)]), MIN), "per_key"),
    # Per-key, so its deregister is a shard op: a global query runs on
    # the coordinator's own core and never reaches a backend.
    (Query("s", WindowSet([Window(10, 5)]), SUM), "per_key"),
]

#: Fields that time a step or count how bytes travelled: they differ
#: between backends on purpose (the shm worker elides copies).
NOT_COMPARED = {"wall_seconds", "seconds", "bytes_copied", "copies_elided"}


def rows(lo, hi):
    """Three integer-valued events per tick over ticks ``[lo, hi)``."""
    return [
        (t, (5 * t + 3 * j) % NUM_KEYS, float((t + j) % 13))
        for t in range(lo, hi)
        for j in range(3)
    ]


def recording(cls):
    """A ``cls`` backend that logs every command it sends and the
    replies it gets back, through its two primitives: one entry per
    round (its ops, then its replies) and one per data-plane post."""

    class Recording(cls):
        def __init__(self):
            super().__init__()
            self.log = []

        def _round(self, msgs):
            replies = super()._round(msgs)
            if msgs:
                self.log.append((tuple(msg[0] for _, msg in msgs), replies))
            return replies

        def _post(self, slot, msg):
            super()._post(slot, msg)
            self.log.append(((msg[0],), None))

    return Recording()


def drive(cls):
    """The scripted history on one backend class: its command log (the
    restored session's appended) and both runs' final results."""
    backend = recording(cls)
    with ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=2,
        backend=backend,
        chunk_ticks=24,
        hysteresis=None,
    ) as session:
        for query, scope in QUERIES:
            session.register(query, scope=scope)
        session.push_many(rows(0, 40))
        session._apply_rate(30)
        session.push_many(rows(40, 80))
        session.results()
        session.drain_results()
        session.stats()
        session.max_retained_state()
        snap = session.snapshot()
        keyed = np.unique(session.partitioner.slot_of_key)
        session.move_slots(keyed[session.slot_map[keyed] == 0][:1], dest=1)
        grown = session.split_shard()
        session.merge_shard(grown, into=0)
        session.deregister("s")
        session.push_many(rows(80, 120))
        final = session.finish()
    restored = recording(cls)
    with ShardedSession.restore(snap, backend=restored) as session:
        session.push_many(rows(80, 120))
        resumed = session.finish()
    return backend.log + restored.log, (final, resumed)


def canon(obj):
    """A reply as comparable data; a pickled core (``snapshot``,
    ``sibling``) as its watermark, results and logical counters."""
    if isinstance(obj, bytes):
        obj = pickle.loads(obj)
    if isinstance(obj, SessionCore):
        return (
            obj.watermark,
            canon(obj.report(drain=False)),
            canon(obj.stats()),
        )
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return sorted(
            (repr(key), canon(value))
            for key, value in obj.items()
            if key not in NOT_COMPARED
        )
    if isinstance(obj, (list, tuple)):
        return [canon(value) for value in obj]
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, canon(vars(obj)))
    return obj


def test_one_history_one_vocabulary():
    histories = {
        cls.name: drive(cls)
        for cls in (
            SerialShardBackend,
            ProcessShardBackend,
            SharedMemoryShardBackend,
        )
    }
    want_log, want_results = histories.pop("serial")
    issued = {op for ops, _ in want_log for op in ops}
    # ``restore`` is the one life-cycle message that owes a reply.
    assert issued == set(_SHARD_OPS) | {"restore"}
    for name, (log, results) in histories.items():
        assert [ops for ops, _ in log] == [ops for ops, _ in want_log], name
        for index, ((ops, got), (_, want)) in enumerate(zip(log, want_log)):
            if want is not None:  # the data plane replies to no one
                assert canon(got) == canon(want), f"{name}: #{index} {ops}"
        assert canon(results) == canon(want_results), name


def tracing(cls):
    """A worker ``cls`` backend that logs the control pipe's sends
    ``("send", slot, op)`` and reply reads ``("read", slot, kind)`` in
    the order they happen."""

    class Tracing(cls):
        def __init__(self):
            super().__init__()
            self.trace = []

        def _send_control(self, slot, msg):
            self.trace.append(("send", slot, msg[0]))
            super()._send_control(slot, msg)

        def _recv_reply(self, slot):
            reply = super()._recv_reply(slot)
            self.trace.append(("read", slot, reply[0]))
            return reply

    return Tracing()


def started(backend, **kwargs):
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=2,
        backend=backend,
        chunk_ticks=24,
        hysteresis=None,
        **kwargs,
    )
    for query, scope in QUERIES:
        session.register(query, scope=scope)
    session.push_many(rows(0, 40))
    return session


def test_a_migration_phase_is_one_concurrent_round():
    """Both extracts are on the wire before the first extract reply is
    read, and so are both absorbs."""
    backend = tracing(ProcessShardBackend)
    with started(backend) as session:
        del backend.trace[:]
        swap_keyed_slots(session)
        trace = list(backend.trace)
        session.push_many(rows(40, 80))
        session.finish()
    for op in ("extract", "absorb"):
        sends = [
            i for i, (what, _, name) in enumerate(trace)
            if what == "send" and name == op
        ]
        assert sorted(trace[i][1] for i in sends) == [0, 1], (op, trace)
        first_read = next(
            i for i, (what, _, _) in enumerate(trace)
            if what == "read" and i > sends[0]
        )
        assert first_read > sends[-1], (op, trace)


@pytest.mark.parametrize("cls", [ProcessShardBackend, SharedMemoryShardBackend])
def test_a_failed_round_reads_every_reply_before_it_raises(cls):
    """A worker that rejects its message fails the round only after
    the other worker's reply is read, so the next op reads its own
    replies; a worker killed mid-phase is read around too before the
    epoch rolls back."""
    backend = tracing(cls)
    with started(backend) as session:
        at = session.watermark
        del backend.trace[:]
        with pytest.raises(ExecutionError, match="no registered query"):
            backend._round(
                [(0, ("deregister", "nope", at)), (1, ("retained",))]
            )
        assert backend.trace == [
            ("send", 0, "deregister"),
            ("send", 1, "retained"),
            ("read", 0, "error"),
            ("read", 1, "ok"),
        ]
        assert backend.watermarks() == [at, at]
        session.finish()

    plan = FaultPlan(Fault(kind="kill", slot=1, op="extract"))
    backend = tracing(cls)
    with started(backend, fault_plan=plan, worker_recovery=True) as session:
        del backend.trace[:]
        swap_keyed_slots(session)
        session.finish()
        assert session.worker_recoveries == 1
    assert plan.exhausted
    first = backend.trace.index(("send", 0, "extract"))
    assert backend.trace[first : first + 4] == [
        ("send", 0, "extract"),
        ("send", 1, "extract"),
        ("read", 0, "ok"),
        # The rollback respawns both workers from the epoch snapshot.
        ("send", 0, "restore"),
    ]

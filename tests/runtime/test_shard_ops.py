"""One vocabulary: every backend applies the same shard-op table.

``repro.runtime.sharding._SHARD_OPS`` maps each op name to what it does
to a core; the serial backend applies it in-process, the worker loops
to what the pipe or the ring delivers.  One scripted history — register,
feed and advance, a rate replan (reprice, then switch), collects with
drain off and on, stats and retained, snapshot and restore, and the
three elastic operations — is driven through the serial, process and
shm backends.  Every op of the table must be issued, and every backend
must return the same replies, op for op.
"""

import pickle

import numpy as np

from repro.aggregates.registry import MIN, SUM
from repro.core.multiquery import Query
from repro.runtime import (
    ProcessShardBackend,
    SerialShardBackend,
    ShardedSession,
    SharedMemoryShardBackend,
)
from repro.runtime.core import SessionCore
from repro.runtime.sharding import _SHARD_OPS
from repro.windows.window import Window, WindowSet

NUM_KEYS = 12

QUERIES = [
    # W(6,3)/W(8,4) re-plans between rate 1 and rate 30.
    (Query("f", WindowSet([Window(6, 3), Window(8, 4)]), MIN), "per_key"),
    (Query("s", WindowSet([Window(10, 5)]), SUM), "global"),
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
    replies it gets back, through its three primitives."""

    class Recording(cls):
        def __init__(self):
            super().__init__()
            self.log = []

        def _broadcast(self, msg):
            replies = super()._broadcast(msg)
            self.log.append((msg[0], replies))
            return replies

        def _on(self, slot, msg):
            reply = super()._on(slot, msg)
            self.log.append((msg[0], [reply]))
            return reply

        def _post(self, slot, msg):
            super()._post(slot, msg)
            self.log.append((msg[0], None))

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
    assert {op for op, _ in want_log} == set(_SHARD_OPS)
    for name, (log, results) in histories.items():
        assert [op for op, _ in log] == [op for op, _ in want_log], name
        for index, ((op, got), (_, want)) in enumerate(zip(log, want_log)):
            if want is not None:  # the data plane replies to no one
                assert canon(got) == canon(want), f"{name}: #{index} {op}"
        assert canon(results) == canon(want_results), name

"""Front-door conformance: one life-cycle, held at every shard count.

``SessionFrontDoor`` (DESIGN.md §8) writes the session life-cycle once;
``ShardedSession`` (``QuerySession`` is its one-shard form) only
supplies hooks.  This suite runs every check at one shard and at two:

* **the rule** — every public attribute is a ``@synchronized``
  synchronization point, a data-plane enqueue, part of the
  finish/close life-cycle, or a named coordinator-local read; a new
  public method that touches the backend off the pump thread fails;
* **one chunk clock** — the cut-at-chunk-ends / stage / flush loop
  exists in the base only: a session class (or ``SessionCore``) that
  grows a chunk cut of its own fails;
* **what synchronized means** — in async mode the body runs on the
  pump thread, after every previously pushed event;
* **the shared verbs** — auto-checkpoint cadence, ``checkpoint_meta``,
  ``on_checkpoint``, residue replay and ``finish`` stopping the pump.
"""

import inspect
import threading

import pytest

from repro.aggregates.registry import MIN, SUM
from repro.core.multiquery import Query
from repro.errors import ExecutionError
from repro.runtime import (
    CheckpointStore,
    QuerySession,
    SessionCore,
    ShardedSession,
    read_checkpoint,
)
from repro.runtime.ingest import SessionFrontDoor
from repro.windows.window import Window, WindowSet

from session_streams import (
    SHARD_COUNTS,
    assert_identical,
    integer_stream,
    serial_session,
)

NUM_KEYS = 5
TICKS = 200
QUERY = Query("mins", WindowSet([Window(8, 4), Window(16, 8)]), MIN)

#: Enqueue (async) or apply inline (sync); never a synchronization point.
DATA_PLANE = {"push", "push_many", "push_batch"}
#: They stop the pump (so cannot run on it) or build a session.
LIFECYCLE = {"finish", "close", "restore"}
#: Reads of one coordinator-local value — no backend, no core walk.
LOCAL_READS = {
    "ingest_stats",
    "reorder_stats",
    "watermark",
    "queries",
    "generation",
    "num_slots",
    "slot_map",
    "worker_recoveries",
}


def make(shards, **kwargs):
    return serial_session(shards, num_keys=NUM_KEYS, **kwargs)


def events_of(seed):
    batch = integer_stream(ticks=TICKS, num_keys=NUM_KEYS, seed=seed)
    rows = list(
        zip(
            batch.timestamps.tolist(),
            batch.keys.tolist(),
            batch.values.tolist(),
        )
    )
    return rows, batch.horizon


def feed(session, rows):
    for ts, key, value in rows:
        session.push(ts, key, value)


def applied(session):
    stats = session.reorder_stats
    return stats.accepted + stats.late_dropped


def pump_threads():
    return [
        t for t in threading.enumerate() if t.name == "repro-ingest-pump"
    ]


# ----------------------------------------------------------------------
# (i) The rule, by introspection
# ----------------------------------------------------------------------
def public_surface(cls):
    """``{name: underlying function or plain value}`` of every public
    class attribute (properties unwrapped to their getter)."""
    surface = {}
    for name in dir(cls):
        if name.startswith("_"):
            continue
        attr = inspect.getattr_static(cls, name)
        if isinstance(attr, property):
            attr = attr.fget
        elif isinstance(attr, (classmethod, staticmethod)):
            attr = attr.__func__
        surface[name] = attr
    return surface


def synchronized_names(cls):
    return {
        name
        for name, attr in public_surface(cls).items()
        if getattr(attr, "synchronized", False)
    }


def unguarded(cls, local_reads):
    allowed = DATA_PLANE | LIFECYCLE | local_reads
    return sorted(
        set(public_surface(cls)) - synchronized_names(cls) - allowed
    )


def test_every_public_attribute_is_classified():
    cls = ShardedSession
    assert unguarded(cls, LOCAL_READS) == []
    # The exemption lists stay honest: nothing listed that is gone,
    # nothing listed that is synchronized anyway.
    surface = public_surface(cls)
    assert LOCAL_READS <= set(surface)
    assert not LOCAL_READS & synchronized_names(cls)
    assert not (DATA_PLANE | LIFECYCLE) & synchronized_names(cls)
    # A QuerySession is the same surface: it adds a constructor only.
    assert public_surface(QuerySession) == surface
    assert "__init__" in vars(QuerySession)
    assert [name for name in vars(QuerySession) if name[:2] != "__"] == []


def test_an_unsynchronized_backend_toucher_is_caught():
    class Leaky(ShardedSession):
        def peek(self):
            return self._collect(False)

        @property
        def peeked(self):
            return self._collect(False)

    assert unguarded(Leaky, LOCAL_READS) == ["peek", "peeked"]


# ----------------------------------------------------------------------
# (i') One chunk clock, by introspection
# ----------------------------------------------------------------------
#: Every name the chunk cut has ever lived under.  The base class may
#: define them; a session class or the core may not.
CHUNK_CUTS = {
    "_apply_event",
    "_apply_run",
    "ingest",
    "ingest_arrays",
    "_flush",
    "_sync",
}
#: ``SessionCore._flush(to_watermark)`` absorbs and advances to a
#: watermark its caller chose; it holds no chunk end to cut at, which
#: the source check below keeps true.
NOT_A_CUT = {SessionCore: {"_flush"}}
#: The clock's state: read and written in the base only (a session
#: class reaches it through ``watermark`` / ``_safe_watermark()``).
CLOCK_STATE = ("_watermark", "_chunk_end", "_max_event_ts", "_pending_events")


def own_chunk_cuts(cls):
    """Chunk-cut methods ``cls`` (or a base short of the front door)
    defines itself."""
    return sorted(
        name
        for klass in cls.__mro__
        if klass not in (SessionFrontDoor, object)
        for name in CHUNK_CUTS & set(vars(klass)) - NOT_A_CUT.get(klass, set())
    )


@pytest.mark.parametrize(
    "cls", [QuerySession, ShardedSession, SessionCore], ids=lambda c: c.__name__
)
def test_the_chunk_cut_is_written_once(cls):
    assert own_chunk_cuts(cls) == []
    source = inspect.getsource(cls)
    assert "_chunk_end" not in source and "searchsorted(ts" not in source
    if cls is not SessionCore:  # the core keeps its own operator frontier
        for name in CLOCK_STATE:
            assert f"self.{name}" not in source, name
    assert {"_apply_run", "_flush", "_sync"} <= set(vars(SessionFrontDoor))
    assert inspect.getsource(SessionFrontDoor).count("searchsorted(ts") == 1


def test_a_second_chunk_cut_is_caught():
    class Forked(ShardedSession):
        def _flush(self, to_watermark):
            super()._flush(to_watermark)

        def ingest_arrays(self, ts, keys, values):
            self._apply_run(ts, keys, values)

    assert own_chunk_cuts(Forked) == ["_flush", "ingest_arrays"]


# ----------------------------------------------------------------------
# (ii) Synchronized = on the pump thread, after everything pushed
# ----------------------------------------------------------------------
def _exercise(session):
    """Call every synchronized public method once, as ``(name, thunk)``
    pairs in an order that keeps each call legal."""
    extra = Query("extra", WindowSet([Window(10, 5)]), SUM)
    calls = [
        ("register", lambda: session.register(extra)),
        ("stats", session.stats),
        ("max_retained_state", session.max_retained_state),
        ("switches", lambda: session.switches),
        ("results", session.results),
        ("drain_results", session.drain_results),
        ("snapshot", session.snapshot),
        ("deregister", lambda: session.deregister("extra")),
        ("shard_switches", session.shard_switches),
        ("shard_watermarks", session.shard_watermarks),
        ("slot_loads", session.slot_loads),
        ("shard_loads", session.shard_loads),
        ("rebalance", session.rebalance),
        # At one shard the move grows the session to two.
        ("move_slots", lambda: session.move_slots([0], 1)),
        ("split_shard", session.split_shard),
        ("merge_shard", lambda: session.merge_shard(2)),
    ]
    return calls


@SHARD_COUNTS
def test_synchronized_methods_run_on_the_pump_after_every_push(
    shards, repro_seed
):
    rows, _ = events_of(repro_seed)
    session = make(shards, async_ingest=True)
    pump = session._pump
    seen = []
    submit = pump.submit_call

    def spying_submit(fn, *args, **kwargs):
        def probe(*a, **k):
            seen.append((fn.__name__, pump.in_pump_thread(), applied(session)))
            return fn(*a, **k)

        return submit(probe, *args, **kwargs)

    pump.submit_call = spying_submit
    try:
        session.register(QUERY)
        calls = _exercise(session)
        assert {name for name, _ in calls} == synchronized_names(
            ShardedSession
        )
        step = len(rows) // (len(calls) + 1)
        pushed = 0
        expected = [("register", True, 0)]
        for i, (name, thunk) in enumerate(calls):
            chunk = rows[i * step : (i + 1) * step]
            feed(session, chunk)
            pushed += len(chunk)
            thunk()
            expected.append((name, True, pushed))
        assert seen == expected
    finally:
        session.close()


# ----------------------------------------------------------------------
# (iii) The shared verbs behave identically
# ----------------------------------------------------------------------
@SHARD_COUNTS
@pytest.mark.parametrize("async_ingest", [False, True])
def test_cadence_meta_and_callback(shards, tmp_path, repro_seed, async_ingest):
    rows, _ = events_of(repro_seed)
    saved = []
    store = CheckpointStore(tmp_path, every=25)
    session = make(
        shards,
        async_ingest=async_ingest,
        auto_checkpoint=store,
        checkpoint_meta=lambda: {"tag": "auto"},
        on_checkpoint=lambda snap, path: saved.append((snap.watermark, path)),
    )
    with session:
        session.register(QUERY)
        feed(session, rows)
        _ = session.switches  # async mode: pump sync point
    assert len(saved) >= 5
    # Strictly increasing watermarks, each >= the cadence apart.
    marks = [wm for wm, _ in saved]
    assert all(b - a >= 25 for a, b in zip(marks, marks[1:]))
    # Every save hit disk through the store's own rotation, and the
    # meta provider's payload rode along.
    newest = read_checkpoint(store.latest())
    assert newest.meta["tag"] == "auto"
    assert newest.watermark == marks[-1]
    assert saved[-1][1] == store.latest()


@SHARD_COUNTS
def test_auto_checkpoint_requires_a_cadence(shards, tmp_path):
    store = CheckpointStore(tmp_path)  # no every=
    with pytest.raises(ExecutionError, match="cadence"):
        make(shards, auto_checkpoint=store)


@SHARD_COUNTS
def test_queued_residue_is_captured_and_replayed(shards, tmp_path, repro_seed):
    """Events queued behind a cut are residue: the snapshot carries
    them and ``restore`` replays them before anything new.  The cut is
    held open from ``checkpoint_meta`` (it runs on the pump thread,
    just before the capture) while 100 more events queue up."""
    rows, horizon = events_of(repro_seed)
    with make(shards) as baseline:
        baseline.register(QUERY)
        feed(baseline, rows)
        expected = baseline.finish(horizon=horizon)

    entered, release = threading.Event(), threading.Event()
    cuts = []

    def meta():
        position = applied(session)
        if not cuts:
            entered.set()
            release.wait(timeout=30)
        return {"position": position}

    session = make(
        shards,
        async_ingest=True,
        auto_checkpoint=CheckpointStore(tmp_path, every=25),
        checkpoint_meta=meta,
        on_checkpoint=lambda snap, path: cuts.append(snap),
    )
    with session:
        session.register(QUERY)
        feed(session, rows[:200])  # enough ticks for the cadence to fire
        assert entered.wait(timeout=30)
        feed(session, rows[200:300])
        release.set()
        _ = session.switches
    snap = cuts[0]
    with ShardedSession.restore(snap) as restored:
        position = applied(restored)
        assert position - snap.meta["position"] >= 100
        feed(restored, rows[position:])
        actual = restored.finish(horizon=horizon)
    assert_identical(expected, actual, f"seed={repro_seed} residue")


@SHARD_COUNTS
def test_finish_stops_the_pump_and_closes_the_stream(shards, repro_seed):
    rows, horizon = events_of(repro_seed)
    before = len(pump_threads())
    session = make(shards, async_ingest=True)
    assert len(pump_threads()) == before + 1
    with session:
        session.register(QUERY)
        feed(session, rows)
        results = session.finish(horizon=horizon)
        assert len(pump_threads()) == before
        assert applied(session) == len(rows)
        # Reads still work (inline now); the stream is closed.
        assert_identical(results, session.results(), "after finish")
        with pytest.raises(ExecutionError, match="finished"):
            session.push(horizon + 1, 0, 1.0)

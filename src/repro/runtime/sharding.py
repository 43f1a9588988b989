"""Key-sharded parallel runtime (DESIGN.md §7, invariant 10).

:class:`ShardedSession` is the live session at any shard count (a
:class:`~repro.runtime.QuerySession` is one serial shard of it): the
dense key space is hash-partitioned into N disjoint shards
(:func:`~repro.engine.events.shard_assignment`), each owned by one
embedded :class:`~repro.runtime.core.SessionCore` running the same
workload over its keys' sub-stream.  One coordinator owns everything
time-related — the out-of-order front door, the chunk clock, and the
rate controller — and broadcasts workload mutations to every shard at
the same safe watermark, so all cores advance through an identical
watermark sequence regardless of the shard count.  That lockstep is
what makes **invariant 10** provable: for any shard count, any
out-of-order stream, and any register/deregister/rate schedule, the
merged results are identical to the 1-shard run.

The coordinator merges per result-routing mode:

* ``per_key`` queries — **disjoint-key concatenation**: each shard's
  rows scatter into the global key space (every key is owned by
  exactly one shard, so merging is a permutation, not arithmetic);
* ``global`` distributive/algebraic queries — **vectorized partial
  merge**: shards emit pre-finalize aggregate components reduced over
  their local keys; the coordinator ``combine``s the per-shard
  partials over whole instance arrays and finalizes once;
* ``global`` holistic queries — **raw forwarding**: no partial form
  exists, so the full value stream feeds a coordinator-local
  single-key core (inherently unsharded, per the Gray et al.
  taxonomy).

Three execution backends implement one contract (documented for
third-party implementations in ``docs/backends.md``): one command
vocabulary, the op table ``_SHARD_OPS`` (op name → what it does to a
core, whether it owes a reply, whether recovery replays it), applied
to every core, and one backend surface written over it once
(``_ShardBackend``).  They differ only in where the table is applied:

* :class:`SerialShardBackend` — all cores in-process, advanced
  deterministically in shard order: the test oracle.
* :class:`ProcessShardBackend` — one worker process per shard over a
  ``multiprocessing`` pipe; columnar event slices ship per run (one
  IPC message per shard per run, never per event) and data-plane
  commands are fire-and-forget, so the coordinator keeps routing run
  ``k+1`` while workers crunch run ``k``.
* :class:`SharedMemoryShardBackend` — the same worker topology, but
  the data plane moves to one single-producer/single-consumer columnar
  ring per shard in ``multiprocessing.shared_memory``
  (:mod:`repro.runtime.shm_ring`): event slices are written straight
  into fixed-capacity slots as numpy column blocks — nothing on the
  data plane is pickled — and watermark advances ride the same ring,
  so data/advance ordering is a property of the ring, not of pipe
  scheduling.  Control-plane commands stay on the pipe (DESIGN.md §8).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..aggregates.registry import get_aggregate
from ..core.multiquery import Query
from ..engine.events import (
    DEFAULT_NUM_SLOTS,
    EVENT_BYTES,
    KeyPartitioner,
)
from ..engine.stats import ExecutionStats
from ..errors import ExecutionError
from ..windows.window import Window
from .checkpoint import CheckpointStore
from .core import (
    INITIAL_EVENT_RATE,
    RETIRED_RESULT_CAP,
    RegisterAck,
    SessionCore,
    ShardReport,
    resolve_registration_query,
)
from .ingest import (
    DEFAULT_INGEST_HIGH_WATERMARK,
    SessionFrontDoor,
    synchronized,
)
from .results import PlanSwitchRecord, WindowResults, finalize_partials

#: Coordinator merge modes, derived from (scope, taxonomy).
MERGE_MODES = ("concat", "partial", "forward")

#: Default control-plane reply deadline, in seconds.  A worker that is
#: alive but silent past this (lost control message, wedged loop) is
#: declared stalled instead of hanging the coordinator forever: with
#: ``worker_recovery=True`` it is respawned and replayed like a crash,
#: otherwise the session raises with diagnostics.  Pass
#: ``control_timeout=None`` to wait on process liveness alone.  Generous
#: on purpose: a *working* worker never takes anywhere near this long to
#: ack a control op, so a false stall requires pathological scheduling.
DEFAULT_CONTROL_TIMEOUT = 60.0

#: Per-chunk-end exponential decay of the per-slot load counters:
#: recent traffic dominates the rebalance policy, but a slot that was
#: hot a few chunks ago still registers (half-life ≈ 3 chunks).
LOAD_DECAY = 0.8


class _MigrationDisrupted(ExecutionError):
    """A worker died or stalled *inside* a migration plan.

    Migration state transplants are not replayable commands — a bundle
    extracted from a core that subsequently crashed and was restored
    would be applied twice — so the normal per-command recovery path is
    disabled during a plan.  The coordinator instead catches this,
    rolls every shard back to the pre-migration snapshot
    (:meth:`_WorkerShardBackend.migration_rollback`), and redoes the
    whole plan from scratch.  Subclasses :class:`ExecutionError` so an
    unrecoverable disruption (recovery unarmed, or a second failure)
    surfaces through the ordinary error contract.
    """

    def __init__(self, slot: int, op: str, cause: str):
        super().__init__(
            f"migration op {op!r} disrupted on backend slot {slot}: "
            f"{cause}"
        )
        self.slot = slot
        self.op = op
        self.cause = cause


@dataclass(frozen=True)
class ShardConfig:
    """Constructor arguments for one shard's :class:`SessionCore`."""

    shard: int
    key_ids: np.ndarray  # global id of each local key, ascending
    chunk_ticks: "int | None"
    event_rate: int

    def build(self) -> SessionCore:
        core = SessionCore(
            num_keys=int(self.key_ids.size),
            chunk_ticks=self.chunk_ticks,
            event_rate=self.event_rate,
        )
        # Emitted rows are addressed by global key id (DESIGN.md §12).
        core.key_ids = self.key_ids
        return core


def _merge_acks(acks: "list[RegisterAck]") -> RegisterAck:
    """Cross-check broadcast acks: every shard must agree bit-for-bit
    (they are pure functions of the shared mutation history)."""
    first = acks[0]
    for ack in acks[1:]:
        if (
            ack.generation != first.generation
            or ack.chunk_ticks != first.chunk_ticks
            or ack.watermark != first.watermark
            or ack.starts != first.starts
        ):
            raise ExecutionError(
                f"shard desync: ack {ack} disagrees with {first}"
            )
    return first


# ----------------------------------------------------------------------
# The shard command vocabulary, written once
# ----------------------------------------------------------------------
class _ShardOp(NamedTuple):
    """One shard command: what it does to a core, and how it travels."""

    #: ``apply(core, *args) -> reply``.
    apply: Callable
    #: Synchronous: the coordinator waits for the reply.  Every other
    #: command is fire-and-forget data plane.
    reply: bool = True
    #: Retained for crash-recovery replay (reads are idempotent or
    #: reproduced via a drain barrier).
    logged: bool = False


def _feed(core: SessionCore, chunks) -> None:
    for ts, keys, values in chunks:
        if ts.size:
            core.buffer_arrays(ts, keys, values)


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


#: Every command a backend applies to a shard core: the serial backend
#: applies it in-process, the worker loops to what the pipe or the ring
#: delivers (docs/backends.md has one row per op).  Op names are public:
#: ``FaultPlan(op=...)`` triggers on them.
_SHARD_OPS = {
    "feed": _ShardOp(_feed, reply=False, logged=True),
    "advance": _ShardOp(SessionCore.advance_to, reply=False, logged=True),
    "register": _ShardOp(SessionCore.register, logged=True),
    "deregister": _ShardOp(SessionCore.deregister, logged=True),
    "reprice": _ShardOp(SessionCore.reprice, logged=True),
    "switch": _ShardOp(SessionCore.switch_plans, logged=True),
    "collect": _ShardOp(SessionCore.report),
    "stats": _ShardOp(
        lambda core: (core.stats(), list(core.switches), core.watermark)
    ),
    "retained": _ShardOp(SessionCore.max_retained_state),
    # Sent after all pending data is published, so the command's
    # stream position IS the consistent cut (pipe FIFO; the shm worker
    # drains its ring first) — no lockstep pause needed.
    "snapshot": _ShardOp(_dumps),
    # Elastic-shard migration (DESIGN.md §12), sent only at a drained
    # barrier (the core re-asserts it).  Never logged: a transplant is
    # not replayable command by command — recovery instead rolls the
    # whole migration back to its pre-plan snapshot and redoes it.
    "extract": _ShardOp(SessionCore.extract_keys),
    "absorb": _ShardOp(SessionCore.absorb_keys),
    "sibling": _ShardOp(lambda core: _dumps(core.spawn_sibling())),
    "remnant": _ShardOp(SessionCore.extract_remnant),
    "absorb_remnant": _ShardOp(SessionCore.absorb_remnant),
}

_REPLY_OPS = frozenset(name for name, op in _SHARD_OPS.items() if op.reply)
_LOGGED_OPS = frozenset(name for name, op in _SHARD_OPS.items() if op.logged)


def _apply(core: SessionCore, msg: tuple):
    """Apply one command ``(op, *args)`` to one core; returns its reply."""
    op = _SHARD_OPS.get(msg[0])
    if op is None:
        raise ExecutionError(f"unknown shard command {msg[0]!r}")
    return op.apply(core, *msg[1:])


class _ShardBackend:
    """The backend surface the session drives, written once.

    Every public command is a message ``(op, *args)`` of
    :data:`_SHARD_OPS`, sent through three primitives a backend
    supplies: :meth:`_broadcast` (to every core, one reply each, in
    slot order), :meth:`_on` (to one core, its reply) and :meth:`_post`
    (fire-and-forget data plane).  It also supplies ``start``,
    ``slot_count``, ``_add_slot`` (append a core loaded from a
    snapshot blob), ``_drop_slot`` and ``_restore_cores``.

    The durability surface is here too, so the session never probes:
    a backend without workers has nothing to recover, and refuses a
    fault plan or recovery instead of silently testing nothing.
    """

    #: Workers rebuilt after a crash (``ShardedSession.worker_recoveries``).
    recoveries = 0
    #: Whether elastic migrations run inside rollback-able epochs.
    recovery_armed = False

    def configure(self, fault_plan, recovery: bool, control_timeout) -> None:
        """Arm fault injection and worker recovery — refused here, as
        in-process cores cannot crash on their own.  The control
        timeout is ignored, not rejected: it carries a finite default,
        and an in-process call cannot stall."""
        del control_timeout
        if fault_plan is not None or recovery:
            raise ExecutionError(
                f"backend {self.name!r} does not support fault injection "
                "/ worker recovery — use the 'process' or 'shm' backend"
            )

    # Data plane -------------------------------------------------------
    def feed(self, slices) -> None:
        for slot, chunks in enumerate(slices):
            if chunks:
                self._post(slot, ("feed", chunks))

    def advance(self, watermark: int) -> None:
        for slot in range(self.slot_count):
            self._post(slot, ("advance", watermark))

    # Control plane ----------------------------------------------------
    def register(self, query: Query, at: int, scope: str) -> RegisterAck:
        return _merge_acks(self._broadcast(("register", query, at, scope)))

    def deregister(self, name: str, at: int) -> RegisterAck:
        return _merge_acks(self._broadcast(("deregister", name, at)))

    def reprice(self, event_rate: int) -> bool:
        return any(self._broadcast(("reprice", event_rate)))

    def switch(self, at: int) -> RegisterAck:
        return _merge_acks(self._broadcast(("switch", at)))

    def collect(self, drain: bool) -> "list[ShardReport]":
        return self._broadcast(("collect", drain))

    def stats(self) -> "list[ExecutionStats]":
        return [status[0] for status in self._broadcast(("stats",))]

    def switches(self) -> "list[list[PlanSwitchRecord]]":
        return [status[1] for status in self._broadcast(("stats",))]

    def watermarks(self) -> "list[int]":
        return [status[2] for status in self._broadcast(("stats",))]

    def max_retained_state(self) -> int:
        return max(self._broadcast(("retained",)), default=0)

    def snapshot(self) -> "list[bytes]":
        """One pickle blob per shard core, at each core's current
        stream position — the backend half of a coordinator-consistent
        checkpoint."""
        return self._broadcast(("snapshot",))

    def restore(self, states: "list[bytes]") -> None:
        """Replace every shard core with a snapshotted one."""
        if len(states) != self.slot_count:
            raise ExecutionError(
                f"snapshot has {len(states)} shard cores, backend has "
                f"{self.slot_count}"
            )
        self._restore_cores(states)

    # Elastic-shard protocol (DESIGN.md §12): the five ops one
    # coordinator plan is built from, on every backend.
    def migrate_extract(self, slot: int, local_ids) -> object:
        return self._on(slot, ("extract", local_ids))

    def migrate_absorb(self, slot: int, bundle, positions) -> None:
        self._on(slot, ("absorb", bundle, positions))

    def spawn_sibling(self, src_slot: int, config: ShardConfig) -> None:
        """Shard split: the donor serializes a keyless sibling
        (workload history and barrier cursors intact, per-key state
        stripped, counters zeroed), loaded into a new last slot."""
        self._add_slot(config, self._on(src_slot, ("sibling",)))

    def retire_shard(self, slot: int) -> object:
        """Shard merge: take the keyless core's cross-key remnant and
        drop the slot from the topology."""
        remnant = self._on(slot, ("remnant",))
        self._drop_slot(slot)
        return remnant

    def absorb_remnant(self, slot: int, remnant) -> None:
        self._on(slot, ("absorb_remnant", remnant))

    def close(self) -> None:
        """Release what :meth:`start` built (nothing, in-process)."""


class SerialShardBackend(_ShardBackend):
    """All shard cores in-process: the op table applied directly, in
    shard order.

    Deterministic by construction — the oracle the invariant-10/11
    property tests (and every worker backend) are compared against.
    """

    name = "serial"

    def __init__(self):
        self.cores: list[SessionCore] = []

    def start(self, configs: "list[ShardConfig]") -> None:
        self.cores = [config.build() for config in configs]

    @property
    def slot_count(self) -> int:
        return len(self.cores)

    def _broadcast(self, msg) -> list:
        return [_apply(core, msg) for core in self.cores]

    def _on(self, slot: int, msg):
        return _apply(self.cores[slot], msg)

    _post = _on

    def _add_slot(self, config: ShardConfig, state: bytes) -> None:
        del config  # the blob is the whole core
        self.cores.append(pickle.loads(state))

    def _drop_slot(self, slot: int) -> None:
        del self.cores[slot]

    def _restore_cores(self, states: "list[bytes]") -> None:
        self.cores = [pickle.loads(state) for state in states]


# ----------------------------------------------------------------------
# Worker-process backends (pipe and shared-memory data planes)
# ----------------------------------------------------------------------
#: Worker idle wait on the control pipe when the data plane is quiet.
_IDLE_POLL_SECONDS = 500e-6

#: Coordinator poll step while waiting for a control reply — short
#: enough that worker death (liveness) surfaces promptly, long enough
#: to cost nothing against real reply latencies.
_CONTROL_POLL_SECONDS = 0.05


def _send_fatal(conn) -> None:
    """Last words: ship the traceback of a dying worker loop up the
    control pipe so the coordinator can surface the *cause* of the
    crash, not just an EOF (satellite of DESIGN.md §9)."""
    try:
        conn.send(("fatal", traceback.format_exc()))
    except Exception:  # pragma: no cover - pipe already gone
        pass


class _ShardWorker:
    """A worker process's end of the protocol: one core, its control
    pipe, and the first data-plane error, parked until the next reply
    so the coordinator never desyncs on the reply stream.  The two
    loops differ only in where records come from."""

    def __init__(self, conn, core: SessionCore):
        self.conn = conn
        self.core = core
        self.parked: "str | None" = None

    def apply(self, msg) -> None:
        """Apply one command from the pipe or the ring.  A command that
        owes a reply sends it — or the parked error, which pre-empts
        it; any other command's failure is parked."""
        owes = msg[0] in _REPLY_OPS
        if owes and self.parked is not None:
            self.conn.send(("error", self.parked))
            return
        try:
            reply = ("ok", _apply(self.core, msg))
        except Exception:
            reply = ("error", traceback.format_exc())
        if owes:
            self.conn.send(reply)
        elif reply[0] == "error" and self.parked is None:
            self.parked = reply[1]

    def control(self, msg) -> bool:
        """Handle one control-pipe message; False once told to close."""
        if msg[0] == "close":
            self.conn.close()
            return False
        if msg[0] == "restore":
            # Adopt a snapshotted core wholesale (recovery, rollback, a
            # split's sibling, session restore); whatever the
            # coordinator replays follows on the stream.
            self.core, self.parked = pickle.loads(msg[1]), None
            self.conn.send(("ok", self.core.watermark))
        else:
            self.apply(msg)
        return True

    def serve_pipe(self) -> None:
        """The ``process`` loop: one pipe carries data and control in
        one FIFO."""
        while True:
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):  # pragma: no cover - parent died
                return
            if not self.control(msg):
                return

    def serve_ring(self, spec, untrack: bool) -> None:
        """The ``shm`` loop: data plane from the ring, control plane
        from the pipe.

        The coordinator publishes every data/advance record *before* it
        sends a control command and then blocks for the reply, so
        draining the ring to empty right before executing a control
        command applies that command at exactly its position in the
        stream — the same FIFO the pipe loop gets for free.
        """
        from .shm_ring import ShmRing

        ring = ShmRing.attach(spec, untrack=untrack)
        # Zero-copy consume: data records are *borrowed* (slot views go
        # straight into the core's chunk buffer; no per-column memcpy)
        # and their slots are released in bulk once a flush has
        # absorbed the views.  The budget keeps two slots available to
        # the producer so it can always publish the advance record that
        # triggers that flush; hitting the budget localizes the buffer
        # (one bounded copy) and releases, so a borrow can never
        # deadlock the coordinator or outlive a slot's reuse.
        borrow_budget = max(ring.spec.num_slots - 2, 0)

        def drain() -> bool:
            progressed = False
            # A pop() failure (corrupt ring record) propagates and kills
            # the worker: the head never moves past a record that cannot
            # be parsed, so parking the error would wedge the ring and
            # deadlock the coordinator.  Application errors, by
            # contrast, are parked — the record was consumed, so
            # draining continues and the error surfaces on the next
            # control reply.
            while True:
                if ring.borrowed and ring.borrowed >= borrow_budget:
                    if self.core.buffered_events:
                        self.core.localize_buffer()
                    ring.release()
                record = ring.pop(copy=False)
                if record is None:
                    break
                progressed = True
                self.apply(
                    record if record[0] == "advance"
                    else ("feed", (record[1:],))
                )
                if ring.borrowed and not self.core.buffered_events:
                    ring.release()
            self.core.bytes_copied += ring.bytes_copied
            self.core.copies_elided += ring.copies_elided
            ring.bytes_copied = ring.copies_elided = 0
            return progressed

        try:
            while True:
                if not self.conn.poll(0 if drain() else _IDLE_POLL_SECONDS):
                    continue
                try:
                    msg = self.conn.recv()
                except (EOFError, OSError):  # pragma: no cover - parent died
                    return
                if msg[0] == "restore":
                    # The adopted core owns all of its buffered chunks
                    # (views pickle by value), so any slots the
                    # discarded core still borrowed can be freed
                    # outright.
                    ring.release()
                elif msg[0] != "close":
                    drain()
                if not self.control(msg):
                    return
        finally:
            ring.close()


def _shard_worker(conn, config: ShardConfig, *ring) -> None:
    """One shard's worker process: a :class:`SessionCore` behind a
    control pipe, fed by that pipe, or by a shared-memory ring when
    ``ring`` is ``(spec, untrack)``.  An unhandled crash of the loop
    ships its traceback as a ``fatal`` message before the process
    dies."""
    try:
        worker = _ShardWorker(conn, config.build())
        if ring:
            worker.serve_ring(*ring)
        else:
            worker.serve_pipe()
    except BaseException:  # noqa: BLE001 - last words, then die
        _send_fatal(conn)
        raise


class _WorkerShardBackend(_ShardBackend):
    """Shared machinery of the worker-process backends: one daemonic
    worker per shard, a control pipe each, broadcast with
    drain-before-raise error collection.  Subclasses choose the data
    plane: ``_open_data_plane(slot)`` returns the worker's extra
    arguments, ``_ship(slot, msg)`` moves one ``feed`` / ``advance``.

    **Durability** (DESIGN.md §9).  :meth:`configure` arms three
    orthogonal behaviours:

    * *crash diagnostics* — every control reply is awaited with a
      liveness poll, so a dead worker surfaces as an
      :class:`~repro.errors.ExecutionError` carrying the shard, the
      exit code, the worker's own traceback (its ``fatal`` last words,
      when the crash was a Python error), and the last watermark the
      worker provably acked — never a bare ``EOFError``;
    * *recovery* — the coordinator retains each shard's last core
      snapshot plus an ordered replay log of every logged command
      shipped since (feeds, advances, mutations, drain barriers).  A
      detected death respawns the worker, restores the snapshot,
      replays the log, and re-issues the in-flight command — results
      stay bit-identical to a crash-free run (invariant 12);
    * *fault injection* — a :class:`~repro.runtime.faults.FaultPlan`
      is consulted before every advance ship and control delivery,
      making chaos schedules deterministic and property-testable.
    """

    def __init__(self, context: "str | None" = None):
        self._ctx = multiprocessing.get_context(context)
        self._fault_plan = None
        self._retain = False
        self._control_timeout: "float | None" = DEFAULT_CONTROL_TIMEOUT
        self._last_advance = 0
        self._migration_active = False
        self.recoveries = 0
        self._clear_slots()

    def configure(self, fault_plan, recovery: bool, control_timeout) -> None:
        """Arm fault injection, crash recovery, and a control-plane
        reply deadline (``None`` waits on liveness alone — a lost
        control message then hangs rather than stalls out)."""
        self._fault_plan = fault_plan
        self._retain = recovery
        self._control_timeout = control_timeout

    @property
    def recovery_armed(self) -> bool:
        return self._retain

    @property
    def slot_count(self) -> int:
        return len(self._conns)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def start(self, configs: "list[ShardConfig]") -> None:
        try:
            for config in configs:
                self._spawn_worker(config)
        except BaseException:
            # A mid-loop failure (ENOSPC on /dev/shm, spawn error)
            # would otherwise orphan what already exists — close() is
            # unreachable because the session constructor never
            # returns.  Tear down what exists, then re-raise.
            self.close()
            raise

    def _clear_slots(self) -> None:
        """Forget every slot (their workers have stopped)."""
        self._conns, self._procs, self._configs = [], [], []
        self._base_states: "list[bytes | None]" = []
        self._logs: "list[list[tuple]]" = []
        self._last_acked: "list[int]" = []
        self._fatal_tracebacks: "dict[int, str]" = {}

    def _spawn_worker(self, config: ShardConfig) -> None:
        """Append one slot and start its worker."""
        self._configs.append(config)
        self._conns.append(None)
        self._procs.append(None)
        self._base_states.append(None)
        self._logs.append([])
        self._last_acked.append(0)
        self._spawn_at(len(self._configs) - 1)

    def _spawn_at(self, slot: int) -> None:
        """Start ``slot``'s worker on a fresh data plane (first start
        or respawn)."""
        config = self._configs[slot]
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(child, config, *self._open_data_plane(slot)),
            daemon=True,
            name=f"repro-shard-{config.shard}",
        )
        proc.start()
        child.close()
        self._conns[slot] = parent
        self._procs[slot] = proc

    def _kill_worker(self, slot: int) -> None:
        """SIGKILL one worker and wait for it to die (fault injection:
        the death must be visible before the next command ships)."""
        proc = self._procs[slot]
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=10.0)

    def _stop_workers(self, slots, grace: float) -> None:
        """Stop workers, dead ones included: ask each to close and
        close its pipe, wait up to ``grace`` seconds for all of them,
        then escalate terminate → kill (every wait bounded)."""
        for slot in slots:
            conn = self._conns[slot]
            if conn is None:
                continue
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        deadline = time.monotonic() + grace
        for slot in slots:
            proc = self._procs[slot]
            if proc is None:
                continue
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stubborn worker
                proc.kill()
                proc.join(timeout=10.0)

    # ------------------------------------------------------------------
    # Control plane: faulted send, liveness-aware receive
    # ------------------------------------------------------------------
    def _send_control(self, slot: int, msg) -> None:
        op = msg[0]
        plan = self._fault_plan
        if plan is not None:
            for fault in plan.take(
                "control", slot, watermark=self._last_advance, op=op
            ):
                if fault.kind == "kill":
                    self._kill_worker(slot)
                elif fault.kind == "drop_control":
                    return  # command never delivered
                elif fault.kind == "delay_control":
                    time.sleep(fault.delay_seconds)
                elif fault.kind == "kill_mid_op":
                    try:
                        self._conns[slot].send(msg)
                    except (BrokenPipeError, OSError):
                        pass
                    self._kill_worker(slot)
                    return
                else:  # pragma: no cover - poison handled on data plane
                    raise ExecutionError(
                        f"fault kind {fault.kind!r} cannot fire on the "
                        "control plane"
                    )
        self._conns[slot].send(msg)

    def _recv_reply(self, slot: int) -> "tuple[str, object, str | None]":
        """Await one control reply with liveness: returns ``(kind,
        payload, cause)`` where kind is ``ok``/``error`` (worker
        replied), ``dead`` (worker died), or ``stall`` (alive but past
        the control timeout)."""
        conn, proc = self._conns[slot], self._procs[slot]
        timeout = self._control_timeout
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            try:
                # A dead worker gets one last poll: it may have flushed
                # its fatal traceback before the pipe closed.
                if conn.poll(_CONTROL_POLL_SECONDS) or (
                    not proc.is_alive() and conn.poll(0)
                ):
                    kind, payload = conn.recv()
                    if kind != "fatal":
                        return (kind, payload, None)
                    self._fatal_tracebacks[slot] = payload
                    return ("dead", None, "worker crashed")
            except (EOFError, OSError):
                return ("dead", None, "control connection lost")
            if not proc.is_alive():
                return (
                    "dead",
                    None,
                    f"worker exited (exitcode {proc.exitcode})",
                )
            if deadline is not None and time.monotonic() >= deadline:
                cause = (
                    f"no reply within {timeout:.1f}s (worker alive — "
                    "control message lost or worker wedged)"
                )
                if not self._retain:
                    # Match the crash path's actionable hint: a stall is
                    # recoverable the same way a crash is.
                    cause += (
                        "; worker_recovery=True would respawn and "
                        "replay the stalled worker instead of failing"
                    )
                return ("stall", None, cause)

    def _raise_worker_failure(
        self, slot: int, cause: str, context: str
    ) -> None:
        """Actionable crash diagnostics: shard identity, exit code,
        last-acked watermark, and the worker's own traceback when it
        had time to send one."""
        conn = self._conns[slot]
        if slot not in self._fatal_tracebacks and conn is not None:
            # A data-plane failure never reads the pipe — give the
            # dying worker a moment to flush its last words.
            try:
                while conn.poll(0.2):
                    last = conn.recv()
                    if last[0] == "fatal":
                        self._fatal_tracebacks[slot] = last[1]
                        break
            except (EOFError, OSError):
                pass
        proc = self._procs[slot]
        shard = self._configs[slot].shard
        exitcode = None if proc is None else proc.exitcode
        detail = (
            f"shard {shard} worker failed during {context!r}: {cause} "
            f"[exitcode={exitcode}, last-acked watermark "
            f"{self._last_acked[slot]}, last advance sent "
            f"{self._last_advance}]"
        )
        tb = self._fatal_tracebacks.get(slot)
        if tb:
            detail += f"\nworker traceback:\n{tb}"
        if not self._retain:
            detail += (
                "\n(no recovery snapshot retained — construct the "
                "session with worker_recovery=True to respawn and "
                "replay instead of failing)"
            )
        raise ExecutionError(detail)

    # ------------------------------------------------------------------
    # The three primitives, with recovery
    # ------------------------------------------------------------------
    def _broadcast(self, msg) -> list:
        """Send one reply-bearing command to every worker, gather one
        reply per worker (drain-before-raise), and recover any worker
        that died along the way."""
        op = msg[0]
        count = len(self._conns)
        send_failure: "dict[int, str]" = {}
        for slot in range(count):
            try:
                self._send_control(slot, msg)
            except (BrokenPipeError, OSError) as exc:
                send_failure[slot] = f"control send failed ({exc})"
        replies: list = [None] * count
        errors: "list[tuple[int, str]]" = []
        failed: "list[tuple[int, str]]" = []
        for slot in range(count):
            if slot in send_failure:
                failed.append((slot, send_failure[slot]))
                continue
            kind, payload, cause = self._recv_reply(slot)
            if kind == "ok":
                replies[slot] = payload
                self._last_acked[slot] = self._last_advance
            elif kind == "error":
                errors.append((slot, payload))
            else:  # dead or stall
                failed.append((slot, cause))
        for slot, cause in failed:
            if self._migration_active:
                # Per-slot replay recovery is invalid mid-epoch: the
                # replay base predates the (unlogged) migration ops.
                # Escalate so the coordinator rolls the epoch back.
                raise _MigrationDisrupted(slot, op, cause)
            if not self._retain:
                self._raise_worker_failure(slot, cause, op)
            replies[slot] = self._recover_slot(slot, cause, inflight=msg)
        if errors:
            detail = "\n".join(
                f"shard {self._configs[slot].shard}: {payload}"
                for slot, payload in errors
            )
            raise ExecutionError(f"shard worker(s) failed:\n{detail}")
        if self._retain:
            if op == "snapshot":
                # The new respawn base: the replay logs start over.
                self._base_states = list(replies)
                self._logs = [[] for _ in replies]
            elif op in _LOGGED_OPS or msg == ("collect", True):
                # A drained collect consumes subscription state: replay
                # must reproduce the consumption (and discard the
                # output).
                for log in self._logs:
                    log.append(msg)
        return replies

    def _post(self, slot: int, msg) -> None:
        """Ship one data-plane command, fire-and-forget.  It is logged
        before the attempt, so a recovery replays it — nothing to
        re-send on failure."""
        op = msg[0]
        if op == "advance":
            self._last_advance = msg[1]
            self._inject_data_faults(slot, msg[1])
        if self._retain:
            self._logs[slot].append(msg)
        try:
            self._ship(slot, msg)
        except (OSError, ExecutionError) as exc:
            cause = f"{op} ship failed ({exc})"
            if self._migration_active:  # pragma: no cover - defensive
                raise _MigrationDisrupted(slot, op, cause)
            if self._retain and not self._procs[slot].is_alive():
                self._recover_slot(slot, cause, inflight=None)
            else:
                self._raise_worker_failure(slot, cause, op)

    # Migration ops are single-slot, synchronous, and — unlike every
    # other command — NOT individually recoverable: a transplant
    # bundle extracted from a core that then crashed and was restored
    # from its base would be applied twice.  A failure mid-plan raises
    # :class:`_MigrationDisrupted` instead; the coordinator rolls the
    # whole topology back to the epoch snapshot and redoes the plan.
    def _on(self, slot: int, msg):
        op = msg[0]
        try:
            self._send_control(slot, msg)
        except (BrokenPipeError, OSError) as exc:
            self._migration_failure(slot, op, f"control send failed ({exc})")
        kind, payload, cause = self._recv_reply(slot)
        if kind == "ok":
            self._last_acked[slot] = self._last_advance
            return payload
        if kind == "error":
            raise ExecutionError(
                f"shard {self._configs[slot].shard} rejected migration "
                f"op {op!r}:\n{payload}"
            )
        self._migration_failure(slot, op, cause)

    def _migration_failure(self, slot: int, op: str, cause: str) -> None:
        if self._retain:
            raise _MigrationDisrupted(slot, op, cause)
        self._raise_worker_failure(slot, cause, op)

    # ------------------------------------------------------------------
    # Crash recovery: respawn + restore + replay
    # ------------------------------------------------------------------
    def _recover_slot(self, slot: int, cause: str, inflight):
        """Bring one crashed shard back: stop the dead worker, respawn
        it (fresh data plane), restore the last retained core snapshot,
        replay the retained post-snapshot commands in order, and
        re-issue the in-flight command (returning its reply).

        The replay log and the in-flight command are disjoint by
        construction — mutations are logged only after every shard
        acked them — so nothing is ever applied twice.
        """
        self._stop_workers([slot], grace=0.0)
        self._fatal_tracebacks.pop(slot, None)
        self._spawn_at(slot)
        self.recoveries += 1
        conn = self._conns[slot]
        base = self._base_states[slot]
        if base is not None:
            conn.send(("restore", base))
            self._expect_ok(slot, "restore", cause)
        for msg in self._logs[slot]:
            if msg[0] in _REPLY_OPS:
                conn.send(msg)
                self._expect_ok(slot, msg[0], cause)
            else:
                self._ship(slot, msg)
        if inflight is not None:
            conn.send(inflight)
            return self._expect_ok(slot, inflight[0], cause)
        return None

    def _expect_ok(self, slot: int, op: str, original_cause: str):
        kind, payload, cause = self._recv_reply(slot)
        if kind == "ok":
            return payload
        detail = payload if kind == "error" else cause
        self._raise_worker_failure(
            slot,
            f"recovery replay of {op!r} failed ({detail}); original "
            f"failure: {original_cause}",
            op,
        )

    def _inject_data_faults(self, slot: int, watermark: int) -> None:
        plan = self._fault_plan
        if plan is None:
            return
        for fault in plan.take("advance", slot, watermark=watermark):
            if fault.kind == "kill":
                self._kill_worker(slot)
            elif fault.kind == "poison_ring":
                self._poison_slot(slot)
            else:  # pragma: no cover - defensive
                raise ExecutionError(
                    f"fault kind {fault.kind!r} cannot fire on the "
                    "data plane"
                )

    def _poison_slot(self, slot: int) -> None:
        raise ExecutionError(
            "poison_ring faults require the shm backend (there is no "
            "ring to poison on this data plane)"
        )

    # ------------------------------------------------------------------
    # Slots: add, drop, restore, and migration epochs
    # ------------------------------------------------------------------
    def _add_slot(self, config: ShardConfig, state: bytes) -> None:
        """Append a worker and load ``state`` into it (a split's
        sibling, or an epoch rollback's pre-plan core)."""
        self._spawn_worker(config)
        slot = len(self._conns) - 1
        try:
            self._conns[slot].send(("restore", state))
        except (BrokenPipeError, OSError) as exc:
            self._migration_failure(
                slot, "restore", f"restore send failed ({exc})"
            )
        kind, payload, cause = self._recv_reply(slot)
        if kind != "ok":
            self._migration_failure(
                slot, "restore", cause or f"restore rejected:\n{payload}"
            )
        if self._retain:
            self._base_states[slot] = state

    def _drop_slot(self, slot: int) -> None:
        self._stop_workers([slot], grace=5.0)
        for seq in (
            self._conns,
            self._procs,
            self._configs,
            self._base_states,
            self._logs,
            self._last_acked,
        ):
            del seq[slot]
        self._fatal_tracebacks = {
            (s - 1 if s > slot else s): tb
            for s, tb in self._fatal_tracebacks.items()
            if s != slot
        }

    def _restore_cores(self, states: "list[bytes]") -> None:
        for slot, state in enumerate(states):
            self._send_control(slot, ("restore", state))
        for slot in range(len(states)):
            kind, _, cause = self._recv_reply(slot)
            if kind != "ok":
                self._raise_worker_failure(
                    slot, cause or "restore rejected", "restore"
                )
        if self._retain:
            self._base_states = list(states)
            self._logs = [[] for _ in states]

    def migration_epoch_begin(self) -> None:
        """Open a migration epoch: snapshot every core (the rollback
        point) and remember the pre-plan topology."""
        if not self._retain:
            raise ExecutionError(
                "migration epochs require worker_recovery=True"
            )
        self.snapshot()
        self._epoch_configs = list(self._configs)
        self._epoch_bases = list(self._base_states)
        # From here until epoch_end's snapshot lands, a worker death
        # cannot be repaired per-slot (migration ops are unlogged) —
        # _broadcast escalates failures to _MigrationDisrupted instead.
        self._migration_active = True

    def migration_rollback(self) -> None:
        """Discard a half-run migration plan: tear down whatever
        topology it left behind and rebuild the epoch's workers from
        their pre-plan snapshots.  Counts as one recovery."""
        self._stop_workers(range(len(self._conns)), grace=0.0)
        self._clear_slots()
        self._release_data_plane()
        for config, base in zip(self._epoch_configs, self._epoch_bases):
            self._add_slot(config, base)
        self.recoveries += 1

    def migration_epoch_end(self) -> None:
        """Close a migration epoch: re-snapshot the (possibly resized)
        topology so ordinary per-worker crash recovery resumes from the
        post-migration layout."""
        self.snapshot()
        self._migration_active = False
        self._epoch_configs = []
        self._epoch_bases = []

    def close(self) -> None:
        """Shut every worker down, robust to workers that are already
        dead: bounded join with terminate → kill escalation, and the
        data plane (shm segments included) released on every path."""
        try:
            self._stop_workers(range(len(self._conns)), grace=5.0)
        finally:
            self._clear_slots()
            self._release_data_plane()

    def _release_data_plane(self) -> None:
        """Subclass hook: tear down data-plane resources after the
        workers have exited."""


class ProcessShardBackend(_WorkerShardBackend):
    """One worker process per shard, fed columnar slices over a pipe.

    Pipes give per-worker FIFO command streams; only commands that owe
    a reply produce one, so the coordinator can pipeline data-plane
    traffic without round trips.  Workers are daemonic — they die with
    the coordinator process.
    """

    name = "process"

    def _open_data_plane(self, slot: int) -> tuple:
        del slot  # the control pipe carries the data too
        return ()

    def _ship(self, slot: int, msg) -> None:
        self._conns[slot].send(msg)


class SharedMemoryShardBackend(_WorkerShardBackend):
    """One worker per shard with a shared-memory ring data plane.

    Same worker topology as :class:`ProcessShardBackend`, but the data
    plane — event slices *and* watermark advances — flows through one
    :class:`~repro.runtime.shm_ring.ShmRing` per shard: columnar
    blocks are written directly into fixed-capacity shared-memory
    slots (no pickling, no pipe syscalls per chunk) and consumed as
    numpy views on the worker side.  Control-plane commands stay on
    the pipe; the worker drains its ring before executing one, which
    restores the single-pipe FIFO ordering (DESIGN.md §8).

    Flow control is the ring itself: a full ring blocks the
    coordinator (bounded, lossless backpressure) until the worker
    frees slots, raising only if the worker dies or stalls beyond
    ``feed_timeout`` seconds.

    Parameters
    ----------
    slot_events:
        Event capacity of one ring slot (larger slices split across
        slots).  Slot bytes are ``slot_events *``
        :data:`~repro.engine.events.EVENT_BYTES`.
    num_slots:
        Slots per ring; ``slot_events * num_slots`` bounds the
        coordinator→worker in-flight event count per shard.
    """

    name = "shm"

    def __init__(
        self,
        context: "str | None" = None,
        slot_events: int = 8192,
        num_slots: int = 16,
        feed_timeout: float = 60.0,
    ):
        super().__init__(context)
        self._slot_events = slot_events
        self._num_slots = num_slots
        self._feed_timeout = feed_timeout
        self._rings = []

    def _open_data_plane(self, slot: int) -> tuple:
        """A fresh ring for ``slot``: a respawned worker's old ring may
        hold half-consumed slots, and replay re-ships everything."""
        from .shm_ring import ShmRing

        ring = ShmRing.create(
            slot_events=self._slot_events, num_slots=self._num_slots
        )
        if slot < len(self._rings):
            self._rings[slot].close_ring()
            self._rings[slot].close()
            self._rings[slot] = ring
        else:
            self._rings.append(ring)
        # A fork-context worker shares the coordinator's resource
        # tracker (it must not untrack the segment); a spawn-context
        # worker runs its own and must untrack (see ShmRing.attach).
        return ring.spec, self._ctx.get_start_method() != "fork"

    def _ship(self, slot: int, msg) -> None:
        ring, alive = self._rings[slot], self._procs[slot].is_alive
        if msg[0] == "advance":
            ring.push_advance(
                msg[1], timeout=self._feed_timeout, liveness=alive
            )
            return
        for ts, keys, values in msg[1]:
            ring.push_events(
                ts, keys, values, timeout=self._feed_timeout, liveness=alive
            )

    def _drop_slot(self, slot: int) -> None:
        super()._drop_slot(slot)
        ring = self._rings.pop(slot)
        ring.close_ring()
        ring.close()

    def _poison_slot(self, slot: int) -> None:
        self._rings[slot].poison_slot()

    def _release_data_plane(self) -> None:
        for ring in self._rings:
            ring.close_ring()
            ring.close()
        self._rings = []


_BACKEND_CLASSES = {
    cls.name: cls
    for cls in (
        SerialShardBackend,
        ProcessShardBackend,
        SharedMemoryShardBackend,
    )
}

#: The built-in shard backends by name — the one list the scenario
#: schema and the CLI accept.
SHARD_BACKENDS = tuple(_BACKEND_CLASSES)


def has_workers(num_shards: int, backend: "str | object" = "serial") -> bool:
    """Whether a session of this shape runs shard worker processes —
    the only shapes a fault plan or ``worker_recovery`` can act on.

    The placement rule: one shard has no second core to overlap with,
    so it runs in-process whatever ``backend`` says.
    :class:`ShardedSession` applies it at construction and at
    :meth:`~ShardedSession.restore` alike, and invariant 10 makes it
    invisible in the results."""
    return num_shards > 1 and backend != "serial"


def _resolve_backend(backend, num_shards: int):
    """The backend instance for ``backend`` under the placement rule
    (:func:`has_workers`)."""
    if isinstance(backend, str) and backend not in _BACKEND_CLASSES:
        raise ExecutionError(
            f"unknown shard backend {backend!r}; expected one of "
            f"{SHARD_BACKENDS}"
        )
    if not has_workers(num_shards, backend):
        return SerialShardBackend()
    if not isinstance(backend, str):
        return backend
    return _BACKEND_CLASSES[backend]()


class ShardedSession(SessionFrontDoor):
    """The live multi-query session, hash-partitioned over the key space.

    The one session implementation (a
    :class:`~repro.runtime.QuerySession` is this class at one serial
    shard): push / register / deregister / results / finish behind one
    reorder buffer, one chunk clock and one rate controller, plus:

    * ``num_shards`` / ``backend`` — the partition width and where the
      shard cores run (``"serial"`` in-process, ``"process"`` one
      worker per shard over pipes, ``"shm"`` one worker per shard over
      shared-memory rings).  One shard runs in-process whatever
      ``backend`` says, here and on :meth:`restore`
      (:func:`has_workers`);
    * ``async_ingest=True`` — a bounded queue + pump thread in front
      of the coordinator (:mod:`repro.runtime.ingest`): pushes return
      immediately, backpressure at ``ingest_high_watermark`` queued
      events, identical results (DESIGN.md §8, invariant 11);
    * :meth:`push_batch` / :meth:`push_many` — whole columnar batches
      cross the reorder buffer in one pass, are partitioned once per
      run and shipped as slices, with no per-event Python dispatch;
    * ``scope="global"`` registrations — cross-key aggregates merged
      at the coordinator (partials for mergeable aggregates, raw
      forwarding for holistic ones);
    * durability — :meth:`snapshot` / :meth:`restore` capture and
      resume the whole session bit-identically (invariant 12), and
      ``worker_recovery=True`` arms transparent respawn-and-replay of
      crashed shard workers (DESIGN.md §9, ``docs/durability.md``).

    Invariant 10: results are identical at every shard count, enforced
    by ``tests/runtime/test_sharding_properties.py``.

    Parameters (durability)
    -----------------------
    worker_recovery:
        Retain per-shard core snapshots plus a replay log of
        everything shipped since, so a crashed worker is respawned and
        replayed instead of failing the session.  Worker backends
        only.
    fault_plan:
        A :class:`~repro.runtime.faults.FaultPlan` of deterministic
        injected faults (chaos testing).  Worker backends only.
    control_timeout:
        Seconds to wait for a control-plane reply from a live worker
        before declaring it wedged (default
        :data:`DEFAULT_CONTROL_TIMEOUT`; ``None`` waits on process
        liveness alone — a lost control message then hangs rather than
        raises).  Ignored by the serial backend, whose in-process
        calls cannot stall.
    auto_checkpoint / checkpoint_meta / on_checkpoint:
        In-session checkpoint cadence: a
        :class:`~repro.runtime.checkpoint.CheckpointStore` built with
        ``every=<ticks>`` is consulted after every applied push and
        saves a rotating coordinator-consistent snapshot when due;
        ``checkpoint_meta()`` supplies each checkpoint's ``meta`` and
        ``on_checkpoint(snapshot, path)`` fires after each save.
    """

    def __init__(
        self,
        num_keys: int = 1,
        num_shards: "int | str" = 1,
        backend: "str | object" = "serial",
        num_slots: int = DEFAULT_NUM_SLOTS,
        max_lateness: int = 0,
        chunk_ticks: "int | None" = None,
        hysteresis: "float | None" = 0.25,
        async_ingest: bool = False,
        ingest_high_watermark: int = DEFAULT_INGEST_HIGH_WATERMARK,
        fault_plan=None,
        worker_recovery: bool = False,
        control_timeout: "float | None" = DEFAULT_CONTROL_TIMEOUT,
        auto_checkpoint: "CheckpointStore | None" = None,
        checkpoint_meta=None,
        on_checkpoint=None,
    ):
        if num_keys < 1:
            raise ExecutionError(f"num_keys must be >= 1, got {num_keys}")
        if num_shards == "auto":
            # One shard per CPU, never more than one per slot — the
            # elastic APIs (rebalance / split / merge) then adapt the
            # layout to the observed load.
            num_shards = max(1, min(os.cpu_count() or 1, num_slots))
        elif isinstance(num_shards, str):
            raise ExecutionError(
                f"num_shards must be an int or 'auto', got {num_shards!r}"
            )
        if num_shards < 1:
            raise ExecutionError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self._open_front_door(max_lateness, chunk_ticks, hysteresis)
        self.num_keys = num_keys
        self.num_shards = num_shards
        self.partitioner = KeyPartitioner(
            num_keys, num_shards, num_slots=num_slots
        )
        # Only shards that own keys get a core: a key-less core would
        # still close (dummy-key) instances forever — wasted work that
        # would also inflate the logical pair counters sharding must
        # leave untouched.
        self.active_shards = [
            shard
            for shard in range(num_shards)
            if self.partitioner.owned[shard].size
        ]
        # Decayed per-slot event counters (bytes are events × the fixed
        # event width) — the signal the rebalance policy reads
        # (DESIGN.md §12) — and the buffered events they still owe.
        self._slot_events = np.zeros(self.num_slots, dtype=np.float64)
        self._slot_pending = np.zeros(self.num_slots, dtype=np.int64)
        self._fixed_chunk = chunk_ticks
        self._event_rate = INITIAL_EVENT_RATE
        self._queries: "dict[str, tuple[Query, str]]" = {}
        self._modes: dict[str, str] = {}
        self._forward: "SessionCore | None" = None
        self._forward_names: set[str] = set()
        self._generation = 0
        self.wall_seconds = 0.0
        self._start_backend(
            backend, fault_plan, worker_recovery, control_timeout
        )
        self._attach(
            async_ingest,
            ingest_high_watermark,
            auto_checkpoint,
            checkpoint_meta,
            on_checkpoint,
        )

    def _start_backend(
        self, backend, fault_plan, worker_recovery: bool, control_timeout
    ) -> None:
        """Bring up one core per active shard on ``backend`` (placed by
        :func:`has_workers`) and reset everything a session never
        carries across a restore: the per-backend-slot ingest buffers
        and the teardown flag."""
        self.backend = _resolve_backend(backend, self.num_shards)
        self.backend.configure(fault_plan, worker_recovery, control_timeout)
        self.backend.start(
            [self._shard_config(shard) for shard in self.active_shards]
        )
        self._array_buf: "list[list[tuple]]" = [[] for _ in self.active_shards]
        self._fwd_arrays: "list[tuple]" = []
        self._released = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queries(self) -> tuple[str, ...]:
        return tuple(self._queries)

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def num_slots(self) -> int:
        return self.partitioner.num_slots

    @property
    def worker_recoveries(self) -> int:
        """How many shard workers have been respawned after a crash
        (always 0 on the serial backend)."""
        return self.backend.recoveries

    @property
    @synchronized
    def switches(self) -> "list[PlanSwitchRecord]":
        """Shard 0's switch log (every shard applies the identical
        schedule; see :meth:`shard_switches` for all of them).  In
        async mode a synchronization point, like every method that
        talks to the backend."""
        self._require_backend()
        logs = self.backend.switches()
        merged = list(logs[0]) if logs else []
        if self._forward is not None:
            merged.extend(self._forward.switches)
        return merged

    @synchronized
    def shard_switches(self) -> "list[list[PlanSwitchRecord]]":
        self._require_backend()
        return self.backend.switches()

    @synchronized
    def shard_watermarks(self) -> "list[int]":
        """Per-shard core watermarks (the min is the aligned session
        watermark; after any flush all entries are equal)."""
        self._require_backend()
        marks = list(self.backend.watermarks())
        if self._forward is not None:
            marks.append(self._forward.watermark)
        return marks

    @synchronized
    def stats(self) -> ExecutionStats:
        """Merged execution counters across every shard (plus the
        forwarding core).  ``wall_seconds`` is the *coordinator's* wall
        time — the serialized cost of routing, feeding, and merging —
        not the sum of shard-local compute, which overlaps under the
        worker backends (process and shm)."""
        self._require_backend()
        merged = ExecutionStats()
        for stats in self.backend.stats():
            merged.merge(stats)
        if self._forward is not None:
            merged.merge(self._forward.stats())
        merged.wall_seconds = self.wall_seconds
        merged.shard_loads = self.shard_loads()
        return merged

    @synchronized
    def max_retained_state(self) -> int:
        self._require_backend()
        retained = self.backend.max_retained_state()
        if self._forward is not None:
            retained = max(retained, self._forward.max_retained_state())
        return retained

    # ------------------------------------------------------------------
    # Workload mutations
    # ------------------------------------------------------------------
    @staticmethod
    def _merge_mode(query: Query, scope: str) -> str:
        if scope == "per_key":
            return "concat"
        if scope == "global":
            return "partial" if query.aggregate.mergeable else "forward"
        raise ExecutionError(
            f"unknown scope {scope!r}; expected 'per_key' or 'global'"
        )

    @synchronized
    def register(
        self, query: "str | Query", name: str = "", scope: str = "per_key"
    ) -> str:
        """Register one query on every shard at the same safe
        watermark; returns its name.

        ``scope="global"`` merges across all keys at the coordinator:
        vectorized partial ``combine`` for distributive/algebraic
        aggregates, raw forwarding for holistic ones."""
        self._require_open()
        query = resolve_registration_query(query, name, self._next_auto_name)
        if query.name in self._queries:
            raise ExecutionError(
                f"query name {query.name!r} is already registered"
            )
        mode = self._merge_mode(query, scope)
        previous = self._modes.get(query.name)
        if previous is not None and (previous == "forward") != (
            mode == "forward"
        ):
            raise ExecutionError(
                f"name {query.name!r} was previously registered with an "
                "incompatible scope; its archive lives on a different "
                "core set — pick a fresh name"
            )
        at = self._safe_watermark()
        self._sync(at)
        if mode == "forward":
            self._ensure_forward_core(at).register(
                query, at=at, scope="per_key"
            )
            self._forward_names.add(query.name)
        else:
            self.backend.register(
                query, at, "per_key" if mode == "concat" else "global"
            )
        self._queries[query.name] = (query, mode)
        self._note_mode(query.name, mode)
        self._generation += 1
        self._refresh_chunk_ticks()
        return query.name

    def _note_mode(self, name: str, mode: str) -> None:
        """Remember which core set a name's results live on — bounded.

        The map only exists to protect *archived* results from a
        cross-core-set name collision, and the archives themselves are
        capped (:data:`~repro.runtime.core.RETIRED_RESULT_CAP` per
        core), so this memory is capped to the same budget: oldest
        non-live names age out along with the archives they guarded."""
        self._modes.pop(name, None)
        self._modes[name] = mode
        while len(self._modes) > RETIRED_RESULT_CAP:
            stale = next(
                (n for n in self._modes if n not in self._queries), None
            )
            if stale is None:
                break
            self._modes.pop(stale)

    @synchronized
    def deregister(self, name: str) -> None:
        """Remove one query from every shard at the same safe
        watermark.  Its emitted results stay readable (within the
        retention cap)."""
        self._require_open()
        entry = self._queries.pop(name, None)
        if entry is None:
            raise ExecutionError(f"no registered query named {name!r}")
        _, mode = entry
        at = self._safe_watermark()
        self._sync(at)
        if mode == "forward":
            self._forward.deregister(name, at=at)
            self._forward_names.discard(name)
        else:
            self.backend.deregister(name, at)
        self._generation += 1
        self._refresh_chunk_ticks()

    def _ensure_forward_core(self, at: int) -> SessionCore:
        if self._forward is None:
            self._forward = SessionCore(
                num_keys=1,
                chunk_ticks=self._fixed_chunk,
                event_rate=self._event_rate,
            )
            if at > 0:
                self._forward.advance_to(at)
        return self._forward

    def _refresh_chunk_ticks(self) -> None:
        if self._fixed_chunk is not None:
            return
        ranges = [
            w.range
            for query, _ in self._queries.values()
            for w in query.windows
        ]
        self._chunk_ticks = max(ranges, default=1)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _buffer_run(self, ts, keys, values, ends) -> None:
        # One gather of the run's slots feeds both the load counters and
        # the split: a shard's share is its slots' counts, so a shard
        # that owns the whole run takes it as it is, and only a run the
        # shards share is masked apart.  The loads step at every chunk
        # end by the events delivered since the one before, whatever
        # run boundaries those events crossed.
        partitioner = self.partitioner
        slots = partitioner.slot_of_key[keys]
        counts = np.bincount(slots, minlength=self.num_slots)
        shares = np.bincount(
            partitioner.slot_map, weights=counts, minlength=self.num_shards
        )
        for lo, end in zip((0, *ends), ends):
            part = np.bincount(slots[lo:end], minlength=self.num_slots)
            counts -= part
            self._slot_pending += part
            self._slot_events += self._slot_pending
            self._slot_events *= LOAD_DECAY
            self._slot_pending[:] = 0
        self._slot_pending += counts
        if not ts.size:
            return
        local = partitioner.local_id[keys]
        owner = None
        for slot, shard in enumerate(self.active_shards):
            if shares[shard] == ts.size:
                self._array_buf[slot].append((ts, local, values))
            elif shares[shard]:
                if owner is None:
                    owner = partitioner.slot_map[slots]
                idx = np.flatnonzero(owner == shard)
                self._array_buf[slot].append(
                    (ts[idx], local[idx], values[idx])
                )
        if self._forward_names:
            self._fwd_arrays.append((ts, values))

    def _feed_buffers(self) -> None:
        # Ship per-shard runs as they are, never concatenating: the
        # shard core absorbs each in place, in order, and exact pane
        # folds make that the same bits as one concatenated block.
        slices = self._array_buf
        self._array_buf = [[] for _ in self.active_shards]
        self.backend.feed(slices)
        if self._forward is not None:
            for ts, values in self._fwd_arrays:
                self._forward.buffer_arrays(
                    ts, np.zeros(ts.size, dtype=np.int64), values
                )
            self._fwd_arrays = []

    def _deliver(self, to_watermark: int) -> None:
        started = time.perf_counter()
        self._feed_buffers()
        self.backend.advance(to_watermark)
        if self._forward is not None:
            self._forward.advance_to(to_watermark)
        self.wall_seconds += time.perf_counter() - started

    def _apply_rate(self, rate: int) -> None:
        # Re-pricing alone moves no operator, so it moves no clock:
        # only a rate that changes some group's plan is a mutation
        # (invariant 9).  Every core re-prices; lockstep makes them
        # agree on whether anything changed.
        self._event_rate = rate
        changed = self.backend.reprice(rate)
        if self._forward is not None:
            changed = self._forward.reprice(rate) or changed
        if not changed:
            return
        at = self._safe_watermark()
        self._sync(at)
        self.backend.switch(at)
        if self._forward is not None:
            self._forward.switch_plans(at=at)
        self._generation += 1

    # ------------------------------------------------------------------
    # Elastic sharding (DESIGN.md §12): slot migration, split, merge
    # ------------------------------------------------------------------
    @property
    def slot_map(self) -> np.ndarray:
        """The live slot → shard map (a copy)."""
        return self.partitioner.slot_map.copy()

    def _loads(self) -> np.ndarray:
        """Decayed per-slot event loads: the counters stepped at every
        chunk end, plus the events taken in since the last one — staged
        or buffered alike, so the value is the same whatever call
        granularity brought them."""
        staged = np.asarray(self._staged[1], dtype=np.int64)
        return self._slot_events + (self._slot_pending + np.bincount(
            self.partitioner.slot_of_key[staged], minlength=self.num_slots
        ))

    @synchronized
    def slot_loads(self) -> "tuple[np.ndarray, np.ndarray]":
        """Decayed per-slot ``(events, bytes)`` load counters."""
        loads = self._loads()
        return loads, loads * EVENT_BYTES

    @synchronized
    def shard_loads(self) -> "dict[int, dict[str, float]]":
        """Decayed per-shard load totals, folded over the slot map:
        ``{shard: {"events", "bytes", "slots", "keys"}}`` — the skew
        signal :meth:`rebalance` acts on."""
        slot_map = self.partitioner.slot_map
        events = np.bincount(
            slot_map, weights=self._loads(), minlength=self.num_shards
        )
        slots = np.bincount(slot_map, minlength=self.num_shards)
        return {
            shard: {
                "events": float(events[shard]),
                "bytes": float(events[shard]) * EVENT_BYTES,
                "slots": int(slots[shard]),
                "keys": int(self.partitioner.owned[shard].size),
            }
            for shard in range(self.num_shards)
        }

    @synchronized
    def move_slots(self, slots, dest: int) -> None:
        """Migrate virtual slots to shard ``dest`` at a safe watermark.

        ``dest`` may be ``num_shards`` to grow the shard count by one
        (an explicit split).  The transplant runs as a stream barrier:
        every shard drains to the same watermark, the moving slots'
        per-key state ships core-to-core, and the slot map flips
        atomically — results stay bit-identical to a run that never
        moved anything (extended invariant 10)."""
        self._require_open()
        slot_map = self.partitioner.slot_map.copy()
        slots = np.atleast_1d(np.asarray(slots, dtype=np.int64))
        if slots.size == 0:
            return
        if int(slots.min()) < 0 or int(slots.max()) >= self.num_slots:
            raise ExecutionError(
                f"slot ids must lie in [0, {self.num_slots})"
            )
        if not 0 <= dest <= self.num_shards:
            raise ExecutionError(
                f"destination shard {dest} outside [0, {self.num_shards}] "
                "(num_shards grows by at most one per move)"
            )
        slot_map[slots] = dest
        self._apply_slot_map(slot_map, max(self.num_shards, dest + 1))

    @synchronized
    def rebalance(self, max_moves: "int | None" = None) -> int:
        """Greedy hot-slot migration: repeatedly move the hottest
        movable slot of the most loaded shard to the least loaded one,
        while that strictly shrinks the hot/cold load gap.  Returns the
        number of slots moved (0 when already balanced — one shard, or
        the single-hot-key case, where no slot move can help)."""
        self._require_open()
        load = self._loads()
        new_map = self.partitioner.slot_map.copy()
        limit = 8 if max_moves is None else int(max_moves)
        moved = 0
        while moved < limit:
            shard_load = np.bincount(
                new_map, weights=load, minlength=self.num_shards
            )
            hot = int(np.argmax(shard_load))
            cold = int(np.argmin(shard_load))
            gap = float(shard_load[hot] - shard_load[cold])
            if gap <= 0.0:
                break
            candidates = np.flatnonzero(new_map == hot)
            # Largest slot whose move strictly improves the gap: after
            # moving s, the new gap is |gap - 2*load[s]| < gap iff
            # 0 < load[s] < gap.
            candidates = candidates[
                (load[candidates] > 0.0) & (load[candidates] < gap)
            ]
            if candidates.size == 0:
                break
            order = np.argsort(-load[candidates], kind="stable")
            new_map[int(candidates[order[0]])] = cold
            moved += 1
        if moved:
            self._apply_slot_map(new_map, self.num_shards)
        return moved

    @synchronized
    def split_shard(self, source: "int | None" = None) -> int:
        """Grow the shard count by one: spawn a sibling worker and move
        half of ``source``'s slots (alternating by load, so the split
        halves the observed traffic) onto it.  ``source`` defaults to
        the most loaded shard.  Returns the new shard id."""
        self._require_open()
        slot_map = self.partitioner.slot_map.copy()
        load = self._loads()
        if source is None:
            shard_load = np.bincount(
                slot_map, weights=load, minlength=self.num_shards
            )
            counts = np.bincount(slot_map, minlength=self.num_shards)
            source = max(
                range(self.num_shards),
                key=lambda s: (shard_load[s], counts[s], -s),
            )
        if not 0 <= source < self.num_shards:
            raise ExecutionError(
                f"source shard {source} outside [0, {self.num_shards})"
            )
        slots = np.flatnonzero(slot_map == source)
        if slots.size < 2:
            raise ExecutionError(
                f"shard {source} owns {slots.size} slot(s) — nothing "
                "to split"
            )
        new_shard = self.num_shards
        order = slots[np.argsort(-load[slots], kind="stable")]
        slot_map[order[1::2]] = new_shard
        self._apply_slot_map(slot_map, new_shard + 1)
        return new_shard

    @synchronized
    def merge_shard(self, shard: int, into: "int | None" = None) -> int:
        """Shrink the live worker count: move every slot of ``shard``
        onto ``into`` (default: the least loaded other shard) and
        retire ``shard``'s core, folding its cross-key residue into a
        survivor.  Merging the highest shard id also shrinks
        ``num_shards``; merging a middle id leaves that id inactive
        (ids are never renumbered — key hashes must stay stable).
        Returns the absorbing shard id."""
        self._require_open()
        slot_map = self.partitioner.slot_map.copy()
        if self.num_shards < 2:
            raise ExecutionError("cannot merge the only shard")
        if not 0 <= shard < self.num_shards:
            raise ExecutionError(
                f"shard {shard} outside [0, {self.num_shards})"
            )
        if into is None:
            shard_load = np.bincount(
                slot_map, weights=self._loads(),
                minlength=self.num_shards,
            )
            into = min(
                (s for s in range(self.num_shards) if s != shard),
                key=lambda s: (shard_load[s], s),
            )
        if not 0 <= into < self.num_shards or into == shard:
            raise ExecutionError(
                f"cannot merge shard {shard} into {into}"
            )
        slot_map[slot_map == shard] = into
        num_shards = self.num_shards
        while num_shards > 1 and not np.any(slot_map == num_shards - 1):
            num_shards -= 1
        self._apply_slot_map(slot_map, num_shards)
        return into

    def _shard_config(
        self, shard: int, partitioner: "KeyPartitioner | None" = None
    ) -> ShardConfig:
        return ShardConfig(
            shard=shard,
            key_ids=(partitioner or self.partitioner).owned[shard],
            chunk_ticks=self._fixed_chunk,
            event_rate=self._event_rate,
        )

    def _apply_slot_map(self, slot_map, num_shards: int) -> None:
        """Atomically migrate to a new slot → shard map at a barrier.

        The migration plan is a pure function of the (old, new)
        partitioner pair, built from the five backend migration ops:
        per-(source, destination) key extracts, sibling spawns for
        newly active shards, ordered absorbs, and descending-slot
        retires with remnant folds.  On worker backends with recovery
        armed, the plan runs inside a migration epoch: a crash rolls
        every worker back to the pre-plan snapshot and the whole plan
        is redone, so a migration is all-or-nothing (invariant 12
        meets invariant 10)."""
        old = self.partitioner
        slot_map = np.asarray(slot_map, dtype=np.int64)
        new = old.with_slot_map(slot_map, num_shards)
        old_active = list(self.active_shards)
        new_active = {
            shard for shard in range(num_shards) if new.owned[shard].size
        }
        survivors = [s for s in old_active if s in new_active]
        spawned = sorted(s for s in new_active if s not in old_active)
        retiring = [s for s in old_active if s not in new_active]
        if np.array_equal(new.shard_of, old.shard_of) and not spawned:
            # Pure relabel of keyless slots: no state moves, no
            # barrier — and the ingest buffers (indexed by unchanged
            # backend slots) stay untouched.
            self.partitioner = new
            self.num_shards = num_shards
            return
        at = self._safe_watermark()
        self._sync(at)

        def plan() -> None:
            backend = self.backend
            slot_of = {shard: i for i, shard in enumerate(old_active)}
            owned_now = {}
            moves: "list[tuple[int, object, np.ndarray]]" = []
            for src in old_active:
                mine = old.owned[src]
                dest_of = new.shard_of[mine]
                for dst in np.flatnonzero(
                    np.bincount(dest_of[dest_of != src])
                ):
                    going = dest_of == dst
                    bundle = backend.migrate_extract(
                        slot_of[src], np.flatnonzero(going)
                    )
                    moves.append((int(dst), bundle, mine[going]))
                    mine, dest_of = mine[~going], dest_of[~going]
                owned_now[src] = mine
            # Spawn before any retire, so backend slot 0 (the donor)
            # is always a live original.
            next_slot = len(old_active)
            for dst in spawned:
                backend.spawn_sibling(0, self._shard_config(dst, new))
                slot_of[dst] = next_slot
                next_slot += 1
                owned_now[dst] = np.empty(0, dtype=np.int64)
            for dst, bundle, keys in moves:
                combined = np.sort(np.concatenate((owned_now[dst], keys)))
                positions = np.searchsorted(combined, keys)
                backend.migrate_absorb(slot_of[dst], bundle, positions)
                owned_now[dst] = combined
            # Retire emptied shards in descending backend-slot order
            # (removals never shift a slot still to be visited), then
            # fold their remnants into the first slot of the final
            # layout.
            remnants = [
                backend.retire_shard(slot_of[src])
                for src in sorted(retiring, key=lambda s: -slot_of[s])
            ]
            for remnant in remnants:
                backend.absorb_remnant(0, remnant)

        self._run_migration(plan)
        self.partitioner = new
        self.num_shards = num_shards
        self.active_shards = survivors + spawned
        self._array_buf = [[] for _ in self.active_shards]

    def _run_migration(self, plan) -> None:
        backend = self.backend
        if backend.recovery_armed:
            backend.migration_epoch_begin()
            try:
                plan()
                # epoch_end's snapshot is inside the protected region:
                # a worker that acked its migration op but died before
                # this snapshot lands must roll the epoch back too —
                # per-slot replay would resurrect its pre-plan state.
                backend.migration_epoch_end()
            except _MigrationDisrupted:
                # Roll every worker back to the pre-plan snapshot and
                # redo the plan from scratch.  A second disruption
                # escapes as an ordinary ExecutionError.
                backend.migration_rollback()
                plan()
                backend.migration_epoch_end()
        else:
            plan()

    # ------------------------------------------------------------------
    # Durability (DESIGN.md §9, invariant 12) and termination: the
    # front door's hooks (see SessionFrontDoor)
    # ------------------------------------------------------------------
    #: The coordinator's durable fields, named once: ``_capture``
    #: reads exactly these and ``_adopt`` writes them back.  (The
    #: partitioner travels as its slot map — migrations mutate it and
    #: the backend slot order in ``active_shards``, so a restore
    #: replays both verbatim.  The clock itself travels in the front
    #: door's frame.)
    _DURABLE = (
        "num_keys",
        "num_shards",
        "active_shards",
        "_slot_events",
        "_slot_pending",
        "_fixed_chunk",
        "_event_rate",
        "_queries",
        "_modes",
        "_forward",
        "_forward_names",
        "_generation",
        "wall_seconds",
    )

    def _capture(self) -> dict:
        self._require_backend()
        if not self._closed:
            # Ship the buffered partial chunk down to the shard cores
            # WITHOUT advancing the watermark: the cores then hold the
            # full event prefix at the coordinator's clock, so the cut
            # is consistent while the stream's flush positions — and
            # therefore its results — stay bit-identical to a run that
            # never snapshotted (results must not depend on checkpoint
            # cadence; invariant 10 meets invariant 12).
            self._feed_buffers()
        # The snapshot op rides the same FIFO as the data plane (pipe
        # ordering on process, drain-ring-before-control on shm), so
        # each worker serializes its core at exactly this stream
        # position — one consistent cut, no lockstep pause.
        return {
            "coordinator": {
                name: getattr(self, name) for name in self._DURABLE
            },
            "slot_map": self.partitioner.slot_map,
            "shards": self.backend.snapshot(),
        }

    def _adopt(
        self,
        state: dict,
        backend: "str | object" = "serial",
        fault_plan=None,
        worker_recovery: bool = False,
        control_timeout: "float | None" = DEFAULT_CONTROL_TIMEOUT,
    ) -> None:
        """The shard *layout* — slot map and backend slot order,
        however many migrations produced it — is restored verbatim;
        where it runs is an override (snapshot on shm, restore on
        serial for a post-mortem, or the reverse)."""
        for name in self._DURABLE:
            setattr(self, name, state["coordinator"][name])
        self.partitioner = KeyPartitioner(
            self.num_keys, self.num_shards, slot_map=state["slot_map"]
        )
        self._start_backend(
            backend, fault_plan, worker_recovery, control_timeout
        )
        self.backend.restore(state["shards"])

    def _collect(self, drain: bool):
        self._require_backend()
        started = time.perf_counter()
        reports = self.backend.collect(drain)
        owners = np.bincount(
            np.concatenate([report.key_ids for report in reports]),
            minlength=self.num_keys,
        )
        if owners.size != self.num_keys or np.any(owners != 1):
            raise ExecutionError(
                "shard cores' key sets do not partition the key space"
            )
        out: dict[str, dict[Window, WindowResults]] = {}
        # Lockstep cores hold identical subscription tables, so the
        # first report names every slot.
        for name in sorted(reports[0].results):
            out[name] = {
                window: self._scatter(name, window, reports)
                for window in reports[0].results[name]
            }
        for name, window in sorted(reports[0].partials):
            parts = [report.partials[(name, window)] for report in reports]
            aggregate = get_aggregate(parts[0].aggregate)
            out.setdefault(name, {})[window] = finalize_partials(
                aggregate, parts
            )
        if self._forward is not None:
            forwarded = self._forward.report(drain=drain)
            for name, by_window in forwarded.results.items():
                for window, result in by_window.items():
                    out.setdefault(name, {})[window] = result
        self.wall_seconds += time.perf_counter() - started
        return out

    def _scatter(
        self, name: str, window: Window, reports: "list[ShardReport]"
    ) -> WindowResults:
        """Disjoint-key concatenation: place every core's segments in
        the global key space by their key labels (no arithmetic).

        Closed rows stay on the core that emitted them (DESIGN.md
        §12), so one key's instances may arrive from several cores.
        Walking the segments in instance order, each must start exactly
        where its keys' previous one ended, and every key must end at
        the frontier: each (key, instance) cell is written once, or
        this raises.  A window no migration has sealed rows of is one
        whole-range block per core, and the cores' key sets partition
        the key space (:meth:`_collect` checks that once per read), so
        each block is placed without the walk."""
        first = reports[0].results[name][window]
        start, frontier = first.start_instance, first.frontier
        segments = []
        for report in reports:
            part = report.results[name][window]
            open_lo = part.frontier - part.values.shape[1]
            segments.append((report.key_ids, open_lo, part.values))
            segments.extend(report.sealed[(name, window)])
        values = np.empty((self.num_keys, frontier - start), dtype=np.float64)
        if len(segments) == len(reports) and all(
            lo == start and rows.shape[1] == values.shape[1]
            for _, lo, rows in segments
        ):
            for key_ids, _, rows in segments:
                values[key_ids] = rows
        else:
            covered = np.full(self.num_keys, start, dtype=np.int64)
            for key_ids, lo, rows in sorted(segments, key=lambda seg: seg[1]):
                hi = lo + rows.shape[1]
                if np.any(covered[key_ids] != lo):
                    raise ExecutionError(
                        f"{name}/{window}: shard segment [{lo}, {hi}) "
                        "overlaps or leaves a gap after its keys' earlier "
                        "rows"
                    )
                values[key_ids, lo - start : hi - start] = rows
                covered[key_ids] = hi
            if np.any(covered != frontier):
                raise ExecutionError(
                    f"{name}/{window}: shard segments do not cover "
                    f"[{start}, {frontier}) for every key"
                )
        return WindowResults(
            query=first.query,
            window=first.window,
            start_instance=start,
            frontier=frontier,
            values=values,
        )

    def close(self) -> None:
        """Shut the backend down (worker processes exit).  The session
        accepts no further calls — results must be read before
        closing.  In async mode the pump is stopped first (queued
        events are still applied, so nothing in flight is lost).

        Robust to crashed workers: the backend teardown always runs —
        bounded join with terminate → kill escalation, shared-memory
        segments unlinked on every path — even when the pump raises a
        parked ingest error (drain-or-raise: events the pump could not
        apply surface here as an :class:`~repro.errors.ExecutionError`
        with an exact discarded count, never silently dropped)."""
        if self._released:
            return
        try:
            self._stop_pump()
        finally:
            self._released = True
            self._closed = True
            self.backend.close()

    def _require_backend(self) -> None:
        if self._released:
            raise ExecutionError(
                "session is closed: shard backends are shut down and "
                "their results are no longer reachable — read results "
                "before close()"
            )

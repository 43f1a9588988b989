""":class:`QuerySession` — the long-lived multi-query runtime.

A session ingests one unbounded, possibly out-of-order event stream
and serves a *changing* set of registered window-aggregate queries:

* events enter through a :class:`~repro.engine.outoforder.ReorderBuffer`
  (bounded lateness, drop-late policy) and are executed on the
  ``streaming-chunked`` operator family in watermark blocks;
* :meth:`QuerySession.register` / :meth:`QuerySession.deregister`
  mutate the workload at any watermark; only the affected (aggregate,
  semantics) group is re-optimized
  (:class:`~repro.core.multiquery.IncrementalWorkload`);
* a :class:`~repro.core.adaptive.RateController` watches the live
  event rate and re-prices every group when the drift beats its
  hysteresis — the paper's §VI future work, wired into a real loop.

The execution machinery itself lives in
:class:`~repro.runtime.core.SessionCore` — the embeddable single-shard
engine this class merely feeds.  ``QuerySession`` is exactly "one core
behind one reorder buffer"; the key-sharded runtime
(:class:`~repro.runtime.sharding.ShardedSession`) feeds N of the same
cores from one coordinator and must therefore behave identically at
any shard count (DESIGN.md invariants 9 and 10).

Plan switches are **watermark-safe** (DESIGN.md §6, invariant 9).  At
a switch the session synchronizes to a safe watermark ``T`` (absorbing
at most the currently-buffered partial chunk), then builds the new
generation of operators:

* operators whose (type, window, aggregate, provider) shape survives
  **adopt** the old operator's state wholesale via the engine's
  handoff protocol — history is never recomputed;
* operators whose shape changed start **fresh** at an aligned
  instance;
* the displaced old operators **drain**: capped at the fresh
  operator's start instance, they finish exactly the straddling
  instances they alone hold state for, and retire.

Per window the emitted instance ranges of draining and fresh operators
are disjoint and contiguous, so the result stream a subscription sees
is bit-identical to a cold run of the final workload — never a wrong,
missing, or duplicate instance.
"""

from __future__ import annotations

import pickle

from ..aggregates.registry import get_aggregate
from ..core.adaptive import RateController
from ..core.multiquery import GroupKey, Query
from ..engine.events import event_columns
from ..engine.outoforder import ReorderBuffer
from ..engine.stats import ExecutionStats
from ..errors import ExecutionError
from ..windows.window import Window
from .checkpoint import (
    CheckpointStore,
    Snapshot,
    read_checkpoint,
    require_cadence,
    write_checkpoint,
)
from .core import (
    DEFAULT_RETIRED_RESULT_CAP,
    EpochRateObserver,
    SessionCore,
    resolve_registration_query,
)
from .ingest import (
    DEFAULT_INGEST_HIGH_WATERMARK,
    AsyncIngestFrontDoor,
    IngestPump,
)
from .results import (
    PlanSwitchRecord,
    WindowResults,
    finalize_partials,
)

__all__ = ["PlanSwitchRecord", "QuerySession", "WindowResults"]


class QuerySession(AsyncIngestFrontDoor):
    """A long-lived runtime over one unbounded, out-of-order stream.

    Parameters
    ----------
    num_keys:
        Dense key-id space of the stream (fixed per session).
    max_lateness:
        Reorder-buffer bound: an event may trail the maximum seen
        timestamp by up to this many ticks; later ones are dropped
        (and counted — see :attr:`reorder_stats`).
    chunk_ticks:
        Watermark-block width.  Default: the largest registered window
        range, recomputed at every switch.
    event_rate / hysteresis / alpha:
        Initial cost-model rate and the live re-planning policy
        (:class:`~repro.core.adaptive.RateController`).  ``hysteresis=
        None`` disables rate-driven re-planning.
    max_retired_results:
        Retention cap on deregistered queries' archived results
        (``None`` = unbounded); evictions are counted exactly.
    async_ingest / ingest_high_watermark / ingest_low_watermark:
        ``async_ingest=True`` puts a bounded queue and a background
        pump thread in front of the synchronous ingest path
        (:mod:`repro.runtime.ingest`, DESIGN.md §8): ``push`` returns
        without waiting for flushes, blocking only while the backlog
        sits at ``ingest_high_watermark`` events (until drained to
        ``ingest_low_watermark``).  Workload mutations and result
        reads become synchronization points; emitted results are
        bit-identical to sync mode (invariant 11).  Close the session
        (or ``finish`` it) to stop the pump thread.
    auto_checkpoint / checkpoint_meta / on_checkpoint:
        In-session checkpoint cadence (DESIGN.md §9): pass a
        :class:`~repro.runtime.checkpoint.CheckpointStore` constructed
        with ``every=<ticks>`` and the session saves a rotating
        checkpoint whenever a push advances the watermark past the
        cadence — the same code path the CLI and the session service
        use, so neither reimplements it.  ``checkpoint_meta`` is an
        optional zero-argument callable producing the ``meta`` dict
        stored in each checkpoint (called at save time);
        ``on_checkpoint`` is an optional ``(snapshot, path)`` callback
        fired after each save (the service supervisor truncates its
        replay tail there).
    """

    def __init__(
        self,
        num_keys: int = 1,
        max_lateness: int = 0,
        chunk_ticks: "int | None" = None,
        event_rate: int = 1,
        hysteresis: "float | None" = 0.25,
        alpha: float = 0.3,
        enable_factor_windows: bool = True,
        max_retired_results: "int | None" = DEFAULT_RETIRED_RESULT_CAP,
        async_ingest: bool = False,
        ingest_high_watermark: int = DEFAULT_INGEST_HIGH_WATERMARK,
        ingest_low_watermark: "int | None" = None,
        auto_checkpoint: "CheckpointStore | None" = None,
        checkpoint_meta=None,
        on_checkpoint=None,
    ):
        self._core = SessionCore(
            num_keys=num_keys,
            chunk_ticks=chunk_ticks,
            event_rate=event_rate,
            enable_factor_windows=enable_factor_windows,
            max_retired_results=max_retired_results,
            on_flush=self._on_flush,
        )
        self.num_keys = num_keys
        self.controller = (
            None
            if hysteresis is None
            else RateController(
                hysteresis=hysteresis, alpha=alpha, initial_rate=event_rate
            )
        )
        self._reorder = ReorderBuffer(max_lateness)
        self._rate_observer = EpochRateObserver(self.controller)
        self._auto_names = 0
        self._auto_store = require_cadence(auto_checkpoint)
        self._checkpoint_meta = checkpoint_meta
        self._on_checkpoint = on_checkpoint
        self._pump = (
            IngestPump(
                push=self._push_now,
                high_watermark=ingest_high_watermark,
                low_watermark=ingest_low_watermark,
            )
            if async_ingest
            else None
        )

    # ------------------------------------------------------------------
    # Introspection (delegated to the core)
    # ------------------------------------------------------------------
    @property
    def core(self) -> SessionCore:
        """The embedded single-shard engine."""
        return self._core

    @property
    def watermark(self) -> int:
        """The operators' frontier: instances ending at or before this
        are final and emitted."""
        return self._core.watermark

    @property
    def queries(self) -> tuple[str, ...]:
        return self._core.queries

    @property
    def reorder_stats(self):
        return self._reorder.stats

    @property
    def generation(self) -> int:
        return self._core.generation

    @property
    def workload(self):
        return self._core.workload

    @property
    def switches(self) -> "list[PlanSwitchRecord]":
        return self._via_pump(list, self._core.switches)

    @property
    def wall_seconds(self) -> float:
        return self._core.wall_seconds

    @property
    def retired_results_evicted(self) -> int:
        """Retired subscriptions evicted by the retention cap (exact)."""
        return self._core.retired_results_evicted

    @property
    def retired_instances_evicted(self) -> int:
        """Result instances dropped with those evictions (exact)."""
        return self._core.retired_instances_evicted

    @property
    def _groups(self):
        return self._core._groups

    def stats(self) -> ExecutionStats:
        """Merged execution counters across all groups (in async mode,
        a synchronization point — the snapshot is consistent with the
        command stream)."""
        return self._via_pump(self._core.stats)

    def group_stats(self) -> "dict[GroupKey, ExecutionStats]":
        return self._via_pump(self._core.group_stats)

    def max_retained_state(self) -> int:
        """Largest per-operator buffered-state high-water mark."""
        return self._via_pump(self._core.max_retained_state)

    # ------------------------------------------------------------------
    # Workload mutations
    # ------------------------------------------------------------------
    def _next_auto_name(self) -> str:
        self._auto_names += 1
        return f"q{self._auto_names}"

    def _safe_watermark(self) -> int:
        return max(self._core.watermark, self._reorder.watermark, 0)

    def register(
        self, query: "str | Query", name: str = "", scope: str = "per_key"
    ) -> str:
        """Register one query (SQL text or a workload query) at the
        current watermark; returns its name.

        ``scope="global"`` aggregates across *all* keys into a single
        result row (mergeable aggregates only; a
        :class:`~repro.runtime.sharding.ShardedSession` additionally
        raw-forwards holistic global queries)."""
        return self._via_pump(self._register_now, query, name, scope)

    def _register_now(
        self, query: "str | Query", name: str, scope: str
    ) -> str:
        query = resolve_registration_query(query, name, self._next_auto_name)
        self._core.register(query, at=self._safe_watermark(), scope=scope)
        return query.name

    def deregister(self, name: str) -> None:
        """Remove one query at the current watermark.  Its emitted
        results stay readable (within the retention cap); its windows
        stop being computed unless another query (or the optimizer)
        still needs them."""
        self._via_pump(self._deregister_now, name)

    def _deregister_now(self, name: str) -> None:
        self._core.deregister(name, at=self._safe_watermark())

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def push(self, ts: int, key: int, value: float) -> None:
        """Ingest one (possibly out-of-order) event.

        In async mode this enqueues and returns immediately, blocking
        only under backpressure (see :mod:`repro.runtime.ingest`)."""
        if not self._route_event(ts, key, value):
            self._push_now(ts, key, value)

    def _push_now(self, ts: int, key: int, value: float) -> None:
        self._core._require_open()
        if not 0 <= key < self.num_keys:
            raise ExecutionError(
                f"key {key} outside dense id space [0, {self.num_keys})"
            )
        for event in self._reorder.push(ts, int(key), float(value)):
            self._core.ingest(*event)
        self._end_push()

    def _push_many_now(self, events) -> None:
        self._core._require_open()
        ts, keys, values = event_columns(events, self.num_keys)
        if ts.size:
            self._core.ingest_arrays(
                *self._reorder.push_batch(ts, keys, values)
            )
            self._end_push()

    def _end_push(self) -> None:
        """What every push call — one event or one batch — ends with."""
        # Rate-driven switches are deferred to this point: a switch
        # advances operators up to the reorder watermark, which is only
        # safe once every event the buffer has released is ingested.
        if self._rate_observer.pending_rate is not None:
            rate = self._rate_observer.take_pending()
            self._core.set_event_rate(rate, at=self._safe_watermark())
        self._maybe_auto_checkpoint()

    def _maybe_auto_checkpoint(self) -> None:
        """Cadence-driven checkpointing, inside the ingest path itself:
        fires on the same thread that applies pushes (the pump thread
        in async mode), so every saved cut is prefix-consistent with
        the command stream by construction.  It runs once per push
        call, so a cut never falls inside a ``push_many`` batch."""
        store = self._auto_store
        if store is None or not store.due(self._core.watermark):
            return
        meta = (
            {} if self._checkpoint_meta is None else self._checkpoint_meta()
        )
        snap = self._snapshot_now(meta)
        path = store.save(snap)
        if self._on_checkpoint is not None:
            self._on_checkpoint(snap, path)

    def _on_flush(self, watermark: int, count: int) -> None:
        self._rate_observer.observe_flush(
            watermark,
            count,
            self._core.chunk_ticks,
            bool(len(self._core.workload)),
        )

    # ------------------------------------------------------------------
    # Durability (DESIGN.md §9, invariant 12)
    # ------------------------------------------------------------------
    def snapshot(
        self, path=None, meta: "dict | None" = None
    ) -> Snapshot:
        """Capture the whole session at the current safe watermark.

        The capture is *complete*: the core (operator state, provider
        partials, routing table, retired-result archive, workload +
        plan generation), the reorder buffer, the rate controller, and
        — in async mode — the ingest-queue residue (events enqueued
        but not yet applied).  In async mode the capture runs at its
        position in the command stream, like every synchronization
        point, so it is prefix-consistent with everything pushed
        before it.

        The returned :class:`~repro.runtime.checkpoint.Snapshot` is an
        isolated deep copy — the live session keeps running unaffected.
        With ``path`` it is also written to disk atomically.  Restoring
        it (:meth:`restore`) and replaying the remainder of the stream
        is bit-identical to never having stopped (invariant 12).
        """
        snap = self._via_pump(self._snapshot_now, meta)
        if path is not None:
            write_checkpoint(snap, path)
        return snap

    def _snapshot_now(self, meta: "dict | None") -> Snapshot:
        residue = [] if self._pump is None else self._pump.pending_data()
        graph = {
            "core": self._core,
            "reorder": self._reorder,
            "controller": self.controller,
            "observer": self._rate_observer,
            "auto_names": self._auto_names,
            "num_keys": self.num_keys,
            "residue": residue,
        }
        # One dumps over the whole graph: shared references (the
        # controller inside the observer) survive, and the snapshot is
        # isolated from further mutation of the live session.
        return Snapshot(
            kind="query",
            watermark=self._core.watermark,
            generation=self._core.generation,
            queries=self.queries,
            payload={
                "state": pickle.dumps(
                    graph, protocol=pickle.HIGHEST_PROTOCOL
                )
            },
            meta=dict(meta or {}),
        )

    @classmethod
    def restore(
        cls,
        source,
        async_ingest: bool = False,
        ingest_high_watermark: int = DEFAULT_INGEST_HIGH_WATERMARK,
        ingest_low_watermark: "int | None" = None,
        auto_checkpoint: "CheckpointStore | None" = None,
        checkpoint_meta=None,
        on_checkpoint=None,
    ) -> "QuerySession":
        """Rebuild a session from a :class:`Snapshot` or a checkpoint
        file and resume exactly where it left off.

        The ingest mode is an override, not part of the snapshot —
        invariant 11 makes it observationally invisible, so a session
        snapshotted in async mode may restore in sync mode and vice
        versa.  Captured ingest-queue residue is replayed through the
        restored front door first, so the restored timeline has applied
        exactly the events the original had accepted.  The
        auto-checkpoint knobs mirror the constructor's (cadence state
        lives in the store, not the snapshot — pass the same store to
        keep the cadence rolling).
        """
        snap = source if isinstance(source, Snapshot) else read_checkpoint(source)
        if snap.kind != "query":
            raise ExecutionError(
                f"checkpoint kind {snap.kind!r} does not restore into a "
                "QuerySession (use ShardedSession.restore)"
            )
        graph = pickle.loads(snap.payload["state"])
        self = cls.__new__(cls)
        self._core = graph["core"]
        self.num_keys = graph["num_keys"]
        self.controller = graph["controller"]
        self._reorder = graph["reorder"]
        self._rate_observer = graph["observer"]
        self._auto_names = graph["auto_names"]
        self._auto_store = require_cadence(auto_checkpoint)
        self._checkpoint_meta = checkpoint_meta
        self._on_checkpoint = on_checkpoint
        self._core.on_flush = self._on_flush
        self._pump = (
            IngestPump(
                push=self._push_now,
                high_watermark=ingest_high_watermark,
                low_watermark=ingest_low_watermark,
            )
            if async_ingest
            else None
        )
        for item in graph["residue"]:
            self.push(item[1], item[2], item[3])
        return self

    # ------------------------------------------------------------------
    # Termination and results
    # ------------------------------------------------------------------
    def finish(self, horizon: "int | None" = None):
        """Drain the reorder buffer, close every instance ending at or
        before ``horizon`` (default: last event + 1), and return
        :meth:`results`.  The session accepts no events afterwards (in
        async mode the pump thread is stopped)."""
        results = self._via_pump(self._finish_now, horizon)
        self._stop_pump()
        return results

    def _finish_now(self, horizon: "int | None"):
        self._core._require_open()
        for event in self._reorder.flush():
            self._core.ingest(*event)
        self._core.finish(horizon)
        return self._collect(drain=False)

    def close(self) -> None:
        """Stop the async pump thread (if any).  Unlike
        :meth:`finish`, pending queued events are still applied first;
        results stay readable afterwards."""
        self._stop_pump()

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def results(self) -> "dict[str, dict[Window, WindowResults]]":
        """Per-query, per-window emitted results (live and retired
        subscriptions both included; global-scope queries appear as a
        single finalized row).

        Non-consuming: every call returns everything accumulated since
        each subscription started, so memory grows with emitted
        instances.  Long-lived sessions over unbounded streams should
        poll :meth:`drain_results` instead.
        """
        return self._via_pump(self._collect, False)

    def drain_results(self) -> "dict[str, dict[Window, WindowResults]]":
        """Consume emitted results: return every block accumulated
        since the previous drain and release it (each subscription's
        ``start_instance`` moves to its frontier).  Polling this keeps
        per-subscription memory bounded by the emission rate between
        polls — the service-shaped read path.  Retired subscriptions
        are drained too and dropped once read."""
        return self._via_pump(self._collect, True)

    def _collect(self, drain: bool):
        report = self._core.report(drain=drain)
        out = report.results
        for (name, window), partial in report.partials.items():
            merged = finalize_partials(
                get_aggregate(partial.aggregate), [partial]
            )
            out.setdefault(name, {})[window] = merged
        return out

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

from ..aggregates.registry import get_aggregate
from ..core.multiquery import GroupKey, Query
from ..engine.stats import ExecutionStats
from .checkpoint import CheckpointStore
from .core import (
    DEFAULT_RETIRED_RESULT_CAP,
    SessionCore,
    resolve_registration_query,
)
from .ingest import (
    DEFAULT_INGEST_HIGH_WATERMARK,
    SessionFrontDoor,
    synchronized,
)
from .results import (
    PlanSwitchRecord,
    WindowResults,
    finalize_partials,
)

__all__ = ["PlanSwitchRecord", "QuerySession", "WindowResults"]


class QuerySession(SessionFrontDoor):
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

    kind = "query"
    _wrong_kind = (
        "checkpoint kind {kind!r} does not restore into a "
        "QuerySession (use ShardedSession.restore)"
    )

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
        )
        self.num_keys = num_keys
        self._open_front_door(
            max_lateness, chunk_ticks, event_rate, hysteresis, alpha
        )
        self._attach(
            async_ingest,
            ingest_high_watermark,
            ingest_low_watermark,
            auto_checkpoint,
            checkpoint_meta,
            on_checkpoint,
        )

    # ------------------------------------------------------------------
    # Introspection (delegated to the core)
    # ------------------------------------------------------------------
    @property
    def core(self) -> SessionCore:
        """The embedded single-shard engine."""
        return self._core

    @property
    def queries(self) -> tuple[str, ...]:
        return self._core.queries

    @property
    def generation(self) -> int:
        return self._core.generation

    @property
    def workload(self):
        return self._core.workload

    @property
    @synchronized
    def switches(self) -> "list[PlanSwitchRecord]":
        return list(self._core.switches)

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

    @synchronized
    def stats(self) -> ExecutionStats:
        """Merged execution counters across all groups (in async mode,
        a synchronization point — the snapshot is consistent with the
        command stream)."""
        return self._core.stats()

    @synchronized
    def group_stats(self) -> "dict[GroupKey, ExecutionStats]":
        return self._core.group_stats()

    @synchronized
    def max_retained_state(self) -> int:
        """Largest per-operator buffered-state high-water mark."""
        return self._core.max_retained_state()

    # ------------------------------------------------------------------
    # Workload mutations
    # ------------------------------------------------------------------
    @synchronized
    def register(
        self, query: "str | Query", name: str = "", scope: str = "per_key"
    ) -> str:
        """Register one query (SQL text or a workload query) at the
        current watermark; returns its name.

        ``scope="global"`` aggregates across *all* keys into a single
        result row (mergeable aggregates only; a
        :class:`~repro.runtime.sharding.ShardedSession` additionally
        raw-forwards holistic global queries)."""
        self._require_open()
        query = resolve_registration_query(query, name, self._next_auto_name)
        self._mutate(self._core.register, query, scope=scope)
        return query.name

    @synchronized
    def deregister(self, name: str) -> None:
        """Remove one query at the current watermark.  Its emitted
        results stay readable (within the retention cap); its windows
        stop being computed unless another query (or the optimizer)
        still needs them."""
        self._require_open()
        self._mutate(self._core.deregister, name)

    def _mutate(self, mutation, *args, **kwargs) -> None:
        """One workload mutation on the core, at the safe watermark the
        shared clock has synced to first."""
        at = self._safe_watermark()
        self._sync(at)
        mutation(*args, at=at, **kwargs)
        self._chunk_ticks = self._core.chunk_ticks

    # ------------------------------------------------------------------
    # The front door's hooks (see SessionFrontDoor)
    # ------------------------------------------------------------------
    def _buffer_run(self, ts, keys, values) -> None:
        self._core.buffer_arrays(ts, keys, values)

    def _deliver(self, to_watermark: int) -> None:
        self._core.advance_to(to_watermark)

    def _apply_rate(self, rate: int) -> None:
        # Re-pricing alone moves no operator, so it moves no clock:
        # only a rate that changes a plan is a mutation.
        deltas = self._core.reprice(rate)
        if deltas:
            self._mutate(self._core.switch_plans, deltas)

    def _capture(self) -> SessionCore:
        return self._core

    def _adopt(self, core: SessionCore) -> None:
        self._core = core
        self.num_keys = core.num_keys

    def _collect(self, drain: bool):
        report = self._core.report(drain=drain)
        out = report.results
        for (name, window), partial in report.partials.items():
            merged = finalize_partials(
                get_aggregate(partial.aggregate), [partial]
            )
            out.setdefault(name, {})[window] = merged
        return out

""":class:`SessionCore` — the embeddable single-shard session engine.

The core is everything a live session does *after* its out-of-order
front door: chunked event buffering, one :class:`GroupRuntime` per
(aggregate, semantics) group, watermark-safe plan switching, and
subscription routing.  It deliberately owns **no** reorder buffer and
**no** rate controller — those belong to the coordinator that feeds
it: :class:`~repro.runtime.sharding.ShardedSession` embeds one core
per key shard — in-process (serial backend) or in worker processes
fed over pipes (process backend) or shared-memory rings (shm backend,
DESIGN.md §8) — and drives them all from one clock, which is what
makes shard-count invariance (DESIGN.md invariant 10) provable: every
core sees the same watermark sequence regardless of how keys were
split or shipped.

The core never advances time on its own: ``buffer_arrays`` only
buffers, and only ``advance_to`` (or a mutation's ``at``) moves the
watermark.  Where the watermark advances is decided in exactly one
place — the front door's chunk clock
(:class:`~repro.runtime.ingest.SessionFrontDoor`) — so a coordinator
holds N cores at identical watermarks by construction.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.multiquery import (
    GroupKey,
    IncrementalWorkload,
    Query,
    WorkloadDelta,
)
from ..engine.events import EVENT_BYTES
from ..engine.stats import ExecutionStats
from ..errors import ExecutionError
from ..windows.window import Window
from .group import GroupRuntime
from .results import (
    PartialResults,
    PartialSubscription,
    PlanSwitchRecord,
    Subscription,
    WindowResults,
)

#: Bound on retained *retired* subscriptions per core (the ``name@gN``
#: archive plus plainly-deregistered queries), evicted oldest first;
#: the eviction counters stay exact.
RETIRED_RESULT_CAP = 64

#: The event rate (events per tick) a session prices its plans at
#: before its rate controller has observed any.
INITIAL_EVENT_RATE = 1

#: Result-routing scopes a query can register under.
SCOPES = ("per_key", "global")


@dataclass
class RegisterAck:
    """What one core reports back from a workload mutation.

    A sharding coordinator broadcasts mutations and cross-checks the
    acks: every shard must agree on the generation, the chunk width,
    and each subscription's aligned start instance — they are pure
    functions of the (identical) mutation history, so disagreement
    means a desynced shard, never a tolerable race.
    """

    name: str
    generation: int
    chunk_ticks: int
    watermark: int
    starts: "dict[tuple[str, Window], int]" = field(default_factory=dict)


@dataclass
class ShardReport:
    """One core's emitted results: per-key rows plus cross-key partials.

    Row ``i`` of every ``results`` block is global key ``key_ids[i]``.
    On a core that has been through a migration barrier, ``results``
    holds only the rows emitted since (right-aligned at the frontier);
    the earlier ones are in ``sealed``, as ``(key_ids, first instance,
    values)`` segments.
    """

    results: "dict[str, dict[Window, WindowResults]]"
    partials: "dict[tuple[str, Window], PartialResults]"
    key_ids: np.ndarray
    sealed: "dict[tuple[str, Window], list[tuple]]"


def resolve_registration_query(
    query: "str | Query", name: str, next_auto: Callable[[], str]
) -> Query:
    """Normalize a registration argument (SQL text or a workload
    query) into a named :class:`Query`."""
    if isinstance(query, str):
        from ..sql.compile import compile_registration

        return compile_registration(query, name=name or next_auto())
    if name and name != query.name:
        return Query(
            name=name, windows=query.windows, aggregate=query.aggregate
        )
    return query


class EpochRateObserver:
    """Chunk-sized epoch accounting feeding a rate controller.

    Owned by the session front door, so the replan *timing policy* —
    when an epoch closes, when a drift decision is parked — has exactly
    one implementation, independent of the shard count (DESIGN.md
    invariant 10).

    A due replan is parked in :attr:`pending_rate`, never applied
    inline: a switch advances operators up to the reorder watermark,
    which is only safe once the front door's release iterator has
    fully drained, so the owner applies it at its next push boundary
    via :meth:`take_pending`.
    """

    def __init__(self, controller):
        self.controller = controller
        self.epoch_start = 0
        self.epoch_events = 0
        self.pending_rate: "int | None" = None

    def observe_flush(
        self,
        watermark: int,
        count: int,
        chunk_ticks: int,
        has_queries: bool,
    ) -> None:
        """Account one flush; park a replan decision when the EWMA
        drift beats the controller's hysteresis."""
        self.epoch_events += count
        if watermark - self.epoch_start < chunk_ticks:
            return
        events = self.epoch_events
        ticks = watermark - self.epoch_start
        self.epoch_start = watermark
        self.epoch_events = 0
        if self.controller is None or ticks <= 0:
            return
        rate = self.controller.observe(events, ticks)
        if rate is None or not has_queries:
            return
        self.pending_rate = rate

    def take_pending(self) -> "int | None":
        """Claim the parked replan decision (clears it)."""
        rate, self.pending_rate = self.pending_rate, None
        return rate


class SessionCore:
    """A single-shard live-session engine over pre-ordered input.

    Parameters
    ----------
    num_keys:
        Dense key-id space this core owns (fixed per core).
    chunk_ticks:
        Watermark-block width.  Default: the largest registered window
        range, recomputed at every switch.
    event_rate:
        The rate the embedded
        :class:`~repro.core.multiquery.IncrementalWorkload` prices
        plans at (a coordinator hands a new core its current rate).

    Retired subscriptions are retained up to :data:`RETIRED_RESULT_CAP`;
    evictions are counted exactly in :attr:`retired_results_evicted` /
    :attr:`retired_instances_evicted`.
    """

    def __init__(
        self,
        num_keys: int = 1,
        chunk_ticks: "int | None" = None,
        event_rate: int = INITIAL_EVENT_RATE,
    ):
        if num_keys < 1:
            raise ExecutionError(f"num_keys must be >= 1, got {num_keys}")
        self.num_keys = num_keys
        # Global id of each local key.  A standalone core owns the
        # whole key space; a shard core is handed its slice by
        # ``ShardConfig.build`` and re-labelled at migration barriers.
        self.key_ids = np.arange(num_keys, dtype=np.int64)
        self.workload = IncrementalWorkload(event_rate=event_rate)
        self._fixed_chunk = chunk_ticks
        self._chunk_ticks = chunk_ticks or 1
        # Buffered runs, absorbed in place at the next flush.  A run may
        # be a view over a shared-memory ring slot; views pickle by
        # value, so a core snapshot never captures an aliased page.
        self._buf_chunks: "list[tuple[np.ndarray, np.ndarray, np.ndarray]]" = []
        self._buffered = 0
        self.bytes_copied = 0
        self.copies_elided = 0
        self._watermark = 0
        self._max_event_ts = -1
        self._groups: dict[GroupKey, GroupRuntime] = {}
        self._subs: dict[tuple[str, Window], Subscription] = {}
        self._psubs: dict[tuple[str, Window], PartialSubscription] = {}
        self._retired: "dict[tuple[str, Window], Subscription | PartialSubscription]" = {}
        # Plans a rate reprice changed, held only until the switch
        # that follows it.
        self._repriced: "list[WorkloadDelta]" = []
        self.retired_results_evicted = 0
        self.retired_instances_evicted = 0
        self._seq = 0
        self._closed = False
        self.switches: list[PlanSwitchRecord] = []
        self.wall_seconds = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> int:
        """The operators' frontier: instances ending at or before this
        are final and emitted."""
        return self._watermark

    @property
    def chunk_ticks(self) -> int:
        return self._chunk_ticks

    @property
    def buffered_events(self) -> int:
        """Events buffered but not yet absorbed by a flush — at most
        one chunk's worth in steady state (boundedness introspection
        for the front doors and their tests)."""
        return self._buffered

    @property
    def generation(self) -> int:
        return self.workload.generation

    def stats(self) -> ExecutionStats:
        """Merged execution counters across all groups."""
        merged = ExecutionStats()
        for runtime in self._groups.values():
            merged.merge(runtime.stats)
        merged.wall_seconds = self.wall_seconds
        merged.bytes_copied += self.bytes_copied
        merged.copies_elided += self.copies_elided
        return merged

    def max_retained_state(self) -> int:
        """Largest per-operator buffered-state high-water mark."""
        marks = [rt.max_retained_state() for rt in self._groups.values()]
        return max(marks, default=0)

    # ------------------------------------------------------------------
    # Elastic-shard protocol: key transplant at a barrier (DESIGN.md §12)
    # ------------------------------------------------------------------
    def _require_barrier(self, what: str) -> None:
        if self._buffered:
            raise ExecutionError(
                f"{what} requires a drained core — {self._buffered} "
                "buffered events mean the caller is not at a watermark "
                "barrier"
            )

    def _subs_of(self, kind: type) -> list:
        """``(slot, subscription)`` for every subscription of ``kind``
        (:class:`Subscription` or :class:`PartialSubscription`), live
        then retired."""
        live = self._subs if kind is Subscription else self._psubs
        return list(live.items()) + [
            (slot, sub)
            for slot, sub in self._retired.items()
            if isinstance(sub, kind)
        ]

    def _rekey(self, key_ids: np.ndarray) -> None:
        """Adopt a new owned-key set: every per-key subscription seals
        the rows emitted under the old one."""
        self.key_ids = key_ids
        self.num_keys = int(key_ids.size)
        for _, sub in self._subs_of(Subscription):
            sub.rekey(key_ids)

    def extract_keys(self, local_ids: "np.ndarray | list[int]") -> dict:
        """Remove and export the live per-key state of ``local_ids``.

        ``local_ids`` are sorted local key ids.  Only valid at a
        watermark barrier (no buffered events): live per-key state is
        then exactly the retained operator buffers, bounded by window
        range.  Emitted rows are closed instances and stay here — the
        subscriptions seal them under the current key labels — so the
        bundle's size is independent of how much has been emitted.
        Remaining keys renumber down to rank order in the surviving
        owned-key set.  The bundle is plain picklable data for
        :meth:`absorb_keys` on a lockstep sibling core and carries the
        moved keys' global ids.
        """
        self._require_barrier("extract_keys")
        local_ids = np.asarray(local_ids, dtype=np.int64)
        if local_ids.size == 0:
            raise ExecutionError("extract_keys needs at least one key")
        if local_ids[0] < 0 or local_ids[-1] >= self.num_keys:
            raise ExecutionError(
                f"local ids outside [0, {self.num_keys})"
            )
        groups = [
            (key, [op.extract_keys(local_ids) for op in rt.advance_order])
            for key, rt in self._groups.items()
        ]
        keys = self.key_ids[local_ids]
        self._rekey(np.delete(self.key_ids, local_ids))
        return {
            "watermark": self._watermark,
            "generation": self.generation,
            "keys": keys,
            "groups": groups,
        }

    def absorb_keys(
        self, bundle: dict, positions: "np.ndarray | list[int]"
    ) -> None:
        """Splice an extracted key bundle into this core.

        ``positions`` are the incoming keys' local ids in this core's
        *post-absorb* owned-key ranking.  Both cores must sit at the
        same barrier (equal watermark and generation) — lockstep makes
        their operator structure identical, which every layer below
        re-asserts.
        """
        self._require_barrier("absorb_keys")
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size != bundle["keys"].size:
            raise ExecutionError(
                f"bundle carries {bundle['keys'].size} keys but "
                f"{positions.size} positions given"
            )
        if (
            bundle["watermark"] != self._watermark
            or bundle["generation"] != self.generation
        ):
            raise ExecutionError(
                f"key absorb across barriers: bundle at "
                f"(wm={bundle['watermark']}, gen={bundle['generation']}) "
                f"vs core at (wm={self._watermark}, "
                f"gen={self.generation})"
            )
        num_keys = self.num_keys + int(positions.size)
        if [key for key, _ in bundle["groups"]] != list(self._groups):
            raise ExecutionError("group structure mismatch on key absorb")
        for key, op_states in bundle["groups"]:
            runtime = self._groups[key]
            if len(op_states) != len(runtime.advance_order):
                raise ExecutionError(
                    f"{key[0]}: operator count mismatch on key absorb"
                )
            for op, state in zip(runtime.advance_order, op_states):
                op.absorb_keys(state, positions, num_keys)
        incoming = np.zeros(num_keys, dtype=bool)
        incoming[positions] = True
        key_ids = np.empty(num_keys, dtype=np.int64)
        key_ids[incoming] = bundle["keys"]
        key_ids[~incoming] = self.key_ids
        self._rekey(key_ids)

    def spawn_sibling(self) -> "SessionCore":
        """Clone this core into a fresh, keyless sibling (shard split).

        The sibling inherits the entire workload/plan/generation
        history — which is what keeps every barrier identity
        (operator structure, close cursors, subscription frontiers)
        valid — but starts empty: no emitted rows (the copy maps every
        per-key subscription's buffers to empty lists, so a split
        costs O(live state), not O(history)), per-key operator state
        stripped, cross-key partial blocks neutralized to identity
        components, and all counters zeroed so the merged logical
        stats across cores stay equal to the unsharded run.
        """
        self._require_barrier("spawn_sibling")
        memo: dict = {}
        for _, sub in self._subs_of(Subscription):
            memo[id(sub._blocks)] = []
            memo[id(sub._sealed)] = []
        twin: "SessionCore" = copy.deepcopy(self, memo)
        if twin.num_keys:
            # The donor may already be keyless: a migration plan
            # extracts before it spawns, so a retiring slot-0 shard
            # has had every key moved out by the time it donates.
            twin.extract_keys(np.arange(twin.num_keys, dtype=np.int64))
        for _, psub in twin._subs_of(PartialSubscription):
            psub.neutralize()
        for runtime in twin._groups.values():
            runtime.stats.__init__()
        twin.wall_seconds = 0.0
        twin.bytes_copied = 0
        twin.copies_elided = 0
        twin.retired_results_evicted = 0
        twin.retired_instances_evicted = 0
        return twin

    def extract_remnant(self) -> dict:
        """Export the residue of a retiring (keyless) core.

        After :meth:`extract_keys` moved every owned key out, what
        remains is the sealed per-key rows it emitted while it owned
        keys (labelled by global key id, so any core can hold them),
        the partial-subscription blocks holding closed-instance
        contributions of those keys, and the logical counters.  The
        coordinator folds the remnant into exactly one surviving core,
        so each instance still counts every key once and merged stats
        stay equal to the unsharded run.
        """
        return {
            "watermark": self._watermark,
            "generation": self.generation,
            "subs": [
                [
                    (slot, sub.extract_remnant())
                    for slot, sub in self._subs_of(kind)
                ]
                for kind in (Subscription, PartialSubscription)
            ],
            "group_stats": [
                (key, rt.stats) for key, rt in self._groups.items()
            ],
            "wall_seconds": self.wall_seconds,
            "bytes_copied": self.bytes_copied,
            "copies_elided": self.copies_elided,
            "retired_results_evicted": self.retired_results_evicted,
            "retired_instances_evicted": self.retired_instances_evicted,
        }

    def absorb_remnant(self, remnant: dict) -> None:
        """Fold a retiring core's residue into this core."""
        self._require_barrier("absorb_remnant")
        if (
            remnant["watermark"] != self._watermark
            or remnant["generation"] != self.generation
        ):
            raise ExecutionError(
                "remnant absorb across barriers: "
                f"(wm={remnant['watermark']}, gen={remnant['generation']}) "
                f"vs (wm={self._watermark}, gen={self.generation})"
            )
        for kind, incoming in zip(
            (Subscription, PartialSubscription), remnant["subs"]
        ):
            mine = self._subs_of(kind)
            if [slot for slot, _ in incoming] != [slot for slot, _ in mine]:
                raise ExecutionError(
                    f"{kind.__name__} structure mismatch on remnant absorb"
                )
            for (_, sub), (_, state) in zip(mine, incoming):
                sub.absorb_remnant(state)
        if [key for key, _ in remnant["group_stats"]] != list(self._groups):
            raise ExecutionError("group structure mismatch on remnant absorb")
        for key, stats in remnant["group_stats"]:
            self._groups[key].stats.merge(stats)
        self.wall_seconds += remnant["wall_seconds"]
        self.bytes_copied += remnant["bytes_copied"]
        self.copies_elided += remnant["copies_elided"]
        self.retired_results_evicted += remnant["retired_results_evicted"]
        self.retired_instances_evicted += remnant["retired_instances_evicted"]

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # Workload mutations
    # ------------------------------------------------------------------
    def register(
        self,
        query: Query,
        at: "int | None" = None,
        scope: str = "per_key",
    ) -> RegisterAck:
        """Register one named query at the safe watermark ``at``
        (default: the core's own watermark).

        ``scope="per_key"`` routes finalized per-key blocks to a
        :class:`Subscription`; ``scope="global"`` routes pre-finalize
        component blocks to a :class:`PartialSubscription` (mergeable
        aggregates only — holistic global queries have no partial form
        and must be raw-forwarded to a single-key core instead).
        """
        self._require_open()
        if scope not in SCOPES:
            raise ExecutionError(
                f"unknown scope {scope!r}; expected one of {SCOPES}"
            )
        if scope == "global" and not query.aggregate.mergeable:
            raise ExecutionError(
                f"{query.aggregate.name} is holistic: global scope needs "
                "raw forwarding (a ShardedSession coordinator core), not "
                "partial merging"
            )
        # Re-using a retired query's name must not shadow its archived
        # results: move them to a generation-suffixed name, *in place*
        # — renaming must not rejuvenate the archive's position in the
        # retention cap's oldest-first eviction order.
        if any(key[0] == query.name for key in self._retired):
            archive = f"{query.name}@g{self.workload.generation}"
            renamed: dict = {}
            for key, sub in self._retired.items():
                if key[0] == query.name:
                    sub.query = archive
                    renamed[(archive, key[1])] = sub
                else:
                    renamed[key] = sub
            self._retired = renamed
        delta = self.workload.register(query)
        self._apply_delta(delta, at)
        runtime = self._groups[delta.key]
        routing = delta.group.routing()
        starts: dict[tuple[str, Window], int] = {}
        for window in query.windows:
            target = routing[(query.name, window)]
            op = runtime.ops[target]
            slot = (query.name, window)
            if scope == "per_key":
                sub = Subscription(
                    query.name, window, op.next_close, self.key_ids
                )
                self._subs[slot] = sub
                runtime.subs_by_window.setdefault(target, []).append(sub)
            else:
                psub = PartialSubscription(
                    query.name, window, op.next_close, query.aggregate
                )
                self._psubs[slot] = psub
                runtime.psubs_by_window.setdefault(target, []).append(psub)
            starts[slot] = (
                self._subs[slot].start
                if scope == "per_key"
                else self._psubs[slot].start
            )
        return self._ack(query.name, starts)

    def deregister(self, name: str, at: "int | None" = None) -> RegisterAck:
        """Remove one query at the safe watermark.  Its emitted results
        stay readable (within the retention cap); its windows stop
        being computed unless another query still needs them."""
        self._require_open()
        query = self.workload.queries.get(name)
        if query is None:
            raise ExecutionError(f"no registered query named {name!r}")
        delta = self.workload.deregister(name)
        for window in query.windows:
            slot = (name, window)
            sub = self._subs.pop(slot, None) or self._psubs.pop(slot, None)
            if sub is not None:
                self._archive(slot, sub)
        self._apply_delta(delta, at)
        return self._ack(name, {})

    def reprice(self, event_rate: int) -> bool:
        """Re-price every group at a new rate *without* touching an
        operator; returns whether some group's provider map changed.
        The changed plans wait here for :meth:`switch_plans` — the
        coordinator syncs its clock in between only when there is
        one."""
        self._require_open()
        self._repriced = [
            delta
            for delta in self.workload.set_event_rate(event_rate)
            if delta.provider_change
        ]
        return bool(self._repriced)

    def switch_plans(self, at: "int | None" = None) -> RegisterAck:
        """Switch in the plans the last :meth:`reprice` found changed,
        at the safe watermark ``at``."""
        deltas, self._repriced = self._repriced, []
        for delta in deltas:
            self._apply_delta(delta, at)
        return self._ack("", {})

    def _ack(
        self, name: str, starts: "dict[tuple[str, Window], int]"
    ) -> RegisterAck:
        return RegisterAck(
            name=name,
            generation=self.workload.generation,
            chunk_ticks=self._chunk_ticks,
            watermark=self._watermark,
            starts=starts,
        )

    def _archive(
        self,
        slot: "tuple[str, Window]",
        sub: "Subscription | PartialSubscription",
    ) -> None:
        """Retain a retired subscription within the retention cap,
        evicting oldest-first with exact counters."""
        self._retired[slot] = sub
        while len(self._retired) > RETIRED_RESULT_CAP:
            old_slot = next(iter(self._retired))
            old = self._retired.pop(old_slot)
            self.retired_results_evicted += 1
            self.retired_instances_evicted += old.emitted_instances

    def _apply_delta(self, delta: WorkloadDelta, at: "int | None") -> None:
        started = time.perf_counter()
        self.sync_to(self._watermark if at is None else at)
        key = delta.key
        if delta.retired:
            self._groups.pop(key, None)
            self._record_switch(
                delta, started, adopted=0, fresh=0, draining=0
            )
            return
        runtime = self._groups.get(key)
        if runtime is None:
            runtime = GroupRuntime(key, self)
            self._groups[key] = runtime
        if delta.provider_change:
            adopted, fresh, draining = runtime.rebuild(
                delta.plan, self._watermark
            )
        else:
            adopted, fresh, draining = len(runtime.ops), 0, 0
        self._rescope_subscriptions(runtime)
        self._refresh_chunk_ticks()
        self._record_switch(
            delta, started, adopted=adopted, fresh=fresh, draining=draining
        )

    def _rescope_subscriptions(self, runtime: GroupRuntime) -> None:
        """Re-index this group's subscriptions by operator window."""
        routing = self.workload.routing()
        runtime.subs_by_window = {}
        runtime.psubs_by_window = {}
        for table, out in (
            (self._subs, runtime.subs_by_window),
            (self._psubs, runtime.psubs_by_window),
        ):
            for (name, window), sub in table.items():
                target = routing.get((name, window))
                if target is None or target not in runtime.ops:
                    continue
                if self.workload.group_of(name) != runtime.key:
                    continue
                out.setdefault(target, []).append(sub)

    def _record_switch(
        self, delta: WorkloadDelta, started: float, **counts
    ) -> None:
        self.switches.append(
            PlanSwitchRecord(
                generation=delta.generation,
                reason=delta.reason,
                key=delta.key,
                watermark=self._watermark,
                seconds=time.perf_counter() - started,
                rate=self.workload.event_rate,
                **counts,
            )
        )

    def _refresh_chunk_ticks(self) -> None:
        if self._fixed_chunk is not None:
            return
        ranges = [
            w.range for q in self.workload.queries.values() for w in q.windows
        ]
        self._chunk_ticks = max(ranges, default=1)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def buffer_arrays(
        self, ts: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Buffer a sorted column slice *without* advancing time —
        only the front door's chunk clock may trigger flushes."""
        if ts.size == 0:
            return
        if keys.size and (keys.min() < 0 or keys.max() >= self.num_keys):
            raise ExecutionError(
                f"keys outside dense id space [0, {self.num_keys})"
            )
        self._buf_chunks.append(
            (
                np.asarray(ts, dtype=np.int64),
                np.asarray(keys, dtype=np.int64),
                np.asarray(values, dtype=np.float64),
            )
        )
        self._buffered += int(ts.size)
        last = int(ts[-1])
        if last > self._max_event_ts:
            self._max_event_ts = last

    def localize_buffer(self) -> None:
        """Copy every buffered chunk into freshly owned arrays.

        Zero-copy consumers (the shm shard worker) buffer *views over
        ring slots* and normally release the slots right after a flush
        absorbs them.  When slots must be freed *before* a flush — the
        borrow budget is exhausted, or the ring goes idle with views
        still buffered — this materializes the buffer first so no view
        outlives its slot.  On the steady-state path (flush between
        feeds) this never runs and events reach the operators with
        zero or one copies; localization adds one bounded copy only
        for the events caught by an early release.
        """
        if not self._buf_chunks:
            return
        localized = []
        for ts, keys, values in self._buf_chunks:
            localized.append((np.array(ts), np.array(keys), np.array(values)))
            self.bytes_copied += int(ts.size) * EVENT_BYTES
        self._buf_chunks = localized

    def advance_to(self, watermark: int) -> None:
        """Absorb the buffer and advance every operator to
        ``watermark`` (the coordinator's flush edge)."""
        self._require_open()
        if watermark < self._watermark:
            raise ExecutionError(
                f"cannot advance backwards: watermark {watermark} < "
                f"{self._watermark}"
            )
        self._flush(watermark)

    def sync_to(self, target: int) -> None:
        """Advance to the newest safe watermark (switch entry point).

        Absorbs at most the buffered partial chunk; everything newer
        still sits ahead (in the front door's reorder buffer) and
        reaches fresh operators through the normal path — a switch
        never replays more than the reorder buffer plus one chunk.
        """
        target = max(self._watermark, target)
        if self._buffered or target > self._watermark:
            self._flush(target)

    def _flush(self, to_watermark: int) -> None:
        started = time.perf_counter()
        # Every buffered run is absorbed where it lies, in order: exact
        # pane folds make its pieces the same bits as one gathered
        # block, so no flush copies an event.  The arrays may be
        # borrowed ring views; operators reduce them into their own
        # state without retaining them.
        chunks, self._buf_chunks = self._buf_chunks, []
        self.copies_elided += self._buffered
        self._buffered = 0
        for ts, keys, values in chunks:
            for runtime in self._groups.values():
                runtime.absorb(ts, keys, values)
        for runtime in self._groups.values():
            runtime.advance(to_watermark)
        self._watermark = to_watermark
        self.wall_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    # Termination and results
    # ------------------------------------------------------------------
    def finish(self, horizon: "int | None" = None) -> int:
        """Close every instance ending at or before ``horizon``
        (default: last event + 1) and seal the core.  Returns the
        horizon used."""
        self._require_open()
        if horizon is None:
            horizon = max(self._watermark, self._max_event_ts + 1)
        if horizon < self._watermark:
            raise ExecutionError(
                f"horizon {horizon} is behind the watermark "
                f"{self._watermark}"
            )
        self._flush(horizon)
        self._closed = True
        return horizon

    def report(self, drain: bool = False) -> ShardReport:
        """Emitted results: per-key rows plus cross-key partials.

        ``drain=False`` snapshots (non-consuming — memory grows with
        emitted instances); ``drain=True`` consumes: each subscription
        releases what it returned, and retired subscriptions are
        dropped once read — the bounded-memory service read path.
        """
        results: dict[str, dict[Window, WindowResults]] = {}
        partials: dict[tuple[str, Window], PartialResults] = {}
        sealed: dict[tuple[str, Window], list[tuple]] = {}
        tables = (self._retired, self._subs, self._psubs)
        for table in tables:
            for (name, window), sub in table.items():
                per_key = isinstance(sub, Subscription)
                if per_key:  # read before a drain frees them
                    sealed[(name, window)] = sub.sealed()
                emitted = sub.drain() if drain else sub.snapshot()
                if per_key:
                    results.setdefault(name, {})[window] = emitted
                else:
                    partials[(name, window)] = emitted
        if drain:
            self._retired = {}
        return ShardReport(results, partials, self.key_ids, sealed)

    def _require_open(self) -> None:
        if self._closed:
            raise ExecutionError("session is finished")

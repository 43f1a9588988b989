"""The supervised multi-tenant session manager (DESIGN.md §10).

:class:`SessionManager` owns many named tenant sessions
(:class:`~repro.runtime.ShardedSession`, shaped per tenant config) and
wraps every operation on them in the service's robustness machinery:

**Admission control** (per tenant, under a fast admission lock that is
never held across session work):

1. circuit breaker — a tenant whose session keeps dying sheds with
   ``circuit_open`` instead of burning a restore cycle per request;
2. token bucket — ``rate``/``burst`` events/second; over-rate requests
   shed with ``rate_quota`` and an honest ``retry_after``;
3. byte budget — admitted-but-unapplied events are weighed at
   :data:`~repro.engine.events.EVENT_BYTES` against
   ``queue_budget_bytes``; what cannot fit sheds with
   ``queue_budget``.  This is the *no unbounded queueing* guarantee:
   the budget bounds the bytes (and so the threads) that can ever wait
   behind one tenant's session lock.

**Supervision** (per tenant, under the session lock): every applied
operation is first appended to a retained *tail* — an admitted
``ingest`` batch is one entry (its validated event columns) applied
with one ``push_many``; the session auto-checkpoints on its own
cadence (``auto_checkpoint=``, shared with the CLI), checked once per
push call, so a cut always sits on an entry boundary, and the
``on_checkpoint`` hook truncates the tail.  The checkpoint a request
made due is *owed* and written after its reply: ``dispatch`` answers,
``settle`` writes it (the TCP server sends the reply between the two;
``handle`` is the two in turn), and any later op on the tenant writes
it first, before anything reaches the tail — so the cut and the
truncation are the ones an inline write would make.  A failed write
fails no reply: it is counted, the tail stays whole, and the next due
point retries.  When a
session dies mid-operation the supervisor closes the wreck, restores
the newest checkpoint (or rebuilds from scratch when none exists yet),
and replays the tail in order — the failed operation included, since
it was appended before it was attempted.  Recovery therefore loses
nothing past the last checkpoint plus tail, which is invariant 13's
bounded-downtime half; the per-tenant locks are its isolation half
(one tenant's death never touches another tenant's state, and the
chaos suite holds co-tenant results bit-identical under seeded kills).

**Determinism**: a :class:`~repro.runtime.faults.FaultPlan` with
service-level faults (``kill_session`` / ``stall_client`` /
``flood_tenant``) is consulted at the top of every tenant request, so
the whole layer is chaos-testable at exact request-stream points.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..engine.events import EVENT_BYTES, event_columns
from ..errors import ExecutionError, ReproError
from ..runtime import CheckpointStore, ShardedSession
from ..runtime.core import resolve_registration_query
from ..runtime.faults import SERVICE_FAULT_KINDS
from .protocol import BadRequest, Overloaded, serialize_results
from .quotas import ServiceConfig, TenantConfig, TokenBucket
from .supervise import CircuitBreaker

__all__ = ["SessionManager", "TenantStats"]

#: Default auto-checkpoint cadence (ticks) when neither the manager
#: nor the tenant config names one.  Also bounds the replay tail.
DEFAULT_CHECKPOINT_EVERY = 512

#: Ops a tenant request may name.
TENANT_OPS = (
    "open",
    "ingest",
    "register",
    "deregister",
    "results",
    "snapshot",
    "stats",
)


@dataclass
class TenantStats:
    """Exact per-tenant admission and supervision counters.

    ``shed_*`` count *requests* shed at each gate (the request applied
    nothing); ``admitted_events`` counts events that passed admission;
    ``bad_requests`` counts requests answered ``bad_request``;
    ``restores`` counts supervisor session rebuilds; ``replay_skipped``
    counts tail entries — an ingest entry is one whole batch — that
    failed again during a replay (a user-error op that also failed on
    the original timeline — skipped, never looped on);
    ``faults_injected`` counts service-level chaos faults fired
    against this tenant; ``checkpoint_failures`` counts owed
    checkpoints whose write failed (the tail was kept whole).
    """

    requests: int = 0
    admitted_events: int = 0
    shed_rate_quota: int = 0
    shed_queue_budget: int = 0
    shed_circuit_open: int = 0
    bad_requests: int = 0
    restores: int = 0
    replay_skipped: int = 0
    faults_injected: int = 0
    checkpoint_failures: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class _DeadSession:
    """What a hard-killed tenant session is replaced with: every use
    fails like a real mid-request death, reads included (a closed
    session still answers ``watermark`` and ``reorder_stats``)."""

    checkpoint_owed = False  # its tail replays instead

    def __init__(self, cause: str):
        self._cause = cause

    def __getattr__(self, name: str):
        raise ExecutionError(self._cause)


class _TenantState:
    """Everything the manager holds for one tenant.

    Two locks, by design: ``admission`` is the *fast* lock (breaker,
    bucket, pending-bytes — never held across session work), ``lock``
    is the *slow* per-session lock serializing apply/replay.  Overload
    decisions therefore stay O(1) even while the session is busy or
    mid-restore, which is what keeps one tenant's trouble from
    blocking another tenant's shed replies.
    """

    def __init__(
        self,
        name: str,
        config: TenantConfig,
        store: CheckpointStore,
        bucket: TokenBucket,
        breaker: CircuitBreaker,
    ):
        self.name = name
        self.config = config
        self.store = store
        self.bucket = bucket
        self.breaker = breaker
        self.admission = threading.Lock()
        self.lock = threading.RLock()
        self.stats = TenantStats()
        self.session = None
        self.tail: list = []
        self.pending_bytes = 0
        self.stall_seconds = 0.0
        self.auto_names = 0


class SessionManager:
    """Owns, protects, and supervises many named tenant sessions.

    Parameters
    ----------
    config:
        A :class:`~repro.service.quotas.ServiceConfig` (e.g. from
        :func:`~repro.service.quotas.load_tenants_config`), a dict in
        the same shape, or ``None`` for all-defaults.
    directory:
        Root for per-tenant checkpoint stores (``<dir>/<tenant>/``).
        ``None`` keeps checkpoints in a private temp dir cleaned up on
        :meth:`close`.
    checkpoint_every / keep:
        Manager-wide auto-checkpoint cadence (ticks) and per-tenant
        retention, overridable per tenant via ``checkpoint_every``.
    failure_threshold / reset_after:
        Circuit-breaker policy applied to every tenant.
    fault_plan:
        Deterministic service-level chaos
        (:class:`~repro.runtime.faults.FaultPlan`; consulted at the
        top of every tenant request).
    clock / sleeper:
        Injectable time sources (tests pin them; production defaults
        are ``time.monotonic`` / ``time.sleep``).
    """

    def __init__(
        self,
        config: "ServiceConfig | dict | None" = None,
        directory: "str | Path | None" = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        keep: int = 4,
        failure_threshold: int = 3,
        reset_after: float = 2.0,
        fault_plan=None,
        clock=time.monotonic,
        sleeper=time.sleep,
    ):
        if isinstance(config, dict):
            from .quotas import load_tenants_config

            config = load_tenants_config(config)
        self.config = config or ServiceConfig(TenantConfig(), {})
        self._tmpdir = None
        if directory is None:
            import tempfile

            self._tmpdir = tempfile.TemporaryDirectory(
                prefix="repro-service-"
            )
            directory = self._tmpdir.name
        self.directory = Path(directory)
        self.checkpoint_every = checkpoint_every
        self.keep = keep
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._fault_plan = fault_plan
        self._clock = clock
        self._sleep = sleeper
        self._tenants: "dict[str, _TenantState]" = {}
        self._registry = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------
    @property
    def tenants(self) -> "tuple[str, ...]":
        return tuple(self._tenants)

    def open_tenant(
        self, name: str, overrides: "dict | None" = None
    ) -> TenantConfig:
        """Create (or return) the named tenant's session; idempotent.

        The effective config is the service config's entry for the
        tenant with ``overrides`` applied field-wise.  Re-opening an
        existing tenant with *different* overrides raises — silently
        switching quotas mid-flight would make shed counters
        meaningless.
        """
        if not name or not isinstance(name, str):
            raise BadRequest("tenant name must be a non-empty string")
        with self._registry:
            self._require_open()
            state = self._tenants.get(name)
            try:
                cfg = self.config.config_for(name).merged(overrides)
                if state is not None and overrides and state.config != cfg:
                    raise BadRequest(
                        f"tenant {name!r} is already open with a "
                        "different config"
                    )
            except ReproError as exc:  # a bad key or value — user input
                if state is not None:
                    with state.admission:
                        state.stats.bad_requests += 1
                raise BadRequest(str(exc)) from exc
            if state is not None:
                return state.config
            every = (
                cfg.checkpoint_every
                if cfg.checkpoint_every is not None
                else self.checkpoint_every
            )
            store = CheckpointStore(
                self.directory / name, keep=self.keep, every=every
            )
            state = _TenantState(
                name=name,
                config=cfg,
                store=store,
                bucket=TokenBucket(cfg.rate, cfg.burst, clock=self._clock),
                breaker=CircuitBreaker(
                    self.failure_threshold,
                    self.reset_after,
                    clock=self._clock,
                ),
            )
            state.session = self._build_session(state, source=None)
            self._tenants[name] = state
        return cfg

    def _build_session(self, state: _TenantState, source):
        """Construct (``source=None``) or restore (``source=path``)
        one tenant session, wired to its store and tail hook.

        Tenant sessions are sync-ingest on purpose: the service's own
        byte budget is the front door, and a per-tenant pump queue
        would hold replayable events *outside* the tail — a crash
        would then lose them silently.  ``num_shards`` / ``backend``
        pick the session shape (one shard runs in-process whatever the
        backend, :func:`~repro.runtime.has_workers`); the supervisor
        here is the layer above it.
        """
        cfg = state.config
        wiring = {
            "auto_checkpoint": state.store,
            "checkpoint_meta": lambda: {"tenant": state.name},
            "on_checkpoint": lambda snap, path: state.tail.clear(),
        }
        if source is not None:
            return ShardedSession.restore(
                source, backend=cfg.backend, **wiring
            )
        return ShardedSession(
            num_shards=cfg.num_shards,
            backend=cfg.backend,
            num_keys=cfg.num_keys,
            max_lateness=cfg.max_lateness,
            chunk_ticks=cfg.chunk_ticks,
            **wiring,
        )

    def _tenant(self, name) -> _TenantState:
        if not isinstance(name, str) or not name:
            raise BadRequest("request needs a tenant name")
        state = self._tenants.get(name)
        if state is None:
            # Auto-open on first touch with the configured defaults —
            # the service-shaped ergonomics (a tenant is a name, not a
            # provisioning step).
            self.open_tenant(name)
            state = self._tenants[name]
        return state

    # ------------------------------------------------------------------
    # Chaos injection (deterministic, request-stream positioned)
    # ------------------------------------------------------------------
    def _consult_faults(self, state: _TenantState, op: str) -> None:
        plan = self._fault_plan
        if plan is None:
            return
        try:
            watermark = state.session.watermark
        except ExecutionError:
            watermark = None
        for fault in plan.take(
            "service", watermark=watermark, op=op, tenant=state.name
        ):
            state.stats.faults_injected += 1
            if fault.kind == "kill_session":
                self._kill(state, "session killed by injected fault")
            elif fault.kind == "stall_client":
                state.stall_seconds += fault.delay_seconds
            elif fault.kind == "flood_tenant":
                with state.admission:
                    state.bucket.drain()
            else:  # pragma: no cover - defensive
                raise ExecutionError(
                    f"fault kind {fault.kind!r} is not a service fault "
                    f"(expected one of {SERVICE_FAULT_KINDS})"
                )

    def _kill(self, state: _TenantState, cause: str) -> None:
        """Hard-kill one tenant's session: the live object is closed
        and replaced by a dead stub, so the in-flight request fails
        exactly like a real session death and the supervisor path
        takes over."""
        with state.lock:
            wreck = state.session
            state.session = _DeadSession(cause)
            # A dead session writes nothing more: not even the
            # checkpoint it owed (its tail replays instead).
            wreck._checkpoint_owed = False
            try:
                wreck.close()
            except Exception:  # noqa: BLE001 - the wreck may be anything
                pass

    # ------------------------------------------------------------------
    # The owed checkpoint
    # ------------------------------------------------------------------
    def _write_owed(self, state: _TenantState) -> None:
        """Write the checkpoint the tenant's last push left owed, if any
        — under the session lock, so an op waits for it.  Every op
        calls it before it is fault-consulted and again before anything
        joins the tail: the hook then truncates exactly the entries the
        cut covers.  A failure fails no request: it is counted, the
        tail stays whole, and the cadence retries at the next due
        point.  The common case — nothing owed — is one read without
        the lock, so a shed decision never waits on a busy session.  A
        killed session owes nothing: its tail replays."""
        if not getattr(state.session, "checkpoint_owed", False):
            return
        with state.lock:
            if not state.session.checkpoint_owed:
                return  # written by another op, or the session died
            try:
                state.session.write_owed_checkpoint()
            except Exception:  # noqa: BLE001 - counted, never raised
                with state.admission:
                    state.stats.checkpoint_failures += 1

    def settle(self, tenant) -> None:
        """Write the checkpoint ``tenant``'s last request made due, if
        it is still owed; never raises, never opens a tenant.  The TCP
        server calls it right after sending the reply."""
        state = self._tenants.get(tenant) if isinstance(tenant, str) else None
        if state is not None:
            self._write_owed(state)

    # ------------------------------------------------------------------
    # Supervision: restore + tail replay
    # ------------------------------------------------------------------
    def _recover(self, state: _TenantState, cause: Exception) -> list:
        """Bring one dead tenant session back (caller holds the
        session lock and has recorded the breaker failure); returns
        the ``(entry, detail)`` pairs that failed again on replay.

        Restores the newest checkpoint — or rebuilds from scratch when
        none exists yet — then replays the retained tail in order.
        Tail entries are re-appended through the same path as live
        ops, so a checkpoint that falls due *during* replay truncates
        correctly and the post-recovery tail is exactly
        ops-since-last-checkpoint again.
        """
        state.stats.restores += 1
        wreck = state.session
        state.session = None
        try:
            wreck.close()
        except Exception:  # noqa: BLE001 - already dead
            pass
        latest = state.store.latest()
        try:
            state.session = self._build_session(state, source=latest)
        except Exception as exc:
            # Recovery itself failed (e.g. an unreadable checkpoint).
            # Leave a stub that fails every use — the next request
            # retries recovery, and enough consecutive failures open
            # the breaker so the tenant sheds instead of thrashing.
            state.session = _DeadSession(
                f"tenant session is down (last restore failed: {exc}); "
                "recovery retries on the next request"
            )
            raise
        pending, state.tail = state.tail, []
        skipped: list = []
        for entry in pending:
            self._write_owed(state)
            state.tail.append(entry)
            try:
                self._apply_entry(state.session, entry)
            except ExecutionError as exc:
                # The entry failed on a *freshly restored* session too:
                # it is the op's fault, not the session's (e.g. a user
                # error that slipped past validation).  Drop it from
                # the tail and count it — looping a poison op through
                # restore forever would be the one unbounded behavior
                # this layer must never have.  It stays counted (and
                # surfaced to its caller), never silent.
                state.stats.replay_skipped += 1
                state.tail.pop()
                skipped.append((entry, str(exc)))
        return skipped

    @staticmethod
    def _apply_entry(session, entry) -> None:
        kind = entry[0]
        if kind == "batch":
            session.push_many(entry[1])
        elif kind == "register":
            session.register(entry[1], scope=entry[2])
        elif kind == "deregister":
            session.deregister(entry[1])
        elif kind == "drain":
            # Replay must reproduce the consumption (the original
            # drain's output already left the building).
            session.drain_results()
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"unknown tail entry {kind!r}")

    def _guarded_apply(self, state: _TenantState, entry) -> None:
        """Append one op to the tail, then apply it; on session death,
        record the failure and run recovery (which re-applies it).  If
        the entry fails again on the fresh session the fault is the
        op's, and the caller gets a ``bad_request`` — never a silent
        success over a skipped op."""
        self._write_owed(state)
        state.tail.append(entry)
        try:
            self._apply_entry(state.session, entry)
        except ExecutionError as exc:
            with state.admission:
                state.breaker.record_failure()
            skipped = self._recover(state, exc)
            for failed, detail in skipped:
                if failed is entry:
                    raise BadRequest(
                        f"operation failed on a freshly restored "
                        f"session (not a session fault): {detail}"
                    ) from exc

    def _breaker_gate(self, state: _TenantState) -> None:
        """Shed when the tenant's breaker is open.  Mutating ops
        (``ingest`` / ``register`` / ``deregister``) pass through
        here; reads (``results`` / ``snapshot`` / ``stats``) stay
        ungated on purpose — a tenant must be able to drain what it
        already computed and force a checkpoint even while its breaker
        is holding new work off a flapping session."""
        with state.admission:
            if not state.breaker.allow():
                state.stats.shed_circuit_open += 1
                raise Overloaded(
                    "circuit_open", retry_after=state.breaker.retry_after
                )

    def _stall_if_planned(self, state: _TenantState) -> None:
        if state.stall_seconds:
            seconds, state.stall_seconds = state.stall_seconds, 0.0
            self._sleep(seconds)

    @contextmanager
    def _request(self, tenant, op: str):
        """Open one tenant request: resolve (or auto-open) the tenant,
        count the request, consult the fault plan — and count it again
        in ``bad_requests`` if it ends up answered ``bad_request``.
        The checkpoint an earlier request left owed is written first."""
        state = self._tenant(tenant)
        self._write_owed(state)
        state.stats.requests += 1
        try:
            self._consult_faults(state, op)
            yield state
        except BadRequest:
            with state.admission:
                state.stats.bad_requests += 1
            raise

    # ------------------------------------------------------------------
    # Tenant operations
    # ------------------------------------------------------------------
    def ingest(self, tenant: str, events) -> dict:
        """Admit and apply one batch of ``(ts, key, value)`` events.

        Sheds (raising :class:`~repro.service.protocol.Overloaded`)
        before touching the session; validates before admitting (a
        malformed batch is a ``bad_request``, not a session death);
        applies under the session lock with supervision.
        """
        with self._request(tenant, "ingest") as state:
            columns = self._validated_events(state, events)
            weight = columns.ts.size
            nbytes = weight * EVENT_BYTES
            with state.admission:
                if not state.breaker.allow():
                    state.stats.shed_circuit_open += 1
                    raise Overloaded(
                        "circuit_open", retry_after=state.breaker.retry_after
                    )
                retry = state.bucket.acquire(weight)
                if retry is not None:
                    state.stats.shed_rate_quota += 1
                    raise Overloaded("rate_quota", retry_after=retry)
                budget = state.config.queue_budget_bytes
                if state.pending_bytes + nbytes > budget:
                    state.stats.shed_queue_budget += 1
                    # Honest hint: the backlog drains at the bucket rate at
                    # best, so quote the time to clear what is pending.
                    backlog_events = state.pending_bytes / EVENT_BYTES
                    raise Overloaded(
                        "queue_budget",
                        retry_after=max(
                            backlog_events / state.bucket.rate, 1e-3
                        ),
                    )
                state.pending_bytes += nbytes
                state.stats.admitted_events += weight
            try:
                with state.lock:
                    self._stall_if_planned(state)
                    self._guarded_apply(state, ("batch", columns))
                    watermark = state.session.watermark
                with state.admission:
                    state.breaker.record_success()
            finally:
                with state.admission:
                    state.pending_bytes -= nbytes
            return {"admitted": weight, "watermark": watermark}

    @staticmethod
    def _validated_events(state: _TenantState, events):
        """The request's events — JSON rows, or the table an ingest
        frame carried — as validated columns (the replay tail's batch
        entry; ``push_many`` takes them as checked), or a
        ``bad_request`` naming the first offending row — before
        anything is admitted, applied, or tail-logged."""
        if not isinstance(events, (list, tuple, np.ndarray)):
            raise BadRequest("'events' must be a list of [ts, key, value]")
        try:
            return event_columns(events, state.config.num_keys)
        except ExecutionError as exc:
            raise BadRequest(str(exc)) from exc

    def register(
        self,
        tenant: str,
        query,
        name: str = "",
        scope: str = "per_key",
    ) -> str:
        """Register one query for a tenant; returns its name.

        The manager resolves the query (SQL parse + auto-naming)
        *before* anything enters the tail, so a bad query is a
        ``bad_request`` and a replayed tail never re-parses text.
        """
        with self._request(tenant, "register") as state:
            self._breaker_gate(state)
            if scope not in ("per_key", "global"):
                raise BadRequest(
                    f"unknown scope {scope!r}; expected 'per_key' or 'global'"
                )
            def next_auto() -> str:
                state.auto_names += 1
                return f"q{state.auto_names}"

            try:
                resolved = resolve_registration_query(query, name, next_auto)
            except ReproError as exc:  # SQL errors included — user input
                raise BadRequest(f"cannot register query: {exc}") from exc
            with state.lock:
                self._stall_if_planned(state)
                try:
                    live = state.session.queries
                except ExecutionError as exc:  # killed between requests
                    with state.admission:
                        state.breaker.record_failure()
                    self._recover(state, exc)
                    live = state.session.queries
                if resolved.name in live:
                    raise BadRequest(
                        f"query name {resolved.name!r} is already registered"
                    )
                self._guarded_apply(state, ("register", resolved, scope))
                with state.admission:
                    state.breaker.record_success()
            return resolved.name

    def deregister(self, tenant: str, name: str) -> None:
        with self._request(tenant, "deregister") as state:
            self._breaker_gate(state)
            with state.lock:
                self._stall_if_planned(state)
                try:
                    live = state.session.queries
                except ExecutionError as exc:
                    with state.admission:
                        state.breaker.record_failure()
                    self._recover(state, exc)
                    live = state.session.queries
                if name not in live:
                    raise BadRequest(f"no registered query named {name!r}")
                self._guarded_apply(state, ("deregister", name))
                with state.admission:
                    state.breaker.record_success()

    def results(self, tenant: str, drain: bool = True) -> dict:
        """A tenant's merged results (serialized, wire-shaped).

        ``drain=True`` (the default, and the bounded-memory service
        read path) consumes each subscription's emitted blocks; the
        consumption is tail-logged so a replayed timeline re-consumes
        identically.
        """
        with self._request(tenant, "results") as state:
            with state.lock:
                self._stall_if_planned(state)
                self._write_owed(state)
                try:
                    if drain:
                        state.tail.append(("drain",))
                        raw = state.session.drain_results()
                    else:
                        raw = state.session.results()
                except ExecutionError as exc:
                    with state.admission:
                        state.breaker.record_failure()
                    if drain:
                        state.tail.pop()
                    self._recover(state, exc)
                    if drain:
                        state.tail.append(("drain",))
                        raw = state.session.drain_results()
                    else:
                        raw = state.session.results()
                with state.admission:
                    state.breaker.record_success()
            return serialize_results(raw)

    def snapshot(self, tenant: str) -> dict:
        """Checkpoint a tenant's session now (outside the cadence),
        through the session's one checkpoint write — after the owed
        one — which truncates the replay tail like any checkpoint.  A
        failed write fails this request: durability is what it asked
        for."""
        with self._request(tenant, "snapshot") as state:
            with state.lock:
                self._stall_if_planned(state)
                try:
                    snap, path = state.session.checkpoint()
                except ExecutionError as exc:
                    with state.admission:
                        state.breaker.record_failure()
                    self._recover(state, exc)
                    snap, path = state.session.checkpoint()
                with state.admission:
                    state.breaker.record_success()
            return {"path": str(path), "watermark": snap.watermark}

    def stats(self, tenant: str) -> dict:
        """Admission/supervision counters plus session introspection
        (after the owed checkpoint is written)."""
        state = self._tenant(tenant)
        with state.lock:
            self._write_owed(state)
            try:
                session_info = {
                    "watermark": state.session.watermark,
                    "queries": list(state.session.queries),
                }
            except ExecutionError:
                session_info = {"watermark": None, "queries": []}
        with state.admission:
            info = state.stats.as_dict()
            info["pending_bytes"] = state.pending_bytes
            info["breaker"] = state.breaker.state
            info["tail_length"] = len(state.tail)
        return {**session_info, "stats": info}

    # ------------------------------------------------------------------
    # Protocol dispatch (shared by the TCP server and in-process tests)
    # ------------------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """One request dict in, one reply dict out — the entire
        protocol semantics, transport-free: :meth:`dispatch`, then
        :meth:`settle`, so the reply returns with the checkpoint it
        made due already written (tests drive this directly for
        deterministic interleavings; the TCP server sends the reply
        between the two)."""
        reply = self.dispatch(request)
        if isinstance(request, dict):
            self.settle(request.get("tenant"))
        return reply

    def dispatch(self, request: dict) -> dict:
        """Answer one request; a checkpoint it made due stays owed
        until :meth:`settle` or the tenant's next op."""
        try:
            op = request.get("op")
            if op not in TENANT_OPS:
                raise BadRequest(
                    f"unknown op {op!r}; expected one of {TENANT_OPS}"
                )
            self._require_open()
            tenant = request.get("tenant")
            if op == "open":
                cfg = self.open_tenant(tenant, request.get("config"))
                return {"ok": True, "tenant": tenant, "config": vars(cfg)}
            if op == "ingest":
                out = self.ingest(tenant, request.get("events"))
                return {"ok": True, **out}
            if op == "register":
                name = self.register(
                    tenant,
                    request.get("query", ""),
                    name=request.get("name", ""),
                    scope=request.get("scope", "per_key"),
                )
                return {"ok": True, "name": name}
            if op == "deregister":
                self.deregister(tenant, request.get("name", ""))
                return {"ok": True}
            if op == "results":
                payload = self.results(
                    tenant, drain=bool(request.get("drain", True))
                )
                return {"ok": True, "results": payload}
            if op == "snapshot":
                return {"ok": True, **self.snapshot(tenant)}
            return {"ok": True, **self.stats(tenant)}  # op == "stats"
        except Overloaded as exc:
            return {
                "ok": False,
                "error": "overloaded",
                "reason": exc.reason,
                "retry_after": round(exc.retry_after, 6),
            }
        except BadRequest as exc:
            return {"ok": False, "error": "bad_request", "detail": str(exc)}
        except ReproError as exc:
            return {"ok": False, "error": "failed", "detail": str(exc)}
        except Exception as exc:  # noqa: BLE001 - the reply must exist
            # A reply the client can parse beats a dead connection;
            # the detail names the class so the bug stays findable.
            return {
                "ok": False,
                "error": "failed",
                "detail": f"{type(exc).__name__}: {exc}",
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise ExecutionError("session manager is closed")

    def close(self) -> None:
        """Close every tenant session and release the checkpoint dir
        (idempotent; robust to already-dead sessions)."""
        with self._registry:
            if self._closed:
                return
            self._closed = True
            for state in self._tenants.values():
                self._write_owed(state)
                with state.lock:
                    try:
                        state.session.close()
                    except Exception:  # noqa: BLE001 - dead is fine
                        pass
            if self._tmpdir is not None:
                self._tmpdir.cleanup()

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

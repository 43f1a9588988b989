"""Deterministic fault injection for the worker shard backends.

Chaos testing a multiprocess runtime is only useful if a failing
schedule *reproduces*: a fault that fires "sometime around chunk 40"
on one run and never on the next cannot anchor a property test.  So
faults here are not random signals from outside — they are injected by
the **coordinator itself**, at exact points of its own deterministic
command stream (:class:`~repro.runtime.sharding._WorkerShardBackend`
consults the plan before every ``advance`` it ships and every
control-plane command it sends).  A control-plane fault names its
command by its op name in the shard op table
(``repro.runtime.sharding._SHARD_OPS``: ``register``, ``collect``,
``snapshot``, ``extract`` …) or ``restore``.  Given the same stream and
schedule, a
:class:`FaultPlan` fires at the same instruction on every run, which
is what lets ``tests/runtime/test_checkpoint.py`` assert bit-identical
recovery under hypothesis-chosen crash points seeded from
``REPRO_TEST_SEED``.

Fault kinds
-----------
``kill``
    SIGKILL the shard's worker process.  With ``at_watermark=W`` it
    fires just before the coordinator ships the first watermark
    advance ≥ W to that shard (the advance itself is retained and
    replayed); with ``op="register"`` (or any control op) it fires
    just before that command is delivered.
``kill_mid_op``
    Deliver the control command, then SIGKILL the worker before it can
    reply — the crash-mid-``snapshot`` case: the coordinator must
    treat a command with no reply exactly like a crash before it.
``drop_control``
    Silently skip delivering one control command to one shard — a
    lost control message.  The worker stays alive but desyncs; the
    coordinator detects the missing reply via its control timeout and
    either recovers (respawn + replay) or raises with diagnostics.
``delay_control``
    Sleep ``delay_seconds`` before delivering one control command
    (scheduling jitter; must be observationally invisible).
``poison_ring``
    Write a corrupt record into the shard's shared-memory ring
    (``shm`` backend only): the worker must die loudly on the next
    pop (a record that cannot be parsed can never be consumed, so
    anything else would wedge the ring).  Corrupt data never reaches
    results: without recovery the session raises an integrity error
    carrying the worker's traceback; with recovery the worker is
    respawned onto a *fresh* ring and replayed from the coordinator's
    clean retained log — the poisoned segment is discarded whole.

Service-level fault kinds (DESIGN.md §10)
-----------------------------------------
The multi-tenant service layer (:mod:`repro.service`) consults the
same plan at its own deterministic injection point — the top of every
tenant request (``point="service"``).  Service faults target a
*tenant* (by name) instead of a shard slot, and fire at the first
request of the matching ``op`` once that tenant's session watermark
has reached ``at_watermark`` (when set):

``kill_session``
    Hard-kill the tenant's whole session mid-request (the live
    session is closed and replaced by a dead stub, so the in-flight
    request fails exactly like a real session death).  The supervisor
    must restore from the newest checkpoint and replay the retained
    tail — invariant 13's bounded-downtime path.
``stall_client``
    Sleep ``delay_seconds`` while holding the tenant's session lock —
    a wedged client/connection.  Must stall only that tenant; every
    co-tenant keeps streaming (tenant isolation).
``flood_tenant``
    Drain the tenant's admission token bucket in one gulp — a traffic
    flood compressed into an instant.  Subsequent requests must be
    *shed* with an explicit ``overloaded``/``retry_after`` reply,
    never queued unboundedly.

Faults fire at most once each; :attr:`FaultPlan.fired` records the
order they actually hit, so tests can assert a schedule fully played
out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ExecutionError

__all__ = ["Fault", "FaultPlan"]

#: Worker-level injection kinds (consumed by the shard backends).
WORKER_FAULT_KINDS = (
    "kill",
    "kill_mid_op",
    "drop_control",
    "delay_control",
    "poison_ring",
)

#: Service-level injection kinds (consumed by the session service,
#: DESIGN.md §10) — they target a tenant, not a shard slot.
SERVICE_FAULT_KINDS = (
    "kill_session",
    "stall_client",
    "flood_tenant",
)

#: Injection kinds a :class:`Fault` may carry.
FAULT_KINDS = WORKER_FAULT_KINDS + SERVICE_FAULT_KINDS


@dataclass
class Fault:
    """One scheduled fault against one shard slot or one tenant.

    For worker-level kinds ``slot`` indexes the backend's worker list
    (the session's ``active_shards`` order).  A data-plane trigger
    sets ``at_watermark`` (fires at the first advance ≥ it); a
    control-plane trigger sets ``op`` (fires at the next delivery of
    that command).  Setting both restricts the control trigger to
    commands issued at or after the watermark.

    Service-level kinds set ``tenant`` (and leave ``slot`` at 0): the
    fault fires at the first request of the matching ``op`` (e.g.
    ``"ingest"``) for that tenant, once the tenant's session watermark
    has reached ``at_watermark`` (when set).
    """

    kind: str
    slot: int = 0
    at_watermark: "int | None" = None
    op: "str | None" = None
    delay_seconds: float = 0.0
    tenant: "str | None" = None
    fired: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ExecutionError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.slot < 0:
            raise ExecutionError(f"fault slot must be >= 0, got {self.slot}")
        if self.kind in SERVICE_FAULT_KINDS:
            if self.tenant is None:
                raise ExecutionError(
                    f"{self.kind} is a service-level fault and needs "
                    "tenant=..."
                )
            if self.op is None:
                raise ExecutionError(
                    f"{self.kind} needs op=... (the tenant request kind "
                    "it fires on, e.g. 'ingest')"
                )
            if self.kind == "stall_client" and self.delay_seconds <= 0:
                raise ExecutionError(
                    "stall_client needs delay_seconds > 0"
                )
            return
        if self.tenant is not None:
            raise ExecutionError(
                f"{self.kind} is a worker-level fault; tenant= only "
                "applies to service-level kinds"
            )
        if self.at_watermark is None and self.op is None:
            raise ExecutionError(
                "a fault needs a trigger: at_watermark, op, or both"
            )
        if self.kind in ("kill_mid_op", "drop_control", "delay_control") and (
            self.op is None
        ):
            raise ExecutionError(
                f"{self.kind} is a control-plane fault and needs op=..."
            )


class FaultPlan:
    """An ordered chaos schedule, consumed by the worker backends.

    The backends call :meth:`take` at their injection points; each
    fault fires at most once.  The plan is plain data — construct it
    from a seeded RNG for property tests.
    """

    def __init__(self, *faults: Fault):
        self.faults: "list[Fault]" = list(faults)
        self.fired: "list[Fault]" = []

    def add(self, fault: Fault) -> "FaultPlan":
        self.faults.append(fault)
        return self

    @property
    def exhausted(self) -> bool:
        """Whether every scheduled fault has fired."""
        return all(fault.fired for fault in self.faults)

    def take(
        self,
        point: str,
        slot: int = 0,
        watermark: "int | None" = None,
        op: "str | None" = None,
        tenant: "str | None" = None,
    ) -> "list[Fault]":
        """Claim the faults due at one injection point (marks them
        fired).  ``point`` is ``"advance"`` (just before a data-plane
        watermark ship), ``"control"`` (just before a control-plane
        command delivery), or ``"service"`` (the top of one tenant
        request in the session service, DESIGN.md §10)."""
        if point not in ("advance", "control", "service"):
            raise ExecutionError(f"unknown injection point {point!r}")
        due = []
        for fault in self.faults:
            if fault.fired:
                continue
            service_kind = fault.kind in SERVICE_FAULT_KINDS
            if point == "service":
                if not service_kind or fault.tenant != tenant:
                    continue
                if fault.op != op:
                    continue
                if fault.at_watermark is not None and (
                    watermark is None or watermark < fault.at_watermark
                ):
                    continue
            elif service_kind or fault.slot != slot:
                continue
            elif point == "advance":
                if fault.op is not None or fault.at_watermark is None:
                    continue
                if watermark is None or watermark < fault.at_watermark:
                    continue
            else:  # control
                if fault.op is None or fault.op != op:
                    continue
                if fault.at_watermark is not None and (
                    watermark is None or watermark < fault.at_watermark
                ):
                    continue
            fault.fired = True
            self.fired.append(fault)
            due.append(fault)
        return due

"""The one place that decides *which* session class a run gets.

:func:`open_session` and :func:`restore_session` are what the session
service, the scenario runner and the CLI call; nothing else in
``src/`` outside this package names :class:`QuerySession` or
:class:`ShardedSession`.  One shard is a ``QuerySession`` — one core
behind the front door, no coordinator — and more than one is a
``ShardedSession`` on ``backend``; invariant 10 makes the choice
invisible in the results, so it is purely a placement decision.
"""

from __future__ import annotations

from .checkpoint import Snapshot, read_checkpoint
from .session import QuerySession
from .sharding import SerialShardBackend, ShardedSession, _configure_durability

__all__ = ["has_workers", "open_session", "restore_session"]


def has_workers(num_shards: int, backend: str = "serial") -> bool:
    """Whether a run of this shape has shard worker processes — the
    only shapes a fault plan or ``worker_recovery`` can act on."""
    return num_shards > 1 and backend != "serial"


def open_session(
    num_shards: int = 1,
    backend: str = "serial",
    num_slots: "int | None" = None,
    fault_plan=None,
    worker_recovery: bool = False,
    **options,
):
    """Construct the session for ``num_shards`` on ``backend``.

    ``options`` are the constructor arguments both classes share
    (``num_keys``, ``max_lateness``, ``chunk_ticks``, ``hysteresis``,
    ``async_ingest``, ``auto_checkpoint``, …).  ``backend`` and
    ``num_slots`` (``None`` = the default pool) only shape a sharded
    layout and mean nothing at one shard; a ``fault_plan`` or
    ``worker_recovery=True`` there raises, exactly as on the serial
    backend, instead of silently testing nothing."""
    if num_shards == 1:
        # One core in-process is the serial backend's situation: a
        # chaos schedule against it must fail as loudly as there.
        _configure_durability(
            SerialShardBackend(), fault_plan, worker_recovery, None
        )
        return QuerySession(**options)
    if num_slots is not None:
        options["num_slots"] = num_slots
    return ShardedSession(
        num_shards=num_shards,
        backend=backend,
        fault_plan=fault_plan,
        worker_recovery=worker_recovery,
        **options,
    )


def restore_session(source, backend: str = "serial", **options):
    """Restore whichever session kind ``source`` (a :class:`Snapshot`
    or a checkpoint path) holds.  ``backend`` places a sharded
    session's cores and means nothing to a ``"query"`` snapshot;
    ``options`` are the overrides both ``restore`` methods share
    (``async_ingest``, ``auto_checkpoint``, …)."""
    snap = source if isinstance(source, Snapshot) else read_checkpoint(source)
    if snap.kind == QuerySession.kind:
        return QuerySession.restore(snap, **options)
    return ShardedSession.restore(snap, backend=backend, **options)

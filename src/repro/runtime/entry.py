"""Where a session runs: the service, the scenario runner and the CLI
build and restore sessions through :func:`open_session` and
:func:`restore_session`.

There is one session class — :class:`ShardedSession` — at every shard
count.  The only placement rule is that one shard runs in-process: a
one-shard session has no second core to overlap with, so
:func:`open_session` puts it on the serial backend whatever ``backend``
says, and :func:`has_workers` is false for it.  Invariant 10 makes the
placement invisible in the results.
"""

from __future__ import annotations

from .sharding import ShardedSession

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
) -> ShardedSession:
    """Construct the session for ``num_shards`` on ``backend``.

    ``options`` are the remaining :class:`ShardedSession` constructor
    arguments (``num_keys``, ``max_lateness``, ``chunk_ticks``,
    ``hysteresis``, ``async_ingest``, ``auto_checkpoint``, …);
    ``num_slots=None`` is the default slot pool.  One shard runs on the
    serial backend, where a ``fault_plan`` or ``worker_recovery=True``
    raises instead of silently testing nothing."""
    if num_shards == 1:
        backend = "serial"
    if num_slots is not None:
        options["num_slots"] = num_slots
    return ShardedSession(
        num_shards=num_shards,
        backend=backend,
        fault_plan=fault_plan,
        worker_recovery=worker_recovery,
        **options,
    )


def restore_session(
    source, backend: str = "serial", **options
) -> ShardedSession:
    """:meth:`ShardedSession.restore` of ``source`` (a
    :class:`~repro.runtime.checkpoint.Snapshot` or a checkpoint path):
    the snapshot's shard layout, placed on ``backend``; ``options`` are
    the other restore overrides (``async_ingest``, ``auto_checkpoint``,
    …)."""
    return ShardedSession.restore(source, backend=backend, **options)

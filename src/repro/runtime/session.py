""":class:`QuerySession` — the live multi-query session at one shard.

A session ingests one unbounded, possibly out-of-order event stream
and serves a *changing* set of registered window-aggregate queries:
events cross a :class:`~repro.engine.outoforder.ReorderBuffer`,
:meth:`~repro.runtime.sharding.ShardedSession.register` /
``deregister`` re-optimize only the affected group at a safe
watermark, and a :class:`~repro.core.adaptive.RateController` re-prices
every group when the live event rate drifts past its hysteresis — the
paper's §VI future work, wired into a real loop.  Plan switches are
watermark-safe and invisible in the results (DESIGN.md §6, invariant
9).

There is one session implementation,
:class:`~repro.runtime.sharding.ShardedSession`; a ``QuerySession`` is
that class pinned to one shard on the serial backend — one
:class:`~repro.runtime.core.SessionCore` in-process behind the
coordinator — so it is bit-identical to the same session at any shard
count on any backend by construction (invariant 10).
"""

from __future__ import annotations

from .sharding import ShardedSession

__all__ = ["QuerySession"]

#: The :class:`ShardedSession` arguments that say where a session runs;
#: a ``QuerySession`` has them pinned.
_PLACEMENT = frozenset(
    (
        "num_shards",
        "backend",
        "num_slots",
        "fault_plan",
        "worker_recovery",
        "control_timeout",
    )
)


class QuerySession(ShardedSession):
    """A :class:`~repro.runtime.sharding.ShardedSession` with one shard
    on the serial backend.

    It takes the session settings of ``ShardedSession`` — ``num_keys``,
    ``max_lateness``, ``chunk_ticks``, ``hysteresis``,
    ``async_ingest``, ``ingest_high_watermark`` and the
    ``auto_checkpoint`` / ``checkpoint_meta`` / ``on_checkpoint``
    wiring — and none of its placement: passing ``num_shards``,
    ``backend``, ``num_slots``, ``fault_plan``, ``worker_recovery`` or
    ``control_timeout`` is a :class:`TypeError`.
    """

    def __init__(self, num_keys: int = 1, **settings):
        pinned = sorted(_PLACEMENT.intersection(settings))
        if pinned:
            raise TypeError(
                "QuerySession runs one serial shard; it takes no "
                + ", ".join(pinned)
            )
        super().__init__(num_keys, **settings)

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

from .checkpoint import CheckpointStore
from .core import DEFAULT_RETIRED_RESULT_CAP
from .ingest import DEFAULT_INGEST_HIGH_WATERMARK
from .sharding import ShardedSession

__all__ = ["QuerySession"]


class QuerySession(ShardedSession):
    """A :class:`~repro.runtime.sharding.ShardedSession` with one shard
    on the serial backend.

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
        A bounded queue and a pump thread in front of ingestion
        (:mod:`repro.runtime.ingest`, DESIGN.md §8).
    auto_checkpoint / checkpoint_meta / on_checkpoint:
        In-session checkpoint cadence (DESIGN.md §9).
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
        super().__init__(
            num_keys=num_keys,
            num_shards=1,
            backend="serial",
            max_lateness=max_lateness,
            chunk_ticks=chunk_ticks,
            event_rate=event_rate,
            hysteresis=hysteresis,
            alpha=alpha,
            enable_factor_windows=enable_factor_windows,
            max_retired_results=max_retired_results,
            async_ingest=async_ingest,
            ingest_high_watermark=ingest_high_watermark,
            ingest_low_watermark=ingest_low_watermark,
            auto_checkpoint=auto_checkpoint,
            checkpoint_meta=checkpoint_meta,
            on_checkpoint=on_checkpoint,
        )

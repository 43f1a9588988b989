"""The live query runtime: long-lived sessions over unbounded streams.

This package composes the layers the rest of the repo builds — the SQL
front end, the shared-workload optimizer, the chunked streaming engine,
and the out-of-order front door — into one long-lived session class:

* :class:`ShardedSession` — N shard cores
  (:class:`~repro.runtime.core.SessionCore`) over a hash-partitioned
  key space behind one coordinator clock, with pluggable execution
  backends (deterministic serial; a ``multiprocessing`` worker pool
  over pipes; a shared-memory ring data plane — see
  ``docs/backends.md`` for the backend contract) and a partial-merge
  coordinator (DESIGN.md §7, invariant 10);
* :class:`QuerySession` — the same class pinned to one serial shard:
  the single-process service shape of the paper's motivating Azure IoT
  Central scenario.

The service, the scenario runner and the CLI construct and restore
:class:`ShardedSession` directly; one shard runs in-process whatever
backend it names (:func:`has_workers`).  The life-cycle and the chunk
clock are :class:`~repro.runtime.ingest.SessionFrontDoor` (DESIGN.md
§8).

``async_ingest=True`` puts a bounded queue and a background pump thread
in front of ingestion — pushes return without waiting for flushes,
backpressure instead of loss (DESIGN.md §8, invariant 11).

A session is also *durable*: ``session.snapshot(path)`` captures the
whole session at a safe watermark and ``ShardedSession.restore(path)``
resumes it bit-identically on any backend (DESIGN.md §9, invariant
12) — see :mod:`repro.runtime.checkpoint` for the format,
:mod:`repro.runtime.faults` for the deterministic fault-injection
harness, and ``docs/durability.md`` for the crash-recovery story.

See DESIGN.md §6 for the generation/switch model and invariant 9 for
the observational-equivalence contract.
"""

from .checkpoint import (
    CheckpointStore,
    Snapshot,
    latest_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from .core import (
    RETIRED_RESULT_CAP,
    RegisterAck,
    SessionCore,
    ShardReport,
)
from .faults import Fault, FaultPlan
from .results import (
    PartialResults,
    PlanSwitchRecord,
    WindowResults,
    finalize_partials,
)
from .ingest import DEFAULT_INGEST_HIGH_WATERMARK, IngestStats
from .session import QuerySession
from .sharding import (
    DEFAULT_CONTROL_TIMEOUT,
    SHARD_BACKENDS,
    ProcessShardBackend,
    SerialShardBackend,
    ShardedSession,
    SharedMemoryShardBackend,
    has_workers,
)
from .shm_ring import RingSpec, ShmRing

__all__ = [
    "CheckpointStore",
    "DEFAULT_CONTROL_TIMEOUT",
    "DEFAULT_INGEST_HIGH_WATERMARK",
    "Fault",
    "FaultPlan",
    "IngestStats",
    "PartialResults",
    "PlanSwitchRecord",
    "ProcessShardBackend",
    "QuerySession",
    "RETIRED_RESULT_CAP",
    "RegisterAck",
    "RingSpec",
    "SHARD_BACKENDS",
    "SerialShardBackend",
    "SessionCore",
    "ShardReport",
    "ShardedSession",
    "SharedMemoryShardBackend",
    "ShmRing",
    "Snapshot",
    "WindowResults",
    "finalize_partials",
    "has_workers",
    "latest_checkpoint",
    "read_checkpoint",
    "write_checkpoint",
]

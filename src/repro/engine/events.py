"""Columnar event batches — the engines' input representation.

An :class:`EventBatch` is a finite, timestamp-sorted slice of a stream
held as NumPy columns (timestamp, key, value).  Keys are dense integer
ids (``0 .. num_keys-1``); :func:`encode_keys` remaps arbitrary key
values.  ``horizon`` marks the end of observed time: only window
instances that close at or before the horizon are emitted, so all plans
agree on which instances exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from ..errors import ExecutionError

#: The stream event schema, column by column — the single source of
#: truth every data plane lays events out from: `EventBatch` columns,
#: the per-shard slices of :meth:`KeyPartitioner.split_arrays`, and the
#: shared-memory ring slots of :mod:`repro.runtime.shm_ring` (which
#: sizes its fixed-capacity slots as ``slot_events * EVENT_BYTES``).
EVENT_COLUMN_DTYPES = (
    ("timestamp", np.dtype(np.int64)),
    ("key", np.dtype(np.int64)),
    ("value", np.dtype(np.float64)),
)

#: Bytes one event occupies across all columns.
EVENT_BYTES = sum(dtype.itemsize for _, dtype in EVENT_COLUMN_DTYPES)


@dataclass(frozen=True)
class EventBatch:
    """A finite, sorted, columnar batch of stream events."""

    timestamps: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    horizon: int
    num_keys: int

    def __post_init__(self) -> None:
        n = len(self.timestamps)
        if len(self.keys) != n or len(self.values) != n:
            raise ExecutionError("event columns must have equal length")
        if n:
            if self.timestamps[0] < 0:
                raise ExecutionError("timestamps must be non-negative")
            if np.any(np.diff(self.timestamps) < 0):
                raise ExecutionError("timestamps must be sorted ascending")
            if int(self.timestamps[-1]) >= self.horizon:
                raise ExecutionError(
                    "horizon must exceed the last event timestamp"
                )
            if self.keys.min() < 0 or self.keys.max() >= self.num_keys:
                raise ExecutionError("keys must be dense ids in [0, num_keys)")
        if self.num_keys < 1:
            raise ExecutionError("num_keys must be >= 1")

    @property
    def num_events(self) -> int:
        return len(self.timestamps)

    def __len__(self) -> int:
        return self.num_events

    def rows(self) -> Iterable[tuple[int, int, float]]:
        """Iterate events as ``(timestamp, key, value)`` rows."""
        for i in range(self.num_events):
            yield (
                int(self.timestamps[i]),
                int(self.keys[i]),
                float(self.values[i]),
            )

    def iter_time_chunks(
        self, chunk_ticks: int
    ) -> Iterable[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
        """Iterate ``(start, end, timestamps, keys, values)`` chunks.

        Chunks tile ``[0, horizon)`` in ``chunk_ticks``-wide blocks (the
        last one is clipped to the horizon).  Column slices are views,
        not copies — this is the input iterator of the chunked streaming
        executor, which advances its watermark one block at a time.
        """
        if chunk_ticks < 1:
            raise ExecutionError(
                f"chunk_ticks must be >= 1, got {chunk_ticks}"
            )
        lo = 0
        for start in range(0, self.horizon, chunk_ticks):
            end = min(start + chunk_ticks, self.horizon)
            hi = int(np.searchsorted(self.timestamps, end, side="left"))
            yield (
                start,
                end,
                self.timestamps[lo:hi],
                self.keys[lo:hi],
                self.values[lo:hi],
            )
            lo = hi

    def slice_time(self, start: int, end: int) -> "EventBatch":
        """Events with ``start <= ts < end`` as a new batch."""
        lo = int(np.searchsorted(self.timestamps, start, side="left"))
        hi = int(np.searchsorted(self.timestamps, end, side="left"))
        return EventBatch(
            timestamps=self.timestamps[lo:hi],
            keys=self.keys[lo:hi],
            values=self.values[lo:hi],
            horizon=min(self.horizon, end),
            num_keys=self.num_keys,
        )


#: Integers at or beyond this magnitude are not all representable in
#: float64, so a row table cannot prove they arrived unrounded.
_EXACT_INT_LIMIT = float(2**53)


def _first_malformed_row(rows) -> "str | None":
    """Name the first row that is not three numbers (a NaN *value* is
    a legal event, so a clean scan returns ``None``)."""
    for i, item in enumerate(rows):
        try:
            ts, key, value = item
            int(ts), int(key), float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            return (
                f"events[{i}]: expected [ts, key, value], got {item!r} "
                f"({exc})"
            )
    return None


def event_table(events, num_keys: int) -> np.ndarray:
    """Validate ``(ts, key, value)`` rows into an ``(n, 3)`` float64
    table — the check every batch front end (both session classes'
    ``push_many`` and the service manager) runs before applying any of
    a batch.

    ``events`` is an iterable of rows or an ``(n, 3)`` array.  The
    batch is checked whole and the first offending row is named: three
    numeric fields per row; timestamps and keys integral and below
    2**53 in magnitude (they travel through float64, which must not
    round them); ``ts >= 0``; keys inside ``[0, num_keys)``.  A NaN in
    a numeric array is a real NaN (a legal value; a NaN ts or key fails
    the exactness check), so only rows and object arrays, where
    ``None`` converts to NaN, earn the per-row scan.
    """
    rows = events if isinstance(events, (list, np.ndarray)) else list(events)
    if len(rows) == 0:
        return np.empty((0, 3), dtype=np.float64)
    try:
        if isinstance(rows, np.ndarray):
            table = np.asarray(rows, dtype=np.float64)
        elif set(map(len, rows)) == {3}:
            # One flat pass: ``asarray`` on nested lists costs half as
            # much again.
            table = np.fromiter(
                chain.from_iterable(rows), np.float64, 3 * len(rows)
            ).reshape(-1, 3)
        else:
            table = None
    except (TypeError, ValueError, OverflowError):
        table = None
    if table is None or table.shape[1:] != (3,):
        raise ExecutionError(
            _first_malformed_row(rows)
            or "events must be rows of [ts, key, value]"
        )
    if np.isnan(table).any() and getattr(rows, "dtype", object) == object:
        # ``None`` converts to NaN silently, so a NaN anywhere earns
        # the per-row scan (which lets a real NaN value through).
        problem = _first_malformed_row(rows)
        if problem is not None:
            raise ExecutionError(problem)
    ids = table[:, :2]
    exact = np.abs(ids) < _EXACT_INT_LIMIT
    if exact.all():
        exact = ids.astype(np.int64) == ids
    if not exact.all():
        i = int(np.argmin(exact.all(axis=1)))
        row = rows[i].tolist() if isinstance(rows, np.ndarray) else rows[i]
        raise ExecutionError(
            f"events[{i}]: timestamp and key must be integers below "
            f"2**53 (exact in float64), got {list(row)!r}"
        )
    ts, keys = table[:, 0], table[:, 1]
    if ts.min() < 0:
        i = int(np.argmax(ts < 0))
        raise ExecutionError(
            f"events[{i}]: timestamp {int(ts[i])} must be >= 0"
        )
    if keys.min() < 0 or keys.max() >= num_keys:
        i = int(np.argmax((keys < 0) | (keys >= num_keys)))
        raise ExecutionError(
            f"events[{i}]: key {int(keys[i])} outside dense id space "
            f"[0, {num_keys})"
        )
    return table


@dataclass(frozen=True)
class EventColumns:
    """Validated engine columns (int64, int64, float64; contiguous)
    and the ``num_keys`` they were checked against.  Unpacks as
    ``ts, keys, values``."""

    ts: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    num_keys: int

    def __iter__(self):
        return iter((self.ts, self.keys, self.values))


def event_columns(events, num_keys: int) -> EventColumns:
    """:func:`event_table`, split into the engines' ``(ts, keys,
    values)`` columns.  Idempotent: columns already validated against
    the same ``num_keys`` come back untouched, so a batch checked at
    one front door (the service manager) is not checked again at the
    next (``push_many``, on apply and on every tail replay)."""
    if isinstance(events, EventColumns):
        if events.num_keys == num_keys:
            return events
        events = np.column_stack(tuple(events))
    table = event_table(events, num_keys)
    return EventColumns(
        table[:, 0].astype(np.int64),
        table[:, 1].astype(np.int64),
        np.ascontiguousarray(table[:, 2]),
        num_keys,
    )


def make_batch(
    timestamps: Sequence[int],
    values: Sequence[float],
    keys: "Sequence[int] | None" = None,
    horizon: "int | None" = None,
    num_keys: "int | None" = None,
) -> EventBatch:
    """Build an :class:`EventBatch` from Python sequences (sorting if
    needed)."""
    ts = np.asarray(timestamps, dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    if keys is None:
        key_arr = np.zeros(len(ts), dtype=np.int64)
    else:
        key_arr = np.asarray(keys, dtype=np.int64)
    if len(ts) and np.any(np.diff(ts) < 0):
        order = np.argsort(ts, kind="stable")
        ts, vals, key_arr = ts[order], vals[order], key_arr[order]
    if num_keys is None:
        num_keys = int(key_arr.max()) + 1 if len(key_arr) else 1
    if horizon is None:
        horizon = int(ts[-1]) + 1 if len(ts) else 1
    return EventBatch(
        timestamps=ts,
        keys=key_arr,
        values=vals,
        horizon=horizon,
        num_keys=num_keys,
    )


def encode_keys(raw_keys: Sequence) -> tuple[np.ndarray, dict]:
    """Remap arbitrary key values to dense ids.

    Returns ``(ids, mapping)`` where ``mapping`` goes original → id,
    assigned in order of first appearance.
    """
    mapping: dict = {}
    ids = np.empty(len(raw_keys), dtype=np.int64)
    for i, key in enumerate(raw_keys):
        if key not in mapping:
            mapping[key] = len(mapping)
        ids[i] = mapping[key]
    return ids, mapping


# ----------------------------------------------------------------------
# Key-sharded partitioning (DESIGN.md §7, §12)
# ----------------------------------------------------------------------
#: Fibonacci-hashing multiplier (2^64 / φ): consecutive dense key ids
#: spread low-discrepancy across slots, so round-robin slots stay
#: balanced at any shard count.
_FIB_MIX = np.uint64(0x9E3779B97F4A7C15)

#: Size of the virtual-slot pool keys hash into.  A shard owns a set of
#: slots, not a set of keys — migrating load relabels slots in the
#: slot → shard map instead of rehashing the key space (DESIGN.md §12).
DEFAULT_NUM_SLOTS = 256


def key_slots(
    num_keys: int, num_slots: int = DEFAULT_NUM_SLOTS
) -> np.ndarray:
    """Deterministic key → virtual-slot map for a dense id space.

    Returns an ``(num_keys,)`` int64 array with entries in
    ``[0, num_slots)``.  The map is a pure function of its arguments —
    every participant (coordinator, workers, tests) derives the same
    hash without communicating — and never changes during a session:
    elasticity lives entirely in the slot → shard map.
    """
    if num_keys < 1:
        raise ExecutionError(f"num_keys must be >= 1, got {num_keys}")
    if num_slots < 1:
        raise ExecutionError(f"num_slots must be >= 1, got {num_slots}")
    keys = np.arange(num_keys, dtype=np.uint64)
    with np.errstate(over="ignore"):
        hashed = (keys * _FIB_MIX) >> np.uint64(32)
    return (hashed % np.uint64(num_slots)).astype(np.int64)


def default_slot_map(
    num_slots: int, num_shards: int
) -> np.ndarray:
    """Round-robin slot → shard map: slot ``s`` starts on shard
    ``s % num_shards``.  Composed with :func:`key_slots` this is the
    layout every fresh :class:`KeyPartitioner` boots with."""
    if num_slots < 1:
        raise ExecutionError(f"num_slots must be >= 1, got {num_slots}")
    if num_shards < 1:
        raise ExecutionError(f"num_shards must be >= 1, got {num_shards}")
    return (np.arange(num_slots, dtype=np.int64) % num_shards)


def shard_assignment(
    num_keys: int,
    num_shards: int,
    num_slots: int = DEFAULT_NUM_SLOTS,
) -> np.ndarray:
    """Deterministic key → shard map for a dense id space.

    Returns an ``(num_keys,)`` int64 array with entries in
    ``[0, num_shards)``: the composition of :func:`key_slots` with the
    :func:`default_slot_map` — i.e. the slot layout before any
    migration has relabelled a slot.
    """
    return default_slot_map(num_slots, num_shards)[
        key_slots(num_keys, num_slots)
    ]


@dataclass(frozen=True)
class BatchShard:
    """One shard's slice of a partitioned :class:`EventBatch`.

    ``batch`` re-encodes keys into the shard's *local* dense id space
    (``0 .. len(global_keys) - 1``, ascending global order); shards that
    own no keys carry an empty batch with one dummy local key.
    ``indices`` are the events' positions in the source batch, so
    :func:`merge_batch_shards` can reassemble the original bit-exactly
    (including arrival order among equal timestamps).
    """

    shard: int
    batch: EventBatch
    global_keys: np.ndarray  # (local_num_keys,) local id -> global id
    indices: np.ndarray  # (num_events,) positions in the source batch


class KeyPartitioner:
    """Vectorized key-space partitioner shared by all sharding layers.

    Keys hash once into a fixed pool of virtual slots
    (:func:`key_slots`); a mutable slot → shard map assigns slots to
    shards.  The partitioner precomputes the composed key → shard map,
    each shard's owned-key list, and the global → local dense
    re-encoding.  Partitioning preserves the batch invariants: column
    slices stay timestamp-sorted (stable mask selection), the horizon
    is inherited unchanged, and local key ids are dense.

    Elasticity: :meth:`with_slot_map` derives a sibling partitioner for
    a relabelled slot map (a migration / split / merge) without
    rehashing keys — the key → slot hash is immutable for the life of
    the stream.
    """

    def __init__(
        self,
        num_keys: int,
        num_shards: int,
        slot_map: "np.ndarray | None" = None,
        num_slots: int = DEFAULT_NUM_SLOTS,
    ):
        if slot_map is None:
            slot_map = default_slot_map(num_slots, num_shards)
        slot_map = np.asarray(slot_map, dtype=np.int64)
        if slot_map.ndim != 1 or slot_map.size < 1:
            raise ExecutionError("slot_map must be a 1-d array")
        if slot_map.min() < 0 or slot_map.max() >= num_shards:
            raise ExecutionError(
                f"slot_map entries must lie in [0, {num_shards})"
            )
        self.num_slots = int(slot_map.size)
        self.slot_map = slot_map
        self.slot_of_key = key_slots(num_keys, self.num_slots)
        self.num_keys = num_keys
        self.num_shards = num_shards
        self.shard_of = slot_map[self.slot_of_key]
        self.owned = [
            np.flatnonzero(self.shard_of == shard)
            for shard in range(num_shards)
        ]
        # Global key -> local dense id within its owning shard.
        self.local_id = np.empty(num_keys, dtype=np.int64)
        for owned in self.owned:
            self.local_id[owned] = np.arange(owned.size, dtype=np.int64)

    def local_num_keys(self, shard: int) -> int:
        """Local dense-id space size (>= 1 even for empty shards)."""
        return max(1, int(self.owned[shard].size))

    def with_slot_map(
        self, slot_map: np.ndarray, num_shards: "int | None" = None
    ) -> "KeyPartitioner":
        """Sibling partitioner for a relabelled slot map (same keys,
        same key → slot hash).  ``num_shards`` may grow or shrink for
        splits/merges."""
        return KeyPartitioner(
            self.num_keys,
            self.num_shards if num_shards is None else num_shards,
            slot_map=np.asarray(slot_map, dtype=np.int64),
        )

    def split_arrays(
        self, ts: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> "list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]":
        """Split sorted columns into per-shard ``(ts, local_keys,
        values, indices)`` slices (the live session's hot path)."""
        shards = self.shard_of[keys]
        local = self.local_id[keys]
        out = []
        for shard in range(self.num_shards):
            mask = shards == shard
            idx = np.flatnonzero(mask)
            out.append((ts[idx], local[idx], values[idx], idx))
        return out

    def partition(self, batch: EventBatch) -> "list[BatchShard]":
        """Partition ``batch`` into one :class:`BatchShard` per shard."""
        if batch.num_keys != self.num_keys:
            raise ExecutionError(
                f"batch has {batch.num_keys} keys, partitioner expects "
                f"{self.num_keys}"
            )
        out = []
        for shard, (ts, local, values, idx) in enumerate(
            self.split_arrays(batch.timestamps, batch.keys, batch.values)
        ):
            out.append(
                BatchShard(
                    shard=shard,
                    batch=EventBatch(
                        timestamps=ts,
                        keys=local,
                        values=values,
                        horizon=batch.horizon,
                        num_keys=self.local_num_keys(shard),
                    ),
                    global_keys=self.owned[shard],
                    indices=idx,
                )
            )
        return out


def partition_batch(batch: EventBatch, num_shards: int) -> "list[BatchShard]":
    """Hash-partition ``batch`` by key into ``num_shards`` slices.

    Each slice is timestamp-sorted with the parent's horizon and a
    local dense key space — a valid :class:`EventBatch` any engine or
    session core can consume directly.  The union of slices is exactly
    the input: :func:`merge_batch_shards` reassembles it bit-for-bit.
    """
    return KeyPartitioner(batch.num_keys, num_shards).partition(batch)


def merge_batch_shards(
    shards: Sequence[BatchShard],
    num_keys: "int | None" = None,
    horizon: "int | None" = None,
) -> EventBatch:
    """Inverse of :func:`partition_batch`: scatter shard slices back to
    source positions, restoring the original batch exactly."""
    if not shards:
        raise ExecutionError("cannot merge zero shards")
    total = sum(s.batch.num_events for s in shards)
    ts = np.empty(total, dtype=np.int64)
    keys = np.empty(total, dtype=np.int64)
    values = np.empty(total, dtype=np.float64)
    for shard in shards:
        if shard.batch.num_events == 0:
            continue
        ts[shard.indices] = shard.batch.timestamps
        keys[shard.indices] = shard.global_keys[shard.batch.keys]
        values[shard.indices] = shard.batch.values
    if num_keys is None:
        num_keys = max(
            (int(s.global_keys.max()) + 1 for s in shards if s.global_keys.size),
            default=1,
        )
    if horizon is None:
        horizon = max(s.batch.horizon for s in shards)
    return EventBatch(
        timestamps=ts,
        keys=keys,
        values=values,
        horizon=horizon,
        num_keys=num_keys,
    )

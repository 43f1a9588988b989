"""The ``.rstream`` capture format: a recorded run as a columnar file.

Recording a scenario run (``record=`` on the runner, ``--record`` on
the CLI) captures everything replay needs to reproduce the run
bit-identically:

* the **exact arrival stream** — the compiled event columns *after*
  the out-of-order profile reordered them, laid out column-by-column
  in :data:`~repro.engine.events.EVENT_COLUMN_DTYPES` order (raw
  little-endian array bytes, 24 B/event — compact enough to commit a
  capture as a test fixture);
* the **op schedule** — every register/deregister/rebalance, pinned
  to the arrival index it fired at;
* the **runtime shape** the run used, and the **outcome** it produced
  (result digest + logical counters) so a replay can assert identity
  without re-deriving anything.

On disk (the :mod:`~repro.runtime.container` framing checkpoints use,
with a JSON header instead of pickle — a capture is shareable data,
not trusted code)::

    magic (6) | version (u16 LE) | sha256(body) (32) | body
    body = header_len (u32 LE) | header (UTF-8 JSON) | column bytes

Writes are atomic; reads verify magic, version, checksum, column
dtypes, and byte counts and raise
:class:`~repro.errors.ExecutionError` on any mismatch — a torn or
tampered capture never partial-replays.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..engine.events import EVENT_COLUMN_DTYPES
from ..errors import ExecutionError
from ..runtime.container import read_framed, write_framed

__all__ = [
    "RSTREAM_MAGIC",
    "RSTREAM_VERSION",
    "StreamCapture",
    "read_rstream",
    "write_rstream",
]

#: File magic — identifies a factor-windows stream capture.
RSTREAM_MAGIC = b"RSTRM\x00"

#: Format version; bumped on any incompatible layout change.
RSTREAM_VERSION = 1

_HEADER_LEN = struct.Struct("<I")

#: The canonical column layout, serialized into every header so a
#: reader can refuse a capture whose schema it does not understand.
_COLUMNS = tuple(
    (name, dtype.newbyteorder("<").str) for name, dtype in EVENT_COLUMN_DTYPES
)


@dataclass
class StreamCapture:
    """One recorded run, in memory.

    ``ops`` is the arrival-pinned op schedule:
    ``(index, kind, payload)`` tuples where ``kind`` is ``register``
    (payload: a query-spec mapping), ``deregister`` (payload: the
    query name), or ``rebalance`` (payload: ``None``); ops at index
    ``i`` apply before the ``i``-th event is pushed.  ``runtime`` is
    the runtime-spec mapping of the recorded run; ``outcome`` its
    recorded digest and logical counters; ``meta`` anything else the
    recorder wants to keep (scenario name, description).
    """

    timestamps: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    horizon: int
    num_keys: int
    max_lateness: int
    ops: "tuple[tuple[int, str, object], ...]" = ()
    runtime: dict = field(default_factory=dict)
    outcome: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def num_events(self) -> int:
        return int(self.timestamps.size)


def write_rstream(capture: StreamCapture, path: "str | Path") -> Path:
    """Serialize ``capture`` to ``path`` atomically; returns the path."""
    columns = [
        np.ascontiguousarray(column, dtype=np.dtype(dtype_str))
        for column, (_, dtype_str) in zip(
            (capture.timestamps, capture.keys, capture.values), _COLUMNS
        )
    ]
    lengths = {column.size for column in columns}
    if len(lengths) != 1:
        raise ExecutionError(
            f"capture columns disagree on length: {sorted(lengths)}"
        )
    header = {
        "num_events": capture.num_events,
        "num_keys": int(capture.num_keys),
        "horizon": int(capture.horizon),
        "max_lateness": int(capture.max_lateness),
        "columns": [list(column) for column in _COLUMNS],
        "ops": [
            [int(index), str(kind), payload]
            for index, kind, payload in capture.ops
        ],
        "runtime": capture.runtime,
        "outcome": capture.outcome,
        "meta": capture.meta,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = _HEADER_LEN.pack(len(header_bytes)) + header_bytes
    body += b"".join(column.tobytes() for column in columns)
    return write_framed(path, RSTREAM_MAGIC, RSTREAM_VERSION, body)


def read_rstream(path: "str | Path") -> StreamCapture:
    """Load and verify one capture.

    Raises :class:`~repro.errors.ExecutionError` on a missing file, a
    foreign or truncated header, a version or schema mismatch, or a
    checksum failure — a capture either replays exactly or not at all.
    """
    path = Path(path)
    body = read_framed(
        path, RSTREAM_MAGIC, RSTREAM_VERSION, "capture", "stream capture"
    )
    if len(body) < _HEADER_LEN.size:
        raise ExecutionError(f"{path}: capture body is truncated")
    (header_len,) = _HEADER_LEN.unpack_from(body, 0)
    header_end = _HEADER_LEN.size + header_len
    if len(body) < header_end:
        raise ExecutionError(f"{path}: capture header is truncated")
    try:
        header = json.loads(body[_HEADER_LEN.size : header_end])
    except ValueError as exc:
        raise ExecutionError(
            f"{path}: capture header is not valid JSON: {exc}"
        ) from exc
    columns_declared = tuple(
        (name, dtype_str) for name, dtype_str in header.get("columns", ())
    )
    if columns_declared != _COLUMNS:
        raise ExecutionError(
            f"{path}: capture column schema {columns_declared!r} does "
            f"not match this build's {_COLUMNS!r}"
        )
    num_events = int(header["num_events"])
    payload = body[header_end:]
    expected = sum(
        num_events * np.dtype(dtype_str).itemsize for _, dtype_str in _COLUMNS
    )
    if len(payload) != expected:
        raise ExecutionError(
            f"{path}: capture carries {len(payload)} column bytes, "
            f"expected {expected} for {num_events} events"
        )
    arrays = []
    cursor = 0
    for _, dtype_str in _COLUMNS:
        dtype = np.dtype(dtype_str)
        span = num_events * dtype.itemsize
        arrays.append(
            np.frombuffer(payload[cursor : cursor + span], dtype=dtype).copy()
        )
        cursor += span
    ops = tuple(
        (int(index), str(kind), payload_item)
        for index, kind, payload_item in header.get("ops", ())
    )
    return StreamCapture(
        timestamps=arrays[0],
        keys=arrays[1],
        values=arrays[2],
        horizon=int(header["horizon"]),
        num_keys=int(header["num_keys"]),
        max_lateness=int(header["max_lateness"]),
        ops=ops,
        runtime=dict(header.get("runtime") or {}),
        outcome=dict(header.get("outcome") or {}),
        meta=dict(header.get("meta") or {}),
    )

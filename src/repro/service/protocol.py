"""The service wire protocol: JSON lines, explicit failure shapes.

One request per line, one reply per line, every line a single JSON
object — trivially debuggable with ``nc`` and dependency-free on both
ends.  Requests carry ``op`` and (for tenant ops) ``tenant``::

    {"op": "ingest", "tenant": "alice", "events": [[ts, key, value], ...]}

Replies always carry ``ok``.  The three failure shapes are part of the
robustness contract (DESIGN.md §10), not presentation:

* ``{"ok": false, "error": "overloaded", "reason": "rate_quota" |
  "queue_budget" | "circuit_open", "retry_after": <seconds>}`` —
  admission control *shed* the request.  Nothing was applied, nothing
  was queued; the client owns the retry (``retry_after`` is an honest
  quote, not a guess).
* ``{"ok": false, "error": "bad_request", "detail": ...}`` — the
  request itself is invalid (unknown op, malformed events, bad SQL,
  duplicate name).  Deterministic: retrying verbatim will fail again.
* ``{"ok": false, "error": "failed", "detail": ...}`` — the service
  could not complete the request (e.g. recovery itself failed).

Result payloads serialize :class:`~repro.runtime.results.WindowResults`
to plain lists; :func:`serialize_results` / :func:`deserialize_results`
round-trip them exactly (float64 values survive JSON bit-for-bit, which
is what lets the service suites assert *bit-identity* across the wire).
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import ExecutionError
from ..runtime.results import WindowResults
from ..windows.window import Window

__all__ = [
    "BadRequest",
    "Overloaded",
    "decode_line",
    "deserialize_results",
    "encode_line",
    "serialize_results",
]

#: Shed reasons the ``overloaded`` reply may carry.
OVERLOAD_REASONS = ("rate_quota", "queue_budget", "circuit_open")


class Overloaded(ExecutionError):
    """Admission control shed a request; carries the retry hint."""

    def __init__(self, reason: str, retry_after: float):
        if reason not in OVERLOAD_REASONS:  # pragma: no cover - defensive
            raise ExecutionError(f"unknown overload reason {reason!r}")
        super().__init__(
            f"overloaded ({reason}); retry after {retry_after:.3f}s"
        )
        self.reason = reason
        self.retry_after = float(retry_after)


class BadRequest(ExecutionError):
    """The request is invalid as stated — retrying it cannot help."""


def _plain(value):
    """``json`` hook: NumPy scalars and rows travel as the Python
    numbers they hold."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def encode_line(obj: dict) -> bytes:
    """One protocol line: compact JSON + newline."""
    return (
        json.dumps(
            obj, separators=(",", ":"), allow_nan=False, default=_plain
        ).encode()
        + b"\n"
    )


def decode_line(line: "bytes | str") -> dict:
    """Parse one protocol line into a request/reply dict.  Bytes go
    to ``json`` as they are: invalid UTF-8 is malformed, not rewritten
    into text the sender never wrote."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8
        raise BadRequest(f"malformed JSON line: {exc}") from exc
    if not isinstance(obj, dict):
        raise BadRequest(
            f"expected a JSON object per line, got {type(obj).__name__}"
        )
    return obj


def serialize_results(results: "dict[str, dict]") -> dict:
    """``{name: {window: WindowResults}}`` → JSON-able lists.

    Shape: ``{name: [{"window": [range, slide], "start_instance": i,
    "values": [[...], ...]}, ...]}``, windows sorted for a stable wire
    order.  float64 survives JSON exactly (repr round-trip), so the
    other end reconstructs bit-identical arrays.  An *empty* instance
    of MIN / MAX / AVG / MEDIAN is NaN, which strict JSON cannot spell:
    it travels as ``null`` and :func:`deserialize_results` turns it
    back into NaN.
    """
    out: dict = {}
    for name, by_window in results.items():
        blocks = []
        for window in sorted(
            by_window, key=lambda w: (w.range, w.slide)
        ):
            block = by_window[window]
            values = block.values.tolist()
            if np.isnan(block.values).any():
                values = [
                    [None if v != v else v for v in row] for row in values
                ]
            blocks.append(
                {
                    "window": [window.range, window.slide],
                    "start_instance": block.start_instance,
                    "values": values,
                }
            )
        out[name] = blocks
    return out


def deserialize_results(
    payload: dict,
) -> "dict[str, dict[Window, WindowResults]]":
    """Inverse of :func:`serialize_results` (client-side)."""
    out: dict = {}
    for name, blocks in payload.items():
        by_window: dict = {}
        for block in blocks:
            window = Window(*block["window"])
            # ``null`` (an empty instance) converts back to NaN here.
            values = np.asarray(block["values"], dtype=np.float64)
            if values.ndim == 1:  # zero-instance block
                values = values.reshape(values.shape[0], 0)
            start = int(block["start_instance"])
            by_window[window] = WindowResults(
                query=name,
                window=window,
                start_instance=start,
                frontier=start + values.shape[1],
                values=values,
            )
        out[name] = by_window
    return out

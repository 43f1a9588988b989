"""In-memory spans around calls into each layer's public functions.

Spans are recorded from the benchmark's own files (nothing under
``src/`` is instrumented), kept in memory, and written once at exit as
Chrome trace-event JSON (open in ``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path


class Tracer:
    """Records ``(name, start_ns, end_ns, parent, batch_id, thread)``."""

    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        self._threads: "dict[int, int]" = {}

    @contextlib.contextmanager
    def span(self, name: str, batch_id: "int | None" = None):
        stack = self._local.__dict__.setdefault("stack", [])
        ident = threading.get_ident()
        thread = self._threads.setdefault(ident, len(self._threads))
        index = len(self.spans)
        self.spans.append(None)  # reserve the slot: ids are list indices
        parent = stack[-1] if stack else None
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield index
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans[index] = (name, start, end, parent, batch_id, thread)

    def durations_ms(self, name: str) -> "list[float]":
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name]

    def self_ns(self) -> "dict[str, int]":
        """Per-name self time: a span's duration minus its children's."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: "dict[str, int]" = {}
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0) + (end - start) - child[index]
        return out

    def write_chrome(self, path: Path) -> Path:
        origin = min((s[1] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": thread,
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"id": index, "parent": parent, "batch_id": batch_id},
            }
            for index, (name, start, end, parent, batch_id, thread) in enumerate(
                self.spans
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
        return path


class NullTracer:
    """Tracing off: ``span`` is a shared no-op context manager."""

    _noop = contextlib.nullcontext()

    def span(self, name: str, batch_id: "int | None" = None):
        return self._noop

    def durations_ms(self, name: str) -> "list[float]":
        return []

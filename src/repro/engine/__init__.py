"""The engines: columnar (the paper's N*k reference) and the chunked
pane operators (batch and live)."""

from .columnar import (
    WindowState,
    aggregate_from_provider,
    aggregate_raw,
    aggregate_raw_holistic,
    holistic_segment_values,
    num_complete_instances,
)
from .events import EventBatch, encode_keys, make_batch
from .executor import (
    ExecutionResult,
    available_engines,
    execute_plan,
    results_equal,
)
from .outoforder import (
    ReorderBuffer,
    ReorderStats,
    scramble_batch,
)
from .panes import logical_raw_pairs, pane_width
from .stats import ExecutionStats
from .streaming import ChunkedStreamingExecutor

__all__ = [
    "ChunkedStreamingExecutor",
    "EventBatch",
    "ExecutionResult",
    "ExecutionStats",
    "ReorderBuffer",
    "ReorderStats",
    "WindowState",
    "aggregate_from_provider",
    "aggregate_raw",
    "aggregate_raw_holistic",
    "available_engines",
    "encode_keys",
    "execute_plan",
    "holistic_segment_values",
    "logical_raw_pairs",
    "make_batch",
    "num_complete_instances",
    "pane_width",
    "results_equal",
    "scramble_batch",
]

"""General stream slicing (Scotty-style) baseline."""

from .edges import (
    assign_slices,
    expected_edge_count,
    slice_edges,
    window_slice_spans,
)
from .slicer import (
    SliceStore,
    SlicedExecutionResult,
    assemble_window,
    build_slice_store,
    execute_sliced,
)

__all__ = [
    "SliceStore",
    "SlicedExecutionResult",
    "assemble_window",
    "assign_slices",
    "build_slice_store",
    "execute_sliced",
    "expected_edge_count",
    "slice_edges",
    "window_slice_spans",
]

"""Tests for slice-edge computation."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.slicing.edges import (
    assign_slices,
    expected_edge_count,
    slice_edges,
    window_slice_spans,
)
from repro.windows.window import Window


class TestSliceEdges:
    def test_single_window_edges_are_slide_multiples(self):
        edges = slice_edges([Window(10, 5)], 20)
        assert list(edges) == [0, 5, 10, 15, 20]

    def test_union_of_two_slides(self):
        edges = slice_edges([Window(4, 2), Window(6, 3)], 12)
        assert list(edges) == [0, 2, 3, 4, 6, 8, 9, 10, 12]

    def test_redundant_coarse_slide_collapsed(self):
        fine = slice_edges([Window(4, 2)], 12)
        both = slice_edges([Window(4, 2), Window(8, 4)], 12)
        assert list(fine) == list(both)

    def test_horizon_always_included(self):
        edges = slice_edges([Window(7, 7)], 10)
        assert edges[-1] == 10

    def test_empty_window_set_rejected(self):
        with pytest.raises(ExecutionError):
            slice_edges([], 10)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ExecutionError):
            slice_edges([Window(4, 2)], 0)

    @pytest.mark.parametrize(
        "windows,horizon",
        [
            ([Window(4, 2), Window(6, 3)], 12),
            ([Window(4, 2), Window(6, 3)], 13),
            ([Window(10, 5)], 23),
            ([Window(10, 5), Window(14, 7)], 70),
        ],
    )
    def test_edge_count_inclusion_exclusion(self, windows, horizon):
        edges = slice_edges(windows, horizon)
        assert len(edges) == expected_edge_count(windows, horizon)


class TestAssignSlices:
    def test_assignment(self):
        edges = np.asarray([0, 5, 10, 15])
        ts = np.asarray([0, 4, 5, 9, 14])
        assert list(assign_slices(ts, edges)) == [0, 0, 1, 1, 2]


class TestWindowSliceSpans:
    def test_tumbling_aligned_spans(self):
        edges = slice_edges([Window(10, 5)], 30)
        lo, hi = window_slice_spans(Window(10, 5), edges, 5)
        assert list(hi - lo) == [2, 2, 2, 2, 2]

    def test_mixed_slides_variable_counts(self):
        windows = [Window(4, 2), Window(6, 3)]
        edges = slice_edges(windows, 24)
        lo, hi = window_slice_spans(Window(6, 3), edges, 7)
        assert np.all(hi > lo)

    def test_misaligned_window_rejected(self):
        edges = np.asarray([0, 5, 10])
        with pytest.raises(ExecutionError):
            window_slice_spans(Window(4, 2), edges, 2)

"""Plan execution facade and the fixed table of engine names.

``execute_plan(plan, batch, engine=...)`` validates a logical plan and
runs it on a finite event batch with one of the paths in
:func:`available_engines`, returning an :class:`ExecutionResult` that
bundles per-window result arrays with execution statistics.  This is
the function the benchmark harness, the examples, and the equivalence
tests all call.

Two implementations behind four names (DESIGN.md §5):

``columnar``
    The paper's reference vectorized engine: every raw read
    materializes all ``N * k`` (event, instance) pairs and scatters
    them.
``streaming-chunked``
    The chunked pane operators every session runs, fed watermark blocks
    of the largest window range with bounded open state.
``columnar-panes``
    The same operators fed the whole batch as one chunk: bin each raw
    read's events once (one indexed scatter), assemble instances by
    folding their panes in place (``fold_covering_sets``).  Its closes
    are large, so sibling subtrees of a factor window advance on helper
    threads, one per further CPU (``engine.streaming.ENGINE_HELPERS``).
``columnar-panes-native``
    A legacy name for ``columnar-panes``, kept for the frozen ledger.

All paths produce identical results and identical *logical* pair
counts; they differ only in wall-clock and *physical* touches.  A
chunk size of its own is ``ChunkedStreamingExecutor(plan, batch,
chunk_ticks=...)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ExecutionError
from ..plans.nodes import LogicalPlan
from ..plans.validate import validate_plan
from ..windows.window import Window
from .columnar import (
    WindowState,
    aggregate_from_provider,
    aggregate_raw,
    aggregate_raw_holistic,
)
from .events import EventBatch
from .stats import ExecutionStats
from .streaming import ChunkedStreamingExecutor

Record = tuple[str, int, int, float]  # (window label, key, instance, value)


@dataclass
class ExecutionResult:
    """Results and statistics from executing one plan on one batch."""

    plan: LogicalPlan
    results: dict[Window, np.ndarray]
    stats: ExecutionStats

    @property
    def throughput(self) -> float:
        return self.stats.throughput

    def to_records(self, drop_empty: bool = False) -> list[Record]:
        """Flatten results into sorted, comparable records.

        With ``drop_empty=True``, NaN results (empty instances) are
        omitted — useful when comparing against engines that do not
        emit empty instances.  Built columnar-first: key/instance
        columns come from NumPy and tuples materialize once at the end.
        """
        records: list[Record] = []
        for window in sorted(self.results, key=lambda w: (w.range, w.slide)):
            array = self.results[window]
            label = f"W({window.range},{window.slide})"
            num_keys, num_instances = array.shape
            flat = array.reshape(-1)
            keys = np.repeat(np.arange(num_keys), num_instances)
            instances = np.tile(np.arange(num_instances), num_keys)
            if drop_empty:
                mask = ~np.isnan(flat)
                flat, keys, instances = flat[mask], keys[mask], instances[mask]
            records.extend(
                zip(
                    [label] * len(flat),
                    keys.tolist(),
                    instances.tolist(),
                    flat.tolist(),
                )
            )
        return records


def available_engines() -> tuple[str, ...]:
    """Names of all execution paths, sorted."""
    return tuple(sorted(_ENGINES))


def execute_plan(
    plan: LogicalPlan, batch: EventBatch, engine: str = "columnar"
) -> ExecutionResult:
    """Validate ``plan`` and execute it over ``batch`` on ``engine``,
    any name in :func:`available_engines`."""
    fn = _ENGINES.get(engine)
    if fn is None:
        raise ExecutionError(
            f"unknown engine {engine!r}; available: "
            + ", ".join(available_engines())
        )
    validate_plan(plan)
    return fn(plan, batch)


def _execute_columnar(plan: LogicalPlan, batch: EventBatch) -> ExecutionResult:
    stats = ExecutionStats(events=batch.num_events)
    started = time.perf_counter()
    states: dict[Window, WindowState] = {}
    results: dict[Window, np.ndarray] = {}

    for node in plan.topological_window_order():
        aggregate = node.aggregate
        if node.provider is None:
            if aggregate.mergeable:
                state = aggregate_raw(batch, node.window, aggregate, stats)
                states[node.window] = state
                if not node.is_factor:
                    results[node.window] = state.finalized(aggregate)
            else:
                if node.is_factor:
                    raise ExecutionError(
                        "holistic aggregates cannot be factor windows"
                    )
                results[node.window] = aggregate_raw_holistic(
                    batch, node.window, aggregate, stats
                )
        else:
            provider_state = states.get(node.provider)
            if provider_state is None:
                raise ExecutionError(
                    f"provider {node.provider} has no state for {node.window}"
                )
            state = aggregate_from_provider(
                provider_state, node.window, aggregate, batch.horizon, stats
            )
            states[node.window] = state
            if not node.is_factor:
                results[node.window] = state.finalized(aggregate)

    stats.wall_seconds = time.perf_counter() - started
    return ExecutionResult(plan, results, stats)


def _execute_chunked(
    plan: LogicalPlan, batch: EventBatch, chunk_ticks: "int | None" = None
) -> ExecutionResult:
    executor = ChunkedStreamingExecutor(plan, batch, chunk_ticks=chunk_ticks)
    return ExecutionResult(plan, executor.run(), executor.stats)


def _execute_columnar_panes(
    plan: LogicalPlan, batch: EventBatch
) -> ExecutionResult:
    """The chunked operators fed one chunk: the whole batch."""
    return _execute_chunked(plan, batch, chunk_ticks=max(1, batch.horizon))


_ENGINES: dict[str, Callable[[LogicalPlan, EventBatch], ExecutionResult]] = {
    "columnar": _execute_columnar,
    "columnar-panes": _execute_columnar_panes,
    # The frozen ledger ladder (benchmarks/ledger/ladder.py:44-46)
    # climbs this name; ledger v2 (ROADMAP item 1) deletes it.  Whether
    # holistic compute runs in C is REPRO_KERNELS' call, as everywhere.
    "columnar-panes-native": _execute_columnar_panes,
    "streaming-chunked": _execute_chunked,
}


def results_equal(
    left: ExecutionResult,
    right: ExecutionResult,
    rtol: float = 1e-9,
    atol: float = 1e-9,
) -> bool:
    """Compare two execution results window-by-window (NaN == NaN)."""
    if set(left.results) != set(right.results):
        return False
    for window, array in left.results.items():
        other = right.results[window]
        if array.shape != other.shape:
            return False
        if not np.allclose(array, other, rtol=rtol, atol=atol, equal_nan=True):
            return False
    return True

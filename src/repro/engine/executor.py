"""Plan execution facade and the engine/path registry.

``execute_plan(plan, batch, engine=...)`` runs a logical plan on a
finite event batch with any registered execution path and returns an
:class:`ExecutionResult` bundling per-window result arrays with
execution statistics.  This is the function the benchmark harness, the
examples, and the equivalence tests all call.

Registered paths (DESIGN.md §5):

``columnar``
    The original vectorized engine: every raw read materializes all
    ``N * k`` (event, instance) pairs and scatters them.
``columnar-panes``
    The pane-partitioned fast path: bin events once per pane table
    (one indexed scatter), assemble instances by folding their panes
    in place (``fold_covering_sets``).
``columnar-panes-native``
    The pane path with its holistic segment compute running in the
    optional compiled kernels (``repro._kernels``); bit-identical to
    ``columnar-panes`` — and the same code on mergeable plans — and
    falls back to it transparently when no C compiler is available.
``streaming``
    Row-at-a-time reference interpreter (the semantic oracle).
``streaming-chunked``
    Streaming semantics in vectorized watermark blocks with bounded
    open state.

All paths produce identical results and identical *logical* pair
counts; they differ only in wall-clock and *physical* touches.
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
from .panes import execute_plan_panes
from .stats import ExecutionStats
from .streaming import ChunkedStreamingExecutor, StreamingExecutor

Record = tuple[str, int, int, float]  # (window label, key, instance, value)


@dataclass
class ExecutionResult:
    """Results and statistics from executing one plan on one batch."""

    plan: LogicalPlan
    results: dict[Window, np.ndarray]
    stats: ExecutionStats
    engine: str

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


EngineFn = Callable[..., ExecutionResult]

_ENGINES: dict[str, EngineFn] = {}


def register_engine(name: str) -> "Callable[[EngineFn], EngineFn]":
    """Register an execution path under ``name`` (decorator).

    The registered callable receives ``(plan, batch, **engine_kwargs)``
    and must return an :class:`ExecutionResult`.  Registering an
    existing name replaces the path — the hook third-party backends use
    to shadow a built-in.
    """

    def decorator(fn: EngineFn) -> EngineFn:
        _ENGINES[name] = fn
        return fn

    return decorator


def available_engines() -> tuple[str, ...]:
    """Names of all registered execution paths, sorted."""
    return tuple(sorted(_ENGINES))


def execute_plan(
    plan: LogicalPlan,
    batch: EventBatch,
    engine: str = "columnar",
    validate: bool = True,
    **engine_kwargs,
) -> ExecutionResult:
    """Execute ``plan`` over ``batch`` on the ``engine`` path.

    ``engine`` is any name in :func:`available_engines`; extra keyword
    arguments are forwarded to the path (e.g. ``chunk_ticks`` for
    ``streaming-chunked``).
    """
    if validate:
        validate_plan(plan)
    fn = _ENGINES.get(engine)
    if fn is None:
        raise ExecutionError(
            f"unknown engine {engine!r}; available: "
            + ", ".join(available_engines())
        )
    return fn(plan, batch, **engine_kwargs)


@register_engine("columnar")
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
    return ExecutionResult(
        plan=plan, results=results, stats=stats, engine="columnar"
    )


@register_engine("columnar-panes")
def _execute_columnar_panes(
    plan: LogicalPlan, batch: EventBatch
) -> ExecutionResult:
    results, stats = execute_plan_panes(plan, batch)
    return ExecutionResult(
        plan=plan, results=results, stats=stats, engine="columnar-panes"
    )


@register_engine("columnar-panes-native")
def _execute_columnar_panes_native(
    plan: LogicalPlan, batch: EventBatch
) -> ExecutionResult:
    results, stats = execute_plan_panes(plan, batch, native=True)
    return ExecutionResult(
        plan=plan,
        results=results,
        stats=stats,
        engine="columnar-panes-native",
    )


@register_engine("streaming")
def _execute_streaming(plan: LogicalPlan, batch: EventBatch) -> ExecutionResult:
    executor = StreamingExecutor(plan, batch)
    results = executor.run()
    executor.stats.events = batch.num_events
    return ExecutionResult(
        plan=plan, results=results, stats=executor.stats, engine="streaming"
    )


@register_engine("streaming-chunked")
def _execute_streaming_chunked(
    plan: LogicalPlan,
    batch: EventBatch,
    chunk_ticks: "int | None" = None,
) -> ExecutionResult:
    executor = ChunkedStreamingExecutor(plan, batch, chunk_ticks=chunk_ticks)
    results = executor.run()
    return ExecutionResult(
        plan=plan,
        results=results,
        stats=executor.stats,
        engine="streaming-chunked",
    )


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

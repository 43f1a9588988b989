"""Plan execution facade and the engine/path registry.

``execute_plan(plan, batch, engine=...)`` runs a logical plan on a
finite event batch with any registered execution path and returns an
:class:`ExecutionResult` bundling per-window result arrays with
execution statistics.  This is the function the benchmark harness, the
examples, and the equivalence tests all call.

Registered paths (DESIGN.md §5) — three implementations; the two pane
names are two chunk sizes of one of them (a fifth, legacy name is an
alias: see the comment at the registry's end):

``columnar``
    The reference vectorized engine: every raw read materializes all
    ``N * k`` (event, instance) pairs and scatters them.
``columnar-panes``
    The pane engine fed the whole batch as one chunk: bin each raw
    read's events once (one indexed scatter), assemble instances by
    folding their panes in place (``fold_covering_sets``).
``streaming-chunked``
    The same operators fed ``chunk_ticks``-wide watermark blocks
    (default: the largest window range) with bounded open state — what
    a live session runs.
``streaming``
    Row-at-a-time reference interpreter (the semantic oracle).

All paths produce identical results and identical *logical* pair
counts; they differ only in wall-clock and *physical* touches.
"""

from __future__ import annotations

import inspect
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
from .streaming import ChunkedStreamingExecutor, StreamingExecutor

Record = tuple[str, int, int, float]  # (window label, key, instance, value)


@dataclass
class ExecutionResult:
    """Results and statistics from executing one plan on one batch."""

    plan: LogicalPlan
    results: dict[Window, np.ndarray]
    stats: ExecutionStats
    engine: str = ""  # the name execute_plan was asked for; it stamps it

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

    The registered callable receives ``(plan, batch, **options)`` — its
    keyword parameters are the options the path accepts — and must
    return an :class:`ExecutionResult`; :func:`execute_plan` stamps it
    with the name it was asked for.
    Registering an existing name replaces the path — the hook
    third-party backends use to shadow a built-in.
    """

    def decorator(fn: EngineFn) -> EngineFn:
        _ENGINES[name] = fn
        return fn

    return decorator


def available_engines() -> tuple[str, ...]:
    """Names of all registered execution paths, sorted."""
    return tuple(sorted(_ENGINES))


def _check_options(engine: str, fn: EngineFn, options: dict) -> None:
    """Refuse an option the path has no keyword parameter for."""
    params = inspect.signature(fn).parameters
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return
    accepted = list(params)[2:]  # after (plan, batch)
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        raise ExecutionError(
            f"engine {engine!r} takes no option "
            f"{', '.join(map(repr, unknown))}; it accepts: "
            + (", ".join(accepted) or "none")
        )


def execute_plan(
    plan: LogicalPlan,
    batch: EventBatch,
    engine: str = "columnar",
    validate: bool = True,
    **engine_kwargs,
) -> ExecutionResult:
    """Execute ``plan`` over ``batch`` on the ``engine`` path.

    ``engine`` is any name in :func:`available_engines`; extra keyword
    arguments are the path's options (e.g. ``chunk_ticks`` for
    ``streaming-chunked``).  An option the named path does not take is
    an :class:`~repro.errors.ExecutionError`, raised before anything
    runs.
    """
    fn = _ENGINES.get(engine)
    if fn is None:
        raise ExecutionError(
            f"unknown engine {engine!r}; available: "
            + ", ".join(available_engines())
        )
    if engine_kwargs:
        _check_options(engine, fn, engine_kwargs)
    if validate:
        validate_plan(plan)
    result = fn(plan, batch, **engine_kwargs)
    result.engine = engine
    return result


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
    return ExecutionResult(plan, results, stats)


@register_engine("streaming")
def _execute_streaming(plan: LogicalPlan, batch: EventBatch) -> ExecutionResult:
    executor = StreamingExecutor(plan, batch)
    return ExecutionResult(plan, executor.run(), executor.stats)


@register_engine("streaming-chunked")
def _execute_streaming_chunked(
    plan: LogicalPlan,
    batch: EventBatch,
    chunk_ticks: "int | None" = None,
) -> ExecutionResult:
    executor = ChunkedStreamingExecutor(plan, batch, chunk_ticks=chunk_ticks)
    return ExecutionResult(plan, executor.run(), executor.stats)


@register_engine("columnar-panes")
def _execute_columnar_panes(
    plan: LogicalPlan, batch: EventBatch
) -> ExecutionResult:
    """The chunked operators fed one chunk: the whole batch."""
    return _execute_streaming_chunked(
        plan, batch, chunk_ticks=max(1, batch.horizon)
    )


# The frozen ledger ladder (benchmarks/ledger/ladder.py:45) still climbs
# a fourth pane rung, so its name stays — bound to the same callable
# until ROADMAP item 4 unfreezes the ladder.  Whether holistic compute
# runs in C is REPRO_KERNELS' call there, as at every other call site.
register_engine("columnar-panes-native")(_execute_columnar_panes)


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

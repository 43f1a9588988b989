"""The per-event test oracle: a row-at-a-time interpreter of logical plans.

:class:`StreamingExecutor` is deliberately simple: a stateful
interpreter that feeds one event at a time to per-window operators.  It
checks the paper's correctness claim — a rewritten plan, run as a
stream, returns the original plan's answer — independently of the
engines in ``src/``: operators keep bounded state (only open window
instances), emit each instance's partial the moment the watermark
passes its end, and downstream windows consume those partials
incrementally, exactly like the paper's Trill plans.

It shares no operator code with the chunked pane operators, and not the
covering-set fold ``columnar`` uses, so it is the one reference that
checks the fold itself.  :func:`execute` returns an
:class:`~repro.engine.executor.ExecutionResult` whose stats carry the
logical pair counts, so every engine path compares against it the way
it compares against ``columnar`` (DESIGN.md invariants 5 and 6).

Importable from every test directory (``tests/conftest.py`` puts this
directory on the path).
"""

from __future__ import annotations

import time

import numpy as np

from repro.aggregates.base import AggregateFunction
from repro.engine.columnar import num_complete_instances
from repro.engine.events import EventBatch
from repro.engine.executor import ExecutionResult
from repro.engine.stats import ExecutionStats
from repro.errors import ExecutionError
from repro.plans.nodes import LogicalPlan
from repro.plans.validate import validate_plan
from repro.windows.coverage import covering_multiplier
from repro.windows.window import Window


def execute(plan: LogicalPlan, batch: EventBatch) -> ExecutionResult:
    """Validate ``plan`` and run it over ``batch`` one event at a time."""
    validate_plan(plan)
    executor = StreamingExecutor(plan, batch)
    return ExecutionResult(plan, executor.run(), executor.stats)


class _StreamingWindowOperator:
    """Shared machinery: open-instance state and watermark-driven close."""

    def __init__(
        self,
        window: Window,
        aggregate: AggregateFunction,
        num_keys: int,
        num_instances: int,
        stats: ExecutionStats,
    ):
        self.window = window
        self.aggregate = aggregate
        self.num_keys = num_keys
        self.num_instances = num_instances
        self.stats = stats
        self.consumers: list[_SubAggWindowOperator] = []
        self.results: "np.ndarray | None" = None
        self._partials: dict[tuple[int, int], tuple] = {}
        self._next_close = 0

    def expose_results(self) -> None:
        """Allocate the finalized-result sink (user windows only)."""
        self.results = np.full(
            (self.num_keys, self.num_instances), np.nan, dtype=np.float64
        )

    def advance(self, watermark: int) -> None:
        """Close every instance whose interval ends at or before
        ``watermark`` and hand its partial downstream."""
        window = self.window
        while (
            self._next_close < self.num_instances
            and window.interval(self._next_close)[1] <= watermark
        ):
            self._close(self._next_close)
            self._next_close += 1

    def _close(self, instance: int) -> None:
        identity = self.aggregate.identity_components
        for key in range(self.num_keys):
            partial = self._partials.pop((key, instance), identity)
            if self.results is not None:
                self.results[key, instance] = float(
                    self.aggregate.finalize(partial)
                )
            for consumer in self.consumers:
                consumer.accept_partial(instance, key, partial)

    def _merge_into(self, key: int, instance: int, partial: tuple) -> None:
        slot = (key, instance)
        current = self._partials.get(slot)
        if current is None:
            self._partials[slot] = partial
        else:
            self._partials[slot] = self.aggregate.combine(current, partial)

    @property
    def open_instances(self) -> int:
        """Number of instances currently holding state (boundedness
        check for tests)."""
        return len({instance for (_, instance) in self._partials})


class _RawWindowOperator(_StreamingWindowOperator):
    """Aggregates raw events; one pair touch per covering instance."""

    def on_event(self, ts: int, key: int, value: float) -> None:
        lifted = self.aggregate.lift(value)
        for instance in self.window.instances_covering(ts):
            if instance >= self.num_instances:
                continue
            self.stats.record_pairs(self.window, 1)
            self._merge_into(key, instance, lifted)


class _HolisticWindowOperator(_StreamingWindowOperator):
    """Buffers raw values and evaluates the holistic aggregate at close."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._buffers: dict[tuple[int, int], list[float]] = {}

    def on_event(self, ts: int, key: int, value: float) -> None:
        for instance in self.window.instances_covering(ts):
            if instance >= self.num_instances:
                continue
            self.stats.record_pairs(self.window, 1)
            self._buffers.setdefault((key, instance), []).append(value)

    def _close(self, instance: int) -> None:
        for key in range(self.num_keys):
            values = self._buffers.pop((key, instance), [])
            if self.results is not None:
                self.results[key, instance] = self.aggregate.compute(values)
        if self.consumers:
            raise ExecutionError(
                f"holistic {self.aggregate.name} cannot feed downstream windows"
            )


class _SubAggWindowOperator(_StreamingWindowOperator):
    """Aggregates a provider's emitted partials (covering-set routing)."""

    def __init__(self, provider: Window, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.provider = provider
        self.multiplier = covering_multiplier(self.window, provider)

    def accept_partial(self, provider_instance: int, key: int, partial) -> None:
        """Route one provider partial to every consumer instance whose
        covering set contains it (Definition 2 inverted)."""
        start = provider_instance * self.provider.slide
        s1 = self.window.slide
        s2 = self.provider.slide
        for j in range(self.multiplier):
            anchor = start - j * s2
            if anchor < 0:
                break
            if anchor % s1 != 0:
                continue
            instance = anchor // s1
            if instance >= self.num_instances:
                continue
            self.stats.record_pairs(self.window, 1)
            self._merge_into(key, instance, partial)


class StreamingExecutor:
    """Executes a logical plan one event at a time.

    Build once per (plan, batch); ``run`` returns finalized result
    arrays per user window, shaped like the columnar engine's output.
    """

    def __init__(self, plan: LogicalPlan, batch: EventBatch):
        self.plan = plan
        self.batch = batch
        self.stats = ExecutionStats()
        self._operators: dict[Window, _StreamingWindowOperator] = {}
        self._raw_ops: list[_StreamingWindowOperator] = []
        self._topo: list[_StreamingWindowOperator] = []
        self._build()

    def _build(self) -> None:
        batch = self.batch
        for node in self.plan.topological_window_order():
            num_instances = num_complete_instances(node.window, batch.horizon)
            args = (
                node.window,
                node.aggregate,
                batch.num_keys,
                num_instances,
                self.stats,
            )
            operator: _StreamingWindowOperator
            if node.provider is None:
                if node.aggregate.mergeable:
                    operator = _RawWindowOperator(*args)
                else:
                    operator = _HolisticWindowOperator(*args)
                self._raw_ops.append(operator)
            else:
                provider_op = self._operators.get(node.provider)
                if provider_op is None:
                    raise ExecutionError(
                        f"provider {node.provider} not built before "
                        f"{node.window}"
                    )
                operator = _SubAggWindowOperator(node.provider, *args)
                provider_op.consumers.append(operator)
            if not node.is_factor:
                operator.expose_results()
            self._operators[node.window] = operator
            self._topo.append(operator)

    def run(self) -> "dict[Window, np.ndarray]":
        """Process the whole batch and return per-user-window results."""
        started = time.perf_counter()
        for ts, key, value in self.batch.rows():
            # Providers close (and propagate) before consumers observe
            # the new watermark: topological order guarantees it.
            for operator in self._topo:
                operator.advance(ts)
            for operator in self._raw_ops:
                operator.on_event(ts, key, value)
        for operator in self._topo:
            operator.advance(self.batch.horizon)
        self.stats.events = self.batch.num_events
        self.stats.wall_seconds = time.perf_counter() - started
        return {
            node.window: self._operators[node.window].results
            for node in self.plan.user_window_nodes()
        }

    def max_open_instances(self) -> int:
        """Largest per-operator open-instance count (state boundedness)."""
        return max(op.open_instances for op in self._topo)


"""Exact work counters across the engine paths.

The pane-path grid — two hopping windows of ``k`` instances per event,
k in {4, 16, 64}, MIN — on ``columnar``, ``columnar-panes`` and
``streaming-chunked``, for the original plan and the optimizer's best
(factor) plan, on one small seeded stream.  Counts are held equal, not
close:

* ``pairs_per_window`` equals the analytic model on every path: the
  per-event covering interval for a raw read
  (``oracle_logical_pairs``), ``keys * instances * M`` for a window
  read off its provider (Theorem 3's covering multiplier);
* ``total_physical`` equals the literal the engines produced when this
  test was written.  A change that moves one names the new figure in
  its commit and explains it.
"""

import pytest

import oracle_logical_pairs as oracle
from repro.aggregates.registry import MIN
from repro.core.optimizer import optimize
from repro.core.rewrite import rewrite_plan
from repro.engine.columnar import num_complete_instances
from repro.engine.executor import execute_plan
from repro.plans.builder import original_plan
from repro.windows.coverage import covering_multiplier
from repro.windows.window import Window, WindowSet
from repro.workloads.streams import constant_rate_stream

STREAM = constant_rate_stream(16_000, num_keys=4, rate=2, seed=1)

#: ``(k, plan, engine) -> total_physical``.  ``columnar`` touches every
#: logical pair; the pane paths bin each event once per raw read.
PHYSICAL_TOUCHES = {
    (4, "original", "columnar"): 126_200,
    (4, "original", "columnar-panes"): 39_584,
    (4, "original", "streaming-chunked"): 39_584,
    (4, "factor", "columnar"): 24_212,
    (4, "factor", "columnar-panes"): 25_492,
    (4, "factor", "streaming-chunked"): 25_492,
    (16, "original", "columnar"): 476_000,
    (16, "original", "columnar-panes"): 60_800,
    (16, "original", "streaming-chunked"): 60_800,
    (16, "factor", "columnar"): 45_380,
    (16, "factor", "columnar-panes"): 46_660,
    (16, "factor", "streaming-chunked"): 46_660,
    (64, "original", "columnar"): 1_443_200,
    (64, "original", "columnar-panes"): 122_624,
    (64, "original", "streaming-chunked"): 122_624,
    (64, "factor", "columnar"): 107_012,
    (64, "factor", "columnar-panes"): 108_292,
    (64, "factor", "streaming-chunked"): 108_292,
}


def _plan(k: int, kind: str):
    windows = WindowSet([Window(k * 25, 25), Window(k * 50, 50)])
    if kind == "original":
        return original_plan(windows, MIN)
    return rewrite_plan(optimize(windows, MIN).best, MIN)


def _modelled_pairs(plan, batch) -> dict:
    model = {}
    for node in plan.topological_window_order():
        instances = num_complete_instances(node.window, batch.horizon)
        if node.provider is None:
            model[node.window] = oracle.logical_raw_pairs(
                batch.timestamps, node.window, instances
            )
        else:
            model[node.window] = (
                batch.num_keys
                * instances
                * covering_multiplier(node.window, node.provider)
            )
    return model


@pytest.mark.parametrize("k,kind,engine", sorted(PHYSICAL_TOUCHES))
def test_work_counters_are_exact(k, kind, engine):
    plan = _plan(k, kind)
    stats = execute_plan(plan, STREAM, engine=engine).stats
    assert stats.pairs_per_window == _modelled_pairs(plan, STREAM)
    assert stats.total_physical == PHYSICAL_TOUCHES[(k, kind, engine)]

"""Ablation: the compiled kernels vs pure NumPy (DESIGN.md §11).

Two measurements, each preceded by a bit-identity assertion (a kernel
that got faster by being wrong would be worthless):

* **kernel micros** — each C kernel (`repro._kernels`) against the
  NumPy code it replaces (``REPRO_KERNELS=1`` against ``0``): a live
  raw operator's absorb of one run into its pane store (STDEV: codes,
  lifts and the ``ufunc.at`` scatter per component), a live-sized
  covering-set fold (``fold_covering_sets``, width 8), the one-call
  holistic window close a live operator runs per flush (MEDIAN over
  retained events, pair codes included), ``event_columns`` on a
  1 000-row list, the front door's rows-to-columns pass, the reorder
  buffer's ``push_batch`` over jittered 1 000-row batches, and a
  two-shard session's ``_buffer_run`` of one 20 000-event Zipf run
  (slot counts, load steps and the shard split);
* **engine path** — the pane engine (``columnar-panes``) on a holistic
  plan, where the segmented sort dominates, under ``REPRO_KERNELS=1``
  against ``REPRO_KERNELS=0``: one engine name, the switch every call
  site obeys.

The gates are the speed-up ratios asserted below: each compares two
runs on one host, so no baseline from another host is needed.
This is the only C-kernel-vs-NumPy speed gate in the repo:
the ledger runs every workload with kernels on and never prices the
switch.  When no C compiler is available the test is skipped — the
fallback path's correctness is covered by the tier-1 suite, not here.
"""

import time

import numpy as np
import pytest

from repro import _kernels as kernels
from repro.aggregates.registry import MEDIAN, STDEV
from repro.bench.reporting import format_table
from repro.engine.columnar import fold_covering_sets, holistic_close
from repro.engine.events import event_columns
from repro.engine.executor import execute_plan, results_equal
from repro.engine.outoforder import ReorderBuffer
from repro.engine.stats import ExecutionStats
from repro.engine.streaming import _ChunkedRawOperator
from repro.plans.builder import original_plan
from repro.runtime import ShardedSession
from repro.windows.window import Window, WindowSet
from repro.workloads.streams import constant_rate_stream

#: Loose acceptance floors — CI machines are noisy.
MIN_KERNEL_SPEEDUP = 1.5
MIN_ENGINE_SPEEDUP = 1.1
#: Stream length of the engine-path run (and the close micro's sample).
EVENTS = 30_000
#: Rows per ``event_columns`` call and per reorder block: a front-door
#: batch.
ROWS = 1_000
#: Reorder blocks per timed pass, their disorder in ticks (eight events
#: a tick), and the routed run's length.
REORDER_BLOCKS = 100
REORDER_LATENESS = 32
ROUTE_EVENTS = 20_000


def _best(fn, reps=5):
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _best_fresh(make, run, reps=5):
    """Best time of ``run(make())`` with ``make`` untimed."""
    best = float("inf")
    for _ in range(reps):
        state = make()
        started = time.perf_counter()
        run(state)
        best = min(best, time.perf_counter() - started)
    return best


def _fold_micros(n: int, values, ts, keys, monkeypatch) -> "list[dict]":
    """Time the two mergeable-fold kernels against their NumPy bodies."""

    def under(mode, fn):
        with monkeypatch.context() as env:
            env.setenv("REPRO_KERNELS", mode)
            return fn()

    # One run of n events absorbed by a live (unbounded) STDEV raw
    # operator of W(40, 20) (pane 20) over 64 keys whose pane store
    # already spans the run (it absorbed it once, untimed).
    def raw_operator():
        operator = _ChunkedRawOperator(
            Window(40, 20), STDEV, 64, None, ExecutionStats()
        )
        return absorb(operator)

    def absorb(operator):
        operator.absorb(ts, keys, values)
        return operator

    stores = [
        under(mode, lambda: absorb(raw_operator()))._store for mode in ("0", "1")
    ]
    for py_store, c_store in zip(*stores):
        assert py_store.tobytes() == c_store.tobytes()
    absorb_py = under("0", lambda: _best_fresh(raw_operator, absorb, reps=20))
    absorb_c = under("1", lambda: _best_fresh(raw_operator, absorb, reps=20))

    # A live close: 8 instances of width 8, stride 4, over a column cut
    # of a 64-key pane store.
    table = np.random.default_rng(1).normal(0.0, 1.0, (64, 48))
    comp = table[:, 3:]

    def fold():
        return fold_covering_sets(np.minimum, comp, 2, 4, 8, 8)

    assert under("0", fold).tobytes() == under("1", fold).tobytes()
    fold_py = under("0", lambda: _best(fold, reps=200))
    fold_c = under("1", lambda: _best(fold, reps=200))
    return [
        {
            "kernel": f"absorb_panes_stdev_{n}_events",
            "numpy_seconds": absorb_py,
            "native_seconds": absorb_c,
            "native_speedup": absorb_py / absorb_c,
        },
        {
            "kernel": "fold_sets_min_64x8x8",
            "numpy_seconds": fold_py,
            "native_seconds": fold_c,
            "native_speedup": fold_py / fold_c,
        },
    ]


def _kernel_micros(n: int, monkeypatch) -> "list[dict]":
    """Time the C kernel against the NumPy code it replaces."""
    rng = np.random.default_rng(0)
    values = rng.random(n)

    # A live close: n retained events of 64 keys, W(40, 20) (k = 2),
    # closing the n / 160 instances they cover.
    window = Window(40, 20)
    ts = np.sort(rng.integers(0, n // 8, n)).astype(np.int64)
    keys = rng.integers(0, 64, n).astype(np.int64)
    m1 = int(ts[-1]) // window.slide

    def numpy_close():
        with monkeypatch.context() as env:
            env.setenv("REPRO_KERNELS", "0")
            return holistic_close(ts, keys, values, window, 0, m1, 64, MEDIAN)

    def kernel_close():
        return kernels.holistic_close(
            ts, keys, values, window.slide, window.instances_per_event,
            0, m1, 64, MEDIAN,
        )

    block_py, pairs_py = numpy_close()
    block_c, pairs_c = kernel_close()
    assert pairs_py == pairs_c
    np.testing.assert_array_equal(block_py, block_c)
    close_py = _best(numpy_close)
    close_c = _best(kernel_close)

    # A front-door batch: ROWS out-of-order tuples of 64 keys.
    rows = list(
        zip(
            (ts[:ROWS] + rng.integers(0, 8, ROWS)).tolist(),
            keys[:ROWS].tolist(),
            values[:ROWS].tolist(),
        )
    )

    def parse(mode):
        with monkeypatch.context() as env:
            env.setenv("REPRO_KERNELS", mode)
            return event_columns(rows, 64)

    for py_column, c_column in zip(parse("0"), parse("1")):
        assert py_column.dtype == c_column.dtype
        assert py_column.tobytes() == c_column.tobytes()
    parse_py = _best(lambda: parse("0"), reps=50)
    parse_c = _best(lambda: parse("1"), reps=50)

    return _fold_micros(n, values, ts, keys, monkeypatch) + [
        {
            "kernel": "holistic_close_median",
            "numpy_seconds": close_py,
            "native_seconds": close_c,
            "native_speedup": close_py / close_c,
        },
        {
            "kernel": f"event_columns_{ROWS}_rows",
            "numpy_seconds": parse_py,
            "native_seconds": parse_c,
            "native_speedup": parse_py / parse_c,
        },
    ]


def _front_door_micros(monkeypatch) -> "list[dict]":
    """Time the reorder and route kernels against their NumPy bodies,
    each after a bit-identity check."""
    rng = np.random.default_rng(2)

    def under(mode, fn):
        with monkeypatch.context() as env:
            env.setenv("REPRO_KERNELS", mode)
            return fn()

    def bits(columns):
        return [np.asarray(c).view(np.int64).tobytes() for c in columns]

    # Jittered front-door blocks: eight events a tick, each arriving up
    # to REORDER_LATENESS ticks early, so no event is late.
    n = REORDER_BLOCKS * ROWS
    ticks = np.arange(n, dtype=np.int64) // 8
    order = np.argsort(
        ticks + rng.integers(0, REORDER_LATENESS + 1, n), kind="stable"
    )
    ts, keys, values = ticks[order], rng.integers(0, 64, n), rng.random(n)
    blocks = [
        (ts[lo : lo + ROWS], keys[lo : lo + ROWS], values[lo : lo + ROWS])
        for lo in range(0, n, ROWS)
    ]

    def reorder():
        buffer = ReorderBuffer(REORDER_LATENESS)
        return [buffer.push_batch(*block) for block in blocks]

    assert [bits(out) for out in under("0", reorder)] == [
        bits(out) for out in under("1", reorder)
    ]
    reorder_py = under("0", lambda: _best(reorder))
    reorder_c = under("1", lambda: _best(reorder))

    # One released Zipf(1.2) run over two serial shards, crossing one
    # chunk end, as ``_apply_run`` hands it to the router.
    run_ts = np.arange(ROUTE_EVENTS, dtype=np.int64) // 8
    run_keys = (rng.zipf(1.2, ROUTE_EVENTS) % 256).astype(np.int64)
    run_values = rng.random(ROUTE_EVENTS)
    ends = [ROUTE_EVENTS // 2]
    session = ShardedSession(num_keys=256, num_shards=2, hysteresis=None)

    def route():
        session._array_buf = [[] for _ in session.active_shards]
        session._buffer_run(run_ts, run_keys, run_values, ends)

    def routed():
        return [
            [bits(part) for part in buf] for buf in session._array_buf
        ] + [bits([session._slot_events, session._slot_pending])]

    try:
        loads = session._slot_events.copy(), session._slot_pending.copy()
        under("0", route)
        numpy_routed = routed()
        session._slot_events[:], session._slot_pending[:] = loads
        under("1", route)
        assert routed() == numpy_routed
        route_py = under("0", lambda: _best(route, reps=20))
        route_c = under("1", lambda: _best(route, reps=20))
    finally:
        session.close()
    return [
        {
            "kernel": f"reorder_{REORDER_BLOCKS}x{ROWS}_rows",
            "numpy_seconds": reorder_py,
            "native_seconds": reorder_c,
            "native_speedup": reorder_py / reorder_c,
        },
        {
            "kernel": f"route_{ROUTE_EVENTS}_events_2_shards",
            "numpy_seconds": route_py,
            "native_seconds": route_c,
            "native_speedup": route_py / route_c,
        },
    ]


def _engine_path(stream, monkeypatch) -> dict:
    """The pane engine on a holistic plan, kernel off vs kernel on."""
    plan = original_plan(
        WindowSet([Window(64 * 25, 25), Window(64 * 50, 50)]), MEDIAN
    )

    def best_of_three(mode):
        with monkeypatch.context() as env:
            env.setenv("REPRO_KERNELS", mode)
            runs = [
                execute_plan(plan, stream, engine="columnar-panes")
                for _ in range(3)
            ]
        return runs[0], min(run.stats.wall_seconds for run in runs)

    reference, numpy_wall = best_of_three("0")
    native, native_wall = best_of_three("1")
    assert results_equal(reference, native)
    return {
        "plan": "original/median",
        "numpy_seconds": numpy_wall,
        "native_seconds": native_wall,
        "native_speedup": numpy_wall / native_wall,
    }


def test_kernels_ablation_report(monkeypatch):
    if not kernels.available():
        pytest.skip(
            f"compiled kernels unavailable: {kernels.availability_error()}"
        )
    micros = _kernel_micros(EVENTS, monkeypatch) + _front_door_micros(
        monkeypatch
    )
    stream = constant_rate_stream(EVENTS, seed=1)
    engine = _engine_path(stream, monkeypatch)

    for row in micros:
        assert row["native_speedup"] > MIN_KERNEL_SPEEDUP, (
            f"{row['kernel']} native kernel failed to beat NumPy "
            f"({row['native_speedup']:.2f}x)"
        )
    assert engine["native_speedup"] > MIN_ENGINE_SPEEDUP, (
        f"columnar-panes under REPRO_KERNELS=1 failed to beat itself "
        f"under REPRO_KERNELS=0 ({engine['native_speedup']:.2f}x)"
    )

    rows = [
        (
            row["kernel"],
            f"{row['numpy_seconds'] * 1e3:,.2f}",
            f"{row['native_seconds'] * 1e3:,.2f}",
            f"{row['native_speedup']:.2f}x",
        )
        for row in micros
    ]
    rows.append(
        (
            "engine: " + engine["plan"],
            f"{engine['numpy_seconds'] * 1e3:,.2f}",
            f"{engine['native_seconds'] * 1e3:,.2f}",
            f"{engine['native_speedup']:.2f}x",
        )
    )
    print(
        format_table(
            ["kernel", "NumPy ms", "native ms", "speedup"],
            rows,
            title=(
                f"Compiled hot kernels vs NumPy ({EVENTS:,} events/elements)"
            ),
        )
    )

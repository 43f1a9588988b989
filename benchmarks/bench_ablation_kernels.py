"""Ablation: the compiled holistic kernel vs pure NumPy (DESIGN.md §11).

Two measurements, each preceded by a bit-identity assertion (a kernel
that got faster by being wrong would be worthless):

* **kernel micro** — the C kernel (`repro._kernels`) against the
  NumPy code it replaces: segmented holistic compute (MEDIAN).
  (Raw-event binning and the reorder buffer have no kernel: one
  ``ufunc.at`` scatter in ``segment_reduce`` and one stable sort in
  ``ReorderBuffer.push_batch``, on every path);
* **engine path** — the pane engine (``columnar-panes``) on a holistic
  plan, where the segmented sort dominates, under ``REPRO_KERNELS=1``
  against ``REPRO_KERNELS=0``: one engine name, the switch every call
  site obeys.

The gates are the two speed-up ratios asserted below: each compares
two runs on one host, so no baseline from another host is needed.
This is the only C-kernel-vs-NumPy speed gate in the repo:
the ledger runs every workload with kernels on and never prices the
switch.  When no C compiler is available the test is skipped — the
fallback path's correctness is covered by the tier-1 suite, not here.
"""

import time

import numpy as np
import pytest

from repro import _kernels as kernels
from repro.aggregates.registry import MEDIAN
from repro.bench.reporting import format_table
from repro.engine.columnar import holistic_segment_values
from repro.engine.executor import execute_plan, results_equal
from repro.plans.builder import original_plan
from repro.windows.window import Window, WindowSet
from repro.workloads.streams import constant_rate_stream

#: Loose acceptance floors — CI machines are noisy.
MIN_KERNEL_SPEEDUP = 1.5
MIN_ENGINE_SPEEDUP = 1.1


def _best(fn, reps=5):
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _kernel_micros(n: int, monkeypatch) -> "list[dict]":
    """Time the C kernel against the NumPy code it replaces."""
    rng = np.random.default_rng(0)
    segs = max(n // 100, 16)
    codes = rng.integers(0, segs, n).astype(np.int64)
    values = rng.random(n)

    def numpy_path():
        with monkeypatch.context() as env:
            env.setenv("REPRO_KERNELS", "0")
            return holistic_segment_values(codes, values, MEDIAN)

    def kernel_path():
        return kernels.holistic_segment_values(codes, values, MEDIAN)

    ids_py, vals_py = numpy_path()
    ids_c, vals_c = kernel_path()
    np.testing.assert_array_equal(ids_py, ids_c)
    np.testing.assert_array_equal(vals_py, vals_c)
    hol_py = _best(numpy_path)
    hol_c = _best(kernel_path)

    return [
        {
            "kernel": "holistic_median",
            "numpy_seconds": hol_py,
            "native_seconds": hol_c,
            "native_speedup": hol_py / hol_c,
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


def test_kernels_ablation_report(report_sink, bench_events, monkeypatch):
    if not kernels.available():
        pytest.skip(
            f"compiled kernels unavailable: {kernels.availability_error()}"
        )
    n = max(bench_events, 30_000)
    micros = _kernel_micros(n, monkeypatch)
    stream = constant_rate_stream(bench_events, seed=1)
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
    report_sink(
        "ablation_kernels",
        format_table(
            ["kernel", "NumPy ms", "native ms", "speedup"],
            rows,
            title=(
                f"Compiled hot kernels vs NumPy ({n:,} events/elements)"
            ),
        ),
    )

"""Ablation: compiled hot kernels vs pure NumPy, and the zero-copy
data plane's bytes-copied-per-event gate (DESIGN.md §11).

Three measurements, each preceded by a bit-identity assertion (a
kernel that got faster by being wrong would be worthless):

* **kernel micro** — the C kernel (`repro._kernels`) against the
  NumPy code it replaces: segmented holistic compute (MEDIAN).
  (Raw-event binning and the reorder buffer have no kernel: one
  ``ufunc.at`` scatter in ``segment_reduce`` and one stable sort in
  ``ReorderBuffer.push_batch``, on every path);
* **engine path** — the pane engine (``columnar-panes``) on a holistic
  plan, where the segmented sort dominates, under ``REPRO_KERNELS=1``
  against ``REPRO_KERNELS=0``: one engine name, the switch every call
  site obeys;
* **zero-copy plane** — a shared-memory sharded session over the same
  stream, gating ``bytes_copied_per_event <= EVENT_BYTES`` (at most
  one materializing copy per event end-to-end; the steady-state borrow
  path copies nothing at all).

All gated metrics are machine-independent (speedup ratios and the
deterministic copy counter), so ``bench compare --portable-only``
diffs ``BENCH_kernels.json`` across commits and hardware.  When no C
compiler is available the kernel sections are skipped — the fallback
path's correctness is covered by the tier-1 suite, not here.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import _kernels as kernels
from repro.aggregates.registry import MEDIAN, SUM
from repro.bench.reporting import format_table, write_json_report
from repro.core.multiquery import Query
from repro.engine.columnar import holistic_segment_values
from repro.engine.executor import execute_plan, results_equal
from repro.plans.builder import original_plan
from repro.runtime import ShardedSession
from repro.runtime.shm_ring import EVENT_BYTES
from repro.windows.window import Window, WindowSet
from repro.workloads.streams import constant_rate_stream

JSON_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_JSON",
        Path(__file__).parent / "results" / "BENCH_kernels.json",
    )
)

NUM_KEYS = 64
RATE = 8
#: Loose acceptance floors — CI machines are noisy; the tighter
#: trajectory gate is ``bench compare`` against the stored baseline.
MIN_KERNEL_SPEEDUP = 1.5
MIN_ENGINE_SPEEDUP = 1.1


def _best(fn, reps=5):
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _kernel_micros(n: int) -> "list[dict]":
    """Time the C kernel against the NumPy code it replaces."""
    rng = np.random.default_rng(0)
    segs = max(n // 100, 16)
    codes = rng.integers(0, segs, n).astype(np.int64)
    values = rng.random(n)

    ids_py, vals_py = holistic_segment_values(
        codes, values, MEDIAN, native=False
    )
    ids_c, vals_c = holistic_segment_values(
        codes, values, MEDIAN, native=True
    )
    np.testing.assert_array_equal(ids_py, ids_c)
    np.testing.assert_array_equal(vals_py, vals_c)
    hol_py = _best(
        lambda: holistic_segment_values(codes, values, MEDIAN, native=False)
    )
    hol_c = _best(
        lambda: holistic_segment_values(codes, values, MEDIAN, native=True)
    )

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


def _zero_copy_plane(n: int) -> dict:
    """Shared-memory session end-to-end copy accounting."""
    stream = constant_rate_stream(
        n, num_keys=NUM_KEYS, rate=RATE, seed=2
    )
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=2,
        backend="shm",
        chunk_ticks=600,
        hysteresis=None,
    )
    try:
        session.register(Query("q", WindowSet([Window(300, 50)]), SUM))
        session.push_batch(stream)
        session.finish(horizon=stream.horizon)
        stats = session.stats()
    finally:
        session.close()
    return {
        "backend": "shm",
        "events": n,
        "bytes_copied": stats.bytes_copied,
        "bytes_copied_per_event": stats.bytes_copied / n,
        "copy_free_events": stats.copies_elided,
    }


def test_kernels_ablation_report(report_sink, bench_events, monkeypatch):
    if not kernels.available():
        pytest.skip(
            f"compiled kernels unavailable: {kernels.availability_error()}"
        )
    n = max(bench_events, 30_000)
    micros = _kernel_micros(n)
    stream = constant_rate_stream(bench_events, seed=1)
    engine = _engine_path(stream, monkeypatch)
    plane = _zero_copy_plane(bench_events)

    for row in micros:
        assert row["native_speedup"] > MIN_KERNEL_SPEEDUP, (
            f"{row['kernel']} native kernel failed to beat NumPy "
            f"({row['native_speedup']:.2f}x)"
        )
    assert engine["native_speedup"] > MIN_ENGINE_SPEEDUP, (
        f"columnar-panes under REPRO_KERNELS=1 failed to beat itself "
        f"under REPRO_KERNELS=0 ({engine['native_speedup']:.2f}x)"
    )
    # The tentpole gate: at most one materializing copy per event
    # through partition -> ring -> shard core (steady state copies
    # nothing; only early borrow releases localize).
    assert plane["bytes_copied_per_event"] <= EVENT_BYTES, (
        f"zero-copy plane copied "
        f"{plane['bytes_copied_per_event']:.1f} bytes/event "
        f"(> {EVENT_BYTES} = one copy per event)"
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
                f"Compiled hot kernels vs NumPy ({n:,} events/elements); "
                f"shm plane copied "
                f"{plane['bytes_copied_per_event']:.2f} bytes/event"
            ),
        ),
    )
    path = write_json_report(
        JSON_PATH,
        {
            "benchmark": "kernels",
            "events": n,
            "kernels": micros,
            "engine_path": engine,
            "zero_copy_plane": plane,
        },
    )
    assert path.exists()

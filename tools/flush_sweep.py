#!/usr/bin/env python
"""Split a live session's flush time into a per-flush constant and
per-event work.

Feeds the ledger's ``live_session`` input (seeded row batches, out of
order, one MEDIAN, two live plan switches) through one
``QuerySession`` per ``chunk_ticks`` value, timing every
``SessionCore._flush`` and every group's ``GroupRuntime.advance``.
Fewer, larger chunks do the same per-event work in fewer flushes, so a
least-squares line of flush time against flush count separates the two:
its slope is the fixed cost of one flush, its intercept the work that
does not depend on how the stream is cut.

    PYTHONPATH=src python tools/flush_sweep.py [--seed 1] [--runs 3]

Run it unchanged on two checkouts to compare them; it reads only
``QuerySession``, ``SessionCore._flush`` and ``GroupRuntime.advance``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks" / "ledger"))

CHUNKS = (None, 240, 480, 960, 1920)


def one_run(workload, inp, chunk_ticks) -> dict:
    from repro import QuerySession
    from repro.runtime.core import SessionCore
    from repro.runtime.group import GroupRuntime
    from workloads import make_query

    clocks = {"flush_s": 0.0, "flushes": 0, "groups": {}}
    flush, advance = SessionCore._flush, GroupRuntime.advance

    def timed_flush(core, to_watermark):
        t0 = time.perf_counter()
        flush(core, to_watermark)
        clocks["flush_s"] += time.perf_counter() - t0
        clocks["flushes"] += 1

    def timed_advance(runtime, watermark):
        t0 = time.perf_counter()
        advance(runtime, watermark)
        spent = clocks["groups"].setdefault(runtime.key[0], [0.0, 0])
        spent[0] += time.perf_counter() - t0
        spent[1] += 1

    SessionCore._flush, GroupRuntime.advance = timed_flush, timed_advance
    try:
        session = QuerySession(
            num_keys=workload.num_keys,
            max_lateness=workload.max_lateness,
            chunk_ticks=chunk_ticks,
        )
        queries = {q[0]: q for q in workload.queries(inp)}
        for spec in workload.initial:
            session.register(make_query(*spec))
        due = {index: (kind, name) for index, kind, name in inp["ops"]}
        for index, rows in enumerate(inp["batches"]):
            if index in due:
                kind, name = due[index]
                if kind == "register":
                    session.register(make_query(*queries[name]))
                else:
                    session.deregister(name)
            session.push_many(rows)
        session.finish(inp["stream"].horizon)
        session.close()
    finally:
        SessionCore._flush, GroupRuntime.advance = flush, advance
    return clocks


def fit(points) -> "tuple[float, float]":
    """Least-squares ``(slope, intercept)`` of ``y`` against ``x``."""
    xs, ys = zip(*points)
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in points) / sum(
        (x - mx) ** 2 for x in xs
    )
    return slope, my - slope * mx


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)

    import workloads

    workload = workloads.get("live_session")
    inp = workload.make_inputs(args.seed, workload.events)
    one_run(workload, inp, None)  # warm-up: imports, kernel build
    points = []
    print("| chunk_ticks | flushes | flush ms (median) | per group: µs per advance (median) |")
    print("|---|---|---|---|")
    for chunk in CHUNKS:
        runs = [one_run(workload, inp, chunk) for _ in range(args.runs)]
        points += [(r["flushes"], r["flush_s"] * 1e3) for r in runs]
        groups = {
            name: statistics.median(
                r["groups"][name][0] / r["groups"][name][1] * 1e6
                for r in runs
            )
            for name in sorted(runs[0]["groups"])
        }
        print(
            f"| {chunk} | {runs[0]['flushes']} | "
            f"{statistics.median(r['flush_s'] * 1e3 for r in runs):.1f} | "
            + ", ".join(f"{n} {us:.0f}" for n, us in groups.items())
            + " |"
        )
    slope, intercept = fit(points)
    print(
        f"\nflush ms = {slope:.3f} ms/flush x flushes + {intercept:.1f} ms "
        f"(least squares over {len(points)} runs)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Time the batch executor's operator schedule at several hand-off
constants.

Runs the best MIN plan of each of ``plan_batch``'s four window sets on
the ledger's constant-rate stream, on ``columnar-panes`` (one chunk)
and ``streaming-chunked`` (chunks of the largest range), once per
setting of ``engine.streaming.HANDOFF_CELLS`` and once with no helper
at all (``ENGINE_HELPERS = 0``: the serial loop), rotating through the
settings so host drift spreads over all of them.  Prints the median
milliseconds per setting and how many watermarks ran on helpers.

    PYTHONPATH=src REPRO_KERNELS=1 python tools/handoff_sweep.py \
        [--events 1000000] [--runs 7]

A hand-off pays off only on a host with a second CPU; on one CPU every
setting is the serial loop.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks" / "ledger"))

SETTINGS = ("serial", 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22)
ENGINES = ("columnar-panes", "streaming-chunked")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=1_000_000)
    parser.add_argument("--runs", type=int, default=7)
    args = parser.parse_args(argv)

    import inputs as gen
    from repro import MIN, execute_plan
    from repro.core.planner import plan_windows
    from repro.engine import streaming
    from repro.engine.events import EventBatch
    from repro.windows.window import Window, WindowSet

    stream = gen.constant_rate_stream(1, args.events, 64)
    batch = EventBatch(
        stream.ts, stream.keys, stream.values, stream.horizon, 64
    )
    plans = [
        plan_windows(WindowSet([Window(*pair) for pair in pairs]), MIN)
        .best_plan
        for pairs in gen.paper_window_sets().values()
    ]
    helpers = streaming.ENGINE_HELPERS
    times = {(s, e): [] for s in SETTINGS for e in ENGINES}
    rounds = dict.fromkeys(times, 0)
    current = []
    run_round = streaming._Round.run

    def counted(self, count):
        rounds[current[-1]] += 1
        run_round(self, count)

    streaming._Round.run = counted
    for _ in range(args.runs):
        for key in times:
            current.append(key)
            setting, engine = key
            streaming.ENGINE_HELPERS = 0 if setting == "serial" else helpers
            streaming.HANDOFF_CELLS = 1 if setting == "serial" else setting
            started = time.perf_counter()
            for plan in plans:
                execute_plan(plan, batch, engine=engine)
            times[key].append((time.perf_counter() - started) * 1e3)
    print(f"{helpers} helper(s); median ms of {args.runs} runs "
          "(watermarks on helpers per run)")
    print(f"{'HANDOFF_CELLS':>14}" + "".join(f"{e:>26}" for e in ENGINES))
    for setting in SETTINGS:
        cells = []
        for engine in ENGINES:
            key = (setting, engine)
            handed = rounds[key] // args.runs
            ms = statistics.median(times[key])
            cells.append(f"{ms:>18.1f} ({handed:>4})")
        label = (
            setting if setting == "serial"
            else f"2^{setting.bit_length() - 1}"
        )
        print(f"{label:>14}" + "".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

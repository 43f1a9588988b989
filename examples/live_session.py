"""A live dashboard session: dynamic queries over one device stream.

This example replaces the old simulation-only ``adaptive_rates.py``
flow: instead of replaying a rate trace against hypothetical plans, a
:class:`repro.runtime.QuerySession` actually *runs* — dashboards open
and close mid-stream, the event rate ramps up and back down, and the
session re-optimizes and switches shared plans live, at watermark
boundaries, without ever recomputing history or emitting a wrong
result (DESIGN.md §6, invariant 9).

The script streams out-of-order events through the session while:

1. a MIN dashboard is registered before any data;
2. a second MIN dashboard opens mid-stream — the optimizer reroutes
   the first dashboard's windows through the newcomer's smaller
   window, transplanting operator state;
3. the rate ramps 1 -> 30 events/tick, flipping the plan to a
   factor-window one (and back when the burst ends);
4. one dashboard closes again, retiring its operators.

Run with:  python examples/live_session.py
"""

import numpy as np

from repro import QuerySession
from repro.engine.outoforder import scramble_batch
from repro.engine.events import EventBatch

FAST = (
    "SELECT DeviceID, MIN(Reading) AS Fast FROM Sensors "
    "GROUP BY DeviceID, WINDOWS(HOPPING(second, 6, 3), "
    "HOPPING(second, 8, 4))"
)
HOURLY = (
    "SELECT DeviceID, MIN(Reading) AS Hourly FROM Sensors "
    "GROUP BY DeviceID, WINDOWS(TUMBLING(second, 2))"
)


def bursty_stream(seed: int = 7) -> EventBatch:
    """Integer-valued stream: rate 1, then a 30x burst, then rate 1."""
    rng = np.random.default_rng(seed)
    parts = []
    t0 = 0
    for rate, span in ((1, 600), (30, 600), (1, 600)):
        parts.append(np.repeat(np.arange(t0, t0 + span), rate))
        t0 += span
    ts = np.concatenate(parts)
    return EventBatch(
        timestamps=ts.astype(np.int64),
        keys=np.zeros(ts.size, dtype=np.int64),
        values=rng.integers(0, 100, ts.size).astype(np.float64),
        horizon=t0,
        num_keys=1,
    )


def main() -> None:
    batch = bursty_stream()
    events = scramble_batch(batch, max_lateness=5, seed=3)

    session = QuerySession(num_keys=1, max_lateness=5, hysteresis=0.5)
    fast = session.register(FAST, name="fast")
    print(f"registered {fast!r} before any data")

    n = len(events)
    opened = closed = False
    for i, (ts, key, value) in enumerate(events):
        if not opened and i >= n // 4:
            session.register(HOURLY, name="hourly")
            print(f"registered 'hourly' at watermark {session.watermark}")
            opened = True
        if opened and not closed and i >= 4 * n // 5:
            session.deregister("hourly")
            print(f"deregistered 'hourly' at watermark {session.watermark}")
            closed = True
        session.push(ts, key, value)
    results = session.finish(horizon=batch.horizon)

    print()
    print("=== Plan switches (all watermark-safe) ===")
    for switch in session.switches:
        print(f"  {switch}")

    print()
    print("=== Emitted results ===")
    for name, by_window in sorted(results.items()):
        for window, emitted in sorted(
            by_window.items(), key=lambda kv: (kv[0].range, kv[0].slide)
        ):
            print(
                f"  {name:7s} {window}: instances "
                f"[{emitted.start_instance}, {emitted.frontier}) "
                f"last value {emitted.values[0, -1]:.1f}"
            )

    stats = session.stats()
    print()
    print("=== Session counters ===")
    print(f"  events processed : {session.reorder_stats.accepted:,}")
    print(f"  late drops       : {session.reorder_stats.late_dropped:,}")
    print(f"  logical pairs    : {stats.total_pairs:,}")
    print(f"  physical touches : {stats.total_physical:,}")
    print(f"  physical/logical : {stats.physical_fraction:.3f}")
    rate_switches = [s for s in session.switches if s.reason == "rate"]
    print(f"  rate re-plans    : {len(rate_switches)} (burst detected "
          f"live, hysteresis suppressed jitter)")


if __name__ == "__main__":
    main()

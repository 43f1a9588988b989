"""A key-sharded live session: one stream, N parallel shard cores.

The paper's motivating service (Azure IoT Central, Section I) watches
*millions* of devices; one core over one stream caps out long before
that.  :class:`repro.runtime.ShardedSession` hash-partitions the
device-key space across N shard-local session cores behind one
coordinator clock (DESIGN.md §7) — and guarantees the merged results
are identical at every shard count (invariant 10).

The script runs the same dashboard workload five ways:

1. a 1-shard baseline (the plain ``QuerySession`` semantics);
2. 4 shards on the deterministic in-process backend;
3. 4 shards on the ``multiprocessing`` backend, shipping columnar
   chunk slices to one worker process per shard over pipes;
4. 4 shards on the shared-memory backend (``shm``): the same workers
   fed through per-shard SPSC rings — no pickling on the data plane
   (DESIGN.md §8);
5. the shm configuration again behind the non-blocking async ingest
   front door (``async_ingest=True``);

registering along the way:

* two per-key dashboards (merged per shard, concatenated by key at
  the coordinator),
* a *global* AVG and a *global* MEDIAN across every device (raw
  values forward to a coordinator-local one-key core, whatever the
  aggregate),

and verifies all five runs agree bit-for-bit.

Run with:  python examples/sharded_session.py
"""

import time

import numpy as np

from repro import ShardedSession
from repro.workloads.streams import constant_rate_stream

NUM_KEYS = 64
EVENTS = 200_000

PER_KEY_MIN = (
    "SELECT DeviceID, MIN(Reading) FROM Sensors "
    "GROUP BY DeviceID, WINDOWS(HOPPING(second, 300, 50), "
    "HOPPING(second, 600, 100))"
)
PER_KEY_SUM = (
    "SELECT DeviceID, SUM(Reading) FROM Sensors "
    "GROUP BY DeviceID, WINDOWS(HOPPING(second, 400, 80))"
)
GLOBAL_AVG = (
    "SELECT AVG(Reading) FROM Sensors "
    "GROUP BY WINDOWS(HOPPING(second, 480, 120))"
)
GLOBAL_MEDIAN = (
    "SELECT MEDIAN(Reading) FROM Sensors "
    "GROUP BY WINDOWS(TUMBLING(second, 240))"
)


def run(num_shards: int, backend: str, async_ingest: bool = False):
    session = ShardedSession(
        num_keys=NUM_KEYS,
        num_shards=num_shards,
        backend=backend,
        hysteresis=None,
        async_ingest=async_ingest,
    )
    try:
        session.register(PER_KEY_MIN, name="mins")
        session.register(PER_KEY_SUM, name="sums")
        session.register(GLOBAL_AVG, name="fleet_avg", scope="global")
        session.register(GLOBAL_MEDIAN, name="fleet_median", scope="global")
        stream = constant_rate_stream(
            EVENTS, num_keys=NUM_KEYS, rate=8, seed=11
        )
        started = time.perf_counter()
        session.push_batch(stream)  # one columnar pass, no per-event Python
        results = session.finish(horizon=stream.horizon)
        wall = time.perf_counter() - started
        stats = session.stats()
    finally:
        session.close()
    return results, wall, stats


def main() -> None:
    print(f"{EVENTS:,} events, {NUM_KEYS} device keys\n")
    baseline, base_wall, base_stats = run(1, "serial")
    configs = [
        (4, "serial", False),
        (4, "process", False),
        (4, "shm", False),
        (4, "shm", True),
    ]
    print(f"{'config':>18}: {'K ev/s':>9}  vs 1-shard")
    print(f"{'serial x1':>18}: {EVENTS / base_wall / 1e3:>9,.0f}  1.00x")
    for num_shards, backend, async_ingest in configs:
        results, wall, stats = run(num_shards, backend, async_ingest)
        # Invariant 10: per-key and global results are bit-identical
        # at every shard count, even for float streams.
        for name, by_window in baseline.items():
            for window, reference in by_window.items():
                np.testing.assert_array_equal(
                    results[name][window].values, reference.values
                )
        assert stats.pairs_per_window == base_stats.pairs_per_window
        label = f"{backend} x{num_shards}" + (
            " +async" if async_ingest else ""
        )
        print(
            f"{label:>18}: {EVENTS / wall / 1e3:>9,.0f}  "
            f"{base_wall / wall:.2f}x"
        )
    print("\nall configurations agree: every result bit-identical")

    fleet_avg = next(iter(baseline["fleet_avg"].values()))
    fleet_median = next(iter(baseline["fleet_median"].values()))
    print(
        f"\nfleet AVG    row shape {fleet_avg.values.shape} "
        f"(instances [{fleet_avg.start_instance}, {fleet_avg.frontier}))"
    )
    print(
        f"fleet MEDIAN row shape {fleet_median.values.shape} "
        f"(instances [{fleet_median.start_instance}, "
        f"{fleet_median.frontier}))"
    )


if __name__ == "__main__":
    main()

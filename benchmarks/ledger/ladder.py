"""The per-layer ladder (``--trace``).

The workloads' frozen inputs are re-driven up a ladder of public entry
points, one span per call.  Each layer climbs on the inputs of the
workload it explains: SQL compile, optimizer and the batch engine paths
on ``plan_batch``'s window sets; the reorder buffer, ``QuerySession``
and the scenario recorder on ``live_session``'s arrivals and op
schedule; the partitioner, a bare ``SessionCore``, ``ShardedSession`` on
every backend and the shm ring on ``sharded_skew``'s stream;
checkpoints and the service codec / manager / TCP front door on a
``service_tcp`` tenant's stream.  The traced workload's own layers get
the full ladder length, the others a quarter of it (every run emits
every metric).  Every rung's results must equal its reference, over
exactly the same instances, before any number is reported.  A rung's
*tax* is the throughput of the rung beneath divided by its own, on the
same events.
"""

from __future__ import annotations

import math
import os
import shutil
import threading
import time

import numpy as np

import check
import inputs as gen
import measure
import workloads as wl
from spans import NullTracer, Tracer

#: Ladder stream length per second of ``--seconds``.  Fixed, not
#: measured, so that the exact counts repeat run after run; sized so a
#: traced run takes about as long as an end-to-end one (the slowest
#: rungs do ~0.1 M events/s).
EVENTS_PER_SECOND = 30_000
OTHER_SHARE = 0.25  # ... of which the other workloads' layers get
MIN_EVENTS = 6_000  # 750 ticks: every rung emits, the injected kill fires
SLOW_PREFIX = 0.10  # share of the stream the per-event push rung sees
SERVICE_PREFIX = 0.50  # ... and the TCP rung
ENGINE_PATHS = (
    "columnar", "columnar-panes", "columnar-panes-native", "streaming-chunked",
)


class Ledger:
    """Metrics, identity failures and cell counts of one climb."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.metrics: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def put(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def same(self, rung, blocks, want, rtol=0.0):
        """Count ``blocks`` against ``want``: the same subscriptions
        over exactly the same instances.  A reference with nothing in
        it is a failure, not a vacuous pass."""
        cells = check.total_cells(want)
        wrong = check.mismatched_cells(blocks, want, rtol) if cells else 1
        self.attempted += max(cells, 1)
        self.expect(rung, wrong == 0, f"{wrong} of {cells} cells differ", wrong)

    def expect(self, rung, ok, detail, weight=1):
        self.attempted += 1
        if not ok:
            self.failed += max(1, weight)
            self.problems.append(f"{rung}: {detail}")


def spearman(xs, ys) -> float:
    """Rank correlation with average ranks for ties; 0.0 when either
    side has no variation (nothing to correlate)."""

    def ranks(values):
        order = np.argsort(values, kind="stable")
        ranked = np.empty(len(values))
        values = np.asarray(values, dtype=np.float64)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            ranked[order[i : j + 1]] = (i + j) / 2.0
            i = j + 1
        return ranked

    if len(xs) < 2:
        return 0.0
    rx, ry = ranks(xs), ranks(ys)
    if rx.std() == 0 or ry.std() == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def timed(tracer, name, fn, *args, **kwargs):
    """Call ``fn`` under a span; returns ``(result, seconds)``."""
    with tracer.span(name):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - t0


def scratch_dir(tag: str):
    path = measure.RESULTS_DIR / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# sql, core, engine
# ----------------------------------------------------------------------
def climb_planning(led: Ledger, spec) -> list:
    """``sql`` and ``core``: returns each query's ``PlannedWindows``."""
    from repro import get_aggregate
    from repro.core.planner import plan_windows
    from repro.sql import plan_query

    compile_s = optimize_s = 0.0
    baseline = best = factors = 0
    planned = []
    for name, aggregate, pairs in spec.queries:
        compiled, seconds = timed(
            led.tracer, "sql.plan_query", plan_query,
            wl.sql_text(aggregate, pairs),
        )
        compile_s += seconds
        plan, seconds = timed(
            led.tracer, "core.plan_windows", plan_windows,
            wl.window_set(pairs), get_aggregate(aggregate),
        )
        optimize_s += seconds
        led.expect(
            "sql", compiled.optimization.best_cost == plan.best_cost,
            f"{name}: SQL front end planned a different cost",
        )
        # Costs are per hyper-period; per tick they add across queries.
        period = math.lcm(*(r for r, _ in pairs))
        baseline += plan.optimization.baseline_cost / period
        best += plan.best_cost / period
        factors += len(plan.best_plan.factor_window_nodes())
        planned.append(plan)
    led.put("sql.compile_ms", compile_s * 1e3, "ms")
    led.put("core.optimize_ms", optimize_s * 1e3, "ms")
    led.put("core.cost_ratio", baseline / best, "ratio")
    led.put("core.factor_windows", factors, "count")
    return planned


def climb_engine(led: Ledger, spec, planned: list) -> None:
    from repro import execute_plan

    tracer = led.tracer
    batch = wl.event_batch(spec.stream)
    n = spec.stream.num_events
    want = spec.reference()

    def run_all(engine, plans, span):
        wall, pairs, physical, blocks = 0.0, 0, 0, {}
        for (name, aggregate, _), plan in zip(spec.queries, plans):
            run, seconds = timed(
                tracer, span, execute_plan, plan, batch, engine=engine
            )
            wall += seconds
            pairs += run.stats.total_pairs
            physical += run.stats.total_physical
            blocks.update(check.engine_blocks(name, aggregate, run.results))
        return wall, pairs, physical, blocks

    best_plans = [p.best_plan for p in planned]
    walls, logical = {}, {}
    for engine in ENGINE_PATHS:
        wall, pairs, physical, blocks = run_all(
            engine, best_plans, f"engine.{engine}"
        )
        led.same(f"engine.{engine}", blocks, want, spec.rtol)
        walls[engine], logical[engine] = wall, pairs
        led.put(f"engine.{engine}.events_per_s", len(planned) * n / wall,
                "events/s")
        if engine == "columnar-panes":
            led.put("engine.physical_touches", physical, "count")
    led.put("engine.logical_pairs", logical["columnar-panes"], "count")
    led.expect(
        "engine", len(set(logical.values())) == 1,
        f"logical pair counts differ between paths: {logical}",
    )
    wall, _, _, blocks = run_all(
        "columnar-panes", [p.original for p in planned], "engine.original"
    )
    led.same("engine.original", blocks, want, spec.rtol)
    led.put("engine.original.events_per_s", len(planned) * n / wall,
            "events/s")
    led.put("engine.speedup_vs_original", wall / walls["columnar-panes"],
            "ratio")

    # Fig. 19: does the cost model rank the plan variants as the clock
    # does?  One point per (query, variant), cost per tick vs wall.
    costs, clocks = [], []
    for (_, _, pairs), plan in zip(spec.queries, planned):
        period = math.lcm(*(r for r, _ in pairs))
        opt = plan.optimization
        variants = [(opt.baseline_cost / period, plan.original)]
        if plan.rewritten is not None:
            gmin = opt.without_factors
            variants.append((gmin.total_cost / gmin.period, plan.rewritten))
        if plan.with_factors is not None:
            gmin = opt.with_factors
            variants.append((gmin.total_cost / gmin.period, plan.with_factors))
        for cost, variant in variants:
            _, seconds = timed(
                tracer, "engine.cost_corr", execute_plan, variant, batch,
                engine="columnar-panes",
            )
            costs.append(cost)
            clocks.append(seconds)
    led.put("engine.cost_corr", spearman(costs, clocks), "ratio")


def climb_reorder(led: Ledger, spec) -> None:
    """``engine`` front end: the reorder buffer on the arrivals alone."""
    from repro.engine import ReorderBuffer

    tracer, stream = led.tracer, spec.stream
    ts, keys, values = stream.arrival_columns()
    buffer = ReorderBuffer(stream.max_lateness)
    released = []
    t0 = time.perf_counter()
    with tracer.span("engine.reorder"):
        for index, lo in enumerate(range(0, ts.size, spec.row_batch)):
            hi = lo + spec.row_batch
            with tracer.span("engine.reorder.push_batch", index):
                out = buffer.push_batch(ts[lo:hi], keys[lo:hi], values[lo:hi])
            released.append(out[0])
        with tracer.span("engine.reorder.flush"):
            released.append(
                np.asarray([e[0] for e in buffer.flush()], dtype=np.int64)
            )
    wall = time.perf_counter() - t0
    order = np.concatenate(released)
    led.expect(
        "engine.reorder", np.array_equal(order, stream.ts),
        "released timestamps are not the sorted stream",
    )
    led.put("engine.reorder.events_per_s", ts.size / wall, "events/s")
    led.put("engine.reorder.late_dropped", buffer.stats.late_dropped, "count")
    led.failed += buffer.stats.late_dropped


def climb_partition(led: Ledger, spec) -> None:
    """``engine`` front end: the key partitioner alone, at 2 shards."""
    from repro.engine.events import merge_batch_shards, partition_batch

    tracer = led.tracer
    batch = wl.event_batch(spec.stream)
    shards, wall = timed(tracer, "engine.partition", partition_batch, batch, 2)
    merged = merge_batch_shards(shards, batch.num_keys, batch.horizon)
    led.expect(
        "engine.partition",
        np.array_equal(merged.keys, batch.keys)
        and np.array_equal(merged.values, batch.values),
        "merged shards are not the source batch",
    )
    led.put("engine.partition.events_per_s", batch.num_events / wall,
            "events/s")


# ----------------------------------------------------------------------
# runtime
# ----------------------------------------------------------------------
def run_core(led: Ledger, spec):
    """A bare ``SessionCore`` running every query of ``spec`` from the
    start, fed chunk-sized sorted column slices; returns ``(events per
    second, the finished core)``."""
    from repro import SessionCore

    stream = spec.stream
    core = SessionCore(num_keys=stream.num_keys)
    for query in spec.queries:
        core.register(wl.make_query(*query))
    chunk = core.chunk_ticks
    t0 = time.perf_counter()
    with led.tracer.span("runtime.core"):
        lo = 0
        for index, end in enumerate(range(chunk, stream.horizon, chunk)):
            hi = int(np.searchsorted(stream.ts, end, side="left"))
            with led.tracer.span("runtime.core.chunk", index):
                core.buffer_arrays(
                    stream.ts[lo:hi], stream.keys[lo:hi], stream.values[lo:hi]
                )
                core.advance_to(end)
            lo = hi
        core.buffer_arrays(stream.ts[lo:], stream.keys[lo:], stream.values[lo:])
        core.finish(stream.horizon)
    wall = time.perf_counter() - t0
    results = core.report().results
    led.same("runtime.core",
             check.session_blocks([results], spec.aggregates),
             spec.reference(ops=[]), spec.rtol)
    return stream.num_events / wall, core


def climb_core(led: Ledger, spec) -> None:
    rate, core = run_core(led, spec)
    led.put("runtime.core.events_per_s", rate, "events/s")
    led.put("runtime.core.max_retained_state", core.max_retained_state(),
            "count")


def _live_session(spec, skip=None, **kwargs):
    """A QuerySession with the spec's initial queries registered
    (all but ``skip``)."""
    from repro import QuerySession

    session = QuerySession(
        num_keys=spec.stream.num_keys,
        max_lateness=spec.stream.max_lateness,
        **kwargs,
    )
    by_name = {q[0]: q for q in spec.queries}
    for name in spec.initial:
        if name != skip:
            session.register(wl.make_query(*by_name[name]))
    return session


def climb_session(led: Ledger, spec) -> float:
    """``QuerySession``: per-event push on a prefix, ``push_many`` with
    the op schedule and result polls, then the same behind the async
    front door — over a bare core on the same sorted events."""
    tracer, stream = led.tracer, spec.stream
    aggregates = spec.aggregates
    by_name = {q[0]: q for q in spec.queries}
    rows = gen.row_batches(stream, spec.row_batch)
    core_rate, _ = run_core(led, spec)

    head = stream.prefix(max(spec.row_batch, int(stream.num_events * SLOW_PREFIX)))
    session = _live_session(spec)
    try:
        t0 = time.perf_counter()
        with tracer.span("runtime.session.push_rung"):
            for index, row in enumerate(
                row for batch in gen.row_batches(head, spec.row_batch)
                for row in batch
            ):
                with tracer.span("runtime.session.push", index):
                    session.push(*row)
            results = session.finish(head.horizon)
        wall = time.perf_counter() - t0
    finally:
        session.close()
    led.same("runtime.session.push",
             check.session_blocks([results], aggregates),
             spec.reference(head, spec.initial, ops=[]), spec.rtol)
    led.put("runtime.session.push_events_per_s", head.num_events / wall,
            "events/s")

    rates = {}
    for label, kwargs in (("push_many", {}), ("async", {"async_ingest": True})):
        session = _live_session(spec, **kwargs)
        try:
            t0 = time.perf_counter()
            with tracer.span(f"runtime.session.{label}_rung"):
                parts, _ = wl.drive_session(
                    session, rows, spec.ops, spec.queries, stream.horizon,
                    tracer,
                )
            rates[label] = stream.num_events / (time.perf_counter() - t0)
            switches = len(session.switches)
            dropped = session.reorder_stats.late_dropped
        finally:
            session.close()
        led.same(f"runtime.session.{label}",
                 check.session_blocks(parts, aggregates),
                 spec.reference(), spec.rtol)
        led.failed += dropped
        if label == "push_many":
            led.put("runtime.session.switches", switches, "count")
            # Only this rung has polled results so far.
            drains = tracer.durations_ms("runtime.session.drain_results")
            led.put("runtime.session.drain_ms",
                    measure.quartiles(drains)[1] if drains else 0.0, "ms")
    led.put("runtime.session.push_many_events_per_s", rates["push_many"],
            "events/s")
    led.put("runtime.session.async_events_per_s", rates["async"], "events/s")
    led.put("runtime.session.tax_over_core", core_rate / rates["push_many"],
            "ratio")

    # register(): one query joining a session that already runs the rest.
    late = by_name[spec.ops[0][2]]
    probe = _live_session(spec, skip=late[0])
    try:
        _, seconds = timed(
            tracer, "runtime.session.register", probe.register,
            wl.make_query(*late),
        )
    finally:
        probe.close()
    led.put("runtime.session.register_ms", seconds * 1e3, "ms")
    return rates["push_many"]


def _sharded(spec, shards, backend, **kwargs):
    from repro import ShardedSession

    session = ShardedSession(
        num_keys=spec.stream.num_keys, num_shards=shards, backend=backend,
        hysteresis=None, **kwargs,
    )
    for query in spec.queries:
        session.register(wl.make_query(*query))
    return session


def climb_sharding(led: Ledger, spec) -> None:
    """``ShardedSession`` on every backend at a static layout, then
    with rebalancing, recovery armed, and the row front door."""
    tracer, stream = led.tracer, spec.stream
    n = stream.num_events
    aggregates, want = spec.aggregates, spec.reference()
    column_batch = min(spec.column_batch, max(1_000, n // 50))
    batches = wl.event_batches(stream, column_batch)

    def run(label, shards, backend, rebalance_every=0, **kwargs) -> dict:
        session = _sharded(spec, shards, backend, **kwargs)
        try:
            t0 = time.perf_counter()
            with tracer.span(f"runtime.sharding.{label}"):
                results, _, barriers, moved = wl.drive_sharded(
                    session, batches, stream.horizon, rebalance_every, tracer
                )
            wall = time.perf_counter() - t0
            stats = session.stats()
            share = wl.hot_share(session) if shards > 1 else 1.0
        finally:
            session.close()
        led.same(f"runtime.sharding.{label}",
                 check.session_blocks([results], aggregates), want, spec.rtol)
        return {"rate": n / wall, "wall": wall, "stats": stats,
                "hot_share": share, "barriers": barriers, "moved": moved}

    static = {
        label: run(label, shards, backend)
        for label, shards, backend in (
            ("serial1", 1, "serial"), ("serial4", 4, "serial"),
            ("serial8", 8, "serial"), ("process2", 2, "process"),
            ("shm2", 2, "shm"),
        )
    }
    for label, record in static.items():
        led.put(f"runtime.sharding.{label}.events_per_s", record["rate"],
                "events/s")
    shm, one = static["shm2"], static["serial1"]
    led.put("runtime.sharding.coordinator_tax",
            one["rate"] / static["serial8"]["rate"], "ratio")
    led.put("runtime.sharding.hot_share_static", shm["hot_share"], "share")
    led.put("runtime.sharding.bytes_copied_per_event",
            shm["stats"].bytes_copied / n, "B/event")
    led.put("runtime.sharding.total_physical", shm["stats"].total_physical,
            "count")
    led.expect(
        "runtime.sharding",
        shm["stats"].total_physical == one["stats"].total_physical,
        f"total_physical {shm['stats'].total_physical} on shm2, "
        f"{one['stats'].total_physical} on 1 shard",
    )

    moving = run("rebalanced", 2, "shm", 10)
    barriers = moving["barriers"]
    led.put("runtime.sharding.rebalance_ms",
            measure.quartiles(barriers)[1] if barriers else 0.0, "ms")
    led.put("runtime.sharding.rebalance_share",
            sum(barriers) / 1e3 / moving["wall"], "share")
    led.put("runtime.sharding.slots_moved", moving["moved"], "count")
    led.put("runtime.sharding.hot_share_rebalanced", moving["hot_share"],
            "share")

    armed = run("recovery_armed", 2, "shm", worker_recovery=True)
    led.put("runtime.sharding.recovery_armed.events_per_s", armed["rate"],
            "events/s")

    # The row front door: arrivals as float rows through push_many.
    ts, keys, values = stream.arrival_columns()
    table = np.column_stack((ts, keys, values)).astype(np.float64)
    session = _sharded(spec, 2, "shm", max_lateness=stream.max_lateness)
    try:
        t0 = time.perf_counter()
        with tracer.span("runtime.sharding.push_many_rung"):
            for index, lo in enumerate(range(0, n, spec.row_batch)):
                with tracer.span("runtime.sharding.push_many", index):
                    session.push_many(table[lo : lo + spec.row_batch])
            results = session.finish(stream.horizon)
        wall = time.perf_counter() - t0
        dropped = session.reorder_stats.late_dropped
    finally:
        session.close()
    led.same("runtime.sharding.push_many",
             check.session_blocks([results], aggregates), want, spec.rtol)
    led.failed += dropped
    led.put("runtime.sharding.push_many_events_per_s", n / wall, "events/s")


def climb_ring(led: Ledger, spec) -> None:
    """The shm ring alone, in one process: push, borrow, release."""
    from repro.engine.events import EVENT_BYTES
    from repro.runtime import ShmRing

    tracer, stream = led.tracer, spec.stream
    slot = min(spec.column_batch, 4_096)
    same = True
    with ShmRing.create(slot_events=slot, num_slots=4) as ring:
        t0 = time.perf_counter()
        with tracer.span("runtime.shm_ring"):
            for index, (ts, keys, values) in enumerate(
                gen.column_batches(stream, slot)
            ):
                with tracer.span("runtime.shm_ring.push_events", index):
                    ring.push_events(ts, keys, values)
                with tracer.span("runtime.shm_ring.pop", index):
                    record = ring.pop(copy=False)
                same = same and np.array_equal(record[3], values)
                del record
                with tracer.span("runtime.shm_ring.release", index):
                    ring.release()
        wall = time.perf_counter() - t0
        copied = ring.bytes_copied
    nbytes = stream.num_events * EVENT_BYTES
    led.expect("runtime.shm_ring", same, "popped values differ from pushed")
    led.put("runtime.shm_ring.mb_per_s", nbytes / 1e6 / wall, "MB/s")
    led.put("runtime.shm_ring.copies_per_record", copied / nbytes, "ratio")


def climb_checkpoint(led: Ledger, spec) -> None:
    """Snapshot at half the stream, restore, and finish the stream on
    the restored session."""
    from repro import QuerySession

    tracer, stream = led.tracer, spec.stream
    rows = gen.row_batches(stream, spec.row_batch)
    directory = scratch_dir("ladder-ckpt")
    path = directory / "half.rckpt"
    half = len(rows) // 2
    session = _live_session(spec)
    try:
        for batch in rows[:half]:
            session.push_many(batch)
        _, snapshot_s = timed(
            tracer, "runtime.checkpoint.snapshot", session.snapshot, path
        )
    finally:
        session.close()
    try:
        size = path.stat().st_size
        restored, restore_s = timed(
            tracer, "runtime.checkpoint.restore", QuerySession.restore, path
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    try:
        for batch in rows[half:]:
            restored.push_many(batch)
        results = restored.finish(stream.horizon)
    finally:
        restored.close()
    led.same("runtime.checkpoint",
             check.session_blocks([results], spec.aggregates),
             spec.reference(), spec.rtol)
    led.put("runtime.checkpoint.snapshot_ms", snapshot_s * 1e3, "ms")
    led.put("runtime.checkpoint.bytes", size, "B")
    led.put("runtime.checkpoint.restore_ms", restore_s * 1e3, "ms")


# ----------------------------------------------------------------------
# scenarios, service
# ----------------------------------------------------------------------
def climb_scenarios(led: Ledger, spec, session_rate: float) -> None:
    """The arrivals and op schedule as a ``.rstream`` capture: write,
    read, replay."""
    from repro.scenarios import StreamCapture, read_rstream, replay_capture
    from repro.scenarios.rstream import write_rstream

    tracer, stream = led.tracer, spec.stream
    by_name = {q[0]: q for q in spec.queries}

    def payload(name):
        _, aggregate, pairs = by_name[name]
        return {
            "name": name, "aggregate": aggregate,
            "windows": [f"{r}/{s}" for r, s in pairs],
        }

    ops = [(0, "register", payload(name)) for name in spec.initial]
    for index, kind, name in spec.ops:
        at = index * spec.row_batch
        ops.append(
            (at, kind, payload(name) if kind == "register" else name)
        )
    ts, keys, values = stream.arrival_columns()
    capture = StreamCapture(
        timestamps=ts, keys=keys, values=values, horizon=stream.horizon,
        num_keys=stream.num_keys, max_lateness=stream.max_lateness,
        ops=tuple(ops), meta={"scenario": "ledger"},
    )
    directory = scratch_dir("ladder-rstream")
    try:
        path, write_s = timed(
            tracer, "scenarios.write_rstream", write_rstream, capture,
            directory / "ledger.rstream",
        )
        size = path.stat().st_size
        loaded, read_s = timed(
            tracer, "scenarios.read_rstream", read_rstream, path
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    report, _ = timed(
        tracer, "scenarios.replay_capture", replay_capture, loaded,
        backend="serial", shards=1, verify=False,
    )
    led.same("scenarios.replay",
             check.session_blocks([report.results], spec.aggregates),
             spec.reference(), spec.rtol)
    led.failed += report.late_dropped
    led.put("scenarios.rstream.write_mb_per_s", size / 1e6 / write_s, "MB/s")
    led.put("scenarios.rstream.read_mb_per_s", size / 1e6 / read_s, "MB/s")
    led.put("scenarios.replay.events_per_s", report.throughput, "events/s")
    led.put("scenarios.tax_over_session", session_rate / report.throughput,
            "ratio")


def climb_service(led: Ledger, spec) -> None:
    """``service``: codec, in-process manager, then real TCP — each
    against a plain ``QuerySession`` on the same rows."""
    from repro import QuerySession

    stream = spec.stream
    rows = gen.row_batches(stream, spec.row_batch)
    session = QuerySession(
        num_keys=stream.num_keys, max_lateness=stream.max_lateness
    )
    try:
        for query in spec.queries:
            session.register(wl.make_query(*query))
        t0 = time.perf_counter()
        with led.tracer.span("service.session_baseline"):
            for batch in rows:
                session.push_many(batch)
            results = session.finish(stream.horizon)
        session_rate = stream.num_events / (time.perf_counter() - t0)
    finally:
        session.close()
    led.same("service.session_baseline",
             check.session_blocks([results], spec.aggregates),
             spec.reference(), spec.rtol)
    climb_codec(led, rows, results, spec.aggregates)
    manager_rate = climb_manager(led, spec, rows, session_rate)
    climb_tcp(led, spec, rows, manager_rate)


def climb_codec(led: Ledger, rows: list, results: dict, aggregates) -> None:
    from repro.service.protocol import (
        decode_line, deserialize_results, encode_line, serialize_results,
    )

    tracer = led.tracer
    n = sum(len(batch) for batch in rows)
    requests = [
        {"op": "ingest", "tenant": "t0",
         "events": [[t, k, v] for t, k, v in batch]}
        for batch in rows
    ]
    lines, encode_s = timed(
        tracer, "service.codec.encode",
        lambda: [encode_line(request) for request in requests],
    )
    decoded, decode_s = timed(
        tracer, "service.codec.decode",
        lambda: [decode_line(line) for line in lines],
    )
    led.expect("service.codec", decoded == requests,
               "decode(encode(request)) is not the request")
    wire, results_s = timed(
        tracer, "service.codec.results", serialize_results, results
    )
    back = deserialize_results(decode_line(encode_line(wire)))
    lost = check.mismatched_cells(
        check.session_blocks([back], aggregates),
        check.session_blocks([results], aggregates),
    )
    led.expect("service.codec.results", lost == 0,
               f"{lost} cells changed on the wire", lost)
    led.put("service.codec.encode_us_per_event", encode_s * 1e6 / n,
            "us/event")
    led.put("service.codec.decode_us_per_event", decode_s * 1e6 / n,
            "us/event")
    led.put("service.codec.bytes_per_event",
            sum(len(line) for line in lines) / n, "B/event")
    led.put("service.codec.results_ms", results_s * 1e3, "ms")


def _tenant_config(spec) -> dict:
    return {
        "num_keys": spec.stream.num_keys,
        "max_lateness": spec.stream.max_lateness,
        **wl.LIFTED_QUOTAS,
    }


def climb_manager(led: Ledger, spec, rows, session_rate: float) -> float:
    """``SessionManager.ingest`` in process — the service minus TCP —
    then once more with one injected session kill.  Neither session is
    finished: what it has emitted must equal what a plain session fed
    the same rows has."""
    from repro.runtime.faults import Fault, FaultPlan
    from repro.service import SessionManager
    from repro.service.protocol import deserialize_results

    tracer, stream = led.tracer, spec.stream
    aggregates = spec.aggregates
    n = sum(len(batch) for batch in rows)

    def serve(label, batches, fault_plan=None):
        directory = scratch_dir(f"ladder-{label}")
        calls = []
        try:
            with SessionManager(
                {"defaults": _tenant_config(spec)}, directory=directory,
                checkpoint_every=512, fault_plan=fault_plan,
            ) as manager:
                for query in spec.queries:
                    manager.register("t0", wl.make_query(*query))
                t0 = time.perf_counter()
                with tracer.span(f"service.manager.{label}"):
                    for index, batch in enumerate(batches):
                        t1 = time.perf_counter()
                        with tracer.span("service.manager.ingest", index):
                            manager.ingest("t0", batch)
                        calls.append(time.perf_counter() - t1)
                wall = time.perf_counter() - t0
                stats = manager.stats("t0")["stats"]
                results = deserialize_results(manager.results("t0"))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return wall, calls, stats, results

    wall, _, _, results = serve("ingest", rows)
    led.same("service.manager", check.session_blocks([results], aggregates),
             wl.session_reference(stream, spec.queries, rows))
    rate = n / wall
    led.put("service.manager.events_per_s", rate, "events/s")
    led.put("service.manager.tax_over_session", session_rate / rate, "ratio")

    # One kill in the middle of the first half, once the session's
    # watermark (which moves a whole chunk at a time) has got that far.
    head = rows[: len(rows) // 2]
    kill_at = max(1, int(stream.ts[len(head) * spec.row_batch // 2]))
    plan = FaultPlan(
        Fault(kind="kill_session", tenant="t0", op="ingest",
              at_watermark=kill_at)
    )
    _, calls, stats, results = serve("recover", head, plan)
    led.same("service.manager.recover",
             check.session_blocks([results], aggregates),
             wl.session_reference(stream, spec.queries, head))
    led.expect("service.manager.recover",
               stats["restores"] == len(plan.fired),
               f"{stats['restores']} restores after {len(plan.fired)} kills")
    if not plan.fired:
        led.problems.append(
            "note: stream too short for the injected kill to fire; "
            "service.manager.recover_ms is 0"
        )
    led.put("service.manager.recover_ms",
            (max(calls) - measure.quartiles(calls)[1]) * 1e3
            if plan.fired else 0.0, "ms")
    led.put("service.manager.retained_tail", stats["tail_length"], "count")
    return rate


class DirWatcher(threading.Thread):
    """Counts the distinct checkpoint files a server ever wrote (the
    store rotates old ones out, so the final listing undercounts)."""

    def __init__(self, directory):
        super().__init__(daemon=True)
        self.directory = directory
        self.seen: set = set()
        self._stop_event = threading.Event()

    def run(self):
        while not self._stop_event.wait(0.005):
            self.scan()

    def scan(self):
        for path in self.directory.glob("*/ckpt-*.rckpt"):
            self.seen.add(str(path))

    def stop(self) -> int:
        self._stop_event.set()
        self.join()
        self.scan()
        return len(self.seen)


def climb_tcp(led: Ledger, spec, rows, manager_rate: float) -> None:
    """One client against a separate server process: pings, a
    closed-loop prefix, a short open loop below capacity."""
    from repro.service import ServiceClient

    tracer = led.tracer
    closed = rows[: max(4, int(len(rows) * SERVICE_PREFIX))]
    open_rows = rows[len(closed) : len(closed) + 100]
    interval = wl.ServiceTcp.interval_s
    server = wl.ServiceProcess()
    watcher = DirWatcher(server.checkpoint_dir)
    watcher.start()
    try:
        with ServiceClient(port=server.port, timeout=60.0) as client:
            client.open("t0", _tenant_config(spec))
            for name, aggregate, pairs in spec.queries:
                client.register("t0", wl.sql_text(aggregate, pairs), name=name)
            pings = []
            for index in range(50):
                _, seconds = timed(tracer, "service.tcp.ping", client.ping)
                pings.append(seconds * 1e3)
            t0 = time.perf_counter()
            with tracer.span("service.tcp.closed_loop"):
                for index, batch in enumerate(closed):
                    with tracer.span("service.tcp.ingest", index):
                        client.ingest("t0", batch)
            wall = time.perf_counter() - t0
            lateness, done = [], 0.0
            start = time.perf_counter() + 0.02
            with tracer.span("service.tcp.open_loop"):
                for index, batch in enumerate(open_rows):
                    due = start + index * interval
                    wait = due - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    begun = time.perf_counter()
                    lateness.append((begun - max(due, done)) * 1e3)
                    with tracer.span("service.tcp.ingest", len(closed) + index):
                        client.ingest("t0", batch)
                    done = time.perf_counter()
            stats = client.stats("t0")["stats"]
            results = client.results("t0")
    finally:
        written = watcher.stop()
        server.stop()
    led.same("service.tcp",
             check.session_blocks([results], spec.aggregates),
             wl.session_reference(spec.stream, spec.queries,
                                  closed + open_rows))
    n = sum(len(batch) for batch in closed)
    rate = n / wall
    shed = wl.shed_count(stats)
    led.failed += shed
    led.put("service.tcp.ping_ms", measure.quartiles(pings)[1], "ms")
    led.put("service.tcp.events_per_s", rate, "events/s")
    led.put("service.tcp.tax_over_manager", manager_rate / rate, "ratio")
    led.put("service.checkpoints_written", written, "count")
    led.put("service.shed_share", shed / stats["requests"], "share")
    led.put("service.gen_late_p99_ms",
            measure.percentile(lateness, 0.99) if lateness else 0.0, "ms")


# ----------------------------------------------------------------------
# The climb
# ----------------------------------------------------------------------
def climb(specs: dict, tracer) -> Ledger:
    """Every layer on the spec of the workload it explains."""
    plan, live, skew, wire = (
        specs[name]
        for name in ("plan_batch", "live_session", "sharded_skew", "service_tcp")
    )
    led = Ledger(tracer)
    climb_engine(led, plan, climb_planning(led, plan))
    climb_reorder(led, live)
    session_rate = climb_session(led, live)
    climb_scenarios(led, live, session_rate)
    climb_partition(led, skew)
    climb_core(led, skew)
    climb_sharding(led, skew)
    climb_ring(led, skew)
    climb_checkpoint(led, wire)
    climb_service(led, wire)
    return led


def self_time_table(tracer) -> "list[tuple[str, float, float]]":
    """``(span name, busy ms, self ms)`` for every span name, busiest
    first — a span's self time excludes the benchmark calls nested in
    it."""
    selfs = tracer.self_ns()
    busy: dict = {}
    for name, start, end, _, _, _ in tracer.spans:
        busy[name] = busy.get(name, 0) + end - start
    return sorted(
        ((name, busy[name] / 1e6, selfs[name] / 1e6) for name in busy),
        key=lambda row: -row[1],
    )


def traced_run(name: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    workload = wl.get(name)
    events = max(MIN_EVENTS, int(EVENTS_PER_SECOND * seconds * scale))
    sizes = {
        other: events if other == name
        else max(MIN_EVENTS, int(events * OTHER_SHARE))
        for other in wl.WORKLOADS
    }
    t0 = time.perf_counter()
    inputs = {
        other: wl.WORKLOADS[other].make_inputs(seed, size)
        for other, size in sizes.items()
    }
    inputs_s = time.perf_counter() - t0
    kernels = measure.load_repro()
    specs = {
        other: wl.WORKLOADS[other].ladder_spec(inp)
        for other, inp in inputs.items()
    }

    # Discarded warm-up: the whole ladder once on slivers of the
    # streams, so every rung's imports, caches and kernels are hot.
    climb(
        {
            other: spec.cut(MIN_EVENTS)
            for other, spec in specs.items()
        },
        NullTracer(),
    )

    tracer = Tracer()
    led = climb(specs, tracer)
    # Tracing overhead on the workload's own top rung: three
    # alternating untraced / traced repetitions, median against median.
    walls = {False: [], True: []}
    for _ in range(3):
        for on in (False, True):
            walls[on].append(
                workload.top_rung(inputs[name], tracer if on else NullTracer())
            )
    plain = measure.quartiles(walls[False])[1]
    traced = measure.quartiles(walls[True])[1]
    led.put("bench.inputs_s", inputs_s, "s")
    led.put("bench.trace_overhead_share", (traced - plain) / plain, "share")
    led.put("bench.kernels_active", 1.0 if kernels else 0.0, "count")
    trace_path = tracer.write_chrome(measure.RESULTS_DIR / f"trace-{name}.json")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "host": measure.host_stamp(kernels),
        "sizes": {
            "scale": scale,
            "ladder_events": sizes,
            "spans": len(tracer.spans),
            "trace_file": str(trace_path.relative_to(measure.REPO_ROOT)),
        },
        "metrics": led.metrics,
        "attempted": led.attempted,
        "failed": led.failed,
        "correct": led.failed == 0,
        "notes": led.problems,
        "self_time": self_time_table(tracer)[:25],
    }

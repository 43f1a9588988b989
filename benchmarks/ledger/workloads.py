"""The four end-to-end workloads of the layer ledger.

Each workload generates its inputs with :mod:`inputs` (NumPy only),
builds the system under test in :meth:`setup` (charged to ``setup_s``),
drives one repetition in :meth:`run` (the timed region) and names an
independent :meth:`reference`.  ``repro`` is imported lazily so input
generation and the set-up clock can run before it loads.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace

import check
import inputs as gen
from measure import REPO_ROOT, RESULTS_DIR, cpu_seconds, peak_rss_mib

NPROC = os.cpu_count() or 1


@dataclass
class Rep:
    """What one repetition measured, as clocked."""

    events: int
    wall_s: float
    cpu_s: float
    latencies_ms: "list[float]"
    blocks: dict = field(repr=False)
    failed_ops: int = 0  # late drops + shed / errored requests
    child_peak_mib: float = 0.0
    counters: dict = field(default_factory=dict)
    slowdown: float = 1.0  # of the host around it (measure.host_slowdown)


@dataclass
class LadderSpec:
    """What the per-layer ladder needs to re-drive a workload's inputs
    through the layers it explains: the sorted stream (with its arrival
    order), the queries as ``(name, aggregate, [(range, slide), ...])``,
    which of them are live from the start, the mid-stream
    ``(row_batch_index, kind, name)`` operations, and the hand-in batch
    sizes."""

    stream: gen.Stream
    queries: list
    initial: list
    ops: list
    row_batch: int
    column_batch: int
    rtol: float
    _references: dict = field(default_factory=dict, repr=False)

    @property
    def aggregates(self) -> dict:
        return {name: aggregate for name, aggregate, _ in self.queries}

    def cut(self, num_events: int) -> "LadderSpec":
        """The same ladder on a prefix of the stream, the mid-stream
        operations moved to the same relative positions."""
        stream = self.stream.prefix(num_events)
        share = stream.num_events / self.stream.num_events
        ops = [(max(1, int(i * share)), kind, q) for i, kind, q in self.ops]
        return replace(self, stream=stream, ops=ops, _references={})

    def reference(self, stream=None, names=None, ops=None) -> dict:
        """The cold batch answer on ``stream`` (default: the whole
        one) for the queries ``names`` (default: all), each cut to the
        instances its subscription owns under ``ops`` (default: the
        spec's own schedule)."""
        stream = stream or self.stream
        ops = self.ops if ops is None else ops
        queries = [q for q in self.queries if names is None or q[0] in names]
        key = (id(stream), tuple(q[0] for q in queries), tuple(ops))
        if key not in self._references:  # several rungs share one
            self._references[key] = cold_reference(
                stream, queries, lifetimes(stream, ops, self.row_batch)
            )
        return self._references[key]


def window_set(pairs):
    from repro import Window, WindowSet

    return WindowSet([Window(r, s) for r, s in pairs])


def make_query(name, aggregate, pairs):
    from repro import get_aggregate
    from repro.core.multiquery import Query

    return Query(name, window_set(pairs), get_aggregate(aggregate))


def event_batch(stream, lo=0, hi=None):
    from repro import EventBatch

    ts = stream.ts[lo:hi]
    return EventBatch(
        timestamps=ts,
        keys=stream.keys[lo:hi],
        values=stream.values[lo:hi],
        horizon=stream.horizon if hi is None else int(ts[-1]) + 1,
        num_keys=stream.num_keys,
    )


def event_batches(stream, batch_events):
    n = stream.num_events
    return [
        event_batch(stream, lo, min(lo + batch_events, n))
        for lo in range(0, n, batch_events)
    ]


def lifetimes(stream, ops, row_batch) -> dict:
    """``{query: (born, died)}``: the watermarks at which the
    mid-stream ops register and deregister.  A session applies an op at
    its safe watermark — the newest timestamp handed in so far minus
    ``max_lateness`` — so the schedule and the arrivals alone fix which
    instances each subscription owns (``check.cut_to_lifetime``)."""
    arrivals = stream.arrival_columns()[0]
    out = {}
    for index, kind, name in ops:
        seen = int(arrivals[: index * row_batch].max())
        at = max(0, seen - stream.max_lateness)
        born, died = out.get(name, (0, None))
        out[name] = (at, died) if kind == "register" else (born, at)
    return out


def cold_reference(stream, queries, lifetimes=()) -> dict:
    """Every query's *original* plan on the plain ``columnar`` engine
    over the sorted stream — the cold batch answer — cut to the
    instances each live subscription owns."""
    from repro import execute_plan, get_aggregate, original_plan

    batch = event_batch(stream)
    blocks = {}
    for name, aggregate, pairs in queries:
        plan = original_plan(window_set(pairs), get_aggregate(aggregate))
        run = execute_plan(plan, batch, engine="columnar")
        blocks.update(check.engine_blocks(name, aggregate, run.results))
    return check.cut_to_lifetime(blocks, dict(lifetimes))


def session_reference(stream, queries, rows) -> dict:
    """What a plain in-process ``QuerySession`` has emitted once it has
    been fed ``rows`` and *not* finished — the answer a service tenant
    polled at that point must give, bit for bit."""
    from repro import QuerySession

    session = QuerySession(
        num_keys=stream.num_keys, max_lateness=stream.max_lateness
    )
    try:
        for query in queries:
            session.register(make_query(*query))
        for batch in rows:
            session.push_many(batch)
        results = session.drain_results()
    finally:
        session.close()
    aggregates = {name: aggregate for name, aggregate, _ in queries}
    return check.session_blocks([results], aggregates)


def drive_session(session, batches, ops, queries, horizon, tracer,
                  drain_every=10):
    """Feed row batches through ``push_many`` with the mid-stream ops
    applied before their batch and a ``drain_results`` poll every
    ``drain_every`` batches, then ``finish()``.  Returns ``(parts,
    latencies_ms)``: the drained result dicts in order (``finish()``
    last) and each batch's hand-in latency, ops and polls included."""
    by_name = {name: (name, agg, pairs) for name, agg, pairs in queries}
    due = {}
    for index, kind, name in ops:
        due.setdefault(index, []).append((kind, name))
    parts, latencies = [], []
    for index, rows in enumerate(batches):
        t1 = time.perf_counter()
        for kind, name in due.get(index, ()):
            if kind == "register":
                with tracer.span("runtime.session.register", index):
                    session.register(make_query(*by_name[name]))
            else:
                with tracer.span("runtime.session.deregister", index):
                    session.deregister(name)
        with tracer.span("runtime.session.push_many", index):
            session.push_many(rows)
        if index % drain_every == drain_every - 1:
            with tracer.span("runtime.session.drain_results", index):
                parts.append(session.drain_results())
        latencies.append((time.perf_counter() - t1) * 1e3)
    with tracer.span("runtime.session.finish"):
        parts.append(session.finish(horizon))
    return parts, latencies


def drive_sharded(session, batches, horizon, rebalance_every, tracer):
    """Feed sorted ``EventBatch``es through ``push_batch``; with
    ``rebalance_every`` a ``rebalance()`` barrier follows every n-th
    batch and its time is charged to the batch that waited on it.
    Returns ``(results, latencies_ms, barriers_ms, slots_moved)``."""
    latencies, barriers, moved, carry = [], [], 0, 0.0
    for index, batch in enumerate(batches):
        t1 = time.perf_counter()
        with tracer.span("runtime.sharding.push_batch", index):
            session.push_batch(batch)
        latencies.append((time.perf_counter() - t1) * 1e3 + carry)
        carry = 0.0
        if rebalance_every and index % rebalance_every == rebalance_every - 1:
            t2 = time.perf_counter()
            with tracer.span("runtime.sharding.rebalance", index):
                moved += session.rebalance()
            carry = (time.perf_counter() - t2) * 1e3
            barriers.append(carry)
    with tracer.span("runtime.sharding.finish"):
        results = session.finish(horizon)
    return results, latencies, barriers, moved


def hot_share(session) -> float:
    loads = [load["events"] for load in session.shard_loads().values()]
    return max(loads) / sum(loads)


class Workload:
    """Shared defaults; a workload overrides what differs."""

    name = ""
    generators, workers = 1, 0
    #: Tolerance against the cold batch reference (it may add in
    #: another order) and against the brute-force oracle.
    reference_rtol = 1e-9
    oracle_rtol = 1e-9

    def aggregates(self, inp):
        return {name: agg for name, agg, _ in self.queries(inp)}

    def first_event(self, ctx, inp):
        """Hand in the first event (set-up probes stop their clock when
        it is accepted)."""

    def teardown(self, ctx):
        pass

    def reference(self, inp):
        return self.ladder_spec(inp).reference()

    def oracle_streams(self, inp):
        return {name: inp["stream"] for name, _, _ in self.queries(inp)}

    def top_rung(self, inp, tracer) -> float:
        """One repetition's timed wall (``bench.trace_overhead_share``
        compares it traced and untraced)."""
        ctx = self.setup(inp)
        try:
            return self.run(ctx, inp, tracer).wall_s
        finally:
            self.teardown(ctx)


# ----------------------------------------------------------------------
# plan_batch
# ----------------------------------------------------------------------
class PlanBatch(Workload):
    """The paper's experiment: plan four window sets, execute each best
    plan on the pane-partitioned batch engine."""

    name = "plan_batch"
    events = 1_000_000
    min_events = 20_000
    num_keys = 64

    def make_inputs(self, seed, events):
        return {
            "stream": gen.constant_rate_stream(seed, events, self.num_keys),
            "sets": gen.paper_window_sets(),
        }

    def queries(self, inp):
        return [(name, "min", pairs) for name, pairs in inp["sets"].items()]

    def setup(self, inp):
        # A batch engine has accepted its events once the validated
        # EventBatch exists; there is no session to build.
        return {"batch": event_batch(inp["stream"])}

    def run(self, ctx, inp, tracer) -> Rep:
        from repro import MIN, execute_plan
        from repro.core.planner import plan_windows

        batch = ctx["batch"]
        set_ms, blocks = {}, {}
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        for index, (name, pairs) in enumerate(inp["sets"].items()):
            t1 = time.perf_counter()
            with tracer.span("core.plan_windows", index):
                planned = plan_windows(window_set(pairs), MIN)
            with tracer.span("engine.execute_plan", index):
                run = execute_plan(
                    planned.best_plan, batch, engine="columnar-panes"
                )
            set_ms[name] = (time.perf_counter() - t1) * 1e3
            blocks.update(check.engine_blocks(name, "min", run.results))
        wall = time.perf_counter() - t0
        return Rep(
            events=len(inp["sets"]) * batch.num_events,
            wall_s=wall,
            cpu_s=cpu_seconds() - cpu0,
            # A batch engine is handed one batch per run, the stream:
            # its hand-in latency is the repetition's.
            latencies_ms=[wall * 1e3],
            blocks=blocks,
            counters={"set_ms": set_ms},
        )

    def ladder_spec(self, inp) -> LadderSpec:
        queries = self.queries(inp)
        return LadderSpec(
            inp["stream"], queries, [q[0] for q in queries], [],
            row_batch=1_000, column_batch=20_000, rtol=self.reference_rtol,
        )


# ----------------------------------------------------------------------
# live_session
# ----------------------------------------------------------------------
class LiveSession(Workload):
    """One QuerySession behind its reorder buffer, fed small Python
    lists out of order, with two live plan switches."""

    name = "live_session"
    events = 500_000
    min_events = 20_000
    num_keys = 64
    max_lateness = 32
    batch_events = 1_000
    initial = [
        ("mins", "min", [(20, 20), (40, 40), (60, 60), (120, 120)]),
        ("sums", "sum", [(60, 20), (120, 40)]),
        ("medians", "median", [(40, 20)]),
    ]
    late = ("avgs", "avg", [(80, 40), (240, 80)])

    def make_inputs(self, seed, events):
        stream = gen.jittered_stream(
            seed, events, self.num_keys, self.max_lateness
        )
        batches = gen.row_batches(stream, self.batch_events)
        return {
            "stream": stream,
            "batches": batches,
            "ops": [
                (len(batches) // 3, "register", "avgs"),
                (2 * len(batches) // 3, "deregister", "sums"),
            ],
        }

    def queries(self, inp):
        return self.initial + [self.late]

    def setup(self, inp):
        from repro import QuerySession

        session = QuerySession(
            num_keys=self.num_keys, max_lateness=self.max_lateness
        )
        for spec in self.initial:
            session.register(make_query(*spec))
        return {"session": session}

    def first_event(self, ctx, inp):
        ctx["session"].push(*inp["batches"][0][0])

    def run(self, ctx, inp, tracer) -> Rep:
        session = ctx["session"]
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        parts, latencies = drive_session(
            session, inp["batches"], inp["ops"], self.queries(inp),
            inp["stream"].horizon, tracer,
        )
        wall = time.perf_counter() - t0
        return Rep(
            events=inp["stream"].num_events,
            wall_s=wall,
            cpu_s=cpu_seconds() - cpu0,
            latencies_ms=latencies,
            blocks=check.session_blocks(parts, self.aggregates(inp)),
            failed_ops=session.reorder_stats.late_dropped,
            counters={"switches": len(session.switches)},
        )

    def teardown(self, ctx):
        ctx["session"].close()

    def ladder_spec(self, inp) -> LadderSpec:
        return LadderSpec(
            inp["stream"], self.queries(inp), [q[0] for q in self.initial],
            inp["ops"], row_batch=self.batch_events, column_batch=20_000,
            rtol=self.reference_rtol,
        )


# ----------------------------------------------------------------------
# sharded_skew
# ----------------------------------------------------------------------
class ShardedSkew(Workload):
    """Two shm shard workers under Zipf skew, columnar in-order batches,
    a rebalance barrier after every tenth batch."""

    name = "sharded_skew"
    events = 2_000_000
    min_events = 240_000  # twelve batches: at least one rebalance barrier
    num_keys = 256
    num_shards = 2
    zipf = 1.2
    batch_events = 20_000
    rebalance_every = 10
    generators, workers = 1, 2
    specs = [
        ("sums", "sum", [(300, 50), (600, 100)]),
        ("mins", "min", [(400, 80)]),
        ("avgs", "avg", [(480, 120)]),
    ]
    #: Whole-number values: sums are exact under any reassociation, so
    #: the rebalanced 2-shard run equals the 1-shard run bit for bit.
    reference_rtol = 0.0

    def make_inputs(self, seed, events):
        return {"stream": gen.zipf_stream(seed, events, self.num_keys, self.zipf)}

    def queries(self, inp):
        return self.specs

    def _session(self, num_shards, backend):
        from repro import ShardedSession

        session = ShardedSession(
            num_keys=self.num_keys,
            num_shards=num_shards,
            backend=backend,
            hysteresis=None,
        )
        for spec in self.specs:
            session.register(make_query(*spec))
        return session

    def setup(self, inp):
        return {
            "session": self._session(self.num_shards, "shm"),
            "batches": event_batches(inp["stream"], self.batch_events),
        }

    def first_event(self, ctx, inp):
        first = ctx["batches"][0]
        ctx["session"].push(
            int(first.timestamps[0]), int(first.keys[0]), float(first.values[0])
        )

    def run(self, ctx, inp, tracer) -> Rep:
        session = ctx["session"]
        pids = [p.pid for p in multiprocessing.active_children()]
        cpu0, t0 = cpu_seconds(pids), time.perf_counter()
        results, latencies, barriers, moved = drive_sharded(
            session, ctx["batches"], inp["stream"].horizon,
            self.rebalance_every, tracer,
        )
        wall = time.perf_counter() - t0
        cpu = cpu_seconds(pids) - cpu0
        stats = session.stats()
        return Rep(
            events=inp["stream"].num_events,
            wall_s=wall,
            cpu_s=cpu,
            latencies_ms=latencies,
            blocks=check.session_blocks([results], self.aggregates(inp)),
            failed_ops=session.reorder_stats.late_dropped,
            child_peak_mib=sum(peak_rss_mib(pid) for pid in pids),
            counters={
                "slots_moved": moved,
                "rebalance_barriers": len(barriers),
                "rebalance_ms_median": sorted(barriers)[len(barriers) // 2]
                if barriers else 0.0,
                "hot_share": hot_share(session),
                "total_physical": stats.total_physical,
                "total_pairs": stats.total_pairs,
            },
        )

    def teardown(self, ctx):
        ctx["session"].close()

    def reference(self, inp):
        """Serial, sync, one shard, no rebalancing."""
        from spans import NullTracer

        session = self._session(1, "serial")
        try:
            results, _, _, _ = drive_sharded(
                session, event_batches(inp["stream"], self.batch_events),
                inp["stream"].horizon, 0, NullTracer(),
            )
        finally:
            session.close()
        return check.session_blocks([results], self.aggregates(inp))

    def ladder_spec(self, inp) -> LadderSpec:
        return LadderSpec(
            inp["stream"], self.specs, [q[0] for q in self.specs], [],
            row_batch=1_000, column_batch=self.batch_events,
            rtol=self.reference_rtol,
        )


# ----------------------------------------------------------------------
# service_tcp
# ----------------------------------------------------------------------
SERVICE_WINDOWS = [(60, 20), (120, 20), (300, 300)]
LIFTED_QUOTAS = {"rate": 1e9, "burst": 10**9, "queue_budget_bytes": 1 << 30}


def shed_count(stats: dict) -> int:
    """Requests a tenant's server-side counters say were shed or
    rejected."""
    return (
        stats["shed_rate_quota"] + stats["shed_queue_budget"]
        + stats["shed_circuit_open"] + stats["bad_requests"]
    )


def sql_text(aggregate, pairs) -> str:
    """The query as the SQL front end spells it."""
    windows = ", ".join(
        f"TUMBLING(second, {r})" if r == s else f"HOPPING(second, {r}, {s})"
        for r, s in pairs
    )
    return f"SELECT {aggregate.upper()}(v) FROM s GROUP BY WINDOWS({windows})"


class ServiceProcess:
    """The session service as a separate OS process."""

    def __init__(self, checkpoint_every=512, workers=4):
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        self.checkpoint_dir = RESULTS_DIR / f"ckpt-{os.getpid()}-{id(self)}"
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.bench.cli", "serve",
                "--port", "0",
                "--checkpoint-dir", str(self.checkpoint_dir),
                "--checkpoint-every", str(checkpoint_every),
                "--workers", str(workers),
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Ask the server to shut down, then make sure it is gone and
        its checkpoint directory with it."""
        from repro.errors import ExecutionError
        from repro.service import ServiceClient

        if self.process.poll() is None:
            try:
                with ServiceClient(port=self.port, timeout=5.0) as client:
                    client.shutdown()
            except (ExecutionError, AttributeError):
                pass  # never listened, or already going down
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)


class ServiceTcp(Workload):
    """Two tenants over real TCP against a separate server process:
    a closed-loop capacity phase, then an open-loop phase below it.
    Its inputs are endless feeds, drawn a repetition at a time."""

    name = "service_tcp"
    #: Events in one closed-loop repetition, both tenants together
    #: (about a second of work at the first real run's capacity).
    events = 120_000
    min_events = 6_400  # enough ticks for every window to emit
    num_keys = 64
    tenants = 2
    batch_events = 200
    interval_s = 0.010  # open loop: one batch per client per interval
    window_s = 1.5  # open loop: one repetition, a results poll after it
    generators, workers = 2, 0
    reference_rtol = 0.0

    def _feed(self, seed, tenant):
        return gen.StreamFeed(seed, tenant, self.num_keys, self.batch_events)

    def make_inputs(self, seed, events):
        per_client = self.tenants * self.batch_events
        return {
            "seed": seed,
            "events": events,
            "feeds": [self._feed(seed, t) for t in range(self.tenants)],
            "segment": max(2, min(events, self.events) // per_client),
        }

    def queries(self, inp):
        return [(f"t{t}", "sum", SERVICE_WINDOWS) for t in range(self.tenants)]

    def take(self, inp, batches) -> list:
        """The next ``batches`` row batches of every tenant's feed."""
        return [feed.take(batches) for feed in inp["feeds"]]

    def setup(self, inp):
        from repro.service import ServiceClient

        server = ServiceProcess()
        clients = []
        try:
            for t in range(self.tenants):
                client = ServiceClient(port=server.port, timeout=60.0)
                clients.append(client)
                client.open(
                    f"t{t}", {"num_keys": self.num_keys, **LIFTED_QUOTAS}
                )
                client.register(
                    f"t{t}", sql_text("sum", SERVICE_WINDOWS), name=f"t{t}"
                )
        except BaseException:
            for client in clients:
                client.close()
            server.stop()
            raise
        return {"server": server, "clients": clients}

    def first_event(self, ctx, inp):
        for t, rows in enumerate(self.take(inp, 1)):
            ctx["clients"][t].ingest(f"t{t}", rows[0])

    def _in_threads(self, target):
        threads = [
            threading.Thread(target=target, args=(t,))
            for t in range(self.tenants)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def closed_loop(self, ctx, rows, tracer):
        """Every client sends its ``rows[t]`` batches back to back;
        returns ``(events, wall_s, cpu_s, latencies_ms, failed)``."""
        from repro.errors import ExecutionError

        failed = [0] * self.tenants
        latencies = [[] for _ in range(self.tenants)]

        def client_loop(t):
            client, tenant = ctx["clients"][t], f"t{t}"
            for index, batch in enumerate(rows[t]):
                t1 = time.perf_counter()
                try:
                    with tracer.span("service.client.ingest", index):
                        client.ingest(tenant, batch)
                except ExecutionError:
                    failed[t] += 1
                latencies[t].append((time.perf_counter() - t1) * 1e3)

        pids = [ctx["server"].pid]
        cpu0, t0 = cpu_seconds(pids), time.perf_counter()
        self._in_threads(client_loop)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds(pids) - cpu0
        events = sum(len(batch) for part in rows for batch in part)
        return events, wall, cpu, sum(latencies, []), sum(failed)

    def open_loop(self, ctx, rows, tracer):
        """Each client is *due* to send one of its ``rows[t]`` batches
        every ``interval_s``; latency runs from the due time.  Returns
        per-request ``(latency_ms, generator_lateness_ms)`` and
        failures."""
        from repro.errors import ExecutionError

        samples = [[] for _ in range(self.tenants)]
        failed = [0] * self.tenants
        start = time.perf_counter() + 0.01

        def client_loop(t):
            client, tenant = ctx["clients"][t], f"t{t}"
            done = 0.0
            for index, batch in enumerate(rows[t]):
                due = start + index * self.interval_s
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                begun = time.perf_counter()
                # The generator is late only by what it added itself:
                # a reply still outstanding at the due time is the
                # system's stall, already inside the latency.
                late = begun - max(due, done)
                try:
                    with tracer.span("service.client.ingest", index):
                        client.ingest(tenant, batch)
                except ExecutionError:
                    failed[t] += 1
                done = time.perf_counter()
                samples[t].append(((done - due) * 1e3, late * 1e3))

        self._in_threads(client_loop)
        return sum(samples, []), sum(failed)

    def poll(self, ctx) -> list:
        """One draining ``results`` op per tenant — what a consumer
        polls between bursts; it also keeps the sessions' retained
        results, and so their checkpoints, from growing all run."""
        return [
            client.results(f"t{t}") for t, client in enumerate(ctx["clients"])
        ]

    def shed(self, ctx) -> int:
        """Requests the server shed or rejected, by its own count."""
        return sum(
            shed_count(client.stats(f"t{t}")["stats"])
            for t, client in enumerate(ctx["clients"])
        )

    def teardown(self, ctx):
        for client in ctx["clients"]:
            client.close()
        ctx["server"].stop()

    def reference(self, inp):
        """An in-process QuerySession per tenant, fed what its feed
        handed out."""
        streams = self.oracle_streams(inp)
        blocks = {}
        for query in self.queries(inp):
            stream = streams[query[0]]
            rows = gen.row_batches(stream, self.batch_events)
            blocks.update(session_reference(stream, [query], rows))
        return blocks

    def oracle_streams(self, inp):
        return {f"t{t}": feed.stream() for t, feed in enumerate(inp["feeds"])}

    def top_rung(self, inp, tracer) -> float:
        ctx = self.setup(inp)
        try:
            self.closed_loop(ctx, self.take(inp, 2), tracer)
            return self.closed_loop(
                ctx, self.take(inp, inp["segment"]), tracer
            )[1]
        finally:
            self.teardown(ctx)

    def ladder_spec(self, inp) -> LadderSpec:
        """The start of tenant 0's stream (from a feed of its own: the
        tenants' feeds move)."""
        feed = self._feed(inp["seed"], 0)
        feed.take(inp["events"] // self.batch_events)
        return LadderSpec(
            feed.stream(), self.queries(inp)[:1], ["t0"], [],
            row_batch=self.batch_events, column_batch=20_000,
            rtol=self.reference_rtol,
        )


WORKLOADS = {
    w.name: w for w in (PlanBatch(), LiveSession(), ShardedSkew(), ServiceTcp())
}


def get(name: str):
    workload = WORKLOADS[name]
    if max(workload.generators, workload.workers) > NPROC:
        raise SystemExit(
            f"refusing to run {name}: {workload.generators} generator "
            f"thread(s) and {workload.workers} shard worker(s) on a host "
            f"with {NPROC} CPU(s)"
        )
    return workload

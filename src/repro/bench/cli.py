"""Command-line interface: ``factor-windows <command>``.

Commands
--------
``optimize``      optimize an ASA-like SQL query and print the plans.
``experiment``    regenerate one of the paper's tables/figures.
``list``          list available experiment ids.
``engines``       list registered execution paths; with ``--query``,
                  show the physical path each window takes per engine.
``session``       run a live :class:`~repro.runtime.ShardedSession` over
                  a synthetic stream, registering the given queries
                  one at a time mid-stream (DESIGN.md §6).  With
                  ``--shards N`` (N > 1) the key space is split into N
                  shards (DESIGN.md §7); ``--shard-backend`` picks
                  the serial oracle, the multiprocessing pipe pool, or
                  the shared-memory ring pool (``shm``, DESIGN.md §8);
                  ``--async-ingest`` puts the bounded-queue front door
                  in front of the session; ``--checkpoint-dir`` +
                  ``--checkpoint-every`` write rotating watermark-safe
                  checkpoints while streaming (DESIGN.md §9).
``restore``       resume a ``session`` run from its newest checkpoint
                  (or an explicit checkpoint file) and stream the rest
                  of the events — bit-identical to never having
                  stopped (invariant 12, docs/durability.md).
``serve``         run the supervised multi-tenant session service: a
                  JSON-lines TCP front door over many named tenant
                  sessions with per-tenant rate quotas, queue budgets,
                  circuit breakers, and checkpoint+replay restore
                  (DESIGN.md §10, docs/service.md).  ``--config``
                  loads a ``tenants.yaml`` quota file.
"""

from __future__ import annotations

import argparse
import sys

from ..plans.render import to_tree, to_trill
from ..runtime.sharding import SHARD_BACKENDS
from ..sql.compile import plan_query
from . import experiments
from .reporting import format_boost_summary_table

EXPERIMENTS = {
    "fig11": "throughput panels, synthetic, |W|=5",
    "fig12": "optimizer overhead vs |W|",
    "fig13": "Flink vs Scotty vs factor windows, |W|=10",
    "fig14": "throughput panels, synthetic, |W|=10",
    "fig17": "throughput panels, real (DEBS-like), |W|=5",
    "fig18": "throughput panels, real (DEBS-like), |W|=10",
    "fig19": "cost-model correlation",
    "fig20": "throughput panels, synthetic, |W|=15",
    "fig21": "throughput panels, synthetic, |W|=20",
    "fig22": "Flink vs Scotty vs factor windows, |W|=5",
    "table1": "boost summary, synthetic",
    "table2": "boost summary, real (DEBS-like)",
    "table3": "boost summary, scalability |W| in {15,20}",
    "table4": "boost summary, synthetic small stream",
}


def _cmd_optimize(args: argparse.Namespace) -> int:
    planned = plan_query(args.query, enable_factor_windows=not args.no_factors)
    print(planned.optimization.summary())
    print()
    print(to_tree(planned.best_plan, shards=args.shards))
    if args.trill:
        print()
        print("Trill expression:")
        print(to_trill(planned.best_plan))
    return 0


def _panel_experiment(args, dataset: str, size: int) -> int:
    panels = experiments.throughput_panels(
        dataset=dataset, set_size=size, events=args.events, runs=args.runs
    )
    for panel in panels:
        print(panel.render())
        print()
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name
    if name == "fig11":
        return _panel_experiment(args, "synthetic", 5)
    if name == "fig14":
        return _panel_experiment(args, "synthetic", 10)
    if name == "fig17":
        return _panel_experiment(args, "real", 5)
    if name == "fig18":
        return _panel_experiment(args, "real", 10)
    if name == "fig20":
        return _panel_experiment(args, "synthetic", 15)
    if name == "fig21":
        return _panel_experiment(args, "synthetic", 20)
    if name == "fig12":
        points = experiments.optimizer_overhead(runs=args.runs)
        print(experiments.render_overhead(points))
        return 0
    if name in ("fig13", "fig22"):
        size = 10 if name == "fig13" else 5
        panels = experiments.scotty_comparison(
            set_size=size, events=args.events, runs=args.runs
        )
        for panel in panels:
            print(panel.render(include_scotty=True))
            print()
        return 0
    if name == "fig19":
        panels = experiments.cost_model_correlation(
            events=args.events, runs=args.runs
        )
        print(experiments.render_correlation(panels))
        return 0
    if name in ("table1", "table2", "table3", "table4"):
        dataset = "real" if name == "table2" else "synthetic"
        sizes = (15, 20) if name == "table3" else (5, 10)
        events = args.events // 4 if name == "table4" else args.events
        summaries = experiments.boost_summary_table(
            dataset=dataset, set_sizes=sizes, events=events, runs=args.runs
        )
        print(
            format_boost_summary_table(
                summaries, title=f"{name}: throughput boosts ({dataset})"
            )
        )
        return 0
    print(f"unknown experiment {name!r}; try: factor-windows list", file=sys.stderr)
    return 2


def _cmd_engines(args: argparse.Namespace) -> int:
    from ..engine.executor import available_engines
    from ..plans.render import to_tree

    if not args.query:
        for name in available_engines():
            print(name)
        return 0
    planned = plan_query(args.query)
    for name in available_engines():
        print(to_tree(planned.best_plan, engine=name))
        print()
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    if args.replay is not None or (args.query and args.query[0] == "run"):
        return _cmd_scenario_run(args)
    if args.record is not None:
        print(
            "--record only applies to scenario mode "
            "(session run <scenario>.yaml --record <capture>.rstream)",
            file=sys.stderr,
        )
        return 2
    from ..engine.events import DEFAULT_NUM_SLOTS
    from ..runtime import ShardedSession
    from ..workloads.streams import constant_rate_stream

    # Tri-state so scenario mode can tell "not given" from a real
    # override; the classic path keeps its old defaults.
    if args.shards is None:
        args.shards = 1
    if args.shard_backend is None:
        args.shard_backend = "serial"

    stream = constant_rate_stream(
        args.events, num_keys=args.keys, rate=args.rate, seed=args.seed
    )
    rows = list(stream.rows())
    # First query opens before any data; the rest spread over the
    # first half of the stream — the live-dashboard shape.
    points = {
        (i * len(rows)) // (2 * max(1, len(args.query))): q
        for i, q in enumerate(args.query)
    }
    # Auto-checkpointing runs *inside* the session (the same code path
    # the multi-tenant service supervises; DESIGN.md §9–§10).  The
    # meta provider fires on the applying thread at the cut, so the
    # recorded position is the exact applied-event count — correct
    # even in async-ingest mode, where this loop runs ahead of the
    # pump.  A watermark cannot split a tick, so the position (plus
    # the not-yet-registered queries) is what `restore` needs.
    session = None
    auto_kwargs: dict = {}
    if args.checkpoint_dir is not None:
        from ..runtime import CheckpointStore

        store = CheckpointStore(
            args.checkpoint_dir, every=args.checkpoint_every
        )

        def checkpoint_meta() -> dict:
            reorder = session.reorder_stats
            position = reorder.accepted + reorder.late_dropped
            return {
                "position": position,
                "stream": {
                    "events": args.events,
                    "keys": args.keys,
                    "rate": args.rate,
                    "seed": args.seed,
                },
                "pending": {
                    j: q for j, q in points.items() if j >= position
                },
            }

        def on_checkpoint(snap, path) -> None:
            print(f"[wm {snap.watermark:>6}] checkpoint -> {path.name}")

        auto_kwargs = {
            "auto_checkpoint": store,
            "checkpoint_meta": checkpoint_meta,
            "on_checkpoint": on_checkpoint,
        }
        print(
            f"checkpointing every {args.checkpoint_every:,} watermark "
            f"ticks to {args.checkpoint_dir}/"
        )
    session = ShardedSession(
        num_shards=args.shards,
        backend=args.shard_backend,
        num_slots=DEFAULT_NUM_SLOTS if args.slots is None else args.slots,
        num_keys=args.keys,
        max_lateness=args.lateness,
        hysteresis=None if args.no_adapt else args.hysteresis,
        async_ingest=args.async_ingest,
        **auto_kwargs,
    )
    print(
        f"session: x{args.shards} key-hash shard(s) over "
        f"{session.num_slots} slots ({session.backend.name} backend"
        f"{', async ingest' if args.async_ingest else ''})"
    )
    with session:  # on any exit: stop pump / workers, unlink rings
        for i, (ts, key, value) in enumerate(rows):
            if i in points:
                name = session.register(points[i])
                print(f"[wm {session.watermark:>6}] registered {name!r}")
            session.push(ts, key, value)
            if args.rebalance_every and i and i % args.rebalance_every == 0:
                moved = session.rebalance()
                if moved:
                    print(
                        f"[wm {session.watermark:>6}] rebalanced: "
                        f"{moved} slot(s) migrated"
                    )
        results = session.finish(horizon=stream.horizon)
        _print_session_report(session, results, args.async_ingest)
        _print_slot_map(session)
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    """``session run <scenario>.yaml`` — the declarative front end
    (docs/scenarios.md): compile, execute, verify, optionally record;
    ``session run --replay <capture>.rstream`` re-feeds a capture."""
    from ..errors import ExecutionError
    from ..scenarios import ScenarioRunner, replay_capture

    overrides = {
        "backend": args.shard_backend,
        "shards": args.shards,
        "async_ingest": True if args.async_ingest else None,
    }
    try:
        if args.replay is not None:
            if [q for q in args.query if q != "run"]:
                print(
                    "--replay takes no scenario file — the capture "
                    "carries the recorded stream",
                    file=sys.stderr,
                )
                return 2
            report = replay_capture(
                args.replay, verify=not args.no_verify, **overrides
            )
            _print_scenario_report(report, source=str(args.replay))
            if not args.no_verify:
                print("replay matched the recorded outcome")
            return 0
        if len(args.query) != 2:
            print(
                "usage: factor-windows session run <scenario>.yaml "
                "[--record <capture>.rstream]",
                file=sys.stderr,
            )
            return 2
        runner = ScenarioRunner(args.query[1])
        report = runner.run(record=args.record, verify=False, **overrides)
        _print_scenario_report(report, source=args.query[1])
        if args.record is not None:
            print(f"recorded -> {args.record}")
        expect = runner.scenario.expect
        has_checks = any(
            value is not None
            for value in (
                expect.digest,
                expect.accepted,
                expect.late_dropped,
                expect.total_pairs,
                expect.min_throughput,
                expect.queries,
            )
        )
        if has_checks and not args.no_verify:
            report.verify(expect)
            print("expectations verified")
    except ExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _print_scenario_report(report, source: str) -> None:
    shape = f"{report.backend} x{report.shards}"
    if report.async_ingest:
        shape += ", async ingest"
    print(f"scenario {report.name!r} ({source}) on {shape}")
    print(
        f"  events={report.events:,} accepted={report.accepted:,} "
        f"late={report.late_dropped:,} pairs={report.total_pairs:,} "
        f"physical={report.total_physical:,}"
    )
    extras = []
    if report.slots_moved:
        extras.append(f"{report.slots_moved} slot(s) migrated")
    if report.worker_recoveries:
        extras.append(f"{report.worker_recoveries} worker recovery(ies)")
    if report.faults_fired:
        extras.append(f"{report.faults_fired} fault(s) fired")
    if extras:
        print("  " + ", ".join(extras))
    for name, instances in sorted(report.queries.items()):
        print(f"  query {name:16s} {instances:>6,} emitted instance(s)")
    print(
        f"  throughput {report.throughput / 1e3:,.0f}K ev/s "
        f"({report.wall_seconds:.2f}s)"
    )
    print(f"  digest {report.digest}")


def _print_slot_map(session) -> None:
    """The final slot->shard layout, run-length compressed, plus the
    decayed per-shard load the layout ended at (DESIGN.md §12)."""
    slot_map = session.slot_map
    runs = []
    start = 0
    for i in range(1, len(slot_map) + 1):
        if i == len(slot_map) or slot_map[i] != slot_map[start]:
            count = i - start
            label = f"{slot_map[start]}"
            runs.append(label if count == 1 else f"{label}x{count}")
            start = i
    print()
    print(f"final slot map ({len(slot_map)} slots -> shard):")
    print("  " + " ".join(runs))
    for shard, load in sorted(session.shard_loads().items()):
        print(
            f"  shard {shard}: {int(load['slots'])} slots, "
            f"{int(load['keys'])} keys, load {load['events']:.1f} ev "
            f"/ {load['bytes']:.0f} B (decayed)"
        )


def _print_session_report(session, results, async_ingest: bool) -> None:
    print()
    print("plan switches:")
    for switch in session.switches:
        print(f"  {switch}")
    print()
    print("emitted results:")
    for name, by_window in sorted(results.items()):
        for window, emitted in sorted(
            by_window.items(), key=lambda kv: (kv[0].range, kv[0].slide)
        ):
            print(
                f"  {name:10s} {window}: instances "
                f"[{emitted.start_instance}, {emitted.frontier})"
            )
    stats = session.stats()
    print()
    print(
        f"events={session.reorder_stats.accepted:,} "
        f"late={session.reorder_stats.late_dropped:,} "
        f"pairs={stats.total_pairs:,} "
        f"physical={stats.total_physical:,} "
        f"throughput={stats.throughput / 1e3:,.0f}K ev/s"
    )
    if async_ingest:
        ingest = session.ingest_stats
        print(
            f"ingest queue: {ingest.enqueued_events:,} events, "
            f"{ingest.backpressure_waits:,} backpressure waits, "
            f"peak backlog {ingest.max_depth_events:,}"
        )


def _cmd_restore(args: argparse.Namespace) -> int:
    from pathlib import Path

    from ..runtime import ShardedSession, latest_checkpoint, read_checkpoint
    from ..workloads.streams import constant_rate_stream

    target = Path(args.checkpoint)
    path = latest_checkpoint(target) if target.is_dir() else target
    if path is None or not path.exists():
        print(f"no checkpoint found at {target}", file=sys.stderr)
        return 2
    snap = read_checkpoint(path)
    meta = snap.meta
    if "stream" not in meta or "position" not in meta:
        print(
            f"{path} carries no stream metadata (it was not written by "
            "'factor-windows session'); restore it via the Python API "
            "instead (docs/durability.md)",
            file=sys.stderr,
        )
        return 2
    session = ShardedSession.restore(
        snap, backend=args.shard_backend, async_ingest=args.async_ingest
    )
    spec = meta["stream"]
    events = args.events if args.events is not None else spec["events"]
    stream = constant_rate_stream(
        events, num_keys=spec["keys"], rate=spec["rate"], seed=spec["seed"]
    )
    rows = list(stream.rows())
    # Resume from what the restored session has actually applied — its
    # own (restored) reorder counters — not the checkpoint's recorded
    # position.  The two differ when the cut was taken mid-stream in
    # async mode: the snapshot then carries ingest-queue *residue*,
    # which restore has just replayed on top of the recorded position.
    # `switches` is a pump synchronization point, so the counters are
    # settled before we read them.
    _ = session.switches
    reorder = session.reorder_stats
    position = min(reorder.accepted + reorder.late_dropped, len(rows))
    pending = {
        int(i): q for i, q in meta.get("pending", {}).items() if i < len(rows)
    }
    print(
        f"restored x{session.num_shards} session from {path} "
        f"(watermark {snap.watermark:,}, stream position {position:,}, "
        f"{len(rows) - position:,} events to go)"
    )
    with session:
        for i in range(position, len(rows)):
            if i in pending:
                name = session.register(pending[i])
                print(f"[wm {session.watermark:>6}] registered {name!r}")
            ts, key, value = rows[i]
            session.push(ts, key, value)
        results = session.finish(horizon=stream.horizon)
        _print_session_report(session, results, args.async_ingest)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from ..errors import ReproError
    from ..service import (
        DEFAULT_CHECKPOINT_EVERY,
        ServiceServer,
        SessionManager,
        load_tenants_config,
    )

    try:
        config = (
            load_tenants_config(Path(args.config))
            if args.config is not None
            else None
        )
    except (ReproError, OSError) as exc:
        # Refused before a port is bound, like a bad scenario file.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    every = (
        args.checkpoint_every
        if args.checkpoint_every is not None
        else DEFAULT_CHECKPOINT_EVERY
    )
    manager = SessionManager(
        config, directory=args.checkpoint_dir, checkpoint_every=every
    )
    server = ServiceServer(
        manager, host=args.host, port=args.port, max_workers=args.workers
    )

    def on_started(srv: ServiceServer) -> None:
        # Flushed so wrappers reading the pipe see the bound port
        # immediately (with --port 0 it is only known here).
        print(
            f"factor-windows service listening on {srv.host}:{srv.port}",
            flush=True,
        )
        if args.config is not None:
            print(f"tenant quotas: {args.config}", flush=True)
        print('stop with Ctrl-C or {"op": "shutdown"}', flush=True)

    try:
        server.run(on_started=on_started)
    except KeyboardInterrupt:
        print("\nstopping")
    finally:
        manager.close()
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    for name, description in sorted(EXPERIMENTS.items()):
        print(f"{name:8s} {description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factor-windows",
        description="Factor Windows: cost-based multi-window aggregate "
        "optimization (ICDE 2022 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="optimize an ASA-like SQL query")
    p_opt.add_argument("query", help="the query text")
    p_opt.add_argument("--no-factors", action="store_true")
    p_opt.add_argument("--trill", action="store_true", help="print Trill form")
    p_opt.add_argument(
        "--shards",
        type=int,
        default=None,
        help="annotate the plan with its key-shard fan-out (DESIGN.md §7)",
    )
    p_opt.set_defaults(func=_cmd_optimize)

    p_exp = sub.add_parser("experiment", help="regenerate a table/figure")
    p_exp.add_argument("name", help="experiment id (see: factor-windows list)")
    p_exp.add_argument("--events", type=int, default=experiments.DEFAULT_EVENTS)
    p_exp.add_argument("--runs", type=int, default=experiments.DEFAULT_RUNS)
    p_exp.set_defaults(func=_cmd_experiment)

    p_list = sub.add_parser("list", help="list experiment ids")
    p_list.set_defaults(func=_cmd_list)

    p_eng = sub.add_parser("engines", help="list execution paths")
    p_eng.add_argument(
        "--query", default="", help="annotate this query's best plan"
    )
    p_eng.set_defaults(func=_cmd_engines)

    p_ses = sub.add_parser(
        "session", help="run a live session, registering queries mid-stream"
    )
    p_ses.add_argument(
        "query",
        nargs="+",
        help="queries to register one at a time — or 'run <scenario>."
        "yaml' to execute a declarative scenario (docs/scenarios.md)",
    )
    p_ses.add_argument("--events", type=int, default=100_000)
    p_ses.add_argument("--keys", type=int, default=4)
    p_ses.add_argument("--rate", type=int, default=2)
    p_ses.add_argument("--lateness", type=int, default=8)
    p_ses.add_argument("--seed", type=int, default=1)
    p_ses.add_argument("--hysteresis", type=float, default=0.25)
    p_ses.add_argument(
        "--no-adapt",
        action="store_true",
        help="disable rate-driven re-planning",
    )
    p_ses.add_argument(
        "--shards",
        type=int,
        default=None,
        help="run on a key-sharded session with this many hash shards "
        "(1 = one core, in-process; DESIGN.md §7; in scenario "
        "mode, overrides the scenario's runtime.shards)",
    )
    p_ses.add_argument(
        "--shard-backend",
        choices=SHARD_BACKENDS,
        default=None,
        help="where shard cores run: in-process (deterministic oracle), "
        "one worker process per shard over pipes, or one worker per "
        "shard over shared-memory rings (DESIGN.md §8)",
    )
    p_ses.add_argument(
        "--slots",
        type=int,
        default=None,
        help="virtual slot count for the elastic slot->shard partition "
        "(default 256 — DESIGN.md §12)",
    )
    p_ses.add_argument(
        "--rebalance-every",
        type=int,
        default=0,
        help="greedily migrate hot slots off the most-loaded shard "
        "every N events (0 = never; a no-op at one shard — "
        "DESIGN.md §12)",
    )
    p_ses.add_argument(
        "--async-ingest",
        action="store_true",
        help="put the bounded-queue non-blocking front door in front "
        "of the session (backpressure instead of blocking pushes)",
    )
    p_ses.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write rotating watermark-safe checkpoints to this "
        "directory while streaming (DESIGN.md §9)",
    )
    p_ses.add_argument(
        "--checkpoint-every",
        type=int,
        default=5_000,
        help="checkpoint cadence in watermark ticks (default 5000; "
        "needs --checkpoint-dir)",
    )
    p_ses.add_argument(
        "--record",
        default=None,
        metavar="CAPTURE",
        help="scenario mode: record the exact arrival stream, op "
        "schedule, and outcome to a .rstream capture for bit-identical "
        "replay (docs/scenarios.md)",
    )
    p_ses.add_argument(
        "--replay",
        default=None,
        metavar="CAPTURE",
        help="re-feed a recorded .rstream capture bit-identically and "
        "check the outcome against what was recorded "
        "(session run --replay <capture>.rstream)",
    )
    p_ses.add_argument(
        "--no-verify",
        action="store_true",
        help="scenario mode: skip checking the run against the "
        "scenario's expect section / the capture's recorded outcome",
    )
    p_ses.set_defaults(func=_cmd_session)

    p_res = sub.add_parser(
        "restore",
        help="resume a checkpointed 'session' run from its newest "
        "checkpoint (invariant 12)",
    )
    p_res.add_argument(
        "checkpoint",
        help="a checkpoint directory (newest file wins) or one "
        "*.rckpt file",
    )
    p_res.add_argument(
        "--events",
        type=int,
        default=None,
        help="total stream length to run to (default: the original "
        "run's --events)",
    )
    p_res.add_argument(
        "--shard-backend",
        choices=SHARD_BACKENDS,
        default="serial",
        help="where the restored session's shard cores run — an "
        "override, not part of the snapshot (invariant 12)",
    )
    p_res.add_argument(
        "--async-ingest",
        action="store_true",
        help="restore behind the async front door (also an override)",
    )
    p_res.set_defaults(func=_cmd_restore)

    p_srv = sub.add_parser(
        "serve",
        help="run the supervised multi-tenant session service "
        "(JSON-lines TCP; DESIGN.md §10, docs/service.md)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port",
        type=int,
        default=7071,
        help="TCP port (0 binds an ephemeral port, printed at startup)",
    )
    p_srv.add_argument(
        "--config",
        default=None,
        help="tenants.yaml-shaped quota/session config "
        "(docs/service.md); omitted = defaults for every tenant",
    )
    p_srv.add_argument(
        "--checkpoint-dir",
        default=None,
        help="root for per-tenant checkpoint stores "
        "(default: a private temp dir cleaned up on exit)",
    )
    p_srv.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="auto-checkpoint cadence in watermark ticks "
        "(default: the service default, 512; also bounds each "
        "tenant's replay tail)",
    )
    p_srv.add_argument(
        "--workers",
        type=int,
        default=8,
        help="tenant requests executing at once (every connection "
        "has its own thread; requests beyond this wait their turn)",
    )
    p_srv.set_defaults(func=_cmd_serve)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

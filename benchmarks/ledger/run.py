"""The layer ledger: one command, every metric by name.

    python benchmarks/ledger/run.py [--workload NAME|all] [--seed S]
        [--seconds N] [--trace [0|1]] [--check-repeat]

End-to-end metrics are measured with tracing off, every time stated at
one reference host speed read while the system under test is idle
(:func:`idle_host`); ``--trace`` runs the per-layer ladder instead.
Results are checked against a reference and an independent oracle
before any number is reported, and a wrong answer exits non-zero.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_PROCESS_START = time.perf_counter()  # the set-up clock of --probe

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

LEDGER_DIR = Path(__file__).resolve().parent
if str(LEDGER_DIR) not in sys.path:
    sys.path.insert(0, str(LEDGER_DIR))

import measure  # noqa: E402
from inputs import DEFAULT_SEED  # noqa: E402

WORKLOAD_NAMES = ("plan_batch", "live_session", "sharded_skew", "service_tcp")
DEFAULT_SECONDS = 20
SETUP_PROBES = 5
ORACLE_CELLS = 200


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
def probe_setup(name: str, seed: int) -> "tuple[float, float]":
    """In a fresh process: seconds from process start to the first
    accepted event, the benchmark's own input generation excluded, and
    the host's slowdown read right after it."""
    import workloads

    workload = workloads.get(name)
    t0 = time.perf_counter()
    inp = workload.make_inputs(seed, workload.min_events)
    excluded = time.perf_counter() - t0
    measure.load_repro()
    ctx = workload.setup(inp)
    try:
        workload.first_event(ctx, inp)
        seconds = time.perf_counter() - _PROCESS_START - excluded
        return seconds, measure.host_slowdown()
    finally:
        workload.teardown(ctx)


class SetupProbes:
    """Fresh-process set-ups taken one before each repetition, so they
    are spread over the run and none but the first — which is discarded,
    like any warm-up — follows whatever ran before this benchmark."""

    def __init__(self, name: str, seed: int, count: int) -> None:
        self.command = [
            sys.executable, str(LEDGER_DIR / "run.py"), "--probe", name,
            "--seed", str(seed),
        ]
        self.count = count
        self.seconds: "list[float]" = []  # as clocked
        self.slowdown: "list[float]" = []  # of the host, read beside each

    def before_repetition(self) -> None:
        if len(self.seconds) > self.count:
            return
        out = subprocess.run(
            self.command, capture_output=True, text=True, timeout=120
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        seconds, slowdown = json.loads(out.stdout.strip().splitlines()[-1])
        self.seconds.append(seconds)
        self.slowdown.append(slowdown)

    def kept(self) -> "tuple[list[float], list[float]]":
        while len(self.seconds) <= self.count:  # a run of few repetitions
            self.before_repetition()
        return self.seconds[1:], self.slowdown[1:]


# ----------------------------------------------------------------------
# End-to-end runs
# ----------------------------------------------------------------------
def idle_host(timed_region):
    """Run ``timed_region()`` between two readings of the host's
    slowdown, both taken while the system under test is idle; returns
    ``(result, slowdown)``, the readings' mean."""
    before = measure.host_slowdown()
    result = timed_region()
    return result, (before + measure.host_slowdown()) / 2


def summarize(stated, unit: str, clocked, pick: int = 0, **extra) -> dict:
    """One metric from its repetitions' values ``stated`` at the
    reference host speed.  ``pick`` says which quartile is the value:
    0 the fast one of a time (the first), 2 the fast one of a rate (the
    third), 1 the median.  What disturbs a repetition — a stall, a
    stolen vCPU, another tenant's burst — only ever slows it, so the
    fast quartile sits closer to the program's own speed than the
    median and moves less from run to run (README, *Keeping the numbers
    still*).  The same quartile of the values as ``clocked`` rides
    along."""
    quartiles = measure.quartiles(stated)
    return {
        "value": quartiles[pick], "unit": unit,
        "q1": quartiles[0], "median": quartiles[1], "q3": quartiles[2],
        "n": len(stated), "samples": list(stated),
        "clocked": measure.quartiles(clocked)[pick], **extra,
    }


def latency_metrics(groups, slowdowns) -> dict:
    """``batch_p50_ms`` / ``batch_p99_ms``: the fast quartile over
    repetitions of each repetition's percentile (one slow repetition
    owns the pooled tail, and does not move a quartile); the pooled
    percentile and how many samples lie beyond it ride along.
    ``groups`` are as clocked; each is stated at the reference speed
    through its repetition's slowdown."""
    pooled = [ms / s for group, s in zip(groups, slowdowns) for ms in group]
    out = {}
    for name, q in (("batch_p50_ms", 0.50), ("batch_p99_ms", 0.99)):
        each = [measure.percentile(group, q) for group in groups]
        out[name] = summarize(
            [ms / s for ms, s in zip(each, slowdowns)], "ms", clocked=each,
            pooled=measure.percentile(pooled, q),
            pooled_n=len(pooled), beyond=measure.beyond(pooled, q),
        )
    return out


def verify(workload, blocks, reference, streams, seed) -> dict:
    """Reference identity plus the oracle spot-check; counts cells."""
    import check
    import oracle

    wrong = check.mismatched_cells(blocks, reference, workload.reference_rtol)
    by_label: dict = {}
    for cell in check.oracle_cells(blocks):
        by_label.setdefault(cell[0], []).append(cell)
    share = -(-ORACLE_CELLS // max(1, len(by_label)))
    checked, oracle_wrong = 0, []
    for label, cells in sorted(by_label.items()):
        count, bad = oracle.spot_check(
            streams[label], cells, seed, share, workload.oracle_rtol
        )
        checked += count
        oracle_wrong.extend(bad)
    if not by_label:
        oracle_wrong.append("no result cells at all")
    return {
        "reference_cells": check.total_cells(reference),
        "reference_mismatches": wrong,
        "oracle_cells": checked,
        "oracle_mismatches": len(oracle_wrong),
        "oracle_examples": [str(m) for m in oracle_wrong[:3]],
    }


def run_repeated(workload, inp, seconds, probes) -> dict:
    """One discarded warm-up, then repetitions until ``seconds`` of
    timed work; every repetition builds its own session."""
    import check
    from spans import NullTracer

    def one_rep():
        probes.before_repetition()
        ctx = workload.setup(inp)
        try:
            rep, slowdown = idle_host(
                lambda: workload.run(ctx, inp, NullTracer())
            )
            rep.slowdown = slowdown
            return rep
        finally:
            workload.teardown(ctx)

    first = one_rep()  # its results are the ones checked
    reps, unstable, timed = [], 0, 0.0
    while timed < seconds or not reps:
        rep = one_rep()
        # Same inputs, same program: every repetition must reproduce
        # the warm-up's results bit for bit.
        unstable += check.mismatched_cells(rep.blocks, first.blocks)
        rep.blocks = None
        reps.append(rep)
        timed += rep.wall_s
    return {
        "blocks": first.blocks,
        "events": sum(rep.events for rep in reps),
        "requests": 0,
        "failed_ops": sum(rep.failed_ops for rep in reps),
        "unstable_cells": unstable,
        "peak_mib": measure.peak_rss_mib() - inp["input_mib"]
        + max(rep.child_peak_mib for rep in reps),
        "throughput": [rep.events / rep.wall_s for rep in reps],
        "cpu": [rep.cpu_s / (rep.events / 1e6) for rep in reps],
        "slowdown": [rep.slowdown for rep in reps],
        "latencies": [rep.latencies_ms for rep in reps],
        "latency_slowdown": [rep.slowdown for rep in reps],
        "counters": reps[-1].counters,
        "notes": [],
    }


def run_service(workload, inp, seconds, probes) -> dict:
    """service_tcp: one server.  Phase A, closed loop, for half of
    ``seconds``: each repetition is the next segment of the tenants'
    feeds sent back to back.  Phase B, open loop, for the other half:
    each repetition is one window of due times.  Results are polled
    after every repetition."""
    import check
    from spans import NullTracer

    tracer = NullTracer()
    probes.before_repetition()
    ctx = workload.setup(inp)
    try:
        segment = inp["segment"]
        warm_up = workload.take(inp, max(2, segment // 2))
        workload.closed_loop(ctx, warm_up, tracer)
        parts = workload.poll(ctx)
        throughput, cpu, closed_ms = [], [], []
        slowdown, window_slowdown = [], []
        events = requests = failed = 0
        timed = 0.0
        while timed < seconds / 2 or not throughput:
            probes.before_repetition()
            rows = workload.take(inp, segment)
            (n, wall, cpu_s, latencies, bad), slow = idle_host(
                lambda: workload.closed_loop(ctx, rows, tracer)
            )
            parts += workload.poll(ctx)
            throughput.append(n / wall)
            cpu.append(cpu_s / (n / 1e6))
            slowdown.append(slow)
            closed_ms.extend(latencies)
            timed += wall
            events += n
            requests += len(latencies)
            failed += bad
        ticks = min(int(workload.window_s / workload.interval_s), segment)
        groups, lateness = [], []
        for _ in range(max(1, round(seconds / 2 / workload.window_s))):
            rows = workload.take(inp, ticks)
            (samples, bad), slow = idle_host(
                lambda: workload.open_loop(ctx, rows, tracer)
            )
            parts += workload.poll(ctx)
            groups.append([latency for latency, _ in samples])
            window_slowdown.append(slow)
            lateness.extend(late for _, late in samples)
            failed += bad
            requests += len(samples)
            events += len(samples) * workload.batch_events
        late_p99 = measure.percentile(lateness, 0.99)
        peak = measure.peak_rss_mib(ctx["server"].pid)
        shed = workload.shed(ctx)
    finally:
        workload.teardown(ctx)
    notes = []
    if late_p99 > 1.0:
        notes.append(
            f"generator lateness p99 {late_p99:.2f} ms exceeds 1 ms: "
            "open-loop latencies are unresolved"
        )
    return {
        "blocks": check.session_blocks(parts, workload.aggregates(inp)),
        "events": events,
        "requests": requests,
        "failed_ops": failed + shed,
        "unstable_cells": 0,
        "peak_mib": peak,
        "throughput": throughput,
        "cpu": cpu,
        "slowdown": slowdown,
        "latencies": groups,
        "latency_slowdown": window_slowdown,
        "counters": {
            "closed_loop_p50_ms": measure.percentile(closed_ms, 0.5),
            "closed_loop_p99_ms": measure.percentile(closed_ms, 0.99),
            "gen_late_p99_ms": late_p99,
            "batches_sent": [feed.batches_out for feed in inp["feeds"]],
        },
        "notes": notes,
    }


def end_to_end(name: str, seed: int, seconds: float, scale: float = 1.0,
               probes: "int | None" = None) -> dict:
    import workloads

    workload = workloads.get(name)
    rss0 = measure.rss_mib()
    t0 = time.perf_counter()
    inp = workload.make_inputs(
        seed, max(workload.min_events, int(workload.events * scale))
    )
    inputs_s = time.perf_counter() - t0
    inp["input_mib"] = max(0.0, measure.rss_mib() - rss0)
    kernels = measure.load_repro()
    setup = SetupProbes(
        name, seed, SETUP_PROBES if probes is None else probes
    )
    run = run_service if name == "service_tcp" else run_repeated
    measured = run(workload, inp, seconds, setup)
    checks = verify(
        workload, measured["blocks"], workload.reference(inp),
        workload.oracle_streams(inp), seed,
    )
    failed = (
        measured["failed_ops"] + measured["unstable_cells"]
        + checks["reference_mismatches"] + checks["oracle_mismatches"]
    )
    attempted = (
        measured["events"] + measured["requests"] + checks["oracle_cells"]
    )
    slow = measured["slowdown"]
    setup_s, setup_slow = setup.kept()
    metrics = {
        "events_per_s": summarize(
            [v * s for v, s in zip(measured["throughput"], slow)],
            "events/s", clocked=measured["throughput"], pick=2,
        ),
        "cpu_s_per_mevent": summarize(
            [v / s for v, s in zip(measured["cpu"], slow)],
            "s/Mevent", clocked=measured["cpu"],
        ),
        **latency_metrics(measured["latencies"], measured["latency_slowdown"]),
        "peak_rss_mb": {"value": measured["peak_mib"], "unit": "MiB", "n": 1},
        "setup_s": summarize(
            [v / s for v, s in zip(setup_s, setup_slow)], "s",
            clocked=setup_s, pick=1,
        ),
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "host": measure.host_stamp(kernels),
        "sizes": {
            "scale": scale,
            "events_attempted": measured["events"],
            "repetitions": len(measured["throughput"]),
            "latency_samples": sum(len(g) for g in measured["latencies"]),
            "setup_probes": setup.count,
            "host_slowdown": round(measure.quartiles(slow)[1], 3),
            "input_mib": round(inp["input_mib"], 1),
            "inputs_s": round(inputs_s, 3),
        },
        "metrics": metrics,
        "failed_share": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "checks": checks,
        "counters": measured["counters"],
        "notes": measured["notes"],
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_report(report: dict) -> None:
    print(f"== {report['workload']}  seed={report['seed']} "
          f"seconds={report['seconds']} ==")
    print("host: " + ", ".join(f"{k}={v}" for k, v in report["host"].items()))
    print("sizes: " + ", ".join(f"{k}={v}" for k, v in report["sizes"].items()))
    checks = report.get("checks")
    if checks:
        print(
            f"checks: reference {checks['reference_mismatches']} of "
            f"{checks['reference_cells']} cells differ; oracle "
            f"{checks['oracle_mismatches']} of {checks['oracle_cells']} "
            "sampled cells differ"
        )
        for example in checks["oracle_examples"]:
            print(f"  oracle mismatch: {example}")
    for name, metric in report["metrics"].items():
        line = f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}"
        if "q1" in metric:
            line += (f"   [q1 {metric['q1']:.6g}, median "
                     f"{metric['median']:.6g}, q3 {metric['q3']:.6g}, "
                     f"n={metric['n']}] clocked {metric['clocked']:.6g}")
        if "pooled" in metric:
            line += (f" pooled {metric['pooled']:.6g} over "
                     f"{metric['pooled_n']} ({metric['beyond']} beyond)")
        print(line)
    if "failed_share" in report:
        print(f"  {'failed_share':<46} {report['failed_share']:>14.6g} share"
              f"   [{report['failed']} of {report['attempted']}]")
    for key, value in (report.get("counters") or {}).items():
        print(f"  counter {key} = {value}")
    for name, busy, own in report.get("self_time", []):
        print(f"  span {name:<40} busy {busy:>10.2f} ms  self {own:>10.2f} ms")
    for note in report.get("notes", []):
        print(f"  NOTE: {note}")


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in report["metrics"].items()
        },
    })


def report_path(name: str, trace: bool) -> Path:
    kind = "trace" if trace else "e2e"
    return measure.RESULTS_DIR / f"{kind}-{name}-report.json"


def run_one(name, seed, seconds, trace, scale=1.0) -> dict:
    if trace:
        import ladder

        report = ladder.traced_run(name, seed, seconds, scale)
    else:
        report = end_to_end(name, seed, seconds, scale)
    print_report(report)
    measure.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    report_path(name, trace).write_text(
        json.dumps(report, indent=1, default=str)
    )
    return report


def run_child(name, seed, seconds, trace) -> dict:
    """One workload in a fresh process (peak RSS and the allocator
    start clean); returns its saved report."""
    out = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        capture_output=True, text=True,
    )
    sys.stdout.write(out.stdout)
    if out.returncode not in (0, 1):  # 1 = measured, but a wrong answer
        raise RuntimeError(f"{name} did not run:\n{out.stderr}")
    return json.loads(report_path(name, trace).read_text())


def combined_line(reports) -> str:
    return json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            f"{r['workload']}.{name}": {
                "value": metric["value"], "unit": metric["unit"]
            }
            for r in reports for name, metric in r["metrics"].items()
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed work per run (the driver passes "
                        "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="run the per-layer ladder")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the end-to-end set twice (A, B) and "
                        "compare every metric against its bound")
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)  # smoke tests shrink inputs
    parser.add_argument("--probe", choices=WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    measure.prepare_environment()

    if args.probe:
        print(json.dumps(probe_setup(args.probe, args.seed)))
        return 0
    if args.check_repeat:
        import repeat

        return repeat.check_repeat(
            run_child, WORKLOAD_NAMES, args.seed, args.seconds,
            bool(args.trace),
        )
    if args.workload != "all":
        report = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.scale)
        print(result_line(report))
        return 0 if report["correct"] else 1
    reports = [
        run_child(name, args.seed, args.seconds, bool(args.trace))
        for name in WORKLOAD_NAMES
    ]
    print(combined_line(reports))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    # Nothing this command starts may outlive it: orphaned descendants
    # are adopted, and on every path out all of them are stopped and
    # waited for.
    measure.adopt_orphans()
    try:
        sys.exit(main())
    finally:
        measure.stop_children()

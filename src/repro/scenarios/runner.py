"""Compile and run scenarios; record and replay captures.

:func:`compile_scenario` turns a declarative :class:`Scenario` into a
:class:`CompiledStream` — the exact arrival-order event columns (the
seeded generator's output, reordered by the out-of-order profile) plus
an **op schedule** pinning every register/deregister/rebalance to the
arrival index it fires at.  Compilation is a pure function of the
scenario, so two compiles of the same file are bit-identical — which
is what lets one committed ``expect.digest`` hold everywhere.

:class:`ScenarioRunner` executes a compiled stream on any session
shape.  The runtime section is only a *default*: shards, backend, and
ingest mode can be overridden per run, and by invariants 10/11 the
report's digest must not move.  Chaos schedules arm on the worker
backends and recovery must keep the digest fixed too (invariant 12) —
the conformance tier (``tests/scenarios/``) holds all of this.

Record/replay: ``record=`` writes the arrival stream + op schedule +
outcome to a ``.rstream`` capture (:mod:`repro.scenarios.rstream`);
:meth:`ScenarioRunner.replay` re-feeds a capture bit-identically, so
any captured run — including a chaos run that killed workers
mid-stream — is a permanent regression fixture.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..aggregates.registry import get_aggregate
from ..core.multiquery import Query
from ..engine.events import DEFAULT_NUM_SLOTS
from ..errors import ExecutionError
from ..runtime import ShardedSession, has_workers
from ..workloads.domains import domain_stream
from ..workloads.rng import seeded_rng
from .rstream import StreamCapture, read_rstream, write_rstream
from ..config import as_mapping, build_spec
from .schema import (
    QuerySpec,
    RatePhase,
    RuntimeSpec,
    Scenario,
    StreamSpec,
    ValueSpec,
    load_scenario,
)

__all__ = [
    "CompiledStream",
    "ScenarioReport",
    "ScenarioRunner",
    "compile_scenario",
    "replay_capture",
    "results_digest",
    "run_scenario",
]

#: Op application order at one arrival index: registrations first (a
#: query joining "at" an event sees that event), then departures,
#: then layout changes.
_OP_PRIORITY = {"register": 0, "deregister": 1, "rebalance": 2}


@dataclass(frozen=True)
class CompiledStream:
    """A scenario lowered to exactly what a session ingests.

    ``timestamps/keys/values`` are in **arrival order** (the
    out-of-order profile already applied); ``ops`` is the sorted
    ``(index, kind, payload)`` schedule — ops at index ``i`` apply
    before the ``i``-th arrival is pushed (``i == num_events`` applies
    after the last push, before finish).  ``max_lateness`` is the
    reorder bound the session needs to absorb the disorder without
    drops.
    """

    timestamps: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    horizon: int
    num_keys: int
    max_lateness: int
    ops: "tuple[tuple[int, str, object], ...]"

    @property
    def num_events(self) -> int:
        return int(self.timestamps.size)


def _sample_values(
    rng: np.random.Generator, spec: ValueSpec, count: int
) -> np.ndarray:
    if spec.distribution == "gaussian":
        values = rng.normal(spec.mean, spec.stddev, count)
    elif spec.distribution == "lognormal":
        values = rng.lognormal(spec.mean, spec.stddev, count) * spec.scale
    elif spec.distribution == "exponential":
        values = rng.exponential(spec.scale, count)
    else:  # uniform
        values = rng.uniform(spec.low, spec.high, count)
    return np.round(values) if spec.round else values


def _zipf_weights(num_keys: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, num_keys + 1, dtype=np.float64) ** s
    return weights / weights.sum()


def _build_synthetic(spec: StreamSpec):
    """The generic synthetic profile: phased rate, per-phase skew,
    configurable value distribution — all from one seeded generator."""
    rng = seeded_rng(spec.seed)
    num_events, num_keys = spec.events, spec.keys
    base_skew = 0.0 if spec.skew is None else float(spec.skew)
    if spec.rate_schedule is None:
        phases = (RatePhase(until=1.0, rate=spec.rate or 1),)
    else:
        phases = spec.rate_schedule
    bounds = [0] + [round(p.until * num_events) for p in phases]
    bounds[-1] = num_events
    rank_to_key = rng.permutation(num_keys).astype(np.int64)
    ts_parts, key_parts = [], []
    tick = 0
    for phase, lo, hi in zip(phases, bounds[:-1], bounds[1:]):
        count = hi - lo
        if count <= 0:
            continue
        part = tick + np.arange(count, dtype=np.int64) // phase.rate
        tick = int(part[-1]) + 1
        ts_parts.append(part)
        skew = base_skew if phase.skew is None else phase.skew
        weights = _zipf_weights(num_keys, skew)
        key_parts.append(
            rank_to_key[rng.choice(num_keys, size=count, p=weights)]
        )
    timestamps = np.concatenate(ts_parts)
    keys = np.concatenate(key_parts)
    values = _sample_values(rng, spec.values or ValueSpec(), num_events)
    return timestamps, keys, values, int(timestamps[-1]) + 1


def _arrival_index(arrival_ts: np.ndarray, watermark: int) -> int:
    """The first arrival index whose event timestamp reaches
    ``watermark`` (the stream may be arrival-scrambled, so this is a
    scan, not a bisect); past-the-end when none does."""
    mask = arrival_ts >= watermark
    return int(np.argmax(mask)) if mask.any() else int(arrival_ts.size)


def compile_scenario(scenario: Scenario) -> CompiledStream:
    """Lower a scenario to its exact arrival stream + op schedule."""
    spec = scenario.stream
    if spec.profile == "synthetic":
        timestamps, keys, values, horizon = _build_synthetic(spec)
    else:
        batch = domain_stream(
            spec.profile, spec.events, spec.keys, spec.seed
        )
        timestamps, keys, values = batch.timestamps, batch.keys, batch.values
        horizon = batch.horizon
    disorder = spec.out_of_order.lateness if spec.out_of_order else 0
    if disorder > 0:
        # The scramble_batch displacement model, columnar: each event
        # may arrive up to `lateness` positions after its slot, which
        # a ReorderBuffer(lateness) absorbs without drops.
        jitter_rng = seeded_rng(spec.out_of_order.seed)
        jitter = jitter_rng.integers(0, disorder + 1, timestamps.size)
        order = np.argsort(timestamps + jitter, kind="stable")
        timestamps = timestamps[order]
        keys = keys[order]
        values = values[order]
    lateness = (
        scenario.runtime.lateness
        if scenario.runtime.lateness is not None
        else disorder
    )
    ops = []
    for query in scenario.workload.queries:
        ops.append(
            (
                _arrival_index(timestamps, query.register_at),
                "register",
                as_mapping(query),
            )
        )
        if query.deregister_at is not None:
            ops.append(
                (
                    _arrival_index(timestamps, query.deregister_at),
                    "deregister",
                    query.name,
                )
            )
    every = scenario.runtime.rebalance_every
    if every:
        for index in range(every, int(timestamps.size), every):
            ops.append((index, "rebalance", None))
    ops.sort(key=lambda op: (op[0], _OP_PRIORITY[op[1]]))
    return CompiledStream(
        timestamps=timestamps,
        keys=keys,
        values=values,
        horizon=horizon,
        num_keys=spec.keys,
        max_lateness=lateness,
        ops=tuple(ops),
    )


def results_digest(results) -> str:
    """A canonical sha256 over one run's full result set.

    Serialization is order-independent input, fixed-order output:
    queries sorted by name, windows by (range, slide), each entry
    contributing its identity, emitted instance range, and the raw
    float64 result bytes — so two runs digest equal iff their results
    are bit-identical.
    """
    digest = hashlib.sha256()
    for name in sorted(results):
        by_window = results[name]
        for window in sorted(
            by_window, key=lambda w: (w.range, w.slide)
        ):
            emitted = by_window[window]
            digest.update(name.encode("utf-8"))
            digest.update(
                struct.pack(
                    "<qqqq",
                    window.range,
                    window.slide,
                    emitted.start_instance,
                    emitted.frontier,
                )
            )
            digest.update(
                np.ascontiguousarray(
                    emitted.values, dtype=np.float64
                ).tobytes()
            )
    return digest.hexdigest()


@dataclass
class ScenarioReport:
    """The structured outcome of one scenario (or capture) run."""

    name: str
    backend: str
    shards: int
    async_ingest: bool
    events: int
    accepted: int
    late_dropped: int
    wall_seconds: float
    throughput: float
    digest: str
    total_pairs: int
    total_physical: int
    slots_moved: int
    worker_recoveries: int
    faults_fired: int
    queries: "dict[str, int]"
    results: dict = field(repr=False, default_factory=dict)
    stats: object = field(repr=False, default=None)

    def outcome(self) -> dict:
        """The logical outcome a capture records and a replay must
        reproduce: the digest plus every machine-independent counter
        (wall-clock and recovery/fault counts are *run* facts, not
        stream facts, so they stay out)."""
        return {
            "digest": self.digest,
            "events": self.events,
            "accepted": self.accepted,
            "late_dropped": self.late_dropped,
            "total_pairs": self.total_pairs,
            "queries": dict(self.queries),
        }

    def verify(self, expect, where: str = "scenario") -> None:
        """Check this run against an :class:`ExpectSpec`; raises one
        :class:`~repro.errors.ExecutionError` naming every mismatch."""
        problems = []
        checks = (
            ("digest", expect.digest, self.digest),
            ("accepted", expect.accepted, self.accepted),
            ("late_dropped", expect.late_dropped, self.late_dropped),
            ("total_pairs", expect.total_pairs, self.total_pairs),
        )
        for label, expected, actual in checks:
            if expected is not None and actual != expected:
                problems.append(
                    f"{label}: expected {expected!r}, got {actual!r}"
                )
        if expect.min_throughput is not None and (
            self.throughput < expect.min_throughput
        ):
            problems.append(
                f"throughput {self.throughput:,.0f} ev/s below the "
                f"floor {expect.min_throughput:,.0f}"
            )
        for name, instances in (expect.queries or {}).items():
            actual = self.queries.get(name)
            if actual != instances:
                problems.append(
                    f"queries[{name!r}]: expected {instances} emitted "
                    f"instance(s), got {actual}"
                )
        if problems:
            raise ExecutionError(
                f"{where} {self.name!r} failed verification on "
                f"{self.backend}/x{self.shards}"
                f"{'/async' if self.async_ingest else ''}: "
                + "; ".join(problems)
            )


def _query_from_payload(payload: dict) -> "tuple[Query, str]":
    spec = (
        payload
        if isinstance(payload, QuerySpec)
        else build_spec(QuerySpec, dict(payload))
    )
    query = Query(
        name=spec.name,
        windows=spec.window_set(),
        aggregate=get_aggregate(spec.aggregate),
    )
    return query, spec.scope


class ScenarioRunner:
    """Executes compiled streams; the one feed loop record and replay
    share, so a capture replays the recorded run instruction by
    instruction."""

    def __init__(self, scenario: "Scenario | str | Path | dict"):
        self.scenario = (
            scenario
            if isinstance(scenario, Scenario)
            else load_scenario(scenario)
        )
        self._compiled: "CompiledStream | None" = None

    @property
    def compiled(self) -> CompiledStream:
        if self._compiled is None:
            self._compiled = compile_scenario(self.scenario)
        return self._compiled

    def runtime_config(self, **overrides) -> RuntimeSpec:
        """The scenario's runtime section with per-run overrides
        applied (``None`` overrides are ignored)."""
        return _override(self.scenario.runtime, **overrides)

    def run(
        self,
        backend: "str | None" = None,
        shards: "int | None" = None,
        async_ingest: "bool | None" = None,
        record: "str | Path | None" = None,
        verify: bool = False,
    ) -> ScenarioReport:
        """One full run; with ``record=`` the arrival stream, op
        schedule, and outcome are captured to a ``.rstream`` file;
        with ``verify=True`` the report is checked against the
        scenario's ``expect`` section before returning."""
        runtime = self.runtime_config(
            backend=backend, shards=shards, async_ingest=async_ingest
        )
        compiled = self.compiled
        report = _execute(
            self.scenario.name, compiled, runtime, self.scenario.chaos
        )
        if record is not None:
            write_rstream(
                StreamCapture(
                    timestamps=compiled.timestamps,
                    keys=compiled.keys,
                    values=compiled.values,
                    horizon=compiled.horizon,
                    num_keys=compiled.num_keys,
                    max_lateness=compiled.max_lateness,
                    ops=compiled.ops,
                    runtime=as_mapping(runtime),
                    outcome=report.outcome(),
                    meta={
                        "scenario": self.scenario.name,
                        "description": self.scenario.description,
                        "chaos": self.scenario.chaos is not None,
                    },
                ),
                record,
            )
        if verify:
            report.verify(self.scenario.expect)
        return report

    @staticmethod
    def replay(
        capture: "StreamCapture | str | Path",
        backend: "str | None" = None,
        shards: "int | None" = None,
        async_ingest: "bool | None" = None,
        verify: bool = True,
    ) -> ScenarioReport:
        """Re-feed a capture bit-identically.

        The recorded arrival stream and op schedule replay against the
        recorded runtime shape (faults are *not* re-injected — the
        capture already contains the stream the faulted run ingested,
        and recovery is observationally free, so the outcome must
        match anyway).  With ``verify=True`` (default) the replay's
        digest and every logical counter are checked against the
        recorded outcome.
        """
        if not isinstance(capture, StreamCapture):
            capture = read_rstream(capture)
        runtime = _override(
            build_spec(RuntimeSpec, dict(capture.runtime)),
            backend=backend,
            shards=shards,
            async_ingest=async_ingest,
        )
        compiled = CompiledStream(
            timestamps=capture.timestamps,
            keys=capture.keys,
            values=capture.values,
            horizon=capture.horizon,
            num_keys=capture.num_keys,
            max_lateness=capture.max_lateness,
            ops=capture.ops,
        )
        name = str(capture.meta.get("scenario") or "capture")
        report = _execute(name, compiled, runtime, chaos=None)
        if verify and capture.outcome:
            recorded = capture.outcome
            mismatches = [
                f"{key}: recorded {recorded[key]!r}, replayed "
                f"{value!r}"
                for key, value in report.outcome().items()
                if key in recorded and recorded[key] != value
            ]
            if mismatches:
                raise ExecutionError(
                    f"replay of {name!r} diverged from its recorded "
                    "outcome: " + "; ".join(mismatches)
                )
        return report


def _override(runtime: RuntimeSpec, **overrides) -> RuntimeSpec:
    chosen = {
        key: value for key, value in overrides.items() if value is not None
    }
    return replace(runtime, **chosen)


def _execute(
    name: str,
    compiled: CompiledStream,
    runtime: RuntimeSpec,
    chaos,
) -> ScenarioReport:
    num_events = compiled.num_events
    # Faults and worker recovery act on worker processes: a run
    # without any (one shard, or the serial backend) arms neither.
    workers = has_workers(runtime.shards, runtime.backend)
    fault_plan = (
        chaos.build_plan() if chaos is not None and workers else None
    )
    session = ShardedSession(
        num_shards=runtime.shards,
        backend=runtime.backend,
        num_slots=(
            DEFAULT_NUM_SLOTS if runtime.slots is None else runtime.slots
        ),
        fault_plan=fault_plan,
        worker_recovery=runtime.worker_recovery and workers,
        num_keys=compiled.num_keys,
        max_lateness=compiled.max_lateness,
        chunk_ticks=runtime.chunk_ticks,
        async_ingest=runtime.async_ingest,
        hysteresis=None,
    )
    rows = np.column_stack(
        (
            compiled.timestamps.astype(np.float64),
            compiled.keys.astype(np.float64),
            compiled.values.astype(np.float64),
        )
    )
    moved = 0
    started = time.perf_counter()
    with session:
        cursor = 0
        schedule = list(compiled.ops) + [(num_events, None, None)]
        for index, kind, payload in schedule:
            index = min(max(index, 0), num_events)
            if index > cursor:
                session.push_many(rows[cursor:index])
                cursor = index
            if kind == "register":
                query, scope = _query_from_payload(payload)
                session.register(query, scope=scope)
            elif kind == "deregister":
                session.deregister(str(payload))
            elif kind == "rebalance":
                moved += session.rebalance()
        if cursor < num_events:
            session.push_many(rows[cursor:num_events])
        results = session.finish(horizon=compiled.horizon)
        wall = time.perf_counter() - started
        reorder = session.reorder_stats
        stats = session.stats()
        recoveries = session.worker_recoveries
        backend = session.backend.name
    queries = {
        query_name: sum(
            emitted.frontier - emitted.start_instance
            for emitted in by_window.values()
        )
        for query_name, by_window in results.items()
    }
    return ScenarioReport(
        name=name,
        backend=backend,
        shards=runtime.shards,
        async_ingest=runtime.async_ingest,
        events=num_events,
        accepted=reorder.accepted,
        late_dropped=reorder.late_dropped,
        wall_seconds=wall,
        throughput=num_events / wall if wall > 0 else float("inf"),
        digest=results_digest(results),
        total_pairs=stats.total_pairs,
        total_physical=stats.total_physical,
        slots_moved=moved,
        worker_recoveries=recoveries,
        faults_fired=len(fault_plan.fired) if fault_plan is not None else 0,
        queries=queries,
        results=results,
        stats=stats,
    )


def run_scenario(
    scenario: "Scenario | str | Path | dict",
    backend: "str | None" = None,
    shards: "int | None" = None,
    async_ingest: "bool | None" = None,
    record: "str | Path | None" = None,
    verify: bool = False,
) -> ScenarioReport:
    """Load, compile, and run one scenario (the one-call form)."""
    return ScenarioRunner(scenario).run(
        backend=backend,
        shards=shards,
        async_ingest=async_ingest,
        record=record,
        verify=verify,
    )


def replay_capture(
    capture: "StreamCapture | str | Path",
    backend: "str | None" = None,
    shards: "int | None" = None,
    async_ingest: "bool | None" = None,
    verify: bool = True,
) -> ScenarioReport:
    """Replay a ``.rstream`` capture (the one-call form)."""
    return ScenarioRunner.replay(
        capture,
        backend=backend,
        shards=shards,
        async_ingest=async_ingest,
        verify=verify,
    )

"""The declarative scenario schema (docs/scenarios.md).

A *scenario* is a versioned data file that describes one end-to-end
session run — stream shape, query workload, runtime topology, an
optional chaos schedule, and the expected outcome — so every stress
pattern and every reproduced incident is a committed fixture instead
of bespoke Python.  Files are YAML (the subset
:func:`repro.config.parse_simple_yaml` reads — mappings, block
sequences, scalars) or JSON::

    name: rtgs-payments
    stream:
      profile: rtgs_payments      # or synthetic / iot_telemetry / ...
      events: 30000
      keys: 64
      seed: 11
    workload:
      queries:
        - name: exposure
          aggregate: sum
          windows: ["300/50", "600/100"]
        - name: velocity
          aggregate: count
          windows: ["120/30"]
          register_at: 400        # joins mid-stream, at this watermark
    runtime:
      shards: 4
      backend: shm
      rebalance_every: 5000
    expect:
      digest: "sha256 of the committed result set"

Every section is a declared spec (:class:`repro.config.Spec`): each
field states its type and bound once, and the one check of
:mod:`repro.config` runs on every construction — the same check
:class:`repro.service.quotas.TenantConfig` runs.  A typo'd knob
silently defaulting would make a digest mismatch undebuggable, so an
unknown key raises, naming the unknown keys and the known set; a value
of the wrong type or out of range raises naming ``section.field``.
What each spec checks by hand reads two or more fields, or parses a
literal (window literals, the aggregate name).

The schema is *declarative only*: compilation to an executable stream
plus session configuration lives in :mod:`repro.scenarios.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..aggregates.registry import get_aggregate
from ..config import (
    BOOL,
    INT,
    NUMBER,
    STR,
    Rule,
    Spec,
    above,
    as_mapping,
    at_least,
    build_spec,
    dump_simple_yaml,
    mapping_of,
    one_of,
    optional,
    read_source,
    sequence,
    setting,
)
from ..errors import ExecutionError
from ..runtime.faults import Fault, FaultPlan
from ..runtime.sharding import SHARD_BACKENDS
from ..windows.window import Window, WindowSet
from ..workloads.domains import DOMAIN_STREAMS

__all__ = [
    "ChaosSpec",
    "ExpectSpec",
    "FaultSpec",
    "OutOfOrderSpec",
    "QuerySpec",
    "RatePhase",
    "RuntimeSpec",
    "Scenario",
    "StreamSpec",
    "ValueSpec",
    "WorkloadSpec",
    "dump_scenario",
    "load_scenario",
    "parse_scenario",
    "parse_window",
]

#: Stream profiles a scenario may name: the generic synthetic shape
#: (every stream knob available) plus the named workload domains.
STREAM_PROFILES = ("synthetic",) + tuple(sorted(DOMAIN_STREAMS))

#: Value distributions the synthetic profile can sample.
VALUE_DISTRIBUTIONS = ("gaussian", "lognormal", "exponential", "uniform")


def parse_window(text: "str | int") -> Window:
    """Parse a window literal: ``"range/slide"`` hopping or a bare
    ``"range"`` tumbling (ticks)."""
    raw = str(text).strip()
    try:
        if "/" in raw:
            range_text, slide_text = raw.split("/", 1)
            return Window(int(range_text), int(slide_text))
        return Window(int(raw), int(raw))
    except ValueError:
        raise ExecutionError(
            f"bad window literal {text!r}: expected 'range/slide' or "
            "'range' with integer ticks"
        ) from None




#: A name's bound: not blank.
_NON_EMPTY = Rule("non-empty", str.strip)

#: The golden wording of a negative skew (stream-wide or per phase).
_SKEW = (
    "stream skew must be {what}, got {value!r} (a negative Zipf "
    "exponent is not a distribution)"
)


@dataclass(frozen=True)
class ValueSpec(Spec):
    """How the synthetic profile samples event values.

    ``round: true`` (the default) rounds every value to a whole
    number, which keeps float64 partial-aggregate merges *exact* — the
    discipline that lets one committed digest hold across shard
    counts, backends, mid-stream rebalancing, and crash recovery.
    Turn it off only for scenarios that never reshard.
    """

    section = "values"

    distribution: str = setting(
        STR, "gaussian", one_of(VALUE_DISTRIBUTIONS)
    )
    mean: float = setting(NUMBER, 20.0)
    stddev: float = setting(NUMBER, 5.0, at_least(0))
    low: float = setting(NUMBER, 0.0)
    high: float = setting(NUMBER, 1.0)
    scale: float = setting(NUMBER, 1.0, above(0))
    round: bool = setting(BOOL, True)

    def check(self) -> None:
        if self.distribution == "uniform" and self.high <= self.low:
            raise ExecutionError(
                f"values.high must exceed values.low, got "
                f"[{self.low}, {self.high}]"
            )


@dataclass(frozen=True)
class RatePhase(Spec):
    """One piece of a piecewise-constant rate schedule: events up to
    the ``until`` fraction of the stream arrive at ``rate``
    events/tick; an optional per-phase ``skew`` override reshapes the
    key distribution mid-stream (the flash-crowd idiom)."""

    section = "rate_schedule"

    until: float = setting(
        NUMBER,
        bound=Rule("in (0, 1]", lambda value: 0.0 < value <= 1.0),
        message="bad rate schedule: phase 'until' must be {what}, got "
        "{value!r}",
    )
    rate: int = setting(
        INT,
        bound=at_least(1),
        message="bad rate schedule: phase rate must be {what}, got "
        "{value!r}",
    )
    skew: "float | None" = setting(
        optional(NUMBER), None, at_least(0), _SKEW
    )


@dataclass(frozen=True)
class OutOfOrderSpec(Spec):
    """The arrival-disorder profile: each event is displaced by up to
    ``lateness`` arrival positions (seeded jitter, the
    :func:`~repro.engine.outoforder.scramble_batch` model), which a
    ``ReorderBuffer(lateness)`` absorbs without drops."""

    section = "out_of_order"

    lateness: int = setting(INT, 0, at_least(0))
    seed: int = setting(INT, 0)


@dataclass(frozen=True)
class StreamSpec(Spec):
    """What arrives: event count, key cardinality, skew, rate
    schedule, out-of-order profile, value distribution.

    ``profile: synthetic`` exposes every knob; a named domain profile
    (``rtgs_payments`` / ``iot_telemetry`` / ``flash_crowd``) brings
    its own rate curve, skew, and value process, so the shape knobs
    must stay unset for it (the ``out_of_order`` profile still
    applies — disorder is an ingest property, not a domain one).
    """

    section = "stream"

    profile: str = setting(STR, "synthetic", one_of(STREAM_PROFILES))
    events: int = setting(INT, 10_000, at_least(1))
    keys: int = setting(INT, 16, at_least(1))
    seed: int = setting(INT, 1)
    skew: "float | None" = setting(
        optional(NUMBER), None, at_least(0), _SKEW
    )
    rate: "int | None" = setting(optional(INT), None, at_least(1))
    rate_schedule: "tuple | None" = setting(
        optional(sequence(RatePhase)), None
    )
    out_of_order: "OutOfOrderSpec | None" = setting(
        optional(OutOfOrderSpec), None
    )
    values: "ValueSpec | None" = setting(optional(ValueSpec), None)

    def check(self) -> None:
        if self.rate_schedule is not None:
            if self.rate is not None:
                raise ExecutionError(
                    "bad rate schedule: stream.rate and "
                    "stream.rate_schedule are mutually exclusive (the "
                    "schedule fixes the rate per phase)"
                )
            last = 0.0
            for phase in self.rate_schedule:
                if phase.until <= last:
                    raise ExecutionError(
                        "bad rate schedule: phase 'until' fractions must "
                        f"be strictly increasing, got {phase.until} after "
                        f"{last}"
                    )
                last = phase.until
            if last != 1.0:
                raise ExecutionError(
                    "bad rate schedule: the last phase must end at "
                    f"until: 1.0, got {last}"
                )
        if self.profile != "synthetic":
            preset = [
                knob
                for knob in ("skew", "rate", "rate_schedule", "values")
                if getattr(self, knob) is not None
            ]
            if preset:
                raise ExecutionError(
                    f"stream profile {self.profile!r} generates its own "
                    f"shape; remove {preset} (only events/keys/seed/"
                    "out_of_order apply to a domain profile)"
                )


@dataclass(frozen=True)
class QuerySpec(Spec):
    """One query of the workload, with its lifecycle schedule.

    ``windows`` are literals (``"range/slide"`` or tumbling
    ``"range"``); ``register_at`` / ``deregister_at`` are stream
    watermarks — the query joins at the first arrival whose timestamp
    reaches ``register_at`` and leaves at ``deregister_at``.
    """

    section = "query"

    name: str = setting(STR, bound=_NON_EMPTY)
    aggregate: str = setting(STR, "sum")
    windows: tuple = ("300/50",)
    scope: str = setting(STR, "per_key", one_of(("per_key", "global")))
    register_at: int = setting(INT, 0, at_least(0))
    deregister_at: "int | None" = setting(optional(INT), None)

    def check(self) -> None:
        get_aggregate(self.aggregate)
        if isinstance(self.windows, (str, int)):
            object.__setattr__(self, "windows", (self.windows,))
        if not isinstance(self.windows, (list, tuple)) or not self.windows:
            raise ExecutionError(
                f"query {self.name!r}: windows must be a non-empty "
                f"sequence of window literals, got {self.windows!r}"
            )
        object.__setattr__(
            self, "windows", tuple(str(w) for w in self.windows)
        )
        self.window_set()  # validates every literal, rejects dups
        if self.deregister_at is not None and (
            self.deregister_at <= self.register_at
        ):
            raise ExecutionError(
                f"query {self.name!r}: deregister_at "
                f"({self.deregister_at}) must be after register_at "
                f"({self.register_at})"
            )

    def window_set(self) -> WindowSet:
        windows = WindowSet()
        for literal in self.windows:
            window = parse_window(literal)
            if window in windows:
                raise ExecutionError(
                    f"query {self.name!r}: duplicate window {literal!r}"
                )
            windows.add(window)
        return windows


@dataclass(frozen=True)
class WorkloadSpec(Spec):
    """The query mix: what runs, and when each query joins/leaves."""

    section = "workload"

    queries: tuple = setting(sequence(QuerySpec), ())

    def check(self) -> None:
        seen: set = set()
        for spec in self.queries:
            if spec.name in seen:
                raise ExecutionError(
                    f"duplicate query name {spec.name!r} in workload"
                )
            seen.add(spec.name)

    def names(self) -> "tuple[str, ...]":
        return tuple(spec.name for spec in self.queries)


@dataclass(frozen=True)
class RuntimeSpec(Spec):
    """Where the scenario runs: shards, backend, ingest mode, slots,
    rebalance cadence.  Everything here is an *execution* choice — by
    invariants 10/11 it must not change the answer, and the runner's
    CLI can override any of it without invalidating the expected
    digest."""

    section = "runtime"

    shards: int = setting(INT, 1, at_least(1))
    backend: str = setting(STR, "serial", one_of(SHARD_BACKENDS))
    async_ingest: bool = setting(BOOL, False)
    slots: "int | None" = setting(optional(INT), None, at_least(1))
    lateness: "int | None" = setting(optional(INT), None, at_least(0))
    chunk_ticks: "int | None" = setting(optional(INT), None, at_least(1))
    rebalance_every: int = setting(INT, 0, at_least(0))
    worker_recovery: bool = setting(BOOL, False)


@dataclass(frozen=True)
class FaultSpec(Spec):
    """One scheduled fault (see :mod:`repro.runtime.faults`); compiles
    to a fresh :class:`~repro.runtime.faults.Fault` per run, whose own
    checks (kind, trigger, slot) run at load time."""

    section = "fault"

    kind: str = setting(STR, "kill")
    slot: int = setting(INT, 0)
    at_watermark: "int | None" = setting(optional(INT), None)
    op: "str | None" = setting(optional(STR), None)
    delay_seconds: float = setting(NUMBER, 0.0)

    def check(self) -> None:
        self.build()

    def build(self) -> Fault:
        return Fault(
            kind=self.kind,
            slot=self.slot,
            at_watermark=self.at_watermark,
            op=self.op,
            delay_seconds=self.delay_seconds,
        )


@dataclass(frozen=True)
class ChaosSpec(Spec):
    """The deterministic fault schedule a chaos-marked scenario plays
    against its own run.  Faults fire on the worker backends
    (``process`` / ``shm``); recovery must keep the digest identical
    (invariant 12), which is exactly what the conformance tier
    asserts.  Drop the section for a fault-free run."""

    section = "chaos"

    faults: tuple = setting(sequence(FaultSpec), ())

    def build_plan(self) -> FaultPlan:
        return FaultPlan(*(spec.build() for spec in self.faults))


@dataclass(frozen=True)
class ExpectSpec(Spec):
    """The committed outcome: a result digest plus stat bounds.

    ``digest`` pins the full result set bit-for-bit; ``accepted`` /
    ``late_dropped`` pin the reorder counters; ``total_pairs`` pins
    the logical work (machine-independent, DESIGN.md invariant 6) and
    ``total_physical`` the physical work (the same on every backend and
    shard count);
    ``min_throughput`` is a soft floor in events/second (checked only
    when > 0 — wall-clock is hardware-dependent, so committed
    scenarios leave it unset and benches set it at run time).
    ``queries`` maps query names to expected emitted instance counts.
    """

    section = "expect"

    digest: "str | None" = setting(optional(STR), None)
    accepted: "int | None" = setting(optional(INT), None, at_least(0))
    late_dropped: "int | None" = setting(optional(INT), None, at_least(0))
    total_pairs: "int | None" = setting(optional(INT), None, at_least(0))
    total_physical: "int | None" = setting(optional(INT), None, at_least(0))
    min_throughput: "float | None" = setting(optional(NUMBER), None)
    queries: "dict | None" = setting(
        optional(mapping_of(INT)), None, at_least(0)
    )


@dataclass(frozen=True)
class Scenario(Spec):
    """One complete declarative scenario (parsed and validated)."""

    section = "scenario"
    noun = "section"

    name: str = setting(STR, bound=_NON_EMPTY)
    description: str = setting(STR, "")
    stream: StreamSpec = setting(StreamSpec, factory=StreamSpec)
    # Required in effect: WorkloadSpec() has no queries, so it raises.
    workload: WorkloadSpec = setting(WorkloadSpec, factory=WorkloadSpec)
    runtime: RuntimeSpec = setting(RuntimeSpec, factory=RuntimeSpec)
    chaos: "ChaosSpec | None" = setting(optional(ChaosSpec), None)
    expect: ExpectSpec = setting(ExpectSpec, factory=ExpectSpec)

    def check(self) -> None:
        if self.expect.queries:
            known = set(self.workload.names())
            dangling = sorted(set(self.expect.queries) - known)
            if dangling:
                raise ExecutionError(
                    f"expect.queries references unknown query(s) "
                    f"{dangling}; the workload defines "
                    f"{sorted(known)} (dangling query reference)"
                )
        if self.chaos is not None and self.runtime.backend == "serial":
            raise ExecutionError(
                "a chaos schedule needs a worker backend "
                "(runtime.backend: process or shm) — the serial backend "
                "has no workers to fault"
            )


def parse_scenario(data: dict, name: str = "") -> Scenario:
    """Build a validated :class:`Scenario` from a parsed mapping; a
    mapping without a ``name`` takes ``name``."""
    if name and isinstance(data, dict) and not data.get("name"):
        data = {**data, "name": name}
    return build_spec(Scenario, data)


def load_scenario(source: "str | Path | dict") -> Scenario:
    """Load a scenario from a path, raw YAML/JSON text, or a dict.

    A path source names the scenario after its file stem unless the
    file carries an explicit ``name:``.
    """
    data, stem = read_source(source)
    return parse_scenario(data, name=stem)


def dump_scenario(scenario: Scenario) -> str:
    """Serialize a scenario back to the YAML subset it parses from —
    ``parse → dump → parse`` is the identity on every valid scenario
    (the golden-file round-trip test)."""
    return dump_simple_yaml(as_mapping(scenario))

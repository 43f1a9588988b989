"""The declarative scenario schema (docs/scenarios.md).

A *scenario* is a versioned data file that describes one end-to-end
session run — stream shape, query workload, runtime topology, an
optional chaos schedule, and the expected outcome — so every stress
pattern and every reproduced incident is a committed fixture instead
of bespoke Python.  Files are YAML (the stdlib-parsed subset of
:func:`repro.service.quotas.parse_simple_yaml` — mappings, block
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

Every section is a frozen dataclass built field-wise from the parsed
mapping with **unknown-key rejection** exactly like
:meth:`repro.service.quotas.TenantConfig.merged` — a typo'd knob
silently defaulting would make a digest mismatch undebuggable, so it
raises instead, naming the unknown keys and the known set.

The schema is *declarative only*: compilation to an executable stream
plus session configuration lives in :mod:`repro.scenarios.runner`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..aggregates.registry import get_aggregate
from ..errors import ExecutionError
from ..runtime.faults import Fault, FaultPlan
from ..runtime.sharding import SHARD_BACKENDS
from ..service.quotas import parse_simple_yaml
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


def _build(cls, data, where: str):
    """Build a spec dataclass from a parsed mapping, rejecting unknown
    keys with the :class:`TenantConfig`-shaped error."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ExecutionError(
            f"scenario section {where!r} must be a mapping, got {data!r}"
        )
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ExecutionError(
            f"unknown {where} key(s) {unknown}; expected a subset of "
            f"{sorted(known)}"
        )
    return cls(**data)


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


@dataclass(frozen=True)
class ValueSpec:
    """How the synthetic profile samples event values.

    ``round: true`` (the default) rounds every value to a whole
    number, which keeps float64 partial-aggregate merges *exact* — the
    discipline that lets one committed digest hold across shard
    counts, backends, mid-stream rebalancing, and crash recovery.
    Turn it off only for scenarios that never reshard.
    """

    distribution: str = "gaussian"
    mean: float = 20.0
    stddev: float = 5.0
    low: float = 0.0
    high: float = 1.0
    scale: float = 1.0
    round: bool = True

    def __post_init__(self) -> None:
        if self.distribution not in VALUE_DISTRIBUTIONS:
            raise ExecutionError(
                f"unknown value distribution {self.distribution!r}; "
                f"expected one of {VALUE_DISTRIBUTIONS}"
            )
        if self.stddev < 0:
            raise ExecutionError(
                f"values.stddev must be >= 0, got {self.stddev}"
            )
        if self.scale <= 0:
            raise ExecutionError(
                f"values.scale must be > 0, got {self.scale}"
            )
        if self.distribution == "uniform" and self.high <= self.low:
            raise ExecutionError(
                f"values.high must exceed values.low, got "
                f"[{self.low}, {self.high}]"
            )


@dataclass(frozen=True)
class RatePhase:
    """One piece of a piecewise-constant rate schedule: events up to
    the ``until`` fraction of the stream arrive at ``rate``
    events/tick; an optional per-phase ``skew`` override reshapes the
    key distribution mid-stream (the flash-crowd idiom)."""

    until: float
    rate: int
    skew: "float | None" = None

    def __post_init__(self) -> None:
        if not 0.0 < self.until <= 1.0:
            raise ExecutionError(
                f"bad rate schedule: phase 'until' must be in (0, 1], "
                f"got {self.until}"
            )
        if self.rate < 1:
            raise ExecutionError(
                f"bad rate schedule: phase rate must be >= 1, got "
                f"{self.rate}"
            )
        if self.skew is not None and self.skew < 0:
            raise ExecutionError(
                f"stream skew must be >= 0, got {self.skew} (a negative "
                "Zipf exponent is not a distribution)"
            )


@dataclass(frozen=True)
class OutOfOrderSpec:
    """The arrival-disorder profile: each event is displaced by up to
    ``lateness`` arrival positions (seeded jitter, the
    :func:`~repro.engine.outoforder.scramble_batch` model), which a
    ``ReorderBuffer(lateness)`` absorbs without drops."""

    lateness: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lateness < 0:
            raise ExecutionError(
                f"out_of_order.lateness must be >= 0, got {self.lateness}"
            )


@dataclass(frozen=True)
class StreamSpec:
    """What arrives: event count, key cardinality, skew, rate
    schedule, out-of-order profile, value distribution.

    ``profile: synthetic`` exposes every knob; a named domain profile
    (``rtgs_payments`` / ``iot_telemetry`` / ``flash_crowd``) brings
    its own rate curve, skew, and value process, so the shape knobs
    must stay unset for it (the ``out_of_order`` profile still
    applies — disorder is an ingest property, not a domain one).
    """

    profile: str = "synthetic"
    events: int = 10_000
    keys: int = 16
    seed: int = 1
    skew: "float | None" = None
    rate: "int | None" = None
    rate_schedule: "tuple | None" = None
    out_of_order: "OutOfOrderSpec | None" = None
    values: "ValueSpec | None" = None

    def __post_init__(self) -> None:
        if self.profile not in STREAM_PROFILES:
            raise ExecutionError(
                f"unknown stream profile {self.profile!r}; expected one "
                f"of {STREAM_PROFILES}"
            )
        if self.events < 1:
            raise ExecutionError(
                f"stream.events must be >= 1, got {self.events}"
            )
        if self.keys < 1:
            raise ExecutionError(
                f"stream.keys must be >= 1, got {self.keys}"
            )
        if self.skew is not None and self.skew < 0:
            raise ExecutionError(
                f"stream skew must be >= 0, got {self.skew} (a negative "
                "Zipf exponent is not a distribution)"
            )
        if self.rate is not None and self.rate < 1:
            raise ExecutionError(
                f"stream.rate must be >= 1, got {self.rate}"
            )
        if isinstance(self.out_of_order, dict):
            object.__setattr__(
                self,
                "out_of_order",
                _build(OutOfOrderSpec, self.out_of_order, "out_of_order"),
            )
        if isinstance(self.values, dict):
            object.__setattr__(
                self, "values", _build(ValueSpec, self.values, "values")
            )
        if self.rate_schedule is not None:
            if not isinstance(self.rate_schedule, (list, tuple)) or not (
                self.rate_schedule
            ):
                raise ExecutionError(
                    "bad rate schedule: expected a non-empty sequence of "
                    f"phases, got {self.rate_schedule!r}"
                )
            for phase in self.rate_schedule:
                if not isinstance(phase, (dict, RatePhase)):
                    raise ExecutionError(
                        "bad rate schedule: each phase must be a mapping "
                        f"with until/rate, got {phase!r}"
                    )
            phases = tuple(
                _build(RatePhase, phase, "rate_schedule phase")
                if isinstance(phase, dict)
                else phase
                for phase in self.rate_schedule
            )
            object.__setattr__(self, "rate_schedule", phases)
            if self.rate is not None:
                raise ExecutionError(
                    "bad rate schedule: stream.rate and "
                    "stream.rate_schedule are mutually exclusive (the "
                    "schedule fixes the rate per phase)"
                )
            last = 0.0
            for phase in phases:
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
                for knob, value in (
                    ("skew", self.skew),
                    ("rate", self.rate),
                    ("rate_schedule", self.rate_schedule),
                    ("values", self.values),
                )
                if value is not None
            ]
            if preset:
                raise ExecutionError(
                    f"stream profile {self.profile!r} generates its own "
                    f"shape; remove {preset} (only events/keys/seed/"
                    "out_of_order apply to a domain profile)"
                )


@dataclass(frozen=True)
class QuerySpec:
    """One query of the workload, with its lifecycle schedule.

    ``windows`` are literals (``"range/slide"`` or tumbling
    ``"range"``); ``register_at`` / ``deregister_at`` are stream
    watermarks — the query joins at the first arrival whose timestamp
    reaches ``register_at`` and leaves at ``deregister_at``.
    """

    name: str
    aggregate: str = "sum"
    windows: tuple = ("300/50",)
    scope: str = "per_key"
    register_at: int = 0
    deregister_at: "int | None" = None

    def __post_init__(self) -> None:
        if not str(self.name).strip():
            raise ExecutionError("every query needs a non-empty name")
        get_aggregate(str(self.aggregate))
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
        seen = self.window_set()  # validates every literal, rejects dups
        del seen
        if self.scope not in ("per_key", "global"):
            raise ExecutionError(
                f"query {self.name!r}: scope must be 'per_key' or "
                f"'global', got {self.scope!r}"
            )
        if self.register_at < 0:
            raise ExecutionError(
                f"query {self.name!r}: register_at must be >= 0, got "
                f"{self.register_at}"
            )
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
class WorkloadSpec:
    """The query mix: what runs, and when each query joins/leaves."""

    queries: tuple = ()

    def __post_init__(self) -> None:
        if not isinstance(self.queries, (list, tuple)) or not self.queries:
            raise ExecutionError(
                "workload.queries must be a non-empty sequence of queries"
            )
        specs = tuple(
            _build(QuerySpec, q, "query") if isinstance(q, dict) else q
            for q in self.queries
        )
        object.__setattr__(self, "queries", specs)
        seen: set = set()
        for spec in specs:
            if spec.name in seen:
                raise ExecutionError(
                    f"duplicate query name {spec.name!r} in workload"
                )
            seen.add(spec.name)

    def names(self) -> "tuple[str, ...]":
        return tuple(spec.name for spec in self.queries)


@dataclass(frozen=True)
class RuntimeSpec:
    """Where the scenario runs: shards, backend, ingest mode, slots,
    rebalance cadence.  Everything here is an *execution* choice — by
    invariants 10/11 it must not change the answer, and the runner's
    CLI can override any of it without invalidating the expected
    digest."""

    shards: int = 1
    backend: str = "serial"
    async_ingest: bool = False
    slots: "int | None" = None
    lateness: "int | None" = None
    chunk_ticks: "int | None" = None
    rebalance_every: int = 0
    worker_recovery: bool = False

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ExecutionError(
                f"runtime.shards must be >= 1, got {self.shards}"
            )
        if self.backend not in SHARD_BACKENDS:
            raise ExecutionError(
                f"runtime.backend must be one of {SHARD_BACKENDS}, got "
                f"{self.backend!r}"
            )
        if self.lateness is not None and self.lateness < 0:
            raise ExecutionError(
                f"runtime.lateness must be >= 0, got {self.lateness}"
            )
        if self.rebalance_every < 0:
            raise ExecutionError(
                f"runtime.rebalance_every must be >= 0, got "
                f"{self.rebalance_every}"
            )


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault (see :mod:`repro.runtime.faults`); compiles
    to a fresh :class:`~repro.runtime.faults.Fault` per run."""

    kind: str = "kill"
    slot: int = 0
    at_watermark: "int | None" = None
    op: "str | None" = None
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        self.build()  # surface bad fault specs at load time

    def build(self) -> Fault:
        return Fault(
            kind=self.kind,
            slot=self.slot,
            at_watermark=self.at_watermark,
            op=self.op,
            delay_seconds=self.delay_seconds,
        )


@dataclass(frozen=True)
class ChaosSpec:
    """The deterministic fault schedule a chaos-marked scenario plays
    against its own run.  Faults fire on the worker backends
    (``process`` / ``shm``); recovery must keep the digest identical
    (invariant 12), which is exactly what the conformance tier
    asserts."""

    faults: tuple = ()

    def __post_init__(self) -> None:
        if not isinstance(self.faults, (list, tuple)) or not self.faults:
            raise ExecutionError(
                "chaos.faults must be a non-empty sequence of faults "
                "(drop the chaos section for a fault-free run)"
            )
        specs = tuple(
            _build(FaultSpec, f, "fault") if isinstance(f, dict) else f
            for f in self.faults
        )
        object.__setattr__(self, "faults", specs)

    def build_plan(self) -> FaultPlan:
        return FaultPlan(*(spec.build() for spec in self.faults))


@dataclass(frozen=True)
class ExpectSpec:
    """The committed outcome: a result digest plus stat bounds.

    ``digest`` pins the full result set bit-for-bit; ``accepted`` /
    ``late_dropped`` pin the reorder counters; ``total_pairs`` pins
    the logical work (machine-independent, DESIGN.md invariant 6);
    ``min_throughput`` is a soft floor in events/second (checked only
    when > 0 — wall-clock is hardware-dependent, so committed
    scenarios leave it unset and benches set it at run time).
    ``queries`` maps query names to expected emitted instance counts.
    """

    digest: "str | None" = None
    accepted: "int | None" = None
    late_dropped: "int | None" = None
    total_pairs: "int | None" = None
    min_throughput: "float | None" = None
    queries: "dict | None" = None

    def __post_init__(self) -> None:
        if self.queries is not None:
            if not isinstance(self.queries, dict):
                raise ExecutionError(
                    "expect.queries must map query names to expected "
                    f"instance counts, got {self.queries!r}"
                )
            for name, instances in self.queries.items():
                if not isinstance(instances, int) or instances < 0:
                    raise ExecutionError(
                        f"expect.queries[{name!r}] must be a non-negative "
                        f"instance count, got {instances!r}"
                    )


#: Top-level scenario sections, in canonical (dump) order.
_SECTIONS = ("stream", "workload", "runtime", "chaos", "expect")


@dataclass(frozen=True)
class Scenario:
    """One complete declarative scenario (parsed and validated)."""

    name: str
    description: str = ""
    stream: StreamSpec = field(default_factory=StreamSpec)
    workload: WorkloadSpec = field(
        default_factory=lambda: WorkloadSpec(({"name": "q"},))
    )
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    chaos: "ChaosSpec | None" = None
    expect: ExpectSpec = field(default_factory=ExpectSpec)

    def __post_init__(self) -> None:
        if not str(self.name).strip():
            raise ExecutionError("a scenario needs a non-empty name")
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
    """Build a validated :class:`Scenario` from a parsed mapping."""
    if not isinstance(data, dict):
        raise ExecutionError(
            f"a scenario must be a mapping of sections, got {data!r}"
        )
    known = {"name", "description", *_SECTIONS}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ExecutionError(
            f"unknown scenario section(s) {unknown}; expected a subset "
            f"of {sorted(known)}"
        )
    resolved = str(data.get("name") or name or "").strip()
    return Scenario(
        name=resolved,
        description=str(data.get("description") or ""),
        stream=_build(StreamSpec, data.get("stream"), "stream"),
        workload=_build(WorkloadSpec, data.get("workload"), "workload"),
        runtime=_build(RuntimeSpec, data.get("runtime"), "runtime"),
        chaos=(
            _build(ChaosSpec, data["chaos"], "chaos")
            if data.get("chaos") is not None
            else None
        ),
        expect=_build(ExpectSpec, data.get("expect"), "expect"),
    )


def load_scenario(source: "str | Path | dict") -> Scenario:
    """Load a scenario from a path, raw YAML/JSON text, or a dict.

    A path source names the scenario after its file stem unless the
    file carries an explicit ``name:``.
    """
    if isinstance(source, dict):
        return parse_scenario(source)
    name = ""
    text = str(source)
    if isinstance(source, Path) or (
        "\n" not in text and text.endswith((".yaml", ".yml", ".json"))
    ):
        path = Path(source)
        name = path.stem
        text = path.read_text()
    return parse_scenario(parse_simple_yaml(text), name=name)


def _dump_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    from ..service.quotas import _parse_scalar

    if _parse_scalar(text) == text and "#" not in text and text:
        return text
    return json.dumps(text)


def _dump_mapping(data: dict, indent: int, lines: "list[str]") -> None:
    pad = " " * indent
    for key, value in data.items():
        if value is None:
            continue
        if isinstance(value, dict):
            if not value:
                continue
            lines.append(f"{pad}{key}:")
            _dump_mapping(value, indent + 2, lines)
        elif isinstance(value, (list, tuple)):
            lines.append(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    entries = [
                        (k, v) for k, v in item.items() if v is not None
                    ]
                    first_key, first_value = entries[0]
                    lines.append(
                        f"{pad}  - {first_key}: {_dump_scalar(first_value)}"
                    )
                    _dump_mapping(dict(entries[1:]), indent + 4, lines)
                else:
                    lines.append(f"{pad}  - {_dump_scalar(item)}")
        else:
            lines.append(f"{pad}{key}: {_dump_scalar(value)}")


def _spec_dict(spec) -> dict:
    """A spec dataclass as a plain mapping, nested specs included
    (``None`` fields dropped by the dumper)."""
    out: dict = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if hasattr(value, "__dataclass_fields__"):
            value = _spec_dict(value)
        elif isinstance(value, tuple):
            value = [
                _spec_dict(v) if hasattr(v, "__dataclass_fields__") else v
                for v in value
            ]
        out[f.name] = value
    return out


def scenario_dict(scenario: Scenario) -> dict:
    """The scenario as a plain nested mapping (the dump/JSON shape)."""
    data: dict = {"name": scenario.name}
    if scenario.description:
        data["description"] = scenario.description
    for section in _SECTIONS:
        spec = getattr(scenario, section)
        if spec is None:
            continue
        data[section] = _spec_dict(spec)
    return data


def dump_scenario(scenario: Scenario) -> str:
    """Serialize a scenario back to the YAML subset it parses from —
    ``parse → dump → parse`` is the identity on every valid scenario
    (the golden-file round-trip test)."""
    lines: "list[str]" = []
    _dump_mapping(scenario_dict(scenario), 0, lines)
    return "\n".join(lines) + "\n"

"""Declarative scenarios: parse, compile, run, record, replay.

A scenario is a YAML/JSON file that pins a complete experiment —
stream shape, query workload, runtime layout, optional chaos schedule,
and the expected outcome — so one committed file reproduces one result
everywhere (see ``docs/scenarios.md`` and the ``scenarios/`` library).
"""

from .rstream import (
    RSTREAM_MAGIC,
    RSTREAM_VERSION,
    StreamCapture,
    read_rstream,
    write_rstream,
)
from .runner import (
    CompiledStream,
    ScenarioReport,
    ScenarioRunner,
    compile_scenario,
    replay_capture,
    results_digest,
    run_scenario,
)
from .schema import (
    SHARD_BACKENDS,
    STREAM_PROFILES,
    VALUE_DISTRIBUTIONS,
    ChaosSpec,
    ExpectSpec,
    FaultSpec,
    OutOfOrderSpec,
    QuerySpec,
    RatePhase,
    RuntimeSpec,
    Scenario,
    StreamSpec,
    ValueSpec,
    WorkloadSpec,
    dump_scenario,
    load_scenario,
    parse_scenario,
    parse_window,
)

__all__ = [
    "RSTREAM_MAGIC",
    "RSTREAM_VERSION",
    "SHARD_BACKENDS",
    "STREAM_PROFILES",
    "VALUE_DISTRIBUTIONS",
    "ChaosSpec",
    "CompiledStream",
    "ExpectSpec",
    "FaultSpec",
    "OutOfOrderSpec",
    "QuerySpec",
    "RatePhase",
    "RuntimeSpec",
    "Scenario",
    "ScenarioReport",
    "ScenarioRunner",
    "StreamCapture",
    "StreamSpec",
    "ValueSpec",
    "WorkloadSpec",
    "compile_scenario",
    "dump_scenario",
    "load_scenario",
    "parse_scenario",
    "parse_window",
    "read_rstream",
    "replay_capture",
    "results_digest",
    "run_scenario",
    "write_rstream",
]

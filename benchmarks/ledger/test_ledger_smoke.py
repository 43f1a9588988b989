"""Smoke test of the layer ledger at tiny sizes (collected by tier-1).

Every name in ``BENCHMARK.json`` must come out of the benchmark once,
with its unit and a finite value; a wrong answer must fail the run; and
nothing the benchmark starts — server, shard workers, shm segments,
checkpoint directories — may outlive it.
"""

import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

LEDGER_DIR = Path(__file__).resolve().parent
if str(LEDGER_DIR) not in sys.path:
    sys.path.insert(0, str(LEDGER_DIR))

import check  # noqa: E402
import ladder  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((measure.REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 3
SCALE = 0.01


def _shm_segments():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _service_processes():
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cmdline = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if b"repro.bench.cli" in cmdline and b"serve" in cmdline:
                found.append(int(entry.name))
    return found


def _session_processes(sid):
    """Every process of session ``sid``, running or not yet reaped."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
                found.append(stat.strip())
    return found


@pytest.fixture(scope="module", autouse=True)
def ledger_environment_and_no_leaks():
    """Run under the benchmark's own environment (kernels on, cache in
    the checkout) without leaking it into the rest of the test session,
    and check afterwards that nothing the benchmark started survives."""
    saved = dict(os.environ)
    measure.prepare_environment()
    shm_before = _shm_segments()
    servers_before = set(_service_processes())
    yield
    os.environ.clear()
    os.environ.update(saved)
    assert not multiprocessing.active_children(), "shard workers left running"
    assert set(_service_processes()) <= servers_before, "server left running"
    assert _shm_segments() <= shm_before, "/dev/shm segments left behind"
    leftovers = [
        p.name for p in measure.RESULTS_DIR.glob("*")
        if p.is_dir() and p.name != "kernels"
    ]
    assert not leftovers, f"temporary directories left behind: {leftovers}"


def _check_metrics(metrics, declared):
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for entry in declared:
        got = metrics[entry["name"]]
        assert got["unit"] == entry["unit"], entry["name"]
        assert math.isfinite(got["value"]), entry["name"]


def test_benchmark_json_keeps_the_contract():
    assert sorted(SPEC) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end",
         "per_layer"]
    )
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    names = [
        entry["name"]
        for part in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[part]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_end_to_end_emits_every_metric(name):
    report = run.end_to_end(name, SEED, seconds=0, scale=SCALE, probes=1)
    _check_metrics(report["metrics"], SPEC["end_to_end"])
    assert report["failed"] == 0 and report["failed_share"] == 0.0
    assert report["correct"] and report["attempted"] >= 1
    assert report["checks"]["oracle_cells"] >= 200
    line = json.loads(run.result_line(report))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]


def test_command_leaves_no_process_behind():
    """The command as the driver runs it, in a session of its own: once
    it has exited, that session is empty — no worker, no set-up probe,
    and not the shm rings' resource tracker, which ends only after the
    process that started it unless it is stopped and waited for."""
    child = subprocess.Popen(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--workload",
         "sharded_skew", "--seed", str(SEED), "--seconds", "0.1",
         "--scale", str(SCALE), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = child.communicate(timeout=120)
    survivors = _session_processes(child.pid)
    assert child.returncode == 0, err
    line = json.loads(out.splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert not survivors, survivors


def test_traced_ladder_emits_every_layer_metric():
    report = ladder.traced_run("live_session", SEED, seconds=1, scale=0.2)
    _check_metrics(report["metrics"], SPEC["per_layer"])
    # Rungs are result-identical: no identity check failed.
    assert report["failed"] == 0, report["notes"]
    trace = json.loads(
        (measure.REPO_ROOT / report["sizes"]["trace_file"]).read_text()
    )
    events = trace["traceEvents"]
    assert events and len(events) == report["sizes"]["spans"]
    ids = {event["args"]["id"] for event in events}
    for event in events:
        parent = event["args"]["parent"]
        assert parent is None or parent in ids
        assert event["dur"] >= 0


def test_other_seed_changes_inputs_not_shape():
    workload = workloads.get("plan_batch")
    one = workload.make_inputs(1, workload.min_events)
    two = workload.make_inputs(2, workload.min_events)
    assert one["sets"] == two["sets"]
    assert not np.array_equal(one["stream"].values, two["stream"].values)
    assert np.array_equal(one["stream"].ts, two["stream"].ts)


def test_wrong_answer_fails_the_run(monkeypatch, capsys):
    """One corrupted result cell: the reference check counts it, the
    report says ``correct: false`` and the command exits non-zero."""
    original = workloads.PlanBatch.run

    def corrupted(self, *args):
        rep = original(self, *args)
        key = sorted(rep.blocks)[0]
        aggregate, start, values = rep.blocks[key]
        values = values.copy()
        values[0, 0] = 12345.0
        rep.blocks[key] = (aggregate, start, values)
        return rep

    monkeypatch.setattr(workloads.PlanBatch, "run", corrupted)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(
        ["--workload", "plan_batch", "--seconds", "0", "--scale", str(SCALE)]
    )
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert line["correct"] is False and line["failed"] >= 1


def test_oracle_catches_a_lie_the_reference_shares():
    """Corrupt the run and its reference identically (as a bug in code
    both share would): only the independent oracle can notice."""
    workload = workloads.get("sharded_skew")
    inp = workload.make_inputs(SEED, workload.min_events)
    blocks = workload.reference(inp)
    for key, (aggregate, start, values) in blocks.items():
        blocks[key] = (aggregate, start, values + 1.0)
    checks = run.verify(
        workload, blocks, blocks, workload.oracle_streams(inp), SEED
    )
    assert checks["reference_mismatches"] == 0
    assert checks["oracle_mismatches"] > 0


def test_lost_results_fail_like_wrong_ones():
    """A run that drops its last instances, starts a subscription late
    or loses a whole window differs from the reference by every cell
    of that block: the reference fixes the instance range, not the run."""
    workload = workloads.get("live_session")
    inp = workload.make_inputs(SEED, workload.min_events)
    want = workload.reference(inp)
    # The reference itself knows the two mid-stream ops.
    assert want["avgs", (80, 40)][1] > 0
    assert (want["sums", (60, 20)][2].shape[1]
            < want["medians", (40, 20)][2].shape[1])
    key = ("mins", (20, 20))
    aggregate, start, values = want[key]
    for lossy in (
        (aggregate, start, values[:, :-1]),
        (aggregate, start + 1, values[:, 1:]),
    ):
        assert check.mismatched_cells({**want, key: lossy}, want) >= values.size - 64
    without = {k: v for k, v in want.items() if k != key}
    assert check.mismatched_cells(without, want) == values.size
    assert check.mismatched_cells(want, want) == 0

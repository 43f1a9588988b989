"""The committed scenario library is a conformance suite: every file
under ``scenarios/`` must reproduce its committed digest — on the
runtime shape it declares, on the other worker backend, *and* on the
serial-sync oracle shape, with the same physical work on all three.  A
digest drift here means either a scenario file was edited without
recomputing its outcome, or the engine's results moved (invariant 9).
"""

import dataclasses
from pathlib import Path

import pytest

from repro.errors import ExecutionError
from repro.scenarios import ScenarioRunner, load_scenario

LIBRARY = Path(__file__).resolve().parents[2] / "scenarios"
SCENARIOS = sorted(LIBRARY.glob("*.yaml"))


def _runner(path):
    return ScenarioRunner(load_scenario(path))


@pytest.mark.scenarios
class TestCommittedLibrary:
    def test_library_present(self):
        names = {p.stem for p in SCENARIOS}
        assert {
            "rtgs_payments",
            "iot_burst",
            "flash_crowd",
            "chaos_recovery",
        } <= names

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_every_scenario_commits_a_digest(self, path):
        scenario = load_scenario(path)
        assert scenario.expect.digest, (
            f"{path.name} has no committed expect.digest — run "
            f"'factor-windows session run {path}' and commit its outcome"
        )
        assert scenario.expect.total_physical is not None, (
            f"{path.name} does not pin expect.total_physical"
        )

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_declared_runtime_matches_committed_outcome(self, path):
        _runner(path).run(verify=True)

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_serial_oracle_matches_committed_outcome(self, path):
        _runner(path).run(backend="serial", shards=1, verify=True)

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_other_worker_backend_matches_committed_outcome(self, path):
        """Digest and physical work repeat on the worker backend the
        file does not declare (process <-> shm)."""
        declared = load_scenario(path).runtime.backend
        other = {"process": "shm", "shm": "process"}[declared]
        _runner(path).run(backend=other, verify=True)

    def test_physical_work_drift_fails_verification(self):
        runner = _runner(LIBRARY / "chaos_recovery.yaml")
        report = runner.run(backend="serial", shards=1)
        expect = runner.scenario.expect
        drifted = dataclasses.replace(
            expect, total_physical=expect.total_physical + 1
        )
        with pytest.raises(ExecutionError, match="total_physical: expected"):
            report.verify(drifted)

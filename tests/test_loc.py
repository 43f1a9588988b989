"""``tools/loc.py`` is how "less code" claims are counted (ROADMAP
aim 2): its table must keep the rows CHANGES.md records, and a bad
argument must read as a usage error, not a traceback."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TRACKED = (
    "front door (session+sharding+ingest)",
    "runtime+service+scenarios",
    "bench/cli.py",
    "_kernels/reprokernels.c (all lines)",
)


def loc(*args):
    return subprocess.run(
        [sys.executable, str(REPO / "tools" / "loc.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("arg", ["--help", "no/such/file.py"])
def test_a_path_that_does_not_exist_is_a_usage_error(arg):
    proc = loc(arg)
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("usage: ") and f"no such path: {arg}" in line


def rows(*args):
    proc = loc(*args)
    assert proc.returncode == 0, proc.stderr
    return {
        label.strip(): int(count.replace(",", ""))
        for label, count in (
            line.rsplit(None, 1) for line in proc.stdout.splitlines()
        )
    }


def test_the_tracked_rows_parse():
    rows_ = rows()
    for label in TRACKED:
        assert rows_[label] > 0, label
    assert rows_["front door (session+sharding+ingest)"] < rows_[
        "runtime+service+scenarios"
    ] < rows_["src/repro (all)"]


def test_the_layer_row_counts_the_shared_config_module():
    """``src/repro/config.py`` serves the service and the scenarios, so
    the row counts it: a move out of ``service/`` is not a reduction."""
    src = "src/repro/"
    parts = rows(*(src + part for part in (
        "runtime", "service", "scenarios", "config.py",
    )))
    assert parts[src + "config.py"] > 0
    assert rows()["runtime+service+scenarios"] == sum(parts.values())

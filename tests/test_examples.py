"""Every script under ``examples/`` runs to completion.

The examples are the repo's end-to-end tour; each one checks its own
answers and prints a verdict, so a run that exits 0 is the test.  Each
runs in a fresh interpreter with ``src/`` on the path, as the README
tells a reader to run it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) == 7, [path.name for path in EXAMPLES]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, (
        f"{script.name} exited {proc.returncode}:\n{proc.stdout}\n"
        f"{proc.stderr}"
    )

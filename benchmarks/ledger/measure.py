"""Process accounting, order statistics, the host-speed reference, the
host stamp, and stopping what the benchmark started."""

from __future__ import annotations

import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
RESULTS_DIR = LEDGER_DIR / "results"

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pids=()) -> float:
    """user+sys CPU of this process plus every live process in
    ``pids`` (workers, the server), read from ``/proc/<pid>/stat``."""
    total = time.process_time()
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
        except OSError:
            continue
        parts = fields.split()
        total += (int(parts[11]) + int(parts[12])) / _TICKS
    return total


def _status_kib(pid, field: str) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def peak_rss_mib(pid="self") -> float:
    """High-water resident set of one process (``VmHWM``)."""
    return _status_kib(pid, "VmHWM") / 1024.0


def rss_mib(pid="self") -> float:
    return _status_kib(pid, "VmRSS") / 1024.0


def quartiles(values) -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (the driver's own spread rule); a single value is its own median."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def beyond(values, q: float) -> int:
    """How many samples lie strictly beyond the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


#: Seconds one reference unit takes at the speed every end-to-end time
#: is stated at: this host's usual one (its readings run 0.85-1.6 ms),
#: so stated and clocked values are of one size.  On another host all
#: stated times shift by one constant factor; two commits measured on
#: one host compare as they would as clocked.
REFERENCE_UNIT_S = 1.1e-3
_reference_data = None


def _reference_unit() -> float:
    """Time one fixed piece of single-threaded work of the kind the
    program does: an interpreter loop, a sort, a segmented reduce."""
    global _reference_data
    if _reference_data is None:
        import numpy

        values = numpy.random.default_rng(0).random(100_000)
        _reference_data = (numpy, values, numpy.arange(0, values.size, 50))
    numpy, values, starts = _reference_data
    t0 = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    numpy.sort(values)
    numpy.add.reduceat(values, starts)
    return time.perf_counter() - t0


def host_slowdown(units: int = 9) -> float:
    """How many times slower than the reference speed the host runs
    right now (median of ``units`` reference units, ~10 ms).  Call it
    only while the system under test is idle — between repetitions —
    so the reading depends on the host alone, never on what the code
    under test does with the CPUs."""
    return statistics.median(
        _reference_unit() for _ in range(units)
    ) / REFERENCE_UNIT_S


def prepare_environment() -> None:
    """Point the process at this checkout's ``src/`` and keep every
    file the run writes (kernel cache, checkpoints, traces) inside it."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"{src}/repro not found: the ledger measures the repository "
            "it is checked out in"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    os.environ.setdefault("REPRO_KERNELS", "1")
    os.environ.setdefault("REPRO_KERNELS_CACHE", str(RESULTS_DIR / "kernels"))


def adopt_orphans() -> None:
    """Make this process the reaper of every descendant its children
    orphan (Linux ``PR_SET_CHILD_SUBREAPER``), and turn SIGTERM into an
    ordinary exit, so :func:`stop_children` sees and outlasts them all."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        import ctypes

        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: own children are still stopped and waited for


def _child_pids() -> "list[int]":
    me, found = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == me:
                found.append(int(entry.name))
    return found


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has
    ended: shard workers a failed run left behind, then
    ``multiprocessing``'s resource tracker (started by the first shm
    ring; it only ends once its pipe is closed, and otherwise outlives
    the benchmark), then whatever else is a child or an adopted orphan,
    killed after ``grace_s``."""
    import multiprocessing

    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is not None:
        tracker = tracker_module._resource_tracker
        if getattr(tracker, "_fd", None) is not None:
            os.close(tracker._fd)  # EOF on its pipe: the tracker exits
            tracker._fd = tracker._pid = None
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child is left
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _child_pids():
                os.kill(child, signal.SIGKILL)
        time.sleep(0.005)


def load_repro() -> bool:
    """Import the package and build / load the C kernels before any
    clock starts; returns whether the kernels are active."""
    import repro  # noqa: F401
    from repro import _kernels

    return bool(_kernels.globally_enabled())


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "not-a-git-checkout"


def host_stamp(kernels_active: bool) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "REPRO_KERNELS": os.environ.get("REPRO_KERNELS", "auto"),
        "kernels_active": kernels_active,
        "git_commit": git_commit(),
        "argv": sys.argv[1:],
    }

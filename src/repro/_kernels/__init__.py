"""Optional compiled hot kernels behind a pure-NumPy fallback.

``reprokernels.c`` is one CPython extension module holding two
kernels for the two scalar hot spots NumPy has no primitive for:

* ``close_holistic`` — segmented holistic compute, as one whole
  window close (:func:`holistic_close`);
* ``parse_rows`` — a list of ``(ts, key, value)`` rows into the three
  event columns in one pass (:func:`parse_rows`, called by
  ``engine.events.event_columns``).  It accepts only rows the NumPy
  path takes unchanged and hands every other batch back to it whole,
  so accepted columns and every error message are NumPy's.

(Raw-event binning and the reorder buffer need none: NumPy's indexed
``ufunc.at`` scatter in ``AggregateFunction.segment_reduce`` and the
one stable sort in ``ReorderBuffer.push_batch`` each beat the kernel
that used to live here.)  This package builds the module **on demand**
with whatever C compiler the host has (``cc`` / ``gcc`` / ``clang``,
overridable via ``REPRO_CC``) against the running interpreter's
``Python.h``, caches it under the source hash plus the interpreter's
``EXT_SUFFIX`` (so another interpreter never loads it), and loads it
with :class:`importlib.machinery.ExtensionFileLoader`.  The kernels
take their arrays through the buffer protocol — no NumPy headers, no
build-time dependency, no compiled artifact in the tree, and a
byte-for-byte pure-Python fallback when no compiler or no Python
headers are available.

Control knob — the ``REPRO_KERNELS`` environment variable, read at
every call that runs a holistic close or converts a row list (every
engine path, every front door and the live runtime alike):

* unset / ``auto`` / ``0`` — NumPy;
* ``1`` — the kernels, silently falling back to NumPy when they cannot
  be built;
* ``require`` — the kernels, raising :class:`KernelsUnavailable`
  instead of falling back (CI uses this to pin the compiled path).

``REPRO_KERNELS_CACHE`` overrides the cache directory.  Everything
here depends only on the standard library and NumPy, so the
aggregate/engine layers can import it without cycles.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "KernelsUnavailable",
    "available",
    "availability_error",
    "globally_enabled",
    "resolve",
    "holistic_kind",
    "holistic_close",
    "parse_rows",
]


class KernelsUnavailable(RuntimeError):
    """Raised when ``REPRO_KERNELS=require`` but no kernel module."""


_SOURCE = Path(__file__).with_name("reprokernels.c")
_MODULE = "reprokernels"

_module = None
_load_attempted = False
_load_lock = threading.Lock()
_load_error: "str | None" = None


def _mode() -> str:
    return os.environ.get("REPRO_KERNELS", "auto").strip().lower()


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return Path(override)
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def _find_compiler() -> "str | None":
    override = os.environ.get("REPRO_CC")
    if override:
        return shutil.which(override) or override
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _module_path() -> Path:
    """The cached module: one file per source hash and interpreter
    ABI (``EXT_SUFFIX``, e.g. ``.cpython-311-x86_64-linux-gnu.so``)."""
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    return _cache_dir() / f"{_MODULE}-{digest}{suffix}"


def _build(target: Path) -> None:
    paths = sysconfig.get_paths()
    includes = list(dict.fromkeys((paths["include"], paths["platinclude"])))
    if not Path(includes[0], "Python.h").is_file():
        raise KernelsUnavailable(
            f"Python.h not found in {includes[0]} (the Python development "
            "headers are not installed)"
        )
    compiler = _find_compiler()
    if compiler is None:
        raise KernelsUnavailable(
            "no C compiler found (tried $REPRO_CC, cc, gcc, clang)"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    cmd = [
        compiler, "-O3", "-shared", "-fPIC",
        *(f"-I{include}" for include in includes),
        # macOS resolves the interpreter's symbols at load time.
        *(["-undefined", "dynamic_lookup"] if sys.platform == "darwin"
          else []),
        "-o", str(tmp), str(_SOURCE), "-lm",
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise KernelsUnavailable(
            f"compiler {compiler} is not runnable: {exc}"
        ) from exc
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise KernelsUnavailable(
            f"kernel build failed ({' '.join(cmd)}): {proc.stderr.strip()}"
        )
    os.replace(tmp, target)  # atomic: concurrent builders race safely


def _build_and_load():
    target = _module_path()
    if not target.exists():
        _build(target)
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, str(target))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(_MODULE, loader)
    )
    loader.exec_module(module)
    return module


def _load():
    global _module, _load_attempted, _load_error
    if not _load_attempted:
        # A pump thread and the caller's may both convert a first row
        # list: one builds, the other waits for its verdict.
        with _load_lock:
            if not _load_attempted:
                try:
                    _module = _build_and_load()
                except KernelsUnavailable as exc:
                    _load_error = str(exc)
                except (ImportError, OSError) as exc:  # a corrupt cache
                    _load_error = f"kernel module failed to load: {exc}"
                _load_attempted = True
    return _module


def available() -> bool:
    """True when the compiled module is (or can be) loaded."""
    if _mode() == "0":
        return False
    return _load() is not None


def availability_error() -> "str | None":
    """Why kernels are unavailable (None when they are available)."""
    if _mode() == "0":
        return "disabled via REPRO_KERNELS=0"
    _load()
    return _load_error


def globally_enabled() -> bool:
    """True when holistic closes and row lists take the kernels."""
    return _mode() in ("1", "require") and _load() is not None


def resolve() -> bool:
    """Whether this call takes the kernel: :func:`globally_enabled`,
    except that ``REPRO_KERNELS=require`` raises when the module
    cannot be built."""
    if globally_enabled():
        return True
    if _mode() == "require":
        raise KernelsUnavailable(
            f"REPRO_KERNELS=require but kernels are unavailable: "
            f"{_load_error}"
        )
    return False


# ------------------------------------------------------------------ #
# segmented holistic compute                                         #
# ------------------------------------------------------------------ #

def holistic_kind(aggregate) -> "tuple | None":
    """The native closed form an aggregate declares, if any."""
    return getattr(aggregate, "native_segment_kind", None)


def _kind_args(aggregate) -> "tuple[int, float]":
    kind = holistic_kind(aggregate)
    if kind[0] == "quantile":
        return 0, float(kind[1])
    return 1, 0.0


def holistic_close(ts, keys, values, slide, k, m0, m1, num_keys, aggregate):
    """Native drop-in for ``engine.columnar.holistic_close``.

    Returns ``(block, pairs)``: the finalized ``(num_keys, m1 - m0)``
    block of instances ``[m0, m1)`` over the retained events (NaN where
    no event lies) and the number of (event, instance) pairs formed.
    """
    ts = np.ascontiguousarray(ts, dtype=np.int64)
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    block = np.empty((num_keys, m1 - m0), dtype=np.float64)
    kind_code, q = _kind_args(aggregate)
    pairs = _load().close_holistic(
        ts, keys, values, slide, k, m0, m1, num_keys, kind_code, q, block
    )
    return block, pairs


# ------------------------------------------------------------------ #
# rows to event columns                                              #
# ------------------------------------------------------------------ #

def parse_rows(rows: list, num_keys: int) -> "tuple | None":
    """``(ts, keys, values)`` columns of a non-empty row list, or
    ``None`` when a row is anything but an exact tuple / list of an
    exact-int ``ts`` in ``[0, 2**53)``, an exact-int key in ``[0,
    num_keys)`` and an exact float or int value — the batch then goes
    to the NumPy path whole, which judges it and names the row.  The
    id columns are the rows of one C-ordered ``(2, n)`` array, as the
    NumPy path's casts are."""
    n = len(rows)
    ids = np.empty((2, n), dtype=np.int64)
    values = np.empty(n, dtype=np.float64)
    if _load().parse_rows(rows, num_keys, ids, values):
        return ids[0], ids[1], values
    return None

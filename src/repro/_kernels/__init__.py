"""Optional compiled hot kernels behind a pure-NumPy fallback.

``reprokernels.c`` holds one small C kernel for the engine's one
scalar hot spot NumPy has no primitive for: segmented holistic compute.
(Raw-event binning and the reorder buffer need none: NumPy's indexed
``ufunc.at`` scatter in ``AggregateFunction.segment_reduce`` and the
one stable sort in ``ReorderBuffer.push_batch`` each beat the kernel
that used to live here.)  This package builds it **on demand**
with whatever C compiler the host has (``cc`` / ``gcc`` / ``clang``,
overridable via ``REPRO_CC``), caches the shared object per source
hash, and loads it through :mod:`ctypes` — no build-time dependency, no
compiled artifact in the tree, and a byte-for-byte pure-Python fallback
when no compiler is available.

Control knob — the ``REPRO_KERNELS`` environment variable, read at
every call that runs holistic segment compute (every engine path and
the live runtime alike):

* unset / ``auto`` / ``0`` — NumPy;
* ``1`` — the kernel, silently falling back to NumPy when it cannot be
  built;
* ``require`` — the kernel, raising :class:`KernelsUnavailable`
  instead of falling back (CI uses this to pin the compiled path).

Everything here depends only on the standard library and NumPy, so the
aggregate/engine layers can import it without cycles.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "KernelsUnavailable",
    "available",
    "availability_error",
    "globally_enabled",
    "resolve",
    "holistic_kind",
    "holistic_segment_values",
]


class KernelsUnavailable(RuntimeError):
    """Raised when ``REPRO_KERNELS=require`` but no kernel library."""


_SOURCE = Path(__file__).with_name("reprokernels.c")

_lib = None
_load_attempted = False
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


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    i32 = ctypes.c_int32
    f64 = ctypes.c_double
    lib.repro_seg_holistic.argtypes = [p, p, i64, i64, i32, f64, p, p, p, p, p]
    lib.repro_seg_holistic.restype = i64
    return lib


def _build_and_load() -> ctypes.CDLL:
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"reprokernels-{digest}.so"
    if not target.exists():
        compiler = _find_compiler()
        if compiler is None:
            raise KernelsUnavailable(
                "no C compiler found (tried $REPRO_CC, cc, gcc, clang)"
            )
        cache.mkdir(parents=True, exist_ok=True)
        tmp = cache / f"reprokernels-{digest}.{os.getpid()}.tmp.so"
        cmd = [
            compiler, "-O3", "-shared", "-fPIC",
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
    return _bind(ctypes.CDLL(str(target)))


def _load() -> "ctypes.CDLL | None":
    global _lib, _load_attempted, _load_error
    if not _load_attempted:
        _load_attempted = True
        try:
            _lib = _build_and_load()
        except KernelsUnavailable as exc:
            _load_error = str(exc)
        except OSError as exc:  # pragma: no cover - corrupt cache etc.
            _load_error = f"kernel library failed to load: {exc}"
    return _lib


def available() -> bool:
    """True when the compiled library is (or can be) loaded."""
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
    """True when holistic segment compute takes the kernel."""
    return _mode() in ("1", "require") and _load() is not None


def resolve() -> bool:
    """Whether this call takes the kernel: :func:`globally_enabled`,
    except that ``REPRO_KERNELS=require`` raises when the library
    cannot be built."""
    if globally_enabled():
        return True
    if _mode() == "require":
        raise KernelsUnavailable(
            f"REPRO_KERNELS=require but kernels are unavailable: "
            f"{_load_error}"
        )
    return False


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


# ------------------------------------------------------------------ #
# segmented holistic compute                                         #
# ------------------------------------------------------------------ #

def holistic_kind(aggregate) -> "tuple | None":
    """The native closed form an aggregate declares, if any."""
    return getattr(aggregate, "native_segment_kind", None)


def holistic_segment_values(codes, values, aggregate):
    """Native drop-in for ``engine.columnar.holistic_segment_values``.

    Returns ``(segment_ids, results)`` for the non-empty segments, in
    ascending segment order — the same contract as the NumPy path.
    """
    kind = holistic_kind(aggregate)
    lib = _load()
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if codes.size == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    num_segments = int(codes.max()) + 1
    kind_code = 0 if kind[0] == "quantile" else 1
    q = float(kind[1]) if kind[0] == "quantile" else 0.0
    counts = np.empty(num_segments, dtype=np.int64)
    offsets = np.empty(num_segments, dtype=np.int64)
    grouped = np.empty(codes.size, dtype=np.float64)
    seg_ids = np.empty(num_segments, dtype=np.int64)
    results = np.empty(num_segments, dtype=np.float64)
    written = lib.repro_seg_holistic(
        _ptr(codes), _ptr(values), ctypes.c_int64(codes.size),
        ctypes.c_int64(num_segments), ctypes.c_int32(kind_code),
        ctypes.c_double(q), _ptr(counts), _ptr(offsets), _ptr(grouped),
        _ptr(seg_ids), _ptr(results),
    )
    return seg_ids[:written], results[:written]

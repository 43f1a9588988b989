"""Optional compiled hot kernels behind a pure-NumPy fallback.

``reprokernels.c`` is one CPython extension module holding six
kernels, each the body of one NumPy function it stays bit-identical to:

* ``absorb_panes`` — one raw run into a raw operator's pane store:
  pane codes and every component's lifted fold in one pass
  (:func:`absorb_panes`, called by
  ``engine.streaming._ChunkedRawOperator.absorb``);
* ``fold_sets`` — the covering-set fold of
  ``engine.columnar.fold_covering_sets`` up to
  ``FOLD_PASSES_MAX_WIDTH`` partials (:func:`fold_sets`);
* ``close_holistic`` — segmented holistic compute, as one whole
  window close (:func:`holistic_close`);
* ``parse_rows`` — a list of ``(ts, key, value)`` rows into the three
  event columns in one pass (:func:`parse_rows`, called by
  ``engine.events.event_columns``).  It accepts only rows the NumPy
  path takes unchanged and hands every other batch back to it whole,
  so accepted columns and every error message are NumPy's;
* ``reorder_run`` — a block through the reorder buffer up to its
  watermark cut: the running-maximum late test, then the carried and
  accepted events as their stable timestamp sort, a counting sort on
  the tick offset when they are out of order (:func:`reorder_run`,
  called by ``engine.outoforder.ReorderBuffer.push_batch``); a block
  spanning more than about four ticks an event goes to ``argsort``;
* ``route_run`` — a released run's slot counts per chunk end, shard
  counts, local ids and stable split by shard (:func:`route_run`,
  called by ``runtime.sharding.ShardedSession._buffer_run``).

The two front-door kernels add no float: they count, compare ticks
and move 8-byte words, so they are the NumPy bodies by construction
(a stable sort's permutation is unique).
The two folds add, min or max doubles only in the orders DESIGN.md §5
fixes — a pane is the left fold of its events in input order, a
covering set the left fold of its partials in time order — and an
IEEE-754 add, min or max of two doubles is one deterministic
operation, so the same order gives the same bits.  The build keeps it
so (``-ffp-contract=off``: no fused multiply-add), and min and max
mirror ``np.minimum`` / ``np.maximum`` (NaN propagates from either
side; of ``0.0`` and ``-0.0`` the second operand wins).  This package
builds the module **on demand**
with whatever C compiler the host has (``cc`` / ``gcc`` / ``clang``,
overridable via ``REPRO_CC``) against the running interpreter's
``Python.h``, caches it under the hash of the source and the flags plus
the interpreter's ``EXT_SUFFIX`` (so another interpreter never loads
it), and loads it
with :class:`importlib.machinery.ExtensionFileLoader`.  The kernels
take their arrays through the buffer protocol — no NumPy headers, no
build-time dependency, no compiled artifact in the tree, and a
byte-for-byte pure-Python fallback when no compiler or no Python
headers are available.

Control knob — the ``REPRO_KERNELS`` environment variable, read at
every call that absorbs a raw run, folds covering sets, runs a
holistic close, converts a row list, reorders a block or routes a run
(every engine path, every front door and the live runtime alike):

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
    "absorb_spec",
    "absorb_panes",
    "fold_op",
    "fold_sets",
    "holistic_kind",
    "holistic_close",
    "parse_rows",
    "reorder_run",
    "route_run",
]


class KernelsUnavailable(RuntimeError):
    """Raised when ``REPRO_KERNELS=require`` but no kernel module."""


_SOURCE = Path(__file__).with_name("reprokernels.c")
_MODULE = "reprokernels"
#: ``-ffp-contract=off``: the folds' ``s + x * x`` must round twice, as
#: NumPy's lift and add do, not once as a fused multiply-add.
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

_module = None
_load_attempted = False
_load_lock = threading.Lock()
_load_error: "str | None" = None


_ENV_KEY = os.environ.encodekey("REPRO_KERNELS")
_modes: "dict[object, str]" = {}


def _mode() -> str:
    """``REPRO_KERNELS``, normalized.  Read from the environment's own
    mapping, which ``os.environ`` updates in place: the switch is read
    on every fold, and ``os.environ.get`` costs about a microsecond of
    Python-level calls."""
    raw = os.environ._data.get(_ENV_KEY)
    mode = _modes.get(raw)
    if mode is None:
        text = "auto" if raw is None else os.environ.decodevalue(raw)
        mode = _modes[raw] = text.strip().lower()
    return mode


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
    """The cached module: one file per source and flags hash and
    interpreter ABI (``EXT_SUFFIX``, e.g.
    ``.cpython-311-x86_64-linux-gnu.so``)."""
    digest = hashlib.sha256(
        _SOURCE.read_bytes() + " ".join(_CFLAGS).encode()
    ).hexdigest()[:16]
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
        compiler, *_CFLAGS,
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
    """True when every call site takes the kernels."""
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
# mergeable folds                                                    #
# ------------------------------------------------------------------ #

#: The kernel's codes (OP_* and LIFT_* in reprokernels.c).
_FOLD_OPS = {"add": 0, "min": 1, "max": 2}
_UFUNC_OPS = {np.add: 0, np.minimum: 1, np.maximum: 2}
_LIFTS = {"value": 0, "square": 1, "one": 2}
_specs: "dict[tuple, bytes]" = {}


def absorb_spec(aggregate) -> "bytes | None":
    """The ``(op, lift)`` byte pair per component that
    :func:`absorb_panes` folds, from the aggregate's
    ``native_components``; ``None`` when it declares none."""
    components = getattr(aggregate, "native_components", None)
    if components is None:
        return None
    spec = _specs.get(components)
    if spec is None:
        spec = _specs[components] = bytes(
            code
            for op, lift in components
            for code in (_FOLD_OPS[op], _LIFTS[lift])
        )
    return spec


def absorb_panes(ts, keys, values, pane, shift, spec, stores) -> int:
    """Fold a raw run into ``stores`` (the raw operator's C-contiguous
    ``(num_keys, capacity)`` pane stores, one per component): event
    ``i`` lands at row ``keys[i]``, column ``ts[i] // pane + shift``,
    each component's lifted value folded in input order — what
    ``ufunc.at`` over the flat codes does.  Returns -1, or the index of
    the first event whose cell lies outside the stores, in which case
    nothing was written."""
    return _load().absorb_panes(
        np.ascontiguousarray(ts, dtype=np.int64),
        np.ascontiguousarray(keys, dtype=np.int64),
        np.ascontiguousarray(values, dtype=np.float64),
        pane, shift, spec, stores,
    )


def fold_op(ufunc) -> "int | None":
    """The kernel's code for a fold ufunc (add, minimum, maximum)."""
    return _UFUNC_OPS.get(ufunc)


def fold_sets(op, comp, first, stride, width, count) -> "np.ndarray | None":
    """``out[:, m]`` = the left fold of ``comp[:, first + m*stride +
    j]`` over ``j < width``, in passes, as a fresh ``(rows, count)``
    array; ``None`` when ``comp`` is not a float64 view with unit inner
    stride (the caller's NumPy passes then take it)."""
    out = np.empty((comp.shape[0], count))
    if _load().fold_sets(op, comp, first, stride, width, count, out):
        return out
    return None


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


# ------------------------------------------------------------------ #
# the front door: reorder and route                                  #
# ------------------------------------------------------------------ #

def reorder_run(ts, keys, values, held, max_seen, max_lateness):
    """The body of ``ReorderBuffer.push_batch`` before its watermark
    cut, in one call: ``((ts, keys, values), late, worst, max_seen)``
    — the carried columns ``held`` and the block's accepted events as
    their stable timestamp sort, the late count, the worst lateness
    past ``max_lateness`` and the new running maximum — or ``None``
    when the block goes to the NumPy body whole: a negative timestamp
    (which it rejects), a column that is not C-contiguous
    int64/int64/float64, or an out-of-order block spanning more than
    about four ticks an event (the counting sort's table would outgrow
    it)."""
    size = ts.size + held[0].size
    ids = np.empty((2, size), dtype=np.int64)
    out = np.empty(size, dtype=np.float64)
    run = _load().reorder_run(
        ts, keys, values, *held, max_seen, max_lateness, ids, out
    )
    if run is None:
        return None
    m, late, worst, max_seen = run
    return (ids[0, :m], ids[1, :m], out[:m]), late, worst, max_seen


def route_run(ts, keys, values, ends, partitioner, pending):
    """The integer half of ``ShardedSession._buffer_run``, in one call:
    ``(steps, bounds, owner, split)``, or ``None`` — ``pending``
    untouched — when the run goes to the NumPy body (a column of
    another dtype or layout, a key or end outside its table).

    ``steps[s]`` for ``s < len(ends)`` is what the NumPy body adds to
    the decayed loads at ``ends[s]``: the slot counts of the run's
    ``s``-th segment, the first plus the ``pending`` counts owed from
    before (the last row is the kernel's scratch); ``pending`` (the
    session's int64 counts, updated in place) ends holding the events
    after the last end.  ``bounds[j]`` is the number of events
    on shards below ``j``; ``owner`` the shard holding the whole run
    (-1 when none does); ``split = (ts, local, values)``: with an
    owner, ``local`` is every event's local id in input order, else
    the three columns hold shard ``j``'s events, in input order, at
    ``[bounds[j], bounds[j + 1])``."""
    n = ts.size
    steps = np.empty((len(ends) + 1, partitioner.num_slots), dtype=np.int64)
    bounds = np.empty(partitioner.num_shards + 1, dtype=np.int64)
    ids = np.empty((2, n), dtype=np.int64)
    out = np.empty(n, dtype=np.float64)
    owner = _load().route_run(
        ts, keys, values, ends, partitioner.slot_of_key,
        partitioner.slot_map, partitioner.local_id, pending, steps, bounds,
        ids, out,
    )
    if owner is None:
        return None
    return steps, bounds, owner, (ids[1], ids[0], out)

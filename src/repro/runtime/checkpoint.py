"""Durable session snapshots (DESIGN.md §9, invariant 12).

A *snapshot* is a whole-session capture taken at a safe watermark: the
reorder buffer, every group's operator state and provider partials,
the subscription routing table, the retired-result archive, the
registered workload with its plan generation, and — in async mode —
the ingest-queue residue.  It generalizes the engine's
``handoff()``/``adopt()`` operator-state transplant
(:mod:`repro.engine.streaming`): where a plan switch transplants state
between operator generations *inside* one process, a snapshot
transplants the entire session across process lifetimes.  The contract
is the same in both directions — **bit-identical resumption**: a
session restored from a snapshot and fed the remainder of the stream
emits exactly what the uninterrupted session would have
(``tests/runtime/test_checkpoint.py`` holds this as a property across
every backend × ingest combination).

This module owns the *format*, not the capture: the session front
door assembles the payload
(:meth:`~repro.runtime.ingest.SessionFrontDoor.snapshot`) and hands it
to :func:`write_checkpoint`.
On disk a checkpoint is::

    magic (6) | version (u16 LE) | sha256(body) (32) | body (pickle)

— the checksummed atomic container of :mod:`repro.runtime.container`
(shared with ``.rstream`` captures): a crash mid-write can never leave
a truncated file that :func:`read_checkpoint` would trust, and a
corrupt or torn file fails the checksum and raises, it never restores
garbage.  See ``docs/durability.md`` for the full format and
the safe-watermark rules.
"""

from __future__ import annotations

import pickle
import re
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ExecutionError
from .container import read_framed, write_framed

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "Snapshot",
    "latest_checkpoint",
    "read_checkpoint",
    "write_checkpoint",
]

#: File magic — identifies a factor-windows checkpoint.
CHECKPOINT_MAGIC = b"RCKPT\x00"

#: Format version; bumped on any incompatible payload change.
#: v3: one state-graph layout for both session kinds (front-door fields
#: beside a per-class ``session`` entry; DESIGN.md §9) — a v2 graph
#: keeps them under per-class keys ``restore`` no longer reads.
#: v4: the chunk clock (watermark, chunk end, pending count, staged
#: events) travels in the front door's frame — a v3 graph keeps it in
#: the pickled core / the coordinator's fields, where nothing reads it.
#: v5: the async residue has two data kinds, events and column runs —
#: a v4 residue may hold a sorted-batch item, and tags its runs and
#: calls with the numbers that now mean something else.
#: v6: one snapshot kind — a v5 ``Snapshot`` carries a ``kind`` field,
#: its one-shard kind holds a bare core where every session now keeps a
#: coordinator, and a v5 coordinator carries a slot-bytes counter that
#: is now derived from the slot-event counter.
#: v7: a raw operator keeps its panes in one store with a column cursor
#: and a coordinator owes buffered events to its slot loads — a v6 raw
#: operator holds a bare pane list and a v6 coordinator no such count.
#: v8: settings no caller turned are constants — a v7 coordinator
#: carries the factor-window switch and the retired-result cap, a v7
#: core the cap, and a v7 reorder buffer its retained late-event log.
CHECKPOINT_VERSION = 8

#: Checkpoint filename shape used by :class:`CheckpointStore`.
_CKPT_NAME = re.compile(r"^ckpt-(\d{12})\.rckpt$")


@dataclass
class Snapshot:
    """One whole-session capture, in memory.

    ``watermark`` is the safe watermark of the cut, and ``payload`` is
    the session-assembled state graph (pickled wholesale, so shared
    references — e.g. the rate controller inside the rate observer —
    survive).  ``meta`` is caller-owned (the CLI stores its stream
    position there so ``restore`` can resume the synthetic stream
    deterministically).
    """

    watermark: int
    generation: int
    queries: tuple
    payload: dict
    meta: dict = field(default_factory=dict)


def write_checkpoint(snapshot: Snapshot, path: "str | Path") -> Path:
    """Serialize ``snapshot`` to ``path`` atomically; returns the path
    (readers only ever observe a complete checkpoint or the previous
    one — :func:`~repro.runtime.container.write_framed`)."""
    body = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
    return write_framed(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, body)


def read_checkpoint(path: "str | Path") -> Snapshot:
    """Load and verify one checkpoint file.

    Raises :class:`~repro.errors.ExecutionError` on a missing file, a
    foreign or truncated header, a version mismatch, or a checksum
    failure — a checkpoint either restores exactly or not at all.
    """
    body = read_framed(
        path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint", "checkpoint"
    )
    snapshot = pickle.loads(body)
    if not isinstance(snapshot, Snapshot):  # pragma: no cover - defensive
        raise ExecutionError(f"{path}: body is not a Snapshot")
    return snapshot


def _scan(directory: "str | Path") -> "list[Path]":
    """Every checkpoint file in ``directory``, oldest watermark first
    (the watermark is encoded in the filename)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _CKPT_NAME.match(entry.name)
        if match is not None:
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


def latest_checkpoint(directory: "str | Path") -> "Path | None":
    """The newest checkpoint in a :class:`CheckpointStore` directory
    (by watermark encoded in the filename), or ``None``."""
    paths = _scan(directory)
    return paths[-1] if paths else None


def require_cadence(store: "CheckpointStore | None") -> "CheckpointStore | None":
    """Validate a store handed to a session's ``auto_checkpoint=``.

    In-session auto-checkpointing is cadence-driven (:meth:`due` is
    consulted after every applied push), so a store constructed without
    ``every=`` would silently never checkpoint — fail loudly instead."""
    if store is not None and store.every is None:
        raise ExecutionError(
            "auto_checkpoint needs a cadence: construct the "
            "CheckpointStore with every=<ticks> (a store without a "
            "cadence would never be due)"
        )
    return store


class CheckpointStore:
    """A rotating directory of checkpoints: ``ckpt-<watermark>.rckpt``.

    ``keep`` bounds retention (oldest watermarks deleted first; the
    newest is never deleted).  ``every`` expresses the CLI's
    ``--checkpoint-every`` cadence: :meth:`due` is true once the
    watermark has advanced ``every`` or more ticks past the last save.
    """

    def __init__(
        self,
        directory: "str | Path",
        keep: int = 4,
        every: "int | None" = None,
    ):
        if keep < 1:
            raise ExecutionError(f"keep must be >= 1, got {keep}")
        if every is not None and every < 1:
            raise ExecutionError(f"every must be >= 1, got {every}")
        self.directory = Path(directory)
        self.keep = keep
        self.every = every
        self._last_saved: "int | None" = None

    def due(self, watermark: int) -> bool:
        """Whether the cadence calls for a checkpoint at ``watermark``."""
        if self.every is None:
            return False
        if self._last_saved is None:
            return watermark >= self.every
        return watermark - self._last_saved >= self.every

    def path_for(self, watermark: int) -> Path:
        if watermark < 0:  # pragma: no cover - defensive
            raise ExecutionError(f"negative watermark {watermark}")
        return self.directory / f"ckpt-{watermark:012d}.rckpt"

    def save(self, snapshot: Snapshot) -> Path:
        """Write one checkpoint and rotate old ones out."""
        path = write_checkpoint(snapshot, self.path_for(snapshot.watermark))
        self._last_saved = snapshot.watermark
        self._rotate()
        return path

    def paths(self) -> "list[Path]":
        """Every checkpoint in the store, oldest watermark first."""
        return _scan(self.directory)

    def latest(self) -> "Path | None":
        return latest_checkpoint(self.directory)

    def _rotate(self) -> None:
        paths = self.paths()
        for stale in paths[: max(0, len(paths) - self.keep)]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - defensive
                pass

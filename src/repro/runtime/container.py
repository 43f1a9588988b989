"""The checksummed atomic file container ``.rckpt`` and ``.rstream`` share.

On disk::

    magic | version (u16 LE) | sha256(body) (32) | body

:func:`write_framed` stages the whole file in a sibling temp file,
``fsync``s it, and publishes it with one ``os.replace`` — a reader only
ever observes a complete file or the previous one.  :func:`read_framed`
verifies magic, version and checksum before returning the body, and
raises :class:`~repro.errors.ExecutionError` otherwise: a torn or
tampered file is refused, never partially trusted.  What the body *is*
(a pickled :class:`~repro.runtime.checkpoint.Snapshot`, a JSON header
plus raw columns) is the caller's business.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from pathlib import Path

from ..errors import ExecutionError

__all__ = ["read_framed", "write_framed"]

_VERSION_WORD = struct.Struct("<H")
_DIGEST_BYTES = 32


def write_framed(
    path: "str | Path", magic: bytes, version: int, body: bytes
) -> Path:
    """Frame ``body`` and write it to ``path`` atomically."""
    path = Path(path)
    header = magic + _VERSION_WORD.pack(version) + hashlib.sha256(body).digest()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            # Two writes, not one joined blob: a body larger than the
            # buffer goes straight to the file, never copied.
            handle.write(header)
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_framed(
    path: "str | Path", magic: bytes, version: int, noun: str, title: str
) -> bytes:
    """Read and verify one framed file; returns its body.

    ``noun`` and ``title`` name the format in the error messages
    (``"capture"`` / ``"stream capture"``)."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise ExecutionError(f"cannot read {noun} {path}: {exc}") from exc
    offset = len(magic) + _VERSION_WORD.size
    if len(blob) < offset + _DIGEST_BYTES or not blob.startswith(magic):
        raise ExecutionError(f"{path} is not a factor-windows {title}")
    (found,) = _VERSION_WORD.unpack_from(blob, len(magic))
    if found != version:
        raise ExecutionError(
            f"{path}: {noun} format v{found} is not supported "
            f"(this build reads v{version})"
        )
    body = blob[offset + _DIGEST_BYTES :]
    if hashlib.sha256(body).digest() != blob[offset : offset + _DIGEST_BYTES]:
        raise ExecutionError(
            f"{path}: checksum mismatch — {noun} is corrupt or torn"
        )
    return body

"""The worker-pipe codec (DESIGN.md §8, "Control pipe").

``_send_msg`` / ``_recv_msg`` carry every message between the
coordinator and a shard worker: a head, a protocol-5 pickle skeleton,
then one raw part per contiguous array.  These tests drive a real
``multiprocessing.Pipe``: what arrives must be bit-identical, writable
and unaliased, and a sender that dies between parts must surface as
``dead`` (or ``stall``, if it lives on silently), never as a hang.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.runtime.core import ShardReport
from repro.runtime.results import WindowResults
from repro.runtime.sharding import (
    _CONTROL_POLL_SECONDS,
    ProcessShardBackend,
    _frame,
    _recv_msg,
    _send_msg,
    _write_all,
)
from repro.windows.window import Window


def _report() -> ShardReport:
    rng = np.random.default_rng(7)
    window = Window(40, 10)
    key_ids = np.array([1, 4, 6, 9], dtype=np.int64)
    return ShardReport(
        results={
            "q": {
                window: WindowResults(
                    query="q",
                    window=window,
                    start_instance=3,
                    frontier=20,
                    values=rng.normal(size=(4, 12)),
                )
            }
        },
        key_ids=key_ids,
        # Nested arrays: per (query, window), a list of segments, each
        # a tuple holding two arrays.
        sealed={
            ("q", window): [
                (np.array([1, 2, 9]), 3, rng.normal(size=(3, 5))),
                (np.array([0, 5]), 8, rng.normal(size=(2, 7))),
            ],
            ("r", window): [
                (np.array([3, 7, 8]), 0, rng.normal(size=(3, 20)))
            ],
        },
    )


def _arrays(obj) -> "list[np.ndarray]":
    """Every array reachable from a message, in a fixed order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        obj = [value for _, value in sorted(obj.items(), key=repr)]
    elif not isinstance(obj, (list, tuple)):
        return []
    return [array for item in obj for array in _arrays(item)]


def _round_trip(obj):
    """Send ``obj`` from a thread (a large part would fill the pipe
    before anyone reads it) and receive it on the other end."""
    parent, child = multiprocessing.Pipe()
    sender = threading.Thread(target=_send_msg, args=(child, obj))
    try:
        sender.start()
        received = _recv_msg(parent)
    finally:
        sender.join()
        parent.close()
        child.close()
    return received


def _assert_same_arrays(sent, received) -> None:
    sent_arrays, got_arrays = _arrays(sent), _arrays(received)
    assert len(got_arrays) == len(sent_arrays) > 0
    for before, after in zip(sent_arrays, got_arrays):
        assert after.dtype == before.dtype
        assert after.shape == before.shape
        assert after.tobytes() == before.tobytes()  # bits, NaN included
        assert after.flags.writeable
        assert not np.shares_memory(after, before)
    for i, first in enumerate(got_arrays):
        for second in got_arrays[i + 1 :]:
            assert not np.shares_memory(first, second)


def test_shard_report_round_trips():
    report = _report()
    report.results["q"][Window(40, 10)].values[0, 0] = np.nan
    received = _round_trip(("ok", report))
    assert received[0] == "ok"
    got = received[1]
    assert isinstance(got, ShardReport)
    assert got.results.keys() == report.results.keys()
    assert got.sealed.keys() == report.sealed.keys()
    _assert_same_arrays(report, got)


@pytest.mark.parametrize(
    "array",
    [
        np.empty((5, 0)),
        np.empty((0, 7)),
        np.arange(48.0).reshape(6, 8)[:, ::3],  # non-contiguous view
        np.asfortranarray(np.arange(48.0).reshape(6, 8)),
        np.array([0, -3, 2**40], dtype=np.int64),  # key ids
    ],
    ids=["k_by_0", "0_by_n", "strided_view", "fortran", "int64_keys"],
)
def test_arrays_round_trip(array):
    received = _round_trip(("feed", (array, array.copy())))
    assert received[0] == "feed"
    _assert_same_arrays((array, array.copy()), received[1])
    if array.flags.f_contiguous and not array.flags.c_contiguous:
        assert received[1][0].flags.f_contiguous


def test_bytes_blob_keeps_its_type():
    blob = bytes(range(256)) * 4
    assert _round_trip(("restore", blob)) == ("restore", blob)


def test_many_messages_keep_their_order():
    messages = [("advance", i, np.full(i, float(i))) for i in range(20)]
    parent, child = multiprocessing.Pipe()

    def send_all():
        for msg in messages:
            _send_msg(child, msg)

    sender = threading.Thread(target=send_all)
    try:
        sender.start()
        received = [_recv_msg(parent) for _ in messages]
    finally:
        sender.join()
        parent.close()
        child.close()
    for msg, got in zip(messages, received):
        assert got[:2] == msg[:2]
        assert np.array_equal(got[2], msg[2])


def test_large_and_many_parts_round_trip():
    """A part far past the pipe buffer, and more parts than one
    ``writev`` / ``readv`` call takes."""
    big = np.random.default_rng(3).normal(size=(1000, 1000))
    small = [np.full(i % 7, float(i)) for i in range(3000)]
    kind, got_big, got_small = _round_trip(("ok", big, small))
    assert kind == "ok"
    assert got_big.tobytes() == big.tobytes() and got_big.flags.writeable
    assert len(got_small) == len(small)
    for before, after in zip(small, got_small):
        assert after.tobytes() == before.tobytes()


def _send_header_only(conn, obj) -> None:
    """Send a message's head and skeleton, but none of its parts."""
    _write_all(conn.fileno(), _frame(obj)[:2])


@pytest.mark.parametrize("cut", ["head", "skeleton", "mid_part"])
def test_sender_closing_mid_message_is_eof(cut):
    frame = _frame(("ok", _report()))
    sent = {
        "head": frame[:1],
        "skeleton": frame[:2],
        "mid_part": frame[:2] + [frame[2][: frame[2].nbytes // 2]],
    }[cut]
    parent, child = multiprocessing.Pipe()
    try:
        _write_all(child.fileno(), sent)
        child.close()
        with pytest.raises(EOFError):
            _recv_msg(parent)
    finally:
        parent.close()
        child.close()


def _header_then(conn, linger: float) -> None:
    _send_header_only(conn, ("ok", _report()))
    time.sleep(linger)


def _reply_from_header_only_worker(linger: float, timeout: float):
    """``_recv_reply`` against a worker that sends a reply's header and
    then sends nothing: it exits at once, or lingers alive."""
    ctx = multiprocessing.get_context()
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_header_then, args=(child, linger), daemon=True)
    backend = ProcessShardBackend()
    backend.configure(None, recovery=False, control_timeout=timeout)
    try:
        proc.start()
        child.close()
        if linger == 0:
            proc.join(timeout=10.0)
        backend._conns, backend._procs = [parent], [proc]
        started = time.monotonic()
        reply = backend._recv_reply(0)
        return reply, time.monotonic() - started
    finally:
        proc.kill()
        proc.join(timeout=10.0)
        parent.close()


def test_worker_dying_mid_reply_is_dead_within_a_poll_step():
    (kind, payload, cause), elapsed = _reply_from_header_only_worker(
        linger=0.0, timeout=10.0
    )
    assert (kind, payload) == ("dead", None)
    assert "control connection lost" in cause
    assert elapsed < _CONTROL_POLL_SECONDS


def test_worker_silent_mid_reply_is_a_stall():
    (kind, payload, cause), elapsed = _reply_from_header_only_worker(
        linger=30.0, timeout=0.3
    )
    assert (kind, payload) == ("stall", None)
    assert "no reply within" in cause
    assert 0.3 <= elapsed < 0.3 + 4 * _CONTROL_POLL_SECONDS

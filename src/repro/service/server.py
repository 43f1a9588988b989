"""The JSON-lines TCP front door: one blocking thread per connection.

:class:`ServiceServer` is a deliberately thin pipe onto
:meth:`SessionManager.handle`.  An accept loop hands every connection
to its own handler thread, which reads a line (and the ingest frame
that may follow it), decodes it, runs the request (the manager is
thread-safe; sessions hold the GIL-releasing numpy work) and writes
exactly one reply line — a request never changes threads between the
socket and its reply.  All protocol semantics — admission control,
supervision, error shapes — live in the manager, which is what lets
the chaos suite drive the *same* code path in-process with
deterministic interleavings while this module only ever moves bytes.

Per connection, requests are strictly sequential (read → dispatch →
reply → settle → read): replies can never reorder against their
requests, and a client gets natural backpressure on its own socket.
The checkpoint a request made due is written *after* its reply is sent
(:meth:`SessionManager.settle`, in a worker slot, also when the send
fails), on the same thread: the reply never promised durability — the
manager's replay tail covers it in memory — so the write does not
stand between a request and its answer.  A later op on the tenant
waits for it (:meth:`SessionManager.dispatch` writes an owed
checkpoint first), so every cut is the one an in-process
:meth:`SessionManager.handle` makes.  What bounds the
transport's memory: one in-flight request per connection, a request
line and a frame of at most :data:`MAX_LINE_BYTES` each, and at most
``max_workers`` requests inside the manager at once (a connection
beyond that waits its turn) — the transport half of the
no-unbounded-queueing story (the manager's byte budget is the
admission half).

Two ops are served by the transport itself, not the manager:

* ``{"op": "ping"}`` → ``{"ok": true, "pong": true}`` — liveness.
* ``{"op": "shutdown"}`` → ``{"ok": true, "stopping": true}`` — stop
  the server (the manager is left to its owner to close).

``serve_in_thread`` / :meth:`ServiceServer.start` run the accept loop
in a daemon thread for tests and embedding; :meth:`ServiceServer.run`
blocks in the caller's thread for the CLI.
"""

from __future__ import annotations

import selectors
import socket
import threading
from contextlib import suppress

import numpy as np

from ..errors import ExecutionError
from .manager import SessionManager
from .protocol import FRAME_ROW, BadRequest, decode_line, encode_line

__all__ = ["MAX_LINE_BYTES", "ServiceServer", "serve_in_thread"]

#: Longest request line the transport reads (newline included).  An
#: event weighs 24 bytes against ``queue_budget_bytes`` and 20–60 on
#: the wire, so this is every batch the default 1 MiB budget can admit
#: (43 690 events, under 3 MiB of JSON) with room for a tenant that
#: raised its budget fivefold; a longer line is discarded and answered
#: ``bad_request`` — split the batch.  An ingest frame (24 bytes an
#: event) has the same bound.
MAX_LINE_BYTES = 16 << 20


class _Unframed(BadRequest):
    """A frame length that cannot be trusted: there is no telling where
    the next request starts, so the reply is the connection's last."""


def _encoded(reply: dict) -> bytes:
    """The reply line — or, when the reply cannot be encoded, a
    ``failed`` one: the client always gets its answer."""
    try:
        return encode_line(reply)
    except Exception as exc:  # noqa: BLE001 - the reply must exist
        return encode_line(
            {
                "ok": False,
                "error": "failed",
                "detail": f"reply cannot be encoded: "
                f"{type(exc).__name__}: {exc}",
            }
        )


class ServiceServer:
    """Serve one :class:`SessionManager` over JSON-lines TCP.

    ``port=0`` (the default) binds an ephemeral port; read the bound
    address from :attr:`host` / :attr:`port` after :meth:`start` (or
    inside :meth:`run` via ``on_started``).  The server never closes
    the manager — its owner does — so a stopped server can be
    restarted on the same manager without losing tenant state.
    """

    def __init__(
        self,
        manager: SessionManager,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
    ):
        self.manager = manager
        self.host = host
        self.port = port
        self.max_workers = max_workers
        self._slots = threading.BoundedSemaphore(max_workers)
        self._thread: "threading.Thread | None" = None
        self._wake: "socket.socket | None" = None
        self._stopping = threading.Event()

    # ------------------------------------------------------------------
    # Accept loop
    # ------------------------------------------------------------------
    def _bind(self) -> None:
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        try:
            self._listener = socket.create_server(
                (self.host, self.port), family=family
            )
        except OSError as exc:
            raise ExecutionError(
                f"cannot bind service on {self.host}:{self.port}: {exc}"
            ) from exc
        self._listener.setblocking(False)  # accept() must never wait
        self.port = self._listener.getsockname()[1]
        # Closing a listener does not portably wake a thread waiting
        # on it; the loop also waits on one end of this pair, and
        # closing the other end is the wake-up.
        self._wake, self._woken = socket.socketpair()
        self._stopping.clear()

    def _request_stop(self) -> None:
        self._stopping.set()
        if self._wake is not None:
            self._wake.close()

    def _serve(self) -> None:
        """Accept until told to stop, then wind every connection down:
        a handler blocked in ``readline`` wakes to EOF, one inside a
        request finishes and answers it first."""
        handlers: "dict[socket.socket, threading.Thread]" = {}
        try:
            with selectors.DefaultSelector() as ready:
                ready.register(self._listener, selectors.EVENT_READ)
                ready.register(self._woken, selectors.EVENT_READ)
                while not self._stopping.is_set():
                    ready.select()
                    self._accept(handlers)
        finally:
            for sock in (self._listener, self._wake, self._woken):
                sock.close()
            for conn in handlers:
                with suppress(OSError):  # its handler closed it first
                    conn.shutdown(socket.SHUT_RD)
            for thread in handlers.values():
                thread.join()

    def _accept(self, handlers: dict) -> None:
        """Give one new connection its thread.  Only the accept thread
        touches ``handlers``: finished ones are dropped here, so the
        map tracks open connections without a lock."""
        try:
            conn, _ = self._listener.accept()
        except OSError:
            # Woken to stop, the client already gave up, or the process
            # is out of descriptors: never spin on a readable listener.
            self._stopping.wait(0.05)
            return
        for done in [c for c, t in handlers.items() if not t.is_alive()]:
            del handlers[done]
        handlers[conn] = thread = threading.Thread(
            target=self._serve_connection, args=(conn,),
            name="repro-service-handler", daemon=True,
        )
        thread.start()

    # ------------------------------------------------------------------
    # One connection, one thread
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn, conn.makefile("rb") as reader:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                while not self._stopping.is_set() and (
                    line := reader.readline(MAX_LINE_BYTES)
                ):
                    if line.isspace():
                        continue
                    reply, last, tenant = self._reply(line, reader)
                    try:
                        conn.sendall(_encoded(reply))
                    finally:
                        if tenant is not None:
                            with self._slots:
                                self.manager.settle(tenant)
                    if reply.get("stopping"):
                        self._request_stop()
                    if last:
                        break
        except (OSError, EOFError):
            pass  # client went away mid-exchange; nothing to clean up

    def _reply(self, line: bytes, reader) -> "tuple[dict, bool, object]":
        """The reply to one request, whether it is the connection's
        last, and the tenant to settle after sending it (``None``: the
        request never reached the manager)."""
        try:
            if len(line) == MAX_LINE_BYTES and not line.endswith(b"\n"):
                rest = line  # discard up to the newline (or EOF)
                while rest and not rest.endswith(b"\n"):
                    rest = reader.readline(1 << 16)
                raise BadRequest(
                    f"request line exceeds {MAX_LINE_BYTES} bytes"
                )
            request = decode_line(line)
            if "frame" in request:
                request = self._read_frame(request, reader)
        except BadRequest as exc:
            reply = {"ok": False, "error": "bad_request", "detail": str(exc)}
            return reply, isinstance(exc, _Unframed), None
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}, False, None
        if op == "shutdown":
            return {"ok": True, "stopping": True}, True, None
        with self._slots:
            reply = self.manager.dispatch(request)
        return reply, False, request.get("tenant")

    @staticmethod
    def _read_frame(request: dict, reader) -> dict:
        """Read the frame the request line announced; the request comes
        back with the frame's table as its ``events``.  A frame that can
        be skipped is consumed whole before it is refused, so the
        connection stays in step; EOF inside one applies nothing."""
        size = request["frame"]
        if type(size) is not int or not 0 <= size <= MAX_LINE_BYTES:
            raise _Unframed(
                f"'frame' must be a byte count in [0, {MAX_LINE_BYTES}], "
                f"got {size!r}"
            )
        payload = reader.read(size)
        if len(payload) < size:
            raise EOFError("connection closed inside a frame")
        if request.get("op") != "ingest":
            raise BadRequest("only an ingest request may carry a 'frame'")
        if "events" in request:
            raise BadRequest("an ingest carries 'events' or 'frame', not both")
        if size % FRAME_ROW.itemsize:
            raise BadRequest(
                f"frame of {size} bytes is not whole rows of "
                f"{FRAME_ROW.itemsize} bytes"
            )
        return {**request, "events": np.frombuffer(payload, FRAME_ROW)}

    # ------------------------------------------------------------------
    # Blocking entry point (CLI)
    # ------------------------------------------------------------------
    def run(self, on_started=None) -> None:
        """Serve in the calling thread until ``shutdown`` or
        :meth:`stop`; ``on_started(server)`` fires once the port is
        bound (the CLI prints the address from it)."""
        self._bind()
        if on_started is not None:
            on_started(self)
        self._serve()

    # ------------------------------------------------------------------
    # Threaded entry point (tests, embedding)
    # ------------------------------------------------------------------
    def start(self) -> "ServiceServer":
        """Serve on a daemon thread; returns once the port is bound
        (raises if binding failed)."""
        if self._thread is not None:
            raise ExecutionError("service server already started")
        self._bind()
        self._thread = threading.Thread(
            target=self._serve, name="repro-service", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting, wind down every connection and join every
        thread the server started (idempotent).  The manager is *not*
        closed — it outlives the transport."""
        self._request_stop()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():  # pragma: no cover - defensive
                raise ExecutionError("service server did not stop")
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(
    manager: SessionManager,
    host: str = "127.0.0.1",
    port: int = 0,
    max_workers: int = 8,
) -> ServiceServer:
    """Start a :class:`ServiceServer` on a daemon thread and return it
    (already bound; address on ``.host`` / ``.port``)."""
    return ServiceServer(manager, host, port, max_workers).start()

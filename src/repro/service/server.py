"""The JSON-lines TCP front door: one blocking thread per connection.

:class:`ServiceServer` is a deliberately thin pipe onto
:meth:`SessionManager.handle`.  An accept loop hands every connection
to its own handler thread, which reads a line, decodes it, runs the
request (the manager is thread-safe; sessions hold the GIL-releasing
numpy work) and writes exactly one reply line — a request never
changes threads between the socket and its reply.  All protocol
semantics — admission control, supervision, error shapes — live in the
manager, which is what lets the chaos suite drive the *same* code path
in-process with deterministic interleavings while this module only
ever moves bytes.

Per connection, requests are strictly sequential (read → handle →
reply → read): replies can never reorder against their requests, and a
client gets natural backpressure on its own socket.  What bounds the
transport's memory: one in-flight request per connection, a request
line of at most :data:`MAX_LINE_BYTES`, and at most ``max_workers``
requests inside the manager at once (a connection beyond that waits
its turn) — the transport half of the no-unbounded-queueing story (the
manager's byte budget is the admission half).

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

from ..errors import ExecutionError
from .manager import SessionManager
from .protocol import BadRequest, decode_line, encode_line

__all__ = ["MAX_LINE_BYTES", "ServiceServer", "serve_in_thread"]

#: Longest request line the transport reads (newline included).  An
#: event weighs 24 bytes against ``queue_budget_bytes`` and 20–60 on
#: the wire, so this is every batch the default 1 MiB budget can admit
#: (43 690 events, under 3 MiB of JSON) with room for a tenant that
#: raised its budget fivefold; a longer line is discarded and answered
#: ``bad_request`` — split the batch.
MAX_LINE_BYTES = 16 << 20


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
                    reply = self._reply(line, reader)
                    conn.sendall(encode_line(reply))
                    if reply.get("stopping"):
                        self._request_stop()
                        break
        except OSError:
            pass  # client went away mid-exchange; nothing to clean up

    def _reply(self, line: bytes, reader) -> dict:
        try:
            if len(line) == MAX_LINE_BYTES and not line.endswith(b"\n"):
                rest = line  # discard up to the newline (or EOF)
                while rest and not rest.endswith(b"\n"):
                    rest = reader.readline(1 << 16)
                raise BadRequest(
                    f"request line exceeds {MAX_LINE_BYTES} bytes"
                )
            request = decode_line(line)
        except BadRequest as exc:
            return {"ok": False, "error": "bad_request", "detail": str(exc)}
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "shutdown":
            return {"ok": True, "stopping": True}
        with self._slots:
            return self.manager.handle(request)

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

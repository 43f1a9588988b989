"""A dependency-free blocking client for the session service.

:class:`ServiceClient` speaks the JSON-lines protocol over one TCP
connection, and ships every ``ingest`` batch as a binary frame (the
float64 table the server validates) after its header line.
:meth:`request` is the raw exchange (one dict in, one dict out); the
typed convenience methods raise the protocol's failure shapes as
exceptions — :class:`~repro.service.protocol.Overloaded`
with its ``reason`` and ``retry_after``,
:class:`~repro.service.protocol.BadRequest`, and plain
:class:`~repro.errors.ExecutionError` for ``failed`` — so callers
handle overload explicitly instead of pattern-matching reply dicts.

Retries are *opt-in and bounded*: ``with_retry`` / ``ingest_with_retry``
wrap any op in a :class:`~repro.service.supervise.RetryPolicy`
(bounded attempts, exponential backoff, seeded jitter, optional wall
deadline) and honor the server's ``retry_after`` quote — the client
sleeps the *larger* of its own jittered backoff and the server's hint,
so it never hammers a breaker that told it exactly when to come back.
``bad_request`` is never retried (it is deterministic by contract).

Every exchange is bounded by the socket ``timeout``: a reply that does
not arrive in time raises, it does not hang the caller.  A timeout or
transport error closes the connection for good — the server may still
apply the request, and bytes of it may still be in flight — so every
later call raises without sending anything; open a new client.
"""

from __future__ import annotations

import socket
import time
from itertools import chain

import numpy as np

from ..errors import ExecutionError
from .protocol import (
    FRAME_ROW,
    BadRequest,
    Overloaded,
    decode_line,
    deserialize_results,
    encode_line,
)
from .supervise import RetryPolicy

__all__ = ["ServiceClient"]


def _frame_table(events: list) -> "np.ndarray | None":
    """``events`` as the ``(n, 3)`` float64 table an ingest frame
    carries, or ``None`` when some row is not three numbers (those go
    as JSON rows, so the server names the offending one)."""
    try:
        if isinstance(events, np.ndarray) and events.dtype != object:
            table = np.asarray(events, dtype=np.float64)
            return table if table.shape[1:] == (3,) else None
        if set(map(len, events)) - {3}:
            return None
        table = np.fromiter(
            chain.from_iterable(events), np.float64, 3 * len(events)
        ).reshape(-1, 3)
    except (TypeError, ValueError, OverflowError):
        return None
    # ``None`` converts to NaN: only the rows holding a NaN are looked at.
    for i in np.flatnonzero(np.isnan(table).any(axis=1)):
        if None in tuple(events[i]):
            return None
    return table


class ServiceClient:
    """One blocking JSON-lines connection to a :class:`ServiceServer`.

    Not thread-safe: one client per thread (the soak suite opens one
    per producer).  Usable as a context manager.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 30.0,
        sleeper=time.sleep,
    ):
        if port <= 0:
            raise ExecutionError(f"client needs a bound port, got {port}")
        self.host = host
        self.port = port
        self._sleep = sleeper
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=timeout
            )
        except OSError as exc:
            raise ExecutionError(
                f"cannot connect to service at {host}:{port}: {exc}"
            ) from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")
        self._closed: "str | None" = None  # why the connection is gone

    # ------------------------------------------------------------------
    # The raw exchange
    # ------------------------------------------------------------------
    def request(self, op: str, **fields) -> dict:
        """Send one request line, read one reply line (raw dict —
        failure shapes included, nothing raised but transport errors)."""
        return self._exchange(op, encode_line({"op": op, **fields}))

    def _exchange(self, op: str, data: bytes) -> dict:
        """Send ``data`` (one request), read its reply line.  After a
        timeout or transport error the connection is closed and every
        later exchange raises before sending."""
        if self._closed is not None:
            raise ExecutionError(
                f"service connection is closed ({self._closed}); "
                f"nothing sent (op={op!r})"
            )
        try:
            self._sock.sendall(data)
            reply = self._file.readline()
        except socket.timeout as exc:
            self._fail(
                f"service reply timed out after {self._sock.gettimeout()}s "
                f"(op={op!r})", exc
            )
        except OSError as exc:
            self._fail(f"service connection failed (op={op!r}): {exc}", exc)
        if not reply:
            self._fail(f"service closed the connection (op={op!r})")
        return decode_line(reply)

    def _fail(self, detail: str, cause: "Exception | None" = None):
        self._closed = detail
        self.close()
        raise ExecutionError(detail) from cause

    @staticmethod
    def _checked(reply: dict) -> dict:
        """Raise the typed exception for a failure reply."""
        if reply.get("ok"):
            return reply
        error = reply.get("error")
        if error == "overloaded":
            raise Overloaded(
                reply.get("reason", "rate_quota"),
                retry_after=float(reply.get("retry_after", 0.0)),
            )
        if error == "bad_request":
            raise BadRequest(str(reply.get("detail", "bad request")))
        raise ExecutionError(
            f"service request failed: {reply.get('detail', reply)}"
        )

    # ------------------------------------------------------------------
    # Typed ops
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self._checked(self.request("ping")).get("pong"))

    def shutdown(self) -> None:
        self._checked(self.request("shutdown"))

    def open(self, tenant: str, config: "dict | None" = None) -> dict:
        """Provision a tenant (idempotent); returns its effective
        config."""
        fields = {"tenant": tenant}
        if config is not None:
            fields["config"] = config
        return self._checked(self.request("open", **fields))["config"]

    def ingest(self, tenant: str, events) -> dict:
        """Push a batch of ``(ts, key, value)`` events; returns
        ``{"admitted": n, "watermark": w}``.  Raises
        :class:`Overloaded` when admission sheds the batch.  The batch
        goes as one float64 frame (an ``(n, 3)`` array, or rows of
        three numbers — NumPy scalars included).  The server validates
        it and rejects rather than rounds: converting to float64 keeps
        every id below 2**53 exact and rounds none above into that
        range.  Rows that are not three numbers go as JSON ``events``,
        so the server names the offending one."""
        if not isinstance(events, (list, np.ndarray)):
            events = list(events)
        table = _frame_table(events)
        if table is None:
            reply = self.request("ingest", tenant=tenant, events=events)
        else:
            payload = table.astype(FRAME_ROW.base, copy=False).tobytes()
            header = {"op": "ingest", "tenant": tenant, "frame": len(payload)}
            reply = self._exchange("ingest", encode_line(header) + payload)
        reply = self._checked(reply)
        return {
            "admitted": reply["admitted"],
            "watermark": reply["watermark"],
        }

    def register(
        self,
        tenant: str,
        query: str,
        name: str = "",
        scope: str = "per_key",
    ) -> str:
        reply = self._checked(
            self.request(
                "register", tenant=tenant, query=query, name=name,
                scope=scope,
            )
        )
        return reply["name"]

    def deregister(self, tenant: str, name: str) -> None:
        self._checked(self.request("deregister", tenant=tenant, name=name))

    def results(self, tenant: str, drain: bool = True) -> dict:
        """The tenant's merged results, deserialized back to
        ``{name: {Window: WindowResults}}`` (bit-identical to the
        server side)."""
        reply = self._checked(
            self.request("results", tenant=tenant, drain=drain)
        )
        return deserialize_results(reply["results"])

    def snapshot(self, tenant: str) -> dict:
        reply = self._checked(self.request("snapshot", tenant=tenant))
        return {"path": reply["path"], "watermark": reply["watermark"]}

    def stats(self, tenant: str) -> dict:
        reply = self._checked(self.request("stats", tenant=tenant))
        reply.pop("ok", None)
        return reply

    # ------------------------------------------------------------------
    # Bounded retries (overload-aware)
    # ------------------------------------------------------------------
    def with_retry(self, fn, policy: "RetryPolicy | None" = None):
        """Run ``fn()`` retrying :class:`Overloaded` sheds under a
        bounded :class:`RetryPolicy`, sleeping the larger of the
        policy's jittered backoff and the server's ``retry_after``
        quote.  ``BadRequest`` and ``failed`` are never retried; the
        final shed re-raises once the policy is exhausted."""
        policy = policy if policy is not None else RetryPolicy()
        delays = policy.delays()
        while True:
            try:
                return fn()
            except Overloaded as exc:
                try:
                    backoff = next(delays)
                except StopIteration:
                    raise exc from None  # policy exhausted: final shed
                self._sleep(max(backoff, exc.retry_after))

    def ingest_with_retry(
        self, tenant: str, events, policy: "RetryPolicy | None" = None
    ) -> dict:
        """:meth:`ingest`, retried through :meth:`with_retry` — the
        well-behaved producer loop the soak suite runs."""
        return self.with_retry(
            lambda: self.ingest(tenant, events), policy=policy
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._closed = self._closed or "closed by the caller"
        try:
            self._file.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

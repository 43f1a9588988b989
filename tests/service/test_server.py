"""The TCP front door: wire round-trips, failure shapes, lifecycle.

The server is a thin pipe onto ``SessionManager.handle`` — these tests
pin the transport's own obligations: one reply per request line in
order, parseable replies for unparseable requests, typed client-side
errors, bounded overload-aware retries, the binary ingest frame, and a
clean start/stop story.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.runtime import QuerySession
from repro.runtime.faults import Fault, FaultPlan
from repro.service import (
    BadRequest,
    Overloaded,
    RetryPolicy,
    ServiceClient,
    ServiceServer,
    SessionManager,
    serve_in_thread,
)
from repro.service import server as server_module
from repro.service.protocol import serialize_results
from service_helpers import (
    SQL_SUM,
    integer_events,
    open_fds,
    oracle_results,
    service_threads,
    settled,
)

NUM_KEYS = 4
CLOSED = "service closed the connection"
INGEST_ALICE = b'{"op":"ingest","tenant":"alice","events":[[1,0,1.0]]}\n'
PING = b'{"op": "ping"}\n'
SQL_TUMBLING_SUM = "SELECT SUM(v) FROM s GROUP BY WINDOWS(TUMBLING(second, 2))"


def raw_call(f, line: bytes) -> dict:
    """One raw line out, one reply line back, on ``makefile("rwb")``."""
    f.write(line)
    f.flush()
    return json.loads(f.readline())


def framed(rows, **header) -> bytes:
    """An ingest header line and the float64 frame of ``rows``."""
    payload = np.asarray(rows, dtype="<f8").reshape(-1, 3).tobytes()
    header = {"op": "ingest", "frame": len(payload), **header}
    return json.dumps(header).encode() + b"\n" + payload


@pytest.fixture
def served(tmp_path):
    """A running server over a defaults-config manager."""
    with SessionManager(
        {"defaults": {"num_keys": NUM_KEYS, "rate": 1e9, "burst": 1e9}},
        directory=tmp_path / "ckpt",
    ) as manager:
        server = serve_in_thread(manager)
        try:
            yield manager, server
        finally:
            server.stop()


class TestRoundTrips:
    def test_ping(self, served):
        _, server = served
        with ServiceClient(port=server.port) as client:
            assert client.ping()

    def test_full_tenant_flow_matches_oracle(self, served, repro_seed):
        _, server = served
        events = integer_events(40, NUM_KEYS, seed=repro_seed)
        with ServiceClient(port=server.port) as client:
            client.open("alice")
            assert client.register("alice", SQL_SUM) == "q1"
            out = client.ingest("alice", events)
            assert out["admitted"] == len(events)
            got = client.results("alice")
            stats = client.stats("alice")
            assert stats["stats"]["admitted_events"] == len(events)
        from repro.service.protocol import serialize_results

        expected = oracle_results(
            events, [(0, SQL_SUM, "", "per_key")], NUM_KEYS
        )
        assert serialize_results(got) == expected, f"seed={repro_seed}"

    def test_snapshot_over_the_wire(self, served):
        _, server = served
        with ServiceClient(port=server.port) as client:
            client.register("alice", SQL_SUM)
            client.ingest("alice", [(t, 0, 1.0) for t in range(1, 30)])
            snap = client.snapshot("alice")
            assert snap["watermark"] > 0

    def test_empty_instances_cross_the_wire_as_null(self, served):
        """An empty MIN instance is NaN, which strict JSON cannot
        spell: the reply used to raise in the connection handler after
        the drain had consumed the results — connection dropped,
        results lost.  It travels as ``null`` now."""
        _, server = served
        sql = "SELECT MIN(v) FROM s GROUP BY WINDOWS(TUMBLING(second, 5))"
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            f = sock.makefile("rwb")

            def call(request):
                f.write(json.dumps(request).encode() + b"\n")
                f.flush()
                return json.loads(f.readline())

            assert call({"op": "register", "tenant": "a", "query": sql})["ok"]
            # Key 1 never reports: every one of its instances is empty.
            events = [[t, 0, float(t)] for t in range(40)]
            assert call({"op": "ingest", "tenant": "a", "events": events})["ok"]
            reply = call({"op": "results", "tenant": "a"})
            assert reply["ok"], reply
            (block,) = reply["results"]["q1"]
            assert block["values"][0][:3] == [0.0, 5.0, 10.0]
            assert set(block["values"][1]) == {None}
            # The connection is still good for the next request.
            assert call({"op": "ping"})["ok"]
        with ServiceClient(port=server.port) as client:
            client.ingest("a", [[t, 0, float(t)] for t in range(40, 80)])
            (got,) = client.results("a")["q1"].values()
            assert np.isnan(got.values[1]).all()
            assert got.values[0, 0] == 35.0
        from repro.service.protocol import (
            deserialize_results,
            serialize_results,
        )

        payload = serialize_results({"q1": {got.window: got}})
        back = deserialize_results(payload)["q1"][got.window]
        assert back.values.tobytes() == got.values.tobytes()  # bit for bit

    def test_numpy_rows_go_on_the_wire_unrounded(self, served):
        _, server = served
        table = np.array([[1, 0, 1.5], [2, 1, 2.5]])
        with ServiceClient(port=server.port) as client:
            client.register("alice", SQL_SUM)
            assert client.ingest("alice", table)["admitted"] == 2
            rows = [(np.int64(3), np.int32(2), np.float64(0.5))]
            assert client.ingest("alice", rows)["admitted"] == 1
            # The client used to truncate this to ts=4 on its own.
            with pytest.raises(BadRequest, match=r"events\[0\]"):
                client.ingest("alice", [(4.5, 0, 1.0)])
            assert client.stats("alice")["stats"]["admitted_events"] == 3

    def test_replies_stay_in_request_order(self, served):
        _, server = served
        with ServiceClient(port=server.port) as client:
            client.register("alice", SQL_SUM)
            for ts in range(1, 50):
                out = client.ingest("alice", [(ts, ts % NUM_KEYS, 1.0)])
                assert out["admitted"] == 1

    def test_concurrent_clients_separate_tenants(self, served, repro_seed):
        _, server = served
        errors: list = []

        def run_tenant(tenant: str, seed: int) -> None:
            try:
                events = integer_events(30, NUM_KEYS, seed=seed)
                with ServiceClient(port=server.port) as client:
                    client.register(tenant, SQL_SUM)
                    client.ingest(tenant, events)
                    stats = client.stats(tenant)
                    assert stats["stats"]["admitted_events"] == len(events)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((tenant, exc))

        threads = [
            threading.Thread(target=run_tenant, args=(f"t{i}", repro_seed + i))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"seed={repro_seed}: {errors}"


class TestFailureShapes:
    def test_malformed_json_line_gets_a_reply(self, served):
        _, server = served
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            reply = json.loads(f.readline())
            assert reply["ok"] is False
            assert reply["error"] == "bad_request"
            # The connection survives a garbage line.
            f.write(b'{"op": "ping"}\n')
            f.flush()
            assert json.loads(f.readline())["ok"] is True

    def test_large_batch_is_one_request(self, served):
        """Any line past 64 KiB used to hit the stream reader's
        default limit: the connection died without a reply."""
        _, server = served
        events = [[i, i % NUM_KEYS, 1.0] for i in range(8000)]
        with ServiceClient(port=server.port) as client:
            client.open("a", {"rate": 1e9, "burst": 1e9})
            assert client.ingest("a", events)["admitted"] == 8000

    def test_overlong_line_is_discarded_and_answered(
        self, served, monkeypatch
    ):
        monkeypatch.setattr(server_module, "MAX_LINE_BYTES", 256)
        _, server = served
        events = [[i, 0, 1.0] for i in range(20_000)]  # many reads long
        line = json.dumps({"op": "ingest", "tenant": "a", "events": events})
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            f = sock.makefile("rwb")
            reply = raw_call(f, line.encode() + b"\n")
            assert reply == {
                "ok": False,
                "error": "bad_request",
                "detail": "request line exceeds 256 bytes",
            }
            # Nothing of the discarded line is read as a request.
            assert raw_call(f, b'{"op": "ping"}\n') == {
                "ok": True, "pong": True,
            }
            exact = b'{"op": "ping"}'.ljust(255) + b"\n"  # at the bound
            assert raw_call(f, exact)["pong"] is True

    def test_invalid_utf8_is_rejected_not_rewritten(self, served):
        """``errors="replace"`` used to open a tenant named
        ``a\ufffd`` — input the client never sent."""
        manager, server = served
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            f = sock.makefile("rwb")
            reply = raw_call(f, b'{"op":"open","tenant":"a\xff"}\n')
            assert reply["error"] == "bad_request"
            assert reply["detail"].startswith("malformed JSON line: ")
            assert manager.tenants == ()
            assert raw_call(f, b'{"op": "ping"}\n')["ok"] is True

    def test_non_object_line_is_bad_request(self, served):
        _, server = served
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            f = sock.makefile("rwb")
            f.write(b"[1, 2, 3]\n")
            f.flush()
            assert json.loads(f.readline())["error"] == "bad_request"

    def test_typed_client_errors(self, served):
        _, server = served
        with ServiceClient(port=server.port) as client:
            with pytest.raises(BadRequest):
                client.register("alice", "SELECT nonsense")
            client.open("limited", {"rate": 5.0, "burst": 5})
            client.register("limited", SQL_SUM)
            client.ingest("limited", [(1, 0, 1.0)] * 5)
            with pytest.raises(Overloaded) as exc_info:
                client.ingest("limited", [(2, 0, 1.0)] * 5)
            assert exc_info.value.reason == "rate_quota"
            assert exc_info.value.retry_after > 0

    def test_retry_honors_server_quote(self, served):
        _, server = served
        sleeps: list = []
        client = ServiceClient(
            port=server.port, sleeper=sleeps.append
        )
        try:
            # rate=1/s keeps refills negligible over the test's runtime,
            # so the retried batch sheds deterministically every attempt.
            client.open("q", {"rate": 1.0, "burst": 10})
            client.register("q", SQL_SUM)
            client.ingest("q", [(1, 0, 1.0)] * 10)
            with pytest.raises(Overloaded):
                # The fake sleeper never waits, so every retry sheds;
                # the policy must bound the attempts and re-raise.
                client.ingest_with_retry(
                    "q", [(2, 0, 1.0)] * 10,
                    policy=RetryPolicy(attempts=3),
                )
            assert len(sleeps) == 2  # attempts - 1 backoffs
            # Each sleep honors the server's ~10s refill quote as a
            # floor over the policy's sub-second jittered backoff.
            assert all(s > 5.0 for s in sleeps)
        finally:
            client.close()

    def test_client_rejects_unbound_port(self):
        with pytest.raises(ExecutionError):
            ServiceClient(port=0)


class TestLifecycle:
    def test_shutdown_op_stops_the_server(self, tmp_path):
        with SessionManager(directory=tmp_path / "c") as manager:
            server = serve_in_thread(manager)
            with ServiceClient(port=server.port) as client:
                client.shutdown()
            server.stop()
            with pytest.raises(ExecutionError):
                ServiceClient(port=server.port, timeout=1.0).ping()

    def test_manager_outlives_the_transport(self, tmp_path):
        with SessionManager(
            {"defaults": {"num_keys": NUM_KEYS}}, directory=tmp_path / "c"
        ) as manager:
            server = serve_in_thread(manager)
            with ServiceClient(port=server.port) as client:
                client.register("alice", SQL_SUM)
                client.ingest("alice", [(1, 0, 1.0)])
            server.stop()
            # Tenant state survives a transport restart.
            server2 = serve_in_thread(manager)
            try:
                with ServiceClient(port=server2.port) as client:
                    stats = client.stats("alice")
                    assert stats["stats"]["admitted_events"] == 1
            finally:
                server2.stop()

    def test_ipv6_literal_host(self, tmp_path):
        if not socket.has_ipv6:
            pytest.skip("no IPv6 on this host")
        with SessionManager(directory=tmp_path / "c") as manager:
            try:
                server = serve_in_thread(manager, host="::1")
            except ExecutionError as exc:
                pytest.skip(f"no IPv6 loopback here: {exc}")
            try:
                with ServiceClient(host="::1", port=server.port) as client:
                    assert client.ping()
            finally:
                server.stop()

    def test_context_manager_and_double_start(self, tmp_path):
        with SessionManager(directory=tmp_path / "c") as manager:
            with ServiceServer(manager) as server:
                assert server.port > 0
                with pytest.raises(ExecutionError):
                    server.start()
            # stop() is idempotent.
            server.stop()


class OverlapRecorder:
    """Stands in for the manager (the transport only calls
    ``dispatch``, then ``settle`` after the reply): records who was
    dispatched and how many calls ran at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self.running = 0
        self.most = 0
        self.order: list = []
        self.settled: list = []

    def _inside(self, log: list, tenant) -> None:
        with self._lock:
            self.running += 1
            self.most = max(self.most, self.running)
            log.append(tenant)
        time.sleep(0.002)  # long enough for the other side to arrive
        with self._lock:
            self.running -= 1

    def dispatch(self, request: dict) -> dict:
        self._inside(self.order, request["tenant"])
        return {"ok": True}

    def settle(self, tenant) -> None:
        self._inside(self.settled, tenant)


@pytest.fixture
def gated(tmp_path):
    """A served manager whose next ``alice`` ingest parks inside the
    manager (the ``stall_client`` fault) until the test releases it:
    yields ``(manager, server, parked, release)``."""
    parked, release = threading.Event(), threading.Event()

    def sleeper(seconds: float) -> None:
        parked.set()
        assert release.wait(10)

    plan = FaultPlan(
        Fault(kind="stall_client", tenant="alice", op="ingest",
              delay_seconds=1.0)
    )
    with SessionManager(
        {"defaults": {"num_keys": NUM_KEYS}},
        directory=tmp_path / "ckpt", fault_plan=plan, sleeper=sleeper,
    ) as manager:
        server = serve_in_thread(manager)
        try:
            yield manager, server, parked, release
        finally:
            release.set()
            server.stop()


@pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestTransportConformance:
    """What the thread-per-connection transport owes its callers, over
    real sockets."""

    def test_max_workers_bounds_requests_inside_the_manager(self):
        recorder = OverlapRecorder()
        start = threading.Barrier(2)
        done: list = []

        def run(tenant: str, port: int) -> None:
            with ServiceClient(port=port) as client:
                start.wait(5)
                for _ in range(20):
                    assert client.request("stats", tenant=tenant)["ok"]
            done.append(tenant)

        with ServiceServer(recorder, max_workers=1) as server:
            threads = [
                threading.Thread(target=run, args=(tenant, server.port))
                for tenant in ("a", "b")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
        assert sorted(done) == ["a", "b"]  # both made progress
        # Never two inside at once, the settle after a reply included.
        assert recorder.most == 1
        assert sorted(recorder.order) == ["a"] * 20 + ["b"] * 20
        assert sorted(recorder.settled) == sorted(recorder.order)
        assert recorder.order != sorted(recorder.order)  # interleaved

    def test_stop_wakes_idle_connections(self, tmp_path):
        with SessionManager(directory=tmp_path / "c") as manager:
            server = serve_in_thread(manager)
            clients = [ServiceClient(port=server.port) for _ in range(2)]
            try:
                assert all(client.ping() for client in clients)
                began = time.monotonic()
                server.stop(timeout=2.0)
                assert time.monotonic() - began < 2.0
                assert service_threads() == []
                for client in clients:
                    with pytest.raises(ExecutionError, match=CLOSED):
                        client.ping()
            finally:
                for client in clients:
                    client.close()

    def test_shutdown_lets_an_inflight_request_finish(self, gated):
        manager, server, parked, release = gated
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            f = sock.makefile("rwb")
            f.write(INGEST_ALICE)
            f.flush()
            assert parked.wait(5)  # mid-ingest, inside the manager
            with ServiceClient(port=server.port) as other:
                other.shutdown()
            release.set()
            # Applied and answered first; only then does the socket close.
            assert json.loads(f.readline())["admitted"] == 1
            assert f.readline() == b""
        assert manager.stats("alice")["stats"]["admitted_events"] == 1
        server.stop()
        assert service_threads() == []

    def test_clients_that_vanish_leave_the_server_serving(self, gated):
        manager, server, parked, release = gated
        address = ("127.0.0.1", server.port)
        with socket.create_connection(address, 5) as sock:
            sock.sendall(b'{"op": "ingest", "tena')  # half a line
        with socket.create_connection(address, 5) as sock:
            sock.sendall(INGEST_ALICE)
            assert parked.wait(5)
        release.set()  # ...and the reply has nobody to go to
        with ServiceClient(port=server.port) as client:
            assert client.ping()
            stats = settled(
                lambda: client.stats("alice")["stats"]["admitted_events"], 1
            )
            assert stats == 1  # the abandoned request was still applied
        assert settled(
            lambda: service_threads().count("repro-service-handler"), 0
        ) == 0

    def test_connection_churn_leaks_nothing(self, served):
        _, server = served
        with ServiceClient(port=server.port) as client:
            assert client.ping()  # warm every lazy import first
        assert settled(
            lambda: service_threads().count("repro-service-handler"), 0
        ) == 0
        before = open_fds()
        for _ in range(200):
            with ServiceClient(port=server.port) as client:
                assert client.ping()
        assert settled(open_fds, before) == before
        assert settled(service_threads, ["repro-service"]) == [
            "repro-service"
        ]

    def test_blank_lines_skipped_malformed_lines_answered(self, served):
        _, server = served
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            f = sock.makefile("rwb")
            # Three lines, one reply: blanks are not requests.
            assert raw_call(f, b'\n  \n{"op": "ping"}\n')["pong"] is True
            assert raw_call(f, b"{not json\n")["error"] == "bad_request"
            assert raw_call(f, b'"a string"\n')["error"] == "bad_request"
            deep = b"[" * 100_000 + b"\n"  # past any recursion limit
            assert raw_call(f, deep)["error"] == "bad_request"
            assert raw_call(f, b'{"op": "nope"}\n')["error"] == "bad_request"
            assert raw_call(f, b'{"op": "ping"}\n')["pong"] is True


@pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestIngestFrames:
    """The binary ingest frame: the same request as JSON rows in
    another encoding, and refused by the rule for an overlong line when
    it cannot be trusted."""

    @pytest.mark.parametrize(
        "header, size, detail",
        [
            ({"op": "ingest"}, 25, "frame of 25 bytes is not whole rows"),
            ({"op": "stats"}, 24, "only an ingest request may carry"),
            ({"op": "ingest", "events": []}, 24, "'events' or 'frame'"),
        ],
    )
    def test_a_skippable_frame_is_consumed_then_refused(
        self, served, header, size, detail
    ):
        manager, server = served
        # Were the frame not consumed, it would run into the next line.
        line = json.dumps({"tenant": "a", "frame": size, **header})
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            f = sock.makefile("rwb")
            reply = raw_call(f, line.encode() + b"\n" + b"\xff" * size)
            assert reply["error"] == "bad_request"
            assert detail in reply["detail"]
            assert raw_call(f, PING) == {"ok": True, "pong": True}
        assert manager.tenants == ()

    @pytest.mark.parametrize("size", [-1, 1.5, "24", True, None, "max+1"])
    def test_an_untrusted_length_is_answered_then_hung_up(self, served, size):
        manager, server = served
        if size == "max+1":
            size = server_module.MAX_LINE_BYTES + 1
        line = json.dumps({"op": "ingest", "tenant": "a", "frame": size})
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            f = sock.makefile("rwb")
            reply = raw_call(f, line.encode() + b"\n")
            assert reply["error"] == "bad_request"
            assert reply["detail"].startswith("'frame' must be a byte count")
            assert f.readline() == b""  # no next request on this socket
        assert manager.tenants == ()

    def test_eof_inside_a_frame_applies_nothing(self, served):
        manager, server = served
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            sock.sendall(framed([[1, 0, 1.0], [2, 0, 1.0]], tenant="a")[:-8])
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as f:
                assert f.readline() == b""  # closed without a reply
        assert manager.tenants == ()

    def test_a_zero_byte_frame_is_an_empty_batch(self, served):
        _, server = served
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            f = sock.makefile("rwb")
            reply = raw_call(f, framed([], tenant="a"))
            assert reply["ok"] and reply["admitted"] == 0
            empty = b'{"op": "ingest", "tenant": "a", "events": []}\n'
            assert raw_call(f, empty) == reply
            assert raw_call(f, PING)["pong"] is True

    @pytest.mark.parametrize(
        "rows, detail",
        [
            (
                [[1, 0, 1.0], [2.5, 0, 1.0]],
                "events[1]: timestamp and key must be integers below 2**53 "
                "(exact in float64), got [2.5, 0.0, 1.0]",
            ),
            ([[1, 0, 1.0], [-1, 0, 1.0]], "events[1]: timestamp -1 must be >= 0"),
        ],
    )
    def test_bad_rows_in_a_frame_are_named(self, served, rows, detail):
        manager, server = served
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            f = sock.makefile("rwb")
            assert raw_call(f, framed(rows, tenant="a")) == {
                "ok": False, "error": "bad_request", "detail": detail,
            }
            assert raw_call(f, PING)["pong"] is True
        stats = manager.stats("a")["stats"]
        assert (stats["bad_requests"], stats["admitted_events"]) == (1, 0)

    def test_rows_that_are_not_three_numbers_go_as_json(self, served):
        _, server = served
        with ServiceClient(port=server.port) as client:
            # ``None`` cannot cross in a frame: this message is the
            # server's own scan of the JSON rows.
            with pytest.raises(BadRequest) as exc_info:
                client.ingest("a", [(1, 0, 1.0), (2, None, 1.0)])
            assert str(exc_info.value).startswith(
                "events[1]: expected [ts, key, value], got [2, None, 1.0]"
            )
            # ... and a ``None`` value is no NaN.
            with pytest.raises(BadRequest, match=r"^events\[0\]: expected"):
                client.ingest("a", np.array([(1, 0, None)], dtype=object))
            # Arities that add up to 3n must not be re-cut into rows.
            with pytest.raises(BadRequest, match=r"^events\[0\]: expected"):
                client.ingest("a", [(1, 0, 1.0, 9.0), (2, 0)])
            assert client.stats("a")["stats"]["admitted_events"] == 0

    def test_a_frame_and_json_rows_are_one_request(
        self, served, monkeypatch, repro_seed
    ):
        """The same batches as JSON rows on a raw socket and through
        the typed client: identical replies, stats and results — and
        the client's really went as frames."""
        manager, server = served
        seen: list = []
        ingest = manager.ingest

        def recording(tenant, events):
            seen.append((tenant, type(events).__name__))
            return ingest(tenant, events)

        monkeypatch.setattr(manager, "ingest", recording)
        events = integer_events(60, NUM_KEYS, seed=repro_seed)
        batches = [events[:50], [], events[50:51], [(7, 0, 1.0), (-1, 0, 1.0)]]
        batches += [events[i : i + 23] for i in range(51, len(events), 23)]
        traces: dict = {"json": [], "frame": []}
        with socket.create_connection(("127.0.0.1", server.port), 5) as sock:
            f = sock.makefile("rwb")
            raw_call(f, json.dumps({"op": "register", "tenant": "json",
                                    "query": SQL_SUM}).encode() + b"\n")
            for batch in batches:
                line = json.dumps(
                    {"op": "ingest", "tenant": "json", "events": batch}
                )
                traces["json"].append(raw_call(f, line.encode() + b"\n"))
            raw_results = raw_call(f, b'{"op":"results","tenant":"json"}\n')
        with ServiceClient(port=server.port) as client:
            client.register("frame", SQL_SUM)
            for batch in batches:
                try:
                    out = client.ingest("frame", batch)
                    traces["frame"].append({"ok": True, **out})
                except BadRequest as exc:
                    traces["frame"].append(
                        {"ok": False, "error": "bad_request",
                         "detail": str(exc)}
                    )
            results = serialize_results(client.results("frame"))
        assert traces["frame"] == traces["json"], f"seed={repro_seed}"
        assert results == raw_results["results"]
        stats = {t: manager.stats(t) for t in ("json", "frame")}
        assert stats["frame"] == stats["json"]
        assert stats["frame"]["stats"]["tail_length"] > 0
        assert seen == [("json", "list")] * len(batches) + [
            ("frame", "ndarray")
        ] * len(batches)


@pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestReplyAndClientFailures:
    def test_a_client_whose_exchange_failed_sends_nothing_more(self, gated):
        """A client used to keep its timed-out socket: its next batch
        still reached the server and was applied, though the caller was
        told the exchange failed — a retrying producer double-applied
        it, and a half-sent frame would have desynchronised the
        stream."""
        manager, server, parked, release = gated
        client = ServiceClient(port=server.port, timeout=0.3)
        try:
            with pytest.raises(ExecutionError, match="timed out"):
                client.ingest("alice", [(1, 0, 1.0)])
            assert parked.is_set()
            for call in (
                lambda: client.ingest("alice", [(2, 0, 1.0), (3, 0, 1.0)]),
                client.ping,
            ):
                with pytest.raises(ExecutionError, match="nothing sent"):
                    call()
        finally:
            release.set()
            client.close()
        assert settled(
            lambda: service_threads().count("repro-service-handler"), 0
        ) == 0
        with ServiceClient(port=server.port) as fresh:
            assert fresh.stats("alice")["stats"]["admitted_events"] == 1

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value):RuntimeWarning")
    def test_an_overflowed_result_crosses_the_wire(self, served):
        """Two events of 1e308 sum to inf: its reply used to raise in
        the handler thread after the drain had consumed the rows."""
        _, server = served
        rows = [(0, 0, 1e308), (1, 0, 1e308)]
        rows += [(t, 1, -1e308) for t in range(2, 60)]
        with ServiceClient(port=server.port) as client:
            client.register("a", SQL_TUMBLING_SUM)
            client.ingest("a", rows)
            reply = client.request("results", tenant="a", drain=False)
            (block,) = reply["results"]["q1"]
            assert block["values"][0][0] == "inf"
            assert block["values"][1][1] == "-inf"
            (got,) = client.results("a")["q1"].values()
            assert got.start_instance == 0
            assert got.values[0, 0] == np.inf and got.values[1, 1] == -np.inf
            assert client.ping()

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value):RuntimeWarning")
    def test_non_finite_values_through_the_typed_client(self, served):
        """NaN and ±inf values cross as raw float64, and every result —
        an empty instance's NaN, inf, and the NaN of ``inf - inf`` —
        comes back bit for bit."""
        _, server = served
        nan, inf = float("nan"), float("inf")
        rows = [(1, 0, nan), (2, 1, inf), (3, 1, -inf), (4, 2, inf)]
        rows += [(5, 2, 1.0), (6, 0, -inf)]
        rows += [(t, t % 3, float(t)) for t in range(7, 40)]
        queries = {
            "s": SQL_TUMBLING_SUM,
            "m": "SELECT MIN(v) FROM s GROUP BY WINDOWS(HOPPING(second, 4, 2))",
        }
        with ServiceClient(port=server.port) as client:
            for name, sql in queries.items():
                client.register("a", sql, name=name)
            client.ingest("a", rows)
            got = client.results("a")
        session = QuerySession(num_keys=NUM_KEYS)
        try:
            for name, sql in queries.items():
                session.register(sql, name=name)
            session.push_many(rows)
            expected = session.drain_results()
        finally:
            session.close()
        bits: set = set()
        for name, by_window in expected.items():
            for window, block in by_window.items():
                back = got[name][window]
                assert back.start_instance == block.start_instance
                assert back.values.tobytes() == block.values.tobytes()
                bits |= set(block.values.view(np.uint64).ravel().tolist())
        assert {0x7FF8 << 48, 0xFFF8 << 48, 0x7FF0 << 48, 0xFFF0 << 48} <= bits

    def test_a_reply_that_cannot_be_encoded_is_answered_failed(self):
        class Unencodable:
            def dispatch(self, request: dict) -> dict:
                return {"ok": True, "value": object()}

            def settle(self, tenant) -> None:
                pass

        with ServiceServer(Unencodable()) as server:
            with ServiceClient(port=server.port) as client:
                reply = client.request("stats", tenant="a")
                assert reply["ok"] is False and reply["error"] == "failed"
                assert reply["detail"].startswith("reply cannot be encoded")
                assert client.ping()


@pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestReplyBeforeCheckpoint:
    """The checkpoint a request makes due is written after its reply
    is sent, on the handler's thread, at the cut an in-process
    ``handle`` writes it at; the tenant's next op waits for it."""

    BATCH = [(t, 0, 1.0) for t in range(1, 30)]  # the cadence falls due

    @staticmethod
    def manager(tmp_path, **kw):
        return SessionManager(
            {"defaults": {"num_keys": NUM_KEYS, "rate": 1e9, "burst": 1e9}},
            directory=tmp_path / "ckpt", checkpoint_every=10, **kw,
        )

    def test_the_reply_leaves_while_the_save_is_blocked(self, tmp_path):
        entered, release = threading.Event(), threading.Event()
        with self.manager(tmp_path) as manager:
            manager.open_tenant("alice")
            store = manager._tenants["alice"].store
            real_save = store.save

            def blocked_save(snapshot):
                entered.set()
                assert release.wait(10)
                return real_save(snapshot)

            store.save = blocked_save
            with ServiceServer(manager) as server, ServiceClient(
                port=server.port
            ) as writer, ServiceClient(port=server.port) as reader:
                writer.register("alice", SQL_SUM)
                reply = writer.ingest("alice", self.BATCH)
                assert reply["admitted"] == len(self.BATCH)
                assert entered.wait(5)  # the reply came first
                seen = []
                stats = threading.Thread(
                    target=lambda: seen.append(reader.stats("alice"))
                )
                stats.start()
                stats.join(0.3)
                assert stats.is_alive() and not seen  # waits for the write
                release.set()
                stats.join(5)
                assert seen[0]["stats"]["tail_length"] == 0
                assert seen[0]["stats"]["checkpoint_failures"] == 0
            assert len(store.paths()) == 1

    @pytest.mark.parametrize("linger", [False, True], ids=["fin", "reset"])
    def test_a_client_gone_before_its_reply_still_gets_the_checkpoint(
        self, tmp_path, linger
    ):
        """The client closes while its ingest is inside the manager, so
        the reply goes nowhere (with ``reset`` the send itself fails);
        the handler still writes the checkpoint the ingest made due."""
        parked, release = threading.Event(), threading.Event()

        def sleeper(seconds: float) -> None:
            parked.set()
            assert release.wait(10)

        plan = FaultPlan(
            Fault(kind="stall_client", tenant="alice", op="ingest",
                  delay_seconds=1.0)
        )
        with self.manager(tmp_path, fault_plan=plan, sleeper=sleeper) as manager:
            manager.register("alice", SQL_SUM)
            store = manager._tenants["alice"].store
            with ServiceServer(manager) as server:
                sock = socket.create_connection(("127.0.0.1", server.port), 5)
                if linger:  # close with a reset, not a FIN
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        np.array([1, 0], dtype=np.int32).tobytes(),
                    )
                sock.sendall(json.dumps(
                    {"op": "ingest", "tenant": "alice", "events": self.BATCH}
                ).encode() + b"\n")
                assert parked.wait(5)
                sock.close()
                release.set()
                # Nothing but the handler can write it: no other op runs.
                assert settled(lambda: len(store.paths()), 1, within=5) == 1
            stats = manager.stats("alice")["stats"]
            assert stats["tail_length"] == 0
            assert stats["checkpoint_failures"] == 0

    def test_checkpoints_over_tcp_land_where_handle_writes_them(
        self, tmp_path, repro_seed
    ):
        """The same ops through ``handle`` in-process and over TCP:
        equal replies, and checkpoints at equal watermarks."""
        events = integer_events(90, NUM_KEYS, seed=repro_seed)
        ops = [{"op": "register", "query": SQL_SUM}]
        for lo in range(0, len(events), 14):
            ops.append({"op": "ingest", "events": events[lo : lo + 14]})
            if lo == 70:
                ops.append({"op": "results", "drain": True})
        ops += [{"op": "snapshot"}, {"op": "results", "drain": True}]

        def cuts(manager):
            return [
                path.name for path in manager._tenants["alice"].store.paths()
            ]

        with self.manager(tmp_path / "local", keep=100) as local:
            expected = [local.handle({"tenant": "alice", **op}) for op in ops]
            local_cuts = cuts(local)
        with self.manager(tmp_path / "tcp", keep=100) as remote:
            with ServiceServer(remote) as server, ServiceClient(
                port=server.port
            ) as client:
                got = [client.request(tenant="alice", **op) for op in ops]
            remote_cuts = cuts(remote)
        for reply in expected + got:
            reply.pop("path", None)  # the snapshot's own directory
        assert got == expected
        assert len(local_cuts) >= 4
        assert remote_cuts == local_cuts

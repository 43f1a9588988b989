"""The TCP front door: wire round-trips, failure shapes, lifecycle.

The server is a thin pipe onto ``SessionManager.handle`` — these tests
pin the transport's own obligations: one reply per request line in
order, parseable replies for unparseable requests, typed client-side
errors, bounded overload-aware retries, and a clean start/stop story.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import ExecutionError
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


def raw_call(f, line: bytes) -> dict:
    """One raw line out, one reply line back, on ``makefile("rwb")``."""
    f.write(line)
    f.flush()
    return json.loads(f.readline())


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
    ``handle``): records who ran and how many ran at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self.running = 0
        self.most = 0
        self.order: list = []

    def handle(self, request: dict) -> dict:
        with self._lock:
            self.running += 1
            self.most = max(self.most, self.running)
            self.order.append(request["tenant"])
        time.sleep(0.002)  # long enough for the other side to arrive
        with self._lock:
            self.running -= 1
        return {"ok": True}


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
        assert recorder.most == 1  # never two inside at once
        assert sorted(recorder.order) == ["a"] * 20 + ["b"] * 20
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

"""End-to-end tests of the asyncio serving tier (`repro.api.aio`).

The acceptance bar is **transport equivalence**: every v1 endpoint
served through the event-loop facade must be byte-identical to the
threaded facade and to direct ``ApiApp`` calls — same JSON bodies, same
status codes, same structured errors on the 401/413/429 limit paths,
same ``partial``/``shards`` fields when a ``RouterService`` sits behind
the app.  On top of parity, the tier's own behaviors are pinned:
keep-alive reuse, request pipelining (including a mid-pipeline error),
the body cap enforced before the body is read, and the graceful-drain
contract (zero dropped in-flight responses).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time

import pytest

from repro.api.app import ApiApp
from repro.api.aio.server import serve as aio_bind
from repro.api.aio.server import serve_background as aio_serve
from repro.api.http import serve_background as threaded_serve
from repro.api.limits import RequestGate
from repro.api.protocol import SearchRequest
from repro.spell import SpellService
from repro.synth import make_spell_compendium


@pytest.fixture(scope="module")
def setup():
    """Small (compendium, truth) pair private to this module — read-only."""
    return make_spell_compendium(
        n_datasets=6,
        n_relevant=2,
        n_genes=120,
        n_conditions=10,
        module_size=12,
        query_size=3,
        seed=11,
    )


@pytest.fixture(scope="module")
def service(setup):
    compendium, _ = setup
    with SpellService(compendium, n_workers=2) as svc:
        yield svc


@pytest.fixture(scope="module")
def app(service):
    return ApiApp(service)


@pytest.fixture(scope="module")
def aio_addr(app):
    server, thread = aio_serve(app)
    yield server.server_address[:2], server
    server.close(timeout=5)
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def threaded_addr(app):
    server, thread = threaded_serve(app)
    yield server.server_address[:2]
    server.close(timeout=5)
    thread.join(timeout=10)


def request_raw(addr, method, path, payload=None, headers=None):
    """One request over a fresh keep-alive connection; returns
    (status, raw body bytes, response headers)."""
    conn = http.client.HTTPConnection(*addr, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read(), dict(resp.getheaders())
    finally:
        conn.close()


_VOLATILE_FIELDS = {"elapsed_seconds", "total_seconds"}


def scrub(obj):
    """Strip the wall-clock stamps recursively.

    Everything else in a v1 body — rankings, scores, weights, totals,
    checksums — is deterministic and must match across transports.
    """
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in obj.items() if k not in _VOLATILE_FIELDS}
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


#: (method, path, payload) cases covering every v1 endpoint plus the
#: error paths whose codes must be transport-invariant.
def parity_cases(truth):
    query = list(truth.query_genes)
    return [
        ("GET", "/v1/datasets", None),
        ("POST", "/v1/search", {"genes": query, "page_size": 20}),
        ("POST", "/v1/search", {"genes": query, "page": 1, "page_size": 7}),
        ("POST", "/v1/search/batch",
         {"searches": [{"genes": query, "page_size": 5}] * 3}),
        ("POST", "/v1/cluster", {"search": {"genes": query}, "top_genes": 12}),
        ("POST", "/v1/render/heatmap",
         {"search": {"genes": query}, "top_genes": 10}),
        # error paths: codes and bodies must match across transports
        ("POST", "/v1/search", {"genes": ["NO-SUCH-GENE"]}),
        ("POST", "/v1/search", {"genes": []}),
        ("POST", "/v1/search", {"genes": query, "page_size": -4}),
        ("POST", "/v1/cluster", {"search": {"genes": query}, "top_genes": 0}),
    ]


class TestOracleParity:
    def test_every_endpoint_bit_identical_to_threaded_and_direct(
        self, setup, app, aio_addr, threaded_addr
    ):
        _, truth = setup
        (aio_host_port, _server) = aio_addr
        for method, path, payload in parity_cases(truth):
            a_status, a_body, _ = request_raw(aio_host_port, method, path, payload)
            t_status, t_body, _ = request_raw(threaded_addr, method, path, payload)
            assert a_status == t_status, (path, payload)
            # identical modulo the elapsed-time stamp; error bodies carry
            # no timing, so those must match byte for byte
            assert scrub(json.loads(a_body)) == scrub(json.loads(t_body)), \
                (path, payload)
            if a_status >= 400:
                assert a_body == t_body, (path, payload)
            endpoint = path[len("/v1/"):]
            d_status, d_payload = app.handle_wire(
                endpoint, dict(payload) if payload else {}
            )
            assert a_status == d_status, (path, payload)
            assert scrub(json.loads(a_body)) == scrub(d_payload), (path, payload)

    def test_health_parity_stable_fields(self, aio_addr, threaded_addr, service):
        (aio_host_port, _server) = aio_addr
        a_status, a_body, _ = request_raw(aio_host_port, "GET", "/v1/health")
        t_status, t_body, _ = request_raw(threaded_addr, "GET", "/v1/health")
        a, t = json.loads(a_body), json.loads(t_body)
        assert a_status == t_status == 200
        for field in ("status", "api_version", "datasets", "genes"):
            assert a[field] == t[field]
        # both facades front the same service, so each health answer
        # reports both transports side by side
        assert set(a["serving"]["transport"]) >= {"aio", "http"}
        assert set(t["serving"]["transport"]) >= {"aio", "http"}

    def test_export_stream_bit_identical_with_checksum(
        self, setup, aio_addr, threaded_addr
    ):
        _, truth = setup
        (aio_host_port, _server) = aio_addr
        payload = {"genes": list(truth.query_genes), "chunk_size": 40}
        a_status, a_body, a_headers = request_raw(
            aio_host_port, "POST", "/v1/search/export", payload
        )
        t_status, t_body, t_headers = request_raw(
            threaded_addr, "POST", "/v1/search/export", payload
        )
        assert a_status == t_status == 200
        for headers, body in ((a_headers, a_body), (t_headers, t_body)):
            assert headers.get("Content-Length") == str(len(body))
            assert "Transfer-Encoding" not in headers
        a_lines = a_body.strip().split(b"\n")
        t_lines = t_body.strip().split(b"\n")
        # every data line byte-identical; the trailer identical modulo
        # its elapsed stamp — which pins the checksums equal too
        assert a_lines[:-1] == t_lines[:-1]
        a_trailer = json.loads(a_lines[-1])
        t_trailer = json.loads(t_lines[-1])
        assert scrub(a_trailer) == scrub(t_trailer)
        assert a_trailer["checksum"].startswith("sha256:")
        assert a_trailer["checksum"] == t_trailer["checksum"]

    def test_unknown_endpoint_and_method_errors_match(
        self, aio_addr, threaded_addr
    ):
        (aio_host_port, _server) = aio_addr
        for method, path in [
            ("GET", "/v1/no-such-endpoint"),
            ("GET", "/not-even-v1"),
            ("GET", "/v1/search"),   # search is POST-only
            ("POST", "/v1/health"),  # health is GET-only
            ("PUT", "/v1/search"),   # verb outside GET/POST
        ]:
            a_status, a_body, a_headers = request_raw(aio_host_port, method, path, None)
            t_status, t_body, t_headers = request_raw(threaded_addr, method, path, None)
            assert a_status == t_status, (method, path)
            assert json.loads(a_body)["error"]["code"] == \
                json.loads(t_body)["error"]["code"], (method, path)
            # pre-dispatch rejections close on both facades (the body,
            # if any, was never drained)
            assert a_headers.get("Connection") == "close", (method, path)
            assert t_headers.get("Connection") == "close", (method, path)

    def test_malformed_json_body_matches(self, aio_addr, threaded_addr):
        (aio_host_port, _server) = aio_addr
        for addr in (aio_host_port, threaded_addr):
            conn = http.client.HTTPConnection(*addr, timeout=10)
            try:
                conn.request("POST", "/v1/search", body=b"{not json",
                             headers={"Content-Length": "9"})
                resp = conn.getresponse()
                assert resp.status == 400
                assert json.loads(resp.read())["error"]["code"] == "MALFORMED_BODY"
            finally:
                conn.close()


class TestRouterParity:
    def test_partial_and_shards_fields_served_through_aio(self, setup):
        """A RouterService behind the async facade keeps the sharded wire
        contract: ``partial`` in search bodies, ``shards`` in health."""
        from repro.cluster_serving import build_local_topology

        compendium, truth = setup
        with build_local_topology(compendium, n_shards=2, replication=1,
                                  cache_size=0) as topo:
            router_app = ApiApp(topo.router)
            server, thread = aio_serve(router_app)
            try:
                addr = server.server_address[:2]
                payload = {"genes": list(truth.query_genes), "page_size": 15}
                status, body, _ = request_raw(addr, "POST", "/v1/search", payload)
                assert status == 200
                wire = json.loads(body)
                assert wire["partial"] is False
                d_status, direct = router_app.handle_wire("search", dict(payload))
                assert (status, scrub(wire)) == (d_status, scrub(direct))

                h_status, h_body, _ = request_raw(addr, "GET", "/v1/health")
                shards = json.loads(h_body)["shards"]
                assert h_status == 200 and shards is not None
                assert len(shards["nodes"]) == 2
            finally:
                server.close(timeout=5)
                thread.join(timeout=10)


class TestLimitsParity:
    """The RequestGate suite over the async facade: 401/413/429 behave
    exactly like the threaded facade — including no double token spend
    and the body cap judged before any body byte is read."""

    @pytest.fixture()
    def gated(self, service):
        def boot(**gate_kwargs):
            # one app (and gate) per facade: the gates are configured
            # identically, but each facade spends its own tokens — the
            # parity claim is about behavior, not a shared bucket
            aio_server, aio_thread = aio_serve(
                ApiApp(service, gate=RequestGate(**gate_kwargs)),
                transport_label="aio-gated",
            )
            thr_server, thr_thread = threaded_serve(
                ApiApp(service, gate=RequestGate(**gate_kwargs)),
                transport_label="http-gated",
            )
            cleanups.append((aio_server, aio_thread, thr_server, thr_thread))
            return aio_server.server_address[:2], thr_server.server_address[:2]

        cleanups = []
        yield boot
        for aio_server, aio_thread, thr_server, thr_thread in cleanups:
            aio_server.close(timeout=5)
            thr_server.close(timeout=5)
            aio_thread.join(timeout=10)
            thr_thread.join(timeout=10)

    def test_auth_401_parity(self, gated, setup):
        _, truth = setup
        aio_addr, thr_addr = gated(auth_token="s3cret")
        payload = {"genes": list(truth.query_genes)}
        results = {}
        for name, addr in (("aio", aio_addr), ("thr", thr_addr)):
            anon = request_raw(addr, "POST", "/v1/search", payload)
            authed = request_raw(
                addr, "POST", "/v1/search", payload,
                headers={"Authorization": "Bearer s3cret"},
            )
            health = request_raw(addr, "GET", "/v1/health")
            results[name] = (anon, authed, health)
        for name in results:
            anon, authed, health = results[name]
            assert anon[0] == 401
            assert json.loads(anon[1])["error"]["code"] == "UNAUTHORIZED"
            assert authed[0] == 200
            assert health[0] == 200  # health stays exempt
        assert results["aio"][0][1] == results["thr"][0][1]  # 401 bodies, raw
        assert scrub(json.loads(results["aio"][1][1])) == \
            scrub(json.loads(results["thr"][1][1]))

    def test_body_cap_413_before_body_is_read(self, gated):
        """A huge *declared* Content-Length is rejected without the server
        waiting for (or reading) a single body byte — on a raw socket we
        never send the body, and the 413 must still arrive promptly."""
        aio_addr, thr_addr = gated(max_body_bytes=1024)
        for addr in (aio_addr, thr_addr):
            with socket.create_connection(addr, timeout=10) as sock:
                sock.sendall(
                    b"POST /v1/search HTTP/1.1\r\n"
                    b"Host: x\r\n"
                    b"Content-Length: 1000000000\r\n\r\n"
                )  # 1 GB declared, zero bytes sent
                sock.settimeout(10)
                data = sock.makefile("rb").read()
            head, _, body = data.partition(b"\r\n\r\n")
            assert b"413" in head.split(b"\r\n")[0]
            assert json.loads(body)["error"]["code"] == "BODY_TOO_LARGE"
            assert b"Connection: close" in head

    def test_rate_limit_429_retry_after_parity_no_double_spend(
        self, gated, setup
    ):
        """With burst=2, exactly two requests pass before the 429 — a
        facade that spent a token at admission *and* again in the app
        layer would 429 on the second request already."""
        _, truth = setup
        payload = {"genes": list(truth.query_genes), "page_size": 5}
        aio_addr, thr_addr = gated(rate_limit=0.001, rate_burst=2)
        headers_by_facade = {}
        for name, addr in (("aio", aio_addr), ("thr", thr_addr)):
            client = {"X-Client-Id": name}  # separate buckets per facade
            statuses = []
            for _ in range(3):
                status, body, headers = request_raw(
                    addr, "POST", "/v1/search", payload, headers=client
                )
                statuses.append(status)
            assert statuses == [200, 200, 429], name
            assert json.loads(body)["error"]["code"] == "RATE_LIMITED"
            assert "retry_after_ms" in json.loads(body)["error"]["details"]
            headers_by_facade[name] = headers
        # Retry-After header parity: both facades emit it, whole seconds
        for name, headers in headers_by_facade.items():
            assert int(headers["Retry-After"]) >= 1, name


class TestPipelining:
    def _read_one_response(self, reader):
        """Parse one fixed-length HTTP response off a raw-socket reader."""
        status_line = reader.readline()
        if not status_line:
            return None
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = reader.readline().strip()
            if not line:
                break
            name, _, value = line.partition(b":")
            headers[name.decode().lower()] = value.strip().decode()
        body = reader.read(int(headers.get("content-length", 0)))
        return status, headers, body

    def test_pipelined_requests_answered_in_order(self, aio_addr):
        (addr, server) = aio_addr
        before = server.stats.snapshot()["pipelined_max_depth"]
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n" * 4)
            reader = sock.makefile("rb")
            for _ in range(4):
                status, headers, body = self._read_one_response(reader)
                assert status == 200
                assert json.loads(body)["status"] == "ok"
        assert server.stats.snapshot()["pipelined_max_depth"] >= max(before, 2)

    def test_mid_pipeline_framing_error_answers_earlier_then_closes(
        self, aio_addr
    ):
        """health → unknown endpoint → health, pipelined: the first gets
        its 200, the second a structured 404 with ``Connection: close``,
        and the third is never answered (its body would be unframed)."""
        (addr, _server) = aio_addr
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(
                b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /v1/bogus HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            reader = sock.makefile("rb")
            first = self._read_one_response(reader)
            assert first[0] == 200
            second = self._read_one_response(reader)
            assert second[0] == 404
            assert json.loads(second[2])["error"]["code"] == "UNKNOWN_ENDPOINT"
            assert second[1].get("connection") == "close"
            assert self._read_one_response(reader) is None  # EOF, no 3rd

    def test_mid_pipeline_app_error_keeps_connection(self, setup, aio_addr):
        """An *app-level* error (unknown gene) has a fully-read body, so
        the pipeline continues: all three answers arrive in order."""
        _, truth = setup
        (addr, _server) = aio_addr
        good = json.dumps({"genes": list(truth.query_genes), "page_size": 3}).encode()
        bad = json.dumps({"genes": ["NO-SUCH-GENE"]}).encode()

        def post(body):
            return (
                b"POST /v1/search HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )

        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(post(good) + post(bad) + post(good))
            reader = sock.makefile("rb")
            statuses = [self._read_one_response(reader)[0] for _ in range(3)]
        assert statuses == [200, 404, 200]

    def test_get_with_declared_body_drained_keeps_stream_synced(self, aio_addr):
        """A GET that declares a body must have that body drained before
        the next poll — left buffered, its bytes would be parsed as the
        *next* request on the keep-alive connection (the stream desync /
        request-smuggling shape behind a body-forwarding proxy)."""
        (addr, _server) = aio_addr
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(
                b"GET /v1/health HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 5\r\n\r\nhello"
                b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            reader = sock.makefile("rb")
            for _ in range(2):
                status, _headers, body = self._read_one_response(reader)
                assert status == 200
                assert json.loads(body)["status"] == "ok"

    def test_deep_pipeline_with_early_close_frees_the_connection(self, setup):
        """A client that pipelines far past the window and has the first
        request answer ``Connection: close`` must not strand the reader:
        with the responder gone, a blocking put on the full queue would
        leak the connection task and its ``max_connections`` slot
        forever (a remotely repeatable slot-exhaustion DoS)."""
        compendium, _ = setup
        with SpellService(compendium, n_workers=1) as inner:
            server, thread = aio_serve(ApiApp(inner), pipeline_depth=1)
            try:
                addr = server.server_address[:2]
                with socket.create_connection(addr, timeout=10) as sock:
                    sock.sendall(
                        b"GET /v1/health HTTP/1.1\r\nHost: x\r\n"
                        b"Connection: close\r\n\r\n"
                        + b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n" * 8
                    )
                    data = sock.makefile("rb").read()  # one response, then EOF
                assert data.split(b"\r\n")[0] == b"HTTP/1.1 200 OK"
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    snap = server.stats.snapshot()
                    if snap["open_connections"] == 0 and snap["in_flight"] == 0:
                        break
                    time.sleep(0.05)
                snap = server.stats.snapshot()
                assert snap["open_connections"] == 0  # slot released
                assert snap["in_flight"] == 0  # abandoned pipeline balanced
            finally:
                server.close(timeout=5)
                thread.join(timeout=10)

    def test_malformed_request_line_structured_400(self, aio_addr):
        (addr, _server) = aio_addr
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(b"TOTAL GARBAGE NOT HTTP AT ALL\r\n\r\n")
            data = sock.makefile("rb").read()
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0] == b"HTTP/1.1 400 Bad Request"
        assert json.loads(body)["error"]["code"] == "MALFORMED_BODY"


class TestKeepAliveAndCounters:
    def test_keepalive_reuse_visible_in_health(self, aio_addr):
        (addr, server) = aio_addr
        before = server.stats.snapshot()
        conn = http.client.HTTPConnection(*addr, timeout=10)
        try:
            for _ in range(5):
                conn.request("GET", "/v1/health")
                resp = conn.getresponse()
                body = json.loads(resp.read())
                assert resp.status == 200
        finally:
            conn.close()
        after = server.stats.snapshot()
        assert after["keepalive_reuses"] >= before["keepalive_reuses"] + 4
        assert after["requests_total"] >= before["requests_total"] + 5
        # the last health body itself carries the counters
        assert body["serving"]["transport"]["aio"]["requests_total"] >= 5

    def test_http10_connection_closes_after_response(self, aio_addr):
        (addr, _server) = aio_addr
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(b"GET /v1/health HTTP/1.0\r\nHost: x\r\n\r\n")
            data = sock.makefile("rb").read()  # EOF proves the close
        assert data.split(b"\r\n")[0] == b"HTTP/1.1 200 OK"
        assert b"Connection: close" in data.partition(b"\r\n\r\n")[0]


class _CountingExecutor:
    """Executor shim: counts submissions on their way to the server's
    real ``aio-dispatch`` pool."""

    def __init__(self, inner):
        self.inner = inner
        self.submissions = 0

    def submit(self, fn, *args, **kwargs):
        self.submissions += 1
        return self.inner.submit(fn, *args, **kwargs)

    def shutdown(self, *args, **kwargs):
        return self.inner.shutdown(*args, **kwargs)


def counted(server) -> _CountingExecutor:
    """Wrap a running server's executor in the counting shim."""
    shim = _CountingExecutor(server._executor)
    server._executor = shim
    return shim


def distinct_queries(compendium, n: int, size: int = 3) -> list[list[str]]:
    genes = compendium.gene_universe()
    return [genes[i * size:(i + 1) * size] for i in range(n)]


@pytest.fixture()
def fresh(setup):
    """A private service + app behind both facades, executor counted."""
    compendium, _ = setup
    with SpellService(compendium, n_workers=1) as svc:
        app = ApiApp(svc)
        aio_server, aio_thread = aio_serve(app, transport_label="aio-fresh")
        thr_server, thr_thread = threaded_serve(app, transport_label="http-fresh")
        try:
            yield {
                "service": svc,
                "app": app,
                "server": aio_server,
                "loop_thread": aio_thread,
                "aio": aio_server.server_address[:2],
                "thr": thr_server.server_address[:2],
                "executor": counted(aio_server),
            }
        finally:
            aio_server.close(timeout=5)
            thr_server.close(timeout=5)
            aio_thread.join(timeout=10)
            thr_thread.join(timeout=10)


class TestInlineWarmPath:
    """A cache hit never leaves the event loop; anything that can wait
    never runs on it.  The gate is a count of executor submissions, not
    a timing."""

    N = 6

    def test_cold_requests_submit_once_each_and_warm_ones_never(self, setup, fresh):
        compendium, _ = setup
        payloads = [
            {"genes": q, "page_size": 10} for q in distinct_queries(compendium, self.N)
        ]
        cold = [request_raw(fresh["aio"], "POST", "/v1/search", p) for p in payloads]
        assert [status for status, _, _ in cold] == [200] * self.N
        assert fresh["executor"].submissions == self.N
        assert fresh["server"].stats.snapshot()["inline_responses"] == 0

        warm = [request_raw(fresh["aio"], "POST", "/v1/search", p) for p in payloads]
        assert fresh["executor"].submissions == self.N  # not one more
        assert fresh["server"].stats.snapshot()["inline_responses"] == self.N
        for (_, miss, _), (status, hit, _) in zip(cold, warm):
            assert status == 200
            assert scrub(json.loads(hit)) == scrub(json.loads(miss))

        # the counter is on the wire, and stays 0 for the threaded facade
        _, health, _ = request_raw(fresh["thr"], "GET", "/v1/health")
        transport = json.loads(health)["serving"]["transport"]
        assert transport["aio-fresh"]["inline_responses"] == self.N
        assert transport["http-fresh"]["inline_responses"] == 0

    def test_errors_known_without_waiting_are_inline_with_the_same_bytes(
        self, setup, fresh
    ):
        _, truth = setup
        query = list(truth.query_genes)
        assert request_raw(fresh["aio"], "POST", "/v1/search", {"genes": query})[0] == 200
        before = fresh["executor"].submissions
        rows = [
            ("GET", "/v1/no-such-endpoint", None),  # a failed plan
            ("POST", "/v1/search", {"genes": query, "page": 10_000}),  # cached result
            ("POST", "/v1/search", {"genes": ["NO-SUCH-GENE"]}),
            ("POST", "/v1/search", {"genes": query, "datasets": ["no-such-dataset"]}),
            ("POST", "/v1/search", {"genes": []}),  # fails from_wire
        ]
        codes = []
        for method, path, payload in rows:
            a_status, a_body, _ = request_raw(fresh["aio"], method, path, payload)
            t_status, t_body, _ = request_raw(fresh["thr"], method, path, payload)
            assert (a_status, a_body) == (t_status, t_body), (path, payload)
            codes.append(json.loads(a_body)["error"]["code"])
            if payload is not None and payload["genes"]:
                # the compute phase alone says the same thing: the bytes
                # do not depend on which phase answered
                computed = fresh["app"].compute_wire(
                    "search", SearchRequest.from_wire(payload)
                )
                assert (computed[0], json.dumps(computed[1]).encode()) == (a_status, a_body)
        assert codes == [
            "UNKNOWN_ENDPOINT", "PAGE_OUT_OF_RANGE", "UNKNOWN_GENE",
            "UNKNOWN_DATASET", "INVALID_QUERY",
        ]
        # the two universe verdicts are compute's: the index they are read
        # from may need a splice first, and ready never waits
        assert fresh["executor"].submissions == before + 2

    def test_what_may_wait_goes_to_the_executor(self, setup, fresh):
        """use_cache=false, batches, cluster, render, datasets and health
        have no ready half, and an export whose lines are not yet encoded
        must encode them: each is one submission however warm the cache
        is.  The same export again is answered from its lines, inline."""
        _, truth = setup
        query = list(truth.query_genes)
        assert request_raw(fresh["aio"], "POST", "/v1/search", {"genes": query})[0] == 200
        for method, path, payload in [
            ("POST", "/v1/search", {"genes": query, "use_cache": False}),
            ("POST", "/v1/search/batch", {"searches": [{"genes": query}]}),
            ("POST", "/v1/cluster", {"search": {"genes": query}, "top_genes": 8}),
            ("POST", "/v1/render/heatmap", {"search": {"genes": query}, "top_genes": 8}),
            ("POST", "/v1/render/heatmap?format=ppm",
             {"search": {"genes": query}, "top_genes": 8}),
            ("POST", "/v1/search/export", {"genes": query}),  # cold: encodes
            ("GET", "/v1/datasets", None),
            ("GET", "/v1/health", None),
        ]:
            before = fresh["executor"].submissions
            assert request_raw(fresh["aio"], method, path, payload)[0] == 200
            assert fresh["executor"].submissions == before + 1, path
        before = fresh["executor"].submissions
        status, warm, _ = request_raw(fresh["aio"], "POST", "/v1/search/export", {"genes": query})
        assert status == 200 and fresh["executor"].submissions == before  # not one more
        _, computed, _ = request_raw(
            fresh["aio"], "POST", "/v1/search/export", {"genes": query, "use_cache": False}
        )
        assert fresh["executor"].submissions == before + 1
        assert warm.splitlines()[:-1] == computed.splitlines()[:-1]

    def test_pipelined_hits_are_all_answered_in_order(self, setup):
        """A client pipelining far past the window gets every answer, in
        order, inline — the responder's once-per-window yield included."""
        compendium, truth = setup
        with SpellService(compendium, n_workers=1) as svc:
            server, thread = aio_serve(ApiApp(svc), pipeline_depth=2)
            try:
                addr = server.server_address[:2]
                pages = 9
                bodies = [
                    json.dumps(
                        {"genes": list(truth.query_genes), "page": i, "page_size": 3}
                    ).encode()
                    for i in range(pages)
                ]
                assert request_raw(
                    addr, "POST", "/v1/search", {"genes": list(truth.query_genes)}
                )[0] == 200
                executor = counted(server)
                with socket.create_connection(addr, timeout=10) as sock:
                    sock.sendall(b"".join(
                        b"POST /v1/search HTTP/1.1\r\nHost: x\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
                        for body in bodies
                    ))
                    reader = sock.makefile("rb")
                    read_one = TestPipelining()._read_one_response
                    answers = [read_one(reader) for _ in range(pages)]
                assert [a[0] for a in answers] == [200] * pages
                assert [json.loads(a[2])["page"] for a in answers] == list(range(pages))
                assert executor.submissions == 0
                assert server.stats.snapshot()["inline_responses"] == pages
            finally:
                server.close(timeout=5)
                thread.join(timeout=10)


class _StallableService(SpellService):
    """``_compute_many`` parks on an event; records who ran which half."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()
        self.release.set()
        self.parked = threading.Event()
        self.compute_threads: list[threading.Thread] = []
        self.cached_threads: list[threading.Thread] = []

    def _compute_many(self, *args):
        self.compute_threads.append(threading.current_thread())
        self.parked.set()
        assert self.release.wait(20)
        return super()._compute_many(*args)

    def respond_cached(self, *args, **kwargs):
        self.cached_threads.append(threading.current_thread())
        return super().respond_cached(*args, **kwargs)


class TestLoopLiveness:
    def test_hits_complete_while_a_cold_request_is_parked_in_the_backend(self, setup):
        compendium, truth = setup
        warm_q, cold_q = distinct_queries(compendium, 2)
        with _StallableService(compendium, n_workers=1) as svc:
            server, loop_thread = aio_serve(ApiApp(svc))
            try:
                addr = server.server_address[:2]
                warm = {"genes": warm_q, "page_size": 5}
                assert request_raw(addr, "POST", "/v1/search", warm)[0] == 200
                svc.compute_threads.clear()
                svc.release.clear()
                svc.parked.clear()

                parked = []
                client = threading.Thread(target=lambda: parked.append(
                    request_raw(addr, "POST", "/v1/search", {"genes": cold_q})
                ))
                client.start()
                assert svc.parked.wait(10)  # the cold request is inside _compute_many

                # ... and the loop is still answering hits on another connection
                conn = http.client.HTTPConnection(*addr, timeout=10)
                try:
                    for _ in range(5):
                        conn.request("POST", "/v1/search", body=json.dumps(warm))
                        resp = conn.getresponse()
                        assert resp.status == 200
                        assert json.loads(resp.read())["query"] == warm_q
                finally:
                    conn.close()
                assert not parked and client.is_alive()  # still stalled

                # the stalled request waits on an executor thread, never the loop
                (stalled,) = svc.compute_threads
                assert stalled.name.startswith("aio-dispatch")
                assert stalled is not loop_thread
                # while every probe — hit or miss — ran on the loop itself
                assert svc.cached_threads and all(
                    t is loop_thread for t in svc.cached_threads
                )

                svc.release.set()
                client.join(timeout=20)
                assert not client.is_alive()
                assert parked[0][0] == 200
            finally:
                svc.release.set()
                server.close(timeout=5)
                loop_thread.join(timeout=10)


def _health(addr) -> dict:
    return json.loads(request_raw(addr, "GET", "/v1/health")[1])


class TestAccountingOncePerRequest:
    """Two phases, one count: every per-request counter moves exactly
    once whichever phase answered, and exactly as on the threaded facade."""

    def test_health_deltas_equal_requests_and_match_the_threaded_facade(self, setup):
        compendium, _ = setup
        queries = distinct_queries(compendium, 4)
        # 4 misses, then 8 hits (each query twice more, one on a later page)
        mix = (
            [{"genes": q, "page_size": 4} for q in queries]
            + [{"genes": q, "page_size": 4} for q in queries]
            + [{"genes": q, "page": 1, "page_size": 4} for q in queries]
        )
        deltas = {}
        for name, facade in (("aio", aio_serve), ("thr", threaded_serve)):
            with SpellService(compendium, n_workers=1) as svc:
                gate = RequestGate(tenant_rate_limit=0.001, tenant_rate_burst=len(mix))
                server, thread = facade(ApiApp(svc, gate=gate))
                try:
                    addr = server.server_address[:2]
                    before = _health(addr)
                    statuses = [
                        request_raw(addr, "POST", "/v1/search", p)[0] for p in mix
                    ]
                    # the tenant bucket held exactly len(mix) tokens: all
                    # pass (no double charge) and the next one is refused
                    assert statuses == [200] * len(mix), name
                    extra = request_raw(addr, "POST", "/v1/search", mix[0])
                    assert extra[0] == 429, name
                    after = _health(addr)
                finally:
                    server.close(timeout=5)
                    thread.join(timeout=10)
            deltas[name] = {
                "search.count": after["endpoints"]["search"]["count"]
                - before["endpoints"].get("search", {"count": 0})["count"],
                "search.errors": after["endpoints"]["search"]["errors"],
                "cache.hits": after["cache"]["hits"] - before["cache"]["hits"],
                "cache.misses": after["cache"]["misses"] - before["cache"]["misses"],
                "served": after["query_count"] - before["query_count"],
                "tenant_limited": after["limits"]["tenant_limited"],
            }
        assert deltas["aio"] == {
            "search.count": len(mix) + 1,  # the 429 is counted too, as an error
            "search.errors": 1,
            "cache.hits": 8,
            "cache.misses": 4,
            "served": len(mix),
            "tenant_limited": 1,
        }
        assert deltas["aio"] == deltas["thr"]
        assert deltas["aio"]["cache.hits"] + deltas["aio"]["cache.misses"] == len(mix)


class TestCatalogBehindTheLoop:
    def test_resident_hit_is_inline_and_a_tenant_load_never_runs_on_the_loop(
        self, setup, tmp_path
    ):
        from repro.data.pcl import write_pcl
        from repro.spell.catalog import CompendiumCatalog

        compendium, truth = setup
        dataset = compendium[compendium.names[0]]
        path = tmp_path / "submission.pcl"
        write_pcl(dataset.matrix, path)
        seeded = CompendiumCatalog(tmp_path / "catalog")
        seeded.ingest("acme", dataset.name, "pcl", path.read_text(encoding="utf-8"))
        seeded.close()

        loaders = []

        class Catalog(CompendiumCatalog):
            def _load(self, tenant):
                loaders.append(threading.current_thread())
                return super()._load(tenant)

        query = list(dataset.gene_ids[:3])
        with SpellService(compendium, n_workers=1) as default:
            catalog = Catalog(tmp_path / "catalog", default_service=default)
            server, loop_thread = aio_serve(ApiApp(default, catalog=catalog))
            try:
                addr = server.server_address[:2]
                executor = counted(server)
                acme = {"genes": query, "compendium": "acme", "page_size": 5}
                # non-resident: the lazy load happens on the executor
                first = request_raw(addr, "POST", "/v1/search", acme)
                assert first[0] == 200 and executor.submissions == 1
                (loader,) = loaders
                assert loader.name.startswith("aio-dispatch")
                assert loader is not loop_thread
                # resident now, and cached: inline
                again = request_raw(addr, "POST", "/v1/search", acme)
                assert executor.submissions == 1
                assert scrub(json.loads(again[1])) == scrub(json.loads(first[1]))
                # the pinned default tenant: miss on the executor, hit inline
                plain = {"genes": list(truth.query_genes), "page_size": 5}
                assert request_raw(addr, "POST", "/v1/search", plain)[0] == 200
                assert request_raw(addr, "POST", "/v1/search", plain)[0] == 200
                assert executor.submissions == 2
                # an unknown tenant costs a directory probe: not on the loop
                status, body, _ = request_raw(
                    addr, "POST", "/v1/search", {"genes": query, "compendium": "nope"}
                )
                assert status == 404 and executor.submissions == 3
                assert json.loads(body)["error"]["code"] == "UNKNOWN_COMPENDIUM"
                assert len(loaders) == 1
            finally:
                server.close(timeout=5)
                loop_thread.join(timeout=10)
                catalog.close()


class TestRouterBehindTheLoop:
    def test_complete_answers_are_inline_and_partial_ones_never_cached(self, setup):
        from repro.cluster_serving import build_local_topology

        compendium, truth = setup
        full_q, partial_q = distinct_queries(compendium, 2)
        with build_local_topology(compendium, n_shards=2, replication=1) as topo:
            server, thread = aio_serve(ApiApp(topo.router))
            try:
                addr = server.server_address[:2]
                executor = counted(server)
                full = {"genes": full_q, "page_size": 8}
                first = request_raw(addr, "POST", "/v1/search", full)
                assert first[0] == 200 and json.loads(first[1])["partial"] is False
                assert executor.submissions == 1
                again = request_raw(addr, "POST", "/v1/search", full)
                assert executor.submissions == 1  # the router's cache hit: inline
                assert scrub(json.loads(again[1])) == scrub(json.loads(first[1]))

                topo.kill("shard-1")
                # the cached complete answer needs no shard at all
                assert request_raw(addr, "POST", "/v1/search", full)[0] == 200
                assert executor.submissions == 1
                # a partial answer is never admitted to the cache, so its
                # repeat must scatter again — from the executor
                partial = {"genes": partial_q, "page_size": 8}
                for submissions in (2, 3):
                    status, body, _ = request_raw(addr, "POST", "/v1/search", partial)
                    assert status == 200 and json.loads(body)["partial"] is True
                    assert executor.submissions == submissions
            finally:
                server.close(timeout=5)
                thread.join(timeout=10)


class _SlowSearch:
    """Service proxy that stretches ``respond`` so a request is reliably
    in flight when the drain starts."""

    def __init__(self, inner, delay: float):
        self._inner = inner
        self._delay = delay

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def respond(self, *args, **kwargs):
        time.sleep(self._delay)
        return self._inner.respond(*args, **kwargs)


class TestGracefulDrain:
    def test_zero_dropped_in_flight_responses(self, setup):
        """The kill/drain bar: requests already being served when the
        drain begins complete with full responses; the server only then
        tears down, and reports a clean (fully drained) shutdown."""
        compendium, truth = setup
        with SpellService(compendium, n_workers=2) as inner:
            app = ApiApp(_SlowSearch(inner, delay=0.6))
            server, thread = aio_serve(app)
            addr = server.server_address[:2]
            payload = {"genes": list(truth.query_genes), "page_size": 10}
            results = []

            def issue():
                results.append(request_raw(addr, "POST", "/v1/search", payload))

            clients = [threading.Thread(target=issue) for _ in range(3)]
            for t in clients:
                t.start()
            time.sleep(0.25)  # all three now inside the slow respond()
            assert server.stats.snapshot()["in_flight"] >= 1
            drained = server.close(timeout=10)
            for t in clients:
                t.join(timeout=15)
            thread.join(timeout=10)

            assert drained is True
            assert len(results) == 3  # zero dropped responses
            oracle = None
            for status, body, _headers in results:
                assert status == 200
                parsed = scrub(json.loads(body))
                oracle = oracle or parsed
                assert parsed == oracle  # drained responses are real answers
            snap = server.stats.snapshot()
            assert snap["drained_requests"] >= 1
            assert snap["in_flight"] == 0

    def test_new_connections_refused_after_drain(self, setup):
        compendium, _ = setup
        with SpellService(compendium, n_workers=1) as inner:
            server, thread = aio_serve(ApiApp(inner))
            addr = server.server_address[:2]
            assert server.close(timeout=5) is True
            thread.join(timeout=10)
            with pytest.raises(OSError):
                socket.create_connection(addr, timeout=2)

    def test_close_stops_a_directly_run_serve_forever(self, setup):
        """``serve()`` + ``asyncio.run(server.serve_forever())`` — the
        documented manual launch — must still be stoppable via
        ``close()``: the serving task is recorded by ``serve_forever``
        itself, not planted by a launcher helper."""
        compendium, _ = setup
        with SpellService(compendium, n_workers=1) as inner:
            server = aio_bind(ApiApp(inner))
            thread = threading.Thread(
                target=lambda: asyncio.run(server.serve_forever()), daemon=True
            )
            thread.start()
            assert server._started.wait(10)
            status, _body, _headers = request_raw(
                server.server_address[:2], "GET", "/v1/health"
            )
            assert status == 200
            assert server.close(timeout=5) is True
            thread.join(timeout=10)
            assert not thread.is_alive()


class TestLoopGroupWorkers:
    def test_workers_not_daemonic_so_procpool_can_spawn(self):
        """Loop-group workers must be able to have children: with
        ``n_procs > 1`` the app lazily spawns an ``IndexWorkerPool`` on
        the first batch, which multiprocessing forbids under a daemonic
        parent — the pool would silently fall back to the single-core
        thread path, crippling the multi-loop topology."""
        from repro.api.aio.supervisor import LoopGroup

        synth = dict(n_datasets=4, n_relevant=1, n_genes=80, n_conditions=6,
                     module_size=8, query_size=3, seed=9)
        _compendium, truth = make_spell_compendium(**synth)
        group = LoopGroup(
            n_loops=1,
            factory_kwargs={
                "synth_datasets": 4, "synth_genes": 80, "synth_conditions": 6,
                "n_relevant": 1, "module_size": 8, "query_size": 3, "seed": 9,
                "n_workers": 1, "n_procs": 2, "cache_size": 8,
            },
        )
        with group:
            assert all(proc.daemon is False for proc in group._procs)
            addr = (group.host, group.port)
            query = list(truth.query_genes)
            status, _body, _headers = request_raw(
                addr, "POST", "/v1/search/batch",
                {"searches": [{"genes": query, "page_size": 5}] * 3},
            )
            assert status == 200
            h_status, h_body, _ = request_raw(addr, "GET", "/v1/health")
            assert h_status == 200
            serving = json.loads(h_body)["serving"]
            assert serving["n_procs"] == 2
            # the pool actually spawned — impossible for a daemonic worker
            assert serving["procpool"] is not None

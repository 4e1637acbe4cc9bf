"""Request-contract conformance: one table, three ways to run it.

:mod:`repro.api.pipeline` decides everything about an HTTP request that
is not byte movement, so the contract is a table of ``(method, target,
headers, body)`` rows with the expected ``(status, error code, close,
body bytes to read, endpoint a rejection is counted against)``.  The
table runs

* **socket-free** against the three pipeline functions, and
* **over real sockets** against both socket drivers (threaded
  :mod:`repro.api.http`, event-loop :mod:`repro.api.aio`), where every
  row must produce the pipeline's own status and body on the wire, the
  same on both facades, and the close behaviour the pipeline decided.

Every wire request is followed on the same connection by a second
``GET /v1/datasets``: a connection the pipeline closes must answer
exactly one response (the follow-up is never parsed), one it keeps must
answer exactly two — which is also the request-smuggling regression: a
declared body on a GET is drained or the connection closes; it is never
parsed as a request.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass

import numpy as np
import pytest

from repro.api.aio.server import serve_background as aio_serve
from repro.api.app import ApiApp
from repro.api.http import serve_background as threaded_serve
from repro.api.limits import RequestGate
from repro.api.pipeline import plan_request, read_body, respond
from repro.data import Dataset, ExpressionMatrix
from repro.spell import SpellService
from repro.synth import make_spell_compendium

FOLLOW_UP = b"GET /v1/datasets HTTP/1.1\r\nHost: t\r\n\r\n"
TOKEN = "s3cret"


@pytest.fixture(scope="module")
def setup():
    comp, truth = make_spell_compendium(
        n_datasets=4, n_relevant=1, n_genes=80, n_conditions=8,
        module_size=8, query_size=3, seed=5,
    )
    # one gene that a ``datasets`` filter can leave out
    genes = list(comp[0].gene_ids[:12]) + ["ONLY-IN-EXTRA"]
    values = np.random.default_rng(5).normal(size=(len(genes), 8))
    comp.add(Dataset(
        name="dataset_extra",
        matrix=ExpressionMatrix(values, genes, [f"c{i}" for i in range(8)]),
    ))
    return comp, truth


@pytest.fixture(scope="module")
def service(setup):
    with SpellService(setup[0]) as svc:
        yield svc


#: gate profile -> RequestGate keywords; each run builds a fresh gate, so
#: a drained rate bucket never leaks between rows or transports
PROFILES = {
    "open": {},
    "auth": {"auth_token": TOKEN, "max_body_bytes": 64},
    "rate": {"rate_limit": 0.001, "rate_burst": 1},
}


@dataclass(frozen=True)
class Case:
    name: str
    method: str
    target: str
    headers: tuple[tuple[str, str], ...] = ()
    body: bytes = b""
    profile: str = "open"
    status: int = 200
    code: str | None = None  # error code of a JSON error body
    close: bool = False
    reads: int = 0  # body bytes the pipeline asks the driver to read
    rejected: str | None = None  # endpoint a gate rejection is counted on
    #: requests sent first on their own connections (to drain a bucket)
    warmup: tuple[tuple[tuple[str, str], ...], ...] = ()
    send_body: bool = True  # False: declare the body but never send it
    volatile: bool = False  # the body legitimately differs between runs
    body_is: bytes | None = None  # the exact body, pinned
    body_has: tuple[tuple[str, object], ...] = ()  # top-level JSON fields, pinned

    def wire(self, headers=None) -> bytes:
        lines = [f"{self.method} {self.target} HTTP/1.1", "Host: t"]
        lines += [f"{k}: {v}" for k, v in (self.headers if headers is None else headers)]
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + (self.body if self.send_body else b"")


def _json_post(payload) -> tuple[tuple[tuple[str, str], ...], bytes]:
    body = json.dumps(payload).encode()
    return (("Content-Length", str(len(body))),), body


def cases(query: list[str]) -> list[Case]:
    search_h, search_b = _json_post({"genes": query, "page_size": 5})
    render_h, render_b = _json_post({"search": {"genes": query}, "top_genes": 6})
    export_h, export_b = _json_post({"genes": query, "chunk_size": 30})
    smuggled = FOLLOW_UP
    repeat_h, repeat_b = _json_post({"genes": query, "page": 1, "page_size": 6})

    def bad_colormap(value, suffix: str = "") -> Case:
        headers, body = _json_post({"search": {"genes": query}, "colormap": value})
        return Case(f"colormap {value!r}{suffix}", "POST", "/v1/render/heatmap" + suffix,
                    headers, body, status=400, code="INVALID_REQUEST", reads=len(body))

    def verdict(name: str, payload: dict, **expected) -> Case:
        headers, body = _json_post(payload)
        return Case(name, "POST", "/v1/search", headers, body, reads=len(body), **expected)

    return [
        Case("health", "GET", "/v1/health", volatile=True),
        Case("search", "POST", "/v1/search", search_h, search_b, reads=len(search_b)),
        # the warm-up stores the answer, so the row itself is a cache hit:
        # the phase that never waits answers it (inline on the loop)
        Case("repeated search (answered from the result cache)", "POST",
             "/v1/search", repeat_h, repeat_b, reads=len(repeat_b),
             warmup=(repeat_h,)),
        # --- a query is judged by the backend's gene universe, nowhere
        # else; the bodies are the bytes ``ApiApp``'s own pre-check gave
        # (recorded from the commit before it was deleted)
        verdict(
            "unknown gene", {"genes": ["NO-SUCH-GENE", "NOR-THIS-ONE"]},
            status=404, code="UNKNOWN_GENE",
            body_is=b'{"api_version": "v1", "error": {"code": "UNKNOWN_GENE", "message": '
                    b'"no query gene exists in the compendium: NO-SUCH-GENE, NOR-THIS-ONE", '
                    b'"details": {"unknown_genes": ["NO-SUCH-GENE", "NOR-THIS-ONE"]}}}',
        ),
        verdict(
            "unknown dataset filter",
            {"genes": query, "datasets": ["no-such-dataset", "dataset_01", "a-missing-one"]},
            status=404, code="UNKNOWN_DATASET",
            body_is=b'{"api_version": "v1", "error": {"code": "UNKNOWN_DATASET", "message": '
                    b'"unknown dataset(s) in filter: a-missing-one, no-such-dataset", '
                    b'"details": {"unknown_datasets": ["a-missing-one", "no-such-dataset"], '
                    b'"known_count": 5}}}',
        ),
        verdict(
            "genes that exist only outside the filter",
            {"genes": ["ONLY-IN-EXTRA"], "datasets": ["dataset_00", "dataset_02"]},
            status=404, code="UNKNOWN_GENE",
            body_is=b'{"api_version": "v1", "error": {"code": "UNKNOWN_GENE", "message": '
                    b'"no query gene exists in the filtered datasets: ONLY-IN-EXTRA", '
                    b'"details": {"unknown_genes": ["ONLY-IN-EXTRA"]}}}',
        ),
        verdict(
            "partially unknown query", {"genes": query + ["NO-SUCH-GENE"], "page_size": 3},
            body_has=(("query", query + ["NO-SUCH-GENE"]), ("query_used", query),
                      ("query_missing", ["NO-SUCH-GENE"])),
        ),
        Case("unknown prefix", "GET", "/nope", status=404,
             code="UNKNOWN_ENDPOINT", close=True),
        Case("unknown endpoint", "GET", "/v1/nope", status=404,
             code="UNKNOWN_ENDPOINT", close=True),
        Case("wrong verb", "GET", "/v1/search", status=405,
             code="METHOD_NOT_ALLOWED", close=True),
        Case("unsupported verb PUT", "PUT", "/v1/search", search_h, search_b,
             status=405, code="METHOD_NOT_ALLOWED", close=True),
        Case("unsupported verb HEAD", "HEAD", "/v1/health", status=405,
             code="METHOD_NOT_ALLOWED", close=True),
        Case("401 before body", "POST", "/v1/search", search_h, search_b,
             profile="auth", send_body=False, status=401, code="UNAUTHORIZED",
             close=True, rejected="search"),
        Case("413 from the declared length alone", "POST", "/v1/search",
             (("Authorization", f"Bearer {TOKEN}"), ("Content-Length", "10000000")),
             profile="auth", send_body=False, status=413, code="BODY_TOO_LARGE",
             close=True, rejected="search"),
        Case("413 on a GET too", "GET", "/v1/datasets",
             (("Authorization", f"Bearer {TOKEN}"), ("Content-Length", "10000000")),
             profile="auth", status=413, code="BODY_TOO_LARGE",
             close=True, rejected="datasets"),
        Case("non-object JSON", "POST", "/v1/search",
             (("Content-Length", "7"),), b"[1,2,3]", status=400,
             code="MALFORMED_BODY", close=True, reads=7),
        Case("bad UTF-8", "POST", "/v1/search",
             (("Content-Length", "9"),), b'{"a":"\xff"}', status=400,
             code="MALFORMED_BODY", close=True, reads=9),
        Case("?format=ppm on a route with raw_formats", "POST",
             "/v1/render/heatmap?format=ppm", render_h, render_b,
             reads=len(render_b)),
        Case("?format=ppm on a route without raw_formats", "POST",
             "/v1/search?format=ppm", search_h, search_b, reads=len(search_b)),
        Case("?format=json", "POST", "/v1/render/heatmap?format=json",
             render_h, render_b, reads=len(render_b)),
        # --- a "one of" field is type-checked before the membership test:
        # an unhashable JSON value is a 400, never a 500 out of ``in``
        bad_colormap([]),
        bad_colormap({}),
        bad_colormap([], "?format=ppm"),
        Case("X-Client-Id ignored when unauthenticated", "GET", "/v1/datasets",
             (("X-Client-Id", "tenant-b"),), profile="rate", status=429,
             code="RATE_LIMITED", close=True, rejected="datasets", volatile=True,
             warmup=((("X-Client-Id", "tenant-a"),),)),
        # --- body framing is judged for every verb (the smuggling regression)
        Case("GET with a declared body is drained, not parsed", "GET",
             "/v1/health", (("Content-Length", str(len(smuggled))),), smuggled,
             reads=len(smuggled), volatile=True),
        Case("Content-Length +5 on GET", "GET", "/v1/health",
             (("Content-Length", "+5"),), b"hello", status=400,
             code="MALFORMED_BODY", close=True),
        Case("Content-Length abc on GET", "GET", "/v1/health",
             (("Content-Length", "abc"),), status=400,
             code="MALFORMED_BODY", close=True),
        Case("Content-Length 1_0 on GET", "GET", "/v1/health",
             (("Content-Length", "1_0"),), b"0123456789", status=400,
             code="MALFORMED_BODY", close=True),
        Case("chunked request body", "POST", "/v1/search",
             (("Transfer-Encoding", "chunked"),), b"5\r\nhello\r\n0\r\n\r\n",
             status=400, code="MALFORMED_BODY", close=True),
        # --- the client's own close wish is honoured and advertised
        Case("Connection: close on a stream", "POST", "/v1/search/export",
             export_h + (("Connection", "close"),), export_b, close=True,
             reads=len(export_b)),
        Case("keep-alive stream", "POST", "/v1/search/export", export_h,
             export_b, reads=len(export_b)),
    ]


CASE_NAMES = [c.name for c in cases(["g"])]


def make_app(service, profile: str) -> ApiApp:
    return ApiApp(service, gate=RequestGate(**PROFILES[profile]))


def scrub(obj):
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in obj.items()
                if k not in ("elapsed_seconds", "total_seconds")}
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


def comparable(content_type: str, body: bytes):
    """A response body with the wall-clock stamps out (NDJSON per line)."""
    if "ndjson" in content_type:
        return [scrub(json.loads(line)) for line in body.splitlines()]
    if "json" in content_type:
        return scrub(json.loads(body))
    return body


# ----------------------------------------------------------------- socket-free
def run_pipeline(app: ApiApp, case: Case, headers=None):
    """The three pipeline calls a driver makes, with no socket anywhere."""
    lowered = {k.lower(): v for k, v in (case.headers if headers is None else headers)}
    plan = plan_request(app, case.method, case.target, lowered, "127.0.0.1")
    asked = plan.body_bytes
    read_body(plan, case.body[:asked])
    keep_alive = lowered.get("connection") != "close"
    response = respond(app, plan, keep_alive=keep_alive, draining=False)
    body = response.body if response.lines is None else b"".join(response.lines)
    return asked, response, body


def assert_pinned(case: Case, body: bytes) -> None:
    if case.body_is is not None:
        assert body == case.body_is
    for key, value in case.body_has:
        assert json.loads(body)[key] == value, key


def errors_counted(app: ApiApp, endpoint: str | None) -> int:
    return app.endpoint_stats().get(endpoint, {}).get("errors", 0)


@pytest.mark.parametrize("index", range(len(CASE_NAMES)), ids=CASE_NAMES)
def test_pipeline_table(setup, service, index):
    case = cases(list(setup[1].query_genes))[index]
    app = make_app(service, case.profile)
    for headers in case.warmup:
        assert run_pipeline(app, case, headers)[1].status == 200
    before = errors_counted(app, case.rejected)
    asked, response, body = run_pipeline(app, case)
    assert response.status == case.status
    assert asked == case.reads
    assert response.close is case.close
    if case.code is not None:
        assert json.loads(body)["error"]["code"] == case.code
    assert_pinned(case, body)
    if case.rejected is not None:
        assert errors_counted(app, case.rejected) == before + 1
    if case.status == 429:
        retry_ms = json.loads(body)["error"]["details"]["retry_after_ms"]
        assert response.headers == {"Retry-After": str(-(-retry_ms // 1000))}


def test_draining_closes_an_otherwise_reusable_connection(setup, service):
    app = make_app(service, "open")
    plan = plan_request(app, "GET", "/v1/health", {}, "127.0.0.1")
    read_body(plan, b"")
    assert respond(app, plan, keep_alive=True, draining=False).close is False
    assert respond(app, plan, keep_alive=True, draining=True).close is True


def test_short_body_is_a_structured_400(setup, service):
    app = make_app(service, "open")
    plan = plan_request(app, "POST", "/v1/search", {"content-length": "40"}, "127.0.0.1")
    read_body(plan, b'{"genes": [')  # the client went away mid-body
    response = respond(app, plan, keep_alive=True, draining=False)
    assert (response.status, response.close) == (400, True)
    assert json.loads(response.body)["error"]["code"] == "MALFORMED_BODY"


# ---------------------------------------------------------------- real sockets
def exchange(addr, data: bytes) -> bytes:
    """Send ``data``, half-close, and read everything the server answers."""
    with socket.create_connection(addr, timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        received = bytearray()
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # a server may RST a connection it closed unread
            if not chunk:
                break
            received += chunk
        return bytes(received)


def split_responses(data: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Every HTTP/1.1 response in ``data``: (status, headers, body)."""
    responses = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep and head.startswith(b"HTTP/1.1 "), data[:200]
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding") == "chunked":
            body = bytearray()
            while True:
                size_line, _, rest = rest.partition(b"\r\n")
                size = int(size_line, 16)
                if size == 0:
                    rest = rest[2:]  # the terminating CRLF
                    break
                body += rest[:size]
                rest = rest[size + 2:]
            body = bytes(body)
        else:
            length = int(headers["content-length"])
            body, rest = rest[:length], rest[length:]
        responses.append((int(lines[0].split(" ")[1]), headers, body))
        data = rest
    return responses


FACADES = {"threaded": threaded_serve, "aio": aio_serve}


def run_wire(service, case: Case, facade: str):
    app = make_app(service, case.profile)
    server, thread = FACADES[facade](app)
    try:
        addr = server.server_address[:2]
        for headers in case.warmup:
            warm = split_responses(exchange(addr, case.wire(headers)))
            assert [r[0] for r in warm] == [200]
        before = errors_counted(app, case.rejected)
        data = exchange(addr, case.wire() + FOLLOW_UP)
        counted = errors_counted(app, case.rejected) - before
    finally:
        server.close(timeout=5)
        thread.join(timeout=10)
        service.unregister_transport_stats("http")
        service.unregister_transport_stats("aio")
    return data, counted


@pytest.mark.parametrize("index", range(len(CASE_NAMES)), ids=CASE_NAMES)
def test_both_facades_put_the_pipeline_on_the_wire(setup, service, index):
    case = cases(list(setup[1].query_genes))[index]
    reference_app = make_app(service, case.profile)
    for headers in case.warmup:
        run_pipeline(reference_app, case, headers)
    _asked, expected, expected_body = run_pipeline(reference_app, case)
    want = comparable(expected.content_type, expected_body)

    for facade in FACADES:
        data, counted = run_wire(service, case, facade)
        # never the stdlib's HTML error page, whatever was sent
        assert b"<html" not in data.lower() and b"<!doctype" not in data.lower(), facade
        responses = split_responses(data)
        # a closed connection never parses the follow-up; a kept one does
        assert len(responses) == (1 if case.close else 2), (facade, responses)
        status, headers, body = responses[0]
        assert status == case.status, facade
        assert headers["content-type"] == expected.content_type, facade
        if not case.volatile:
            assert comparable(expected.content_type, body) == want, facade
        if case.code is not None:
            assert json.loads(body)["error"]["code"] == case.code, facade
        assert_pinned(case, body)
        assert (headers.get("connection") == "close") is case.close, facade
        if case.status == 429:
            retry_ms = json.loads(body)["error"]["details"]["retry_after_ms"]
            assert headers["retry-after"] == str(-(-retry_ms // 1000)), facade
        if case.rejected is not None:
            assert counted == 1, facade
        if not case.close:
            follow_status, follow_headers, _ = responses[1]
            assert follow_status == 200, facade
            assert follow_headers["content-type"].startswith("application/json")

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

The rows that depend on what serves the app — deadlines, tenant
budgets, the gene universe's verdicts — also run along an **app axis**
(``COLUMNS``): the one ``SpellService`` above, a catalog routing two
more tenants (``max_resident=2``, a tenant rate limit) and a 2-shard
local router, each socket-free and over both facades.
"""

from __future__ import annotations

import ast
import json
import re
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import repro.api.app
import repro.api.pipeline
from repro.api.aio.server import serve_background as aio_serve
from repro.api.app import ApiApp
from repro.api.errors import ApiError
from repro.api.http import serve_background as threaded_serve
from repro.api.limits import RequestContext, RequestGate
from repro.api.pipeline import plan_request, read_body, respond
from repro.cluster_serving import build_local_topology
from repro.cluster_serving.hedging import HedgePolicy
from repro.data import Dataset, ExpressionMatrix
from repro.data.pcl import format_pcl
from repro.rpc.faults import FaultPlan
from repro.rpc.policy import RetryPolicy
from repro.spell import SpellService
from repro.spell.catalog import CompendiumCatalog
from repro.synth import make_spell_compendium
from repro.util.deadline import Deadline

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
    return asked, respond(app, plan, keep_alive=keep_alive, draining=False)


def assert_pinned(case: Case, body: bytes) -> None:
    if case.body_is is not None:
        assert body == case.body_is
    for key, value in case.body_has:
        assert json.loads(body)[key] == value, key


def errors_counted(app: ApiApp, endpoint: str | None) -> int:
    return app.health().endpoints.get(endpoint, {}).get("errors", 0)


@pytest.mark.parametrize("index", range(len(CASE_NAMES)), ids=CASE_NAMES)
def test_pipeline_table(setup, service, index):
    case = cases(list(setup[1].query_genes))[index]
    check_row(make_app(service, case.profile), case)


def check_row(app: ApiApp, case: Case) -> None:
    """One table row through the socket-free pipeline."""
    for headers in case.warmup:
        assert run_pipeline(app, case, headers)[1].status == 200
    before = errors_counted(app, case.rejected)
    asked, response = run_pipeline(app, case)
    body = response.body
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
    """Every complete HTTP/1.1 response in ``data``: (status, headers, body)."""
    responses = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep and head.startswith(b"HTTP/1.1 "), data[:200]
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        body, rest = rest[:length], rest[length:]
        assert len(body) == length
        responses.append((int(lines[0].split(" ")[1]), headers, body))
        data = rest
    return responses


FACADES = {"threaded": threaded_serve, "aio": aio_serve}


@contextmanager
def serving(app: ApiApp, facade: str):
    """One facade serving ``app`` for the block; yields its address."""
    server, thread = FACADES[facade](app)
    try:
        yield server.server_address[:2]
    finally:
        server.close(timeout=5)
        thread.join(timeout=10)


def run_wire(service, case: Case, facade: str):
    app = make_app(service, case.profile)
    with serving(app, facade) as addr:
        for headers in case.warmup:
            warm = split_responses(exchange(addr, case.wire(headers)))
            assert [r[0] for r in warm] == [200]
        before = errors_counted(app, case.rejected)
        data = exchange(addr, case.wire() + FOLLOW_UP)
        counted = errors_counted(app, case.rejected) - before
    return data, counted


@pytest.mark.parametrize("index", range(len(CASE_NAMES)), ids=CASE_NAMES)
def test_both_facades_put_the_pipeline_on_the_wire(setup, service, index):
    case = cases(list(setup[1].query_genes))[index]
    reference_app = make_app(service, case.profile)
    for headers in case.warmup:
        run_pipeline(reference_app, case, headers)
    _asked, expected = run_pipeline(reference_app, case)
    want = comparable(expected.content_type, expected.body)

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


# -------------------------------------------------------------- the app axis
#: column -> RequestGate keywords of the app it builds
COLUMNS = {
    "single": {},
    "catalog": {"tenant_rate_limit": 0.001, "tenant_rate_burst": 64},
    "router": {},
}

#: the catalog column's named tenants and the setup datasets each serves
TENANTS = {"acme": (0, 1, 4), "beta": (2, 3)}

#: what a deadline row may take beyond its budget (scheduling, the
#: facade's connection, a 504's encoding) — far below the shards' stall
SLACK_SECONDS = 1.0
STALL_SECONDS = 3.0


@pytest.fixture(scope="module")
def columns(setup, service, tmp_path_factory):
    """Column -> the ``ApiApp`` keywords of its backend (see
    :func:`column_app`).  The catalog's default tenant is the module's
    service, so a request that names no tenant answers the same bytes on
    every column."""
    comp = setup[0]
    catalog = CompendiumCatalog(
        tmp_path_factory.mktemp("tenants"), default_service=service, max_resident=2
    )
    for tenant, picks in TENANTS.items():
        for i in picks:
            catalog.ingest(tenant, comp[i].name, "pcl", format_pcl(comp[i].matrix))
    topology = build_local_topology(comp, n_shards=2)
    backends = {
        "single": dict(service=service),
        "catalog": dict(service=service, catalog=catalog),
        "router": dict(service=topology.router),
    }
    yield backends
    topology.close()
    catalog.close()


def column_app(columns, column: str, profile: str = "open") -> ApiApp:
    """A fresh app (fresh gate: the row's profile plus the column's own
    limits) over one column's backend."""
    gate = RequestGate(**PROFILES[profile], **COLUMNS[column])
    return ApiApp(gate=gate, **columns[column])


@pytest.fixture(scope="module")
def stalled_router(setup):
    """The router column with both shards holding every ``partials``
    reply for :data:`STALL_SECONDS` (hedging, retries, the cache and the
    breaker off: every row reaches the stall)."""
    stall = FaultPlan(methods=("partials",), stall=1.0, stall_seconds=STALL_SECONDS)
    topology = build_local_topology(
        setup[0], n_shards=2, cache_size=0,
        hedge=HedgePolicy.disabled(), retry=RetryPolicy.none(),
        breaker_failure_threshold=10**9,
        fault_plans={"shard-0": stall, "shard-1": stall},
    )
    yield topology.router
    topology.close()


@pytest.fixture(scope="module")
def dead_router(setup):
    """The router column with ``shard-1`` killed and ``replication=1``
    (retries, hedging, the cache and the breaker off: every row asks the
    dead shard and hears the same refusal), and the datasets it took."""
    topology = build_local_topology(
        setup[0], n_shards=2, replication=1, cache_size=0,
        hedge=HedgePolicy.disabled(), retry=RetryPolicy.none(),
        breaker_failure_threshold=10**9,
    )
    topology.kill("shard-1")
    topology.router.heartbeat()  # drop the pooled connection the kill left behind
    yield topology.router, sorted(ds.name for ds in topology.shard("shard-1").compendium)
    topology.close()


def post_everywhere(app: ApiApp, requests: list[tuple[str, dict]]) -> list[tuple]:
    """POST each ``(target, payload)`` through the socket-free pipeline,
    then over each facade (one server per facade): one ``((runner,
    target), status, content type, body bytes, seconds to the answer)``
    per request and runner."""
    cases = [Case(t, "POST", t, *_json_post(payload)) for t, payload in requests]
    answers = []
    for case in cases:
        t0 = time.monotonic()
        _, response = run_pipeline(app, case)
        seconds = time.monotonic() - t0
        answers.append(
            (("pipeline", case.target), response.status, response.content_type,
             response.body, seconds)
        )
    for facade in FACADES:
        with serving(app, facade) as addr:
            for case in cases:
                t0 = time.monotonic()
                data = exchange(addr, case.wire())
                seconds = time.monotonic() - t0
                ((status, headers, body),) = split_responses(data)
                answers.append(
                    ((facade, case.target), status, headers["content-type"], body, seconds)
                )
    return answers


def search_routes(genes, *, deadline_ms=None, compendium=None) -> list[tuple[str, dict]]:
    """``(target, payload)`` for every route that carries a search, all
    asking ``genes``."""
    scope = {} if compendium is None else {"compendium": compendium}
    budget = {} if deadline_ms is None else {"deadline_ms": deadline_ms}
    search = {"genes": genes, **budget, **scope}
    nested = {"search": search, "top_genes": 6}
    return [
        ("/v1/search", search),
        ("/v1/search/batch", {"searches": [{"genes": genes}], **budget, **scope}),
        ("/v1/search/export", dict(search, chunk_size=30)),
        ("/v1/cluster", nested),
        ("/v1/render/heatmap", nested),
        ("/v1/render/heatmap?format=ppm", nested),
    ]


def error_code(content_type: str, body: bytes) -> str | None:
    return json.loads(body)["error"]["code"] if "json" in content_type else None


@pytest.fixture()
def spent_budgets(monkeypatch):
    """Every budget a request's ``deadline_ms`` starts is already spent."""
    monkeypatch.setattr(
        Deadline, "after_ms",
        classmethod(lambda cls, ms: cls(None) if ms is None else cls(0.0)),
    )


@pytest.mark.parametrize("genes", ["known", "unknown"])
@pytest.mark.parametrize("column", list(COLUMNS))
def test_a_spent_budget_is_504_on_every_search_route(
    setup, columns, spent_budgets, column, genes
):
    """Every route that carries a search holds it to its ``deadline_ms``
    — checked before the gene universe is asked, so a spent budget on a
    query of unknown genes is still a 504, not a 404."""
    query = list(setup[1].query_genes) if genes == "known" else ["NO-SUCH-GENE"]
    tenant = "acme" if column == "catalog" else None
    requests = search_routes(query, deadline_ms=60_000, compendium=tenant)
    for where, status, content_type, body, _ in post_everywhere(
        column_app(columns, column), requests
    ):
        assert (status, error_code(content_type, body)) == (504, "DEADLINE_EXCEEDED"), where


@pytest.mark.parametrize("index", range(len(CASE_NAMES)), ids=CASE_NAMES)
@pytest.mark.parametrize("column", ["catalog", "router"])
def test_pipeline_table_on_every_column(setup, columns, column, index):
    """The request contract does not depend on what serves the app."""
    case = cases(list(setup[1].query_genes))[index]
    check_row(column_app(columns, column, case.profile), case)


def test_stalled_shards_answer_504_within_the_budget(setup, stalled_router):
    """Behind shards that stall every reply, each route answers at its
    own or nested ``deadline_ms`` (plus :data:`SLACK_SECONDS`), never
    after the stall."""
    budget_ms = 200
    requests = search_routes(list(setup[1].query_genes), deadline_ms=budget_ms)
    for where, status, content_type, body, seconds in post_everywhere(
        ApiApp(stalled_router), requests
    ):
        assert (status, error_code(content_type, body)) == (504, "DEADLINE_EXCEEDED"), where
        assert seconds < budget_ms / 1000 + SLACK_SECONDS < STALL_SECONDS, where


def test_a_dead_shard_is_a_flagged_partial_or_a_refusal(setup, dead_router):
    """Behind a lost shard, search and batch answer a flagged partial
    naming every missing dataset with its reasons; the routes with no
    field to flag one (export, cluster, render) refuse with
    ``SHARD_UNAVAILABLE`` instead of drawing a truncated ranking.  Each
    route answers the same on the pipeline and both facades."""
    router, lost = dead_router
    assert lost  # the plan gave shard-1 something to lose
    bodies: dict[str, list] = {}
    for (_, target), status, content_type, body, _ in post_everywhere(
        ApiApp(router), search_routes(list(setup[1].query_genes))
    ):
        bodies.setdefault(target, []).append((status, comparable(content_type, body)))
        if target in ("/v1/search", "/v1/search/batch"):
            page = json.loads(body)
            page = page["results"][0] if "results" in page else page
            assert (status, page["partial"]) == (200, True), target
            assert page["shards"]["missing_datasets"] == lost, target
            assert all(page["shards"]["failures"][name] for name in lost), target
        else:
            assert (status, error_code(content_type, body)) == (503, "SHARD_UNAVAILABLE"), target
    for target, answers in bodies.items():
        assert len(answers) == 1 + len(FACADES), target
        assert all(answer == answers[0] for answer in answers), target


def test_an_over_budget_tenant_is_refused_before_it_is_loaded(setup, columns):
    """The tenant is charged before it is resolved, on every route: a
    request over a non-resident tenant's budget answers 429 without
    loading it, so no other tenant is evicted for it."""
    app = column_app(columns, "catalog")
    catalog = app.catalog
    catalog.resolve("beta")  # max_resident=2: the default and beta; acme is out
    with pytest.raises(ApiError):
        for _ in range(COLUMNS["catalog"]["tenant_rate_burst"] + 1):
            app.gate.charge_tenant("acme", RequestContext(client="127.0.0.1"))
    before = catalog.stats()
    assert before["acme"]["resident"] is False
    requests = search_routes(list(setup[1].query_genes), compendium="acme")
    for where, status, content_type, body, _ in post_everywhere(app, requests):
        assert (status, error_code(content_type, body)) == (429, "RATE_LIMITED"), where
        assert json.loads(body)["error"]["details"]["scope"] == "tenant", where
    after = catalog.stats()
    assert (after["acme"], after["beta"]) == (before["acme"], before["beta"])


@pytest.mark.parametrize("column", list(COLUMNS))
def test_an_unknown_target_dataset_is_the_gene_universe_verdict(setup, columns, column):
    """Cluster and render judge a named ``dataset`` as a search judges
    its ``datasets`` filter: the backend's gene universe answers, with
    the same bytes on every route."""
    query = list(setup[1].query_genes)
    nested = {"search": {"genes": query}, "top_genes": 6, "dataset": "nope"}
    requests = [
        ("/v1/search", {"genes": query, "datasets": ["nope"]}),
        ("/v1/cluster", nested),
        ("/v1/render/heatmap", nested),
        ("/v1/render/heatmap?format=ppm", nested),
    ]
    for where, status, _, body, _ in post_everywhere(column_app(columns, column), requests):
        assert (status, body) == (
            404,
            b'{"api_version": "v1", "error": {"code": "UNKNOWN_DATASET", "message": '
            b'"unknown dataset(s) in filter: nope", '
            b'"details": {"unknown_datasets": ["nope"], "known_count": 5}}}',
        ), where


# ------------------------------------------------------------ the one way in
def _callers(tree: ast.AST, attrs: set[str]) -> set[str]:
    """Names of the innermost functions (``"<module>"`` for top-level
    code) that call a method named in ``attrs``, on any receiver."""
    found: set[str] = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
            if isinstance(func, ast.Attribute) and func.attr in attrs:
                found.add(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def _tree(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def test_every_route_enters_the_app_one_way():
    """Structure lock: in the app only ``_parse`` admits, decodes or
    charges a request; the pipeline's waiting phase reaches the app only
    through ``compute_wire``; and the side doors, the dispatch tables
    derived beside ``ROUTE_BY_NAME``, the multi-run stream protocol and
    chunked response framing stay deleted."""
    app_tree = _tree(repro.api.app)
    assert _callers(app_tree, {"admit", "charge_tenant", "from_wire"}) == {"_parse"}
    (compute,) = [
        node for node in ast.walk(_tree(repro.api.pipeline))
        if isinstance(node, ast.FunctionDef) and node.name == "compute"
    ]
    called = {
        node.func.attr for node in ast.walk(compute)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", None) == "app"
    }
    assert called == {"compute_wire"}
    gone = re.compile(
        r"\b(render_heatmap_wire|unary_endpoints|stream_endpoints|ENDPOINTS|STREAM_ENDPOINTS"
        r"|LineStream|close_quietly|encode_run|_encode_export|_timed"
        r"|encode_chunk|CHUNKED_EOF|encode_stream_head)\b"
    )
    src = Path(repro.api.app.__file__).parents[1]
    offenders = [
        f"{path.relative_to(src)}:{match.group(0)}"
        for path in sorted(src.rglob("*.py"))
        for match in gone.finditer(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []

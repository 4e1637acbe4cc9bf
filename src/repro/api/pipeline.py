"""Sans-IO request pipeline: one code path from a parsed head to response bytes.

Every HTTP request, whichever socket driver accepted it, takes the same
three steps — and each step is decided here, once:

1. :func:`plan_request` judges the **head alone** ``(method, target,
   lower-cased headers, peer)``: body framing, route + verb, the
   :class:`~repro.api.limits.RequestContext`, admission control (auth,
   rate limits, the body cap on the *declared* size — so a rejected
   client never costs a body read), rejection accounting, and whether
   the answer is a JSON body, raw bytes or NDJSON lines.  The
   returned :class:`Plan` says how many body bytes the driver must read.
2. :func:`read_body` applies the JSON-object rules to those bytes.
3. :func:`respond` calls the application and returns one
   :class:`Response` value: status, content type, extra headers, the
   body bytes (a stream's lines joined) and whether the connection must
   close.  It leaves in one write, framed by its ``Content-Length``.

Step 3 is two phases, and ``respond`` is literally ``ready(...) or
compute(...)``.  :func:`ready` is everything that **cannot wait** — a
failed plan, parsing and validating the request (of every kind: JSON,
raw or stream), the tenant charge, resolving an already-resident
tenant, the deadline check, the result-cache probe and, on a hit, the
page's bytes or an export's lines from offset 0 (kept encoded on the
cached ranking, with this request's ``elapsed_seconds`` spliced in) —
and returns ``None`` when only the second phase can tell.  :func:`compute`
is everything that **may wait**: the scoring kernel, the process pool's
pipes, the router's sockets, a lazy tenant load, ingest and its fsync,
encoding or resuming an export, renders — and the unknown-gene/dataset
verdicts, which belong
to the backend's gene universe: an index that may need a splice before
it can be asked.  A driver with a thread
per request calls ``respond``; a driver with an event loop calls
``ready`` on the loop and ``compute`` from a worker thread, so what is
already in memory is answered without a thread hop and nothing that can
wait ever runs on the loop.  Either way the same code answers, and the
bytes are the same whichever phase did.

A driver (:mod:`repro.api.http`, :mod:`repro.api.aio.server`) only moves
bytes: it parses a head, calls these functions, and writes the
:class:`Response`.  Nothing here touches a socket, a thread or an event
loop, so the whole request contract is unit-testable as a table
(``tests/test_api_conformance.py``) and cannot differ between facades.

The close rule is *close, don't desync*: a request refused before its
body was read leaves that body on the wire, where a reused keep-alive
connection would parse it as the next request line — so every error
plan answers ``Connection: close``.  A *valid* declared body is always
read, GET included, for the same reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Mapping
from urllib.parse import parse_qs, urlparse

from repro.api.app import ApiApp, all_endpoints
from repro.api.errors import ApiError, error_payload
from repro.api.limits import RequestContext
from repro.api.routes import ROUTE_BY_NAME, Route
from repro.api.transport import declared_body_length, retry_after_headers

__all__ = [
    "PREFIX",
    "Plan",
    "Response",
    "compute",
    "plan_request",
    "read_body",
    "ready",
    "respond",
]

PREFIX = "/v1/"

JSON_TYPE = "application/json; charset=utf-8"
NDJSON_TYPE = "application/x-ndjson; charset=utf-8"
PPM_TYPE = "image/x-portable-pixmap"

_VERBS = ("GET", "POST")

#: Gate-rejection codes raised here, before ``ApiApp._parse`` ran (and
#: could do its own error accounting).
_GATE_CODES = frozenset({"UNAUTHORIZED", "RATE_LIMITED", "BODY_TOO_LARGE"})


@dataclass
class Plan:
    """One request as judged on its head; completed by :func:`read_body`.

    ``error`` set means the request is already answered (and the
    connection must close); otherwise ``route``/``context``/``kind``
    say what :func:`respond` will call.  ``kind`` is ``"unary"`` (a JSON
    body), ``"raw"`` (``?format=`` bytes) or ``"stream"`` (NDJSON
    lines); all three take the app's same two phases and differ only in
    what :func:`compute` wraps the answer in.  ``request`` is the parsed
    (and tenant-charged) protocol request :func:`ready` leaves for
    :func:`compute`, so a request is parsed and charged once.
    """

    route: Route | None = None
    context: RequestContext | None = None
    kind: str = "unary"
    body_bytes: int = 0  # what the driver must read before read_body()
    payload: dict | None = None
    request: object = None
    error: ApiError | None = None


@dataclass
class Response:
    """Everything a driver writes for one request, in one write.

    ``body`` is the whole body — a stream's lines joined — sent with its
    ``Content-Length``.  ``close`` is final: the driver advertises
    ``Connection: close`` and closes after writing.
    """

    status: int
    content_type: str
    body: bytes
    headers: dict[str, str] = field(default_factory=dict)
    close: bool = False


# --------------------------------------------------------------------------
# step 1: the head
# --------------------------------------------------------------------------
def _resolve(path: str, verb: str) -> Route:
    """Resolve a URL path + verb against the declarative route registry."""
    if verb not in _VERBS:
        raise ApiError(
            "METHOD_NOT_ALLOWED",
            f"method {verb} is not supported; use GET or POST",
            details={"allowed": list(_VERBS)},
        )
    if not path.startswith(PREFIX):
        raise ApiError(
            "UNKNOWN_ENDPOINT",
            f"no route {path!r}; endpoints live under {PREFIX}",
            details={"endpoints": [PREFIX + e for e in all_endpoints()]},
        )
    route = ROUTE_BY_NAME.get(path[len(PREFIX):].strip("/"))
    if route is None:
        raise ApiError(
            "UNKNOWN_ENDPOINT",
            f"no endpoint {path!r}",
            details={"endpoints": [PREFIX + e for e in all_endpoints()]},
        )
    if verb != route.method:
        raise ApiError(
            "METHOD_NOT_ALLOWED",
            f"{path} expects {route.method}, got {verb}",
            details={"allowed": [route.method]},
        )
    return route


def _context(headers: Mapping[str, str], peer: str, declared: int) -> RequestContext:
    """Describe one request for admission control (before any body read).

    ``client`` is the peer address — transport-assigned, so an anonymous
    caller cannot mint fresh rate buckets per request; an ``X-Client-Id``
    header rides as ``declared_client``, which the gate honors only once
    auth vouched for the caller.  ``body_bytes`` is the *declared*
    length — what the cap must judge, since rejecting after reading
    defends nothing.
    """
    auth = headers.get("authorization", "")
    return RequestContext(
        client=peer,
        auth_token=auth[7:].strip() if auth.startswith("Bearer ") else None,
        body_bytes=declared,
        declared_client=headers.get("x-client-id") or None,
    )


def _raw_format(query_string: str) -> str | None:
    """The ``?format=`` value when it requests raw bytes, else ``None``."""
    if not query_string:
        return None
    value = parse_qs(query_string).get("format", ["json"])[-1]
    return None if value == "json" else value


def plan_request(
    app: ApiApp, method: str, target: str, headers: Mapping[str, str], peer: str
) -> Plan:
    """Judge one request on its head alone; never raises.

    Order: body framing (an unframeable request is trusted for nothing
    else), route + verb, then the gate — whose ``admit`` also holds the
    declared length to the body cap, for every verb.  The context comes
    back marked ``admitted`` so the app layer's own ``gate.admit`` passes
    it through without spending a second token.
    """
    url = urlparse(target)
    route: Route | None = None
    try:
        try:
            declared = declared_body_length(headers)
        except ValueError as exc:
            raise ApiError("MALFORMED_BODY", str(exc)) from None
        route = _resolve(url.path, method)
        context = _context(headers, peer, declared)
        app.gate.admit(route.name, context)
    except ApiError as err:
        if err.code in _GATE_CODES:
            # the app never sees this request: keep the 401/429/413
            # visible in /v1/health error rates
            app.record_rejection(route.name if route is not None else "(unknown)")
        return Plan(error=err)
    if route.kind == "stream":
        kind = "stream"
    elif _raw_format(url.query) in route.raw_formats:
        kind = "raw"
    else:
        kind = "unary"
    return Plan(
        route=route,
        context=replace(context, admitted=True),
        kind=kind,
        body_bytes=declared,
    )


# --------------------------------------------------------------------------
# step 2: the body
# --------------------------------------------------------------------------
def read_body(plan: Plan, raw: bytes) -> None:
    """Turn the ``plan.body_bytes`` bytes the driver read into a payload.

    A POST body must be one JSON object (absent means ``{}``).  A GET's
    declared body was read only to keep the stream framed and is
    ignored.  A short read means the client went away mid-body.
    """
    if plan.error is not None:
        return
    if len(raw) < plan.body_bytes:
        plan.error = ApiError(
            "MALFORMED_BODY",
            f"connection closed mid-body ({len(raw)} of {plan.body_bytes} bytes)",
        )
    elif plan.route.method != "POST":
        plan.payload = {}
    else:
        try:
            payload = json.loads(raw or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            plan.error = ApiError(
                "MALFORMED_BODY", f"request body is not valid JSON: {exc}"
            )
            return
        if isinstance(payload, dict):
            plan.payload = payload
        else:
            plan.error = ApiError(
                "MALFORMED_BODY",
                f"request body must be a JSON object, got {type(payload).__name__}",
            )


# --------------------------------------------------------------------------
# step 3: the response
# --------------------------------------------------------------------------
def _json(status: int, body: dict | bytes, close: bool) -> Response:
    if isinstance(body, bytes):  # a ready half's page, encoded where it is kept
        return Response(status, JSON_TYPE, body=body, close=close)
    return Response(
        status,
        JSON_TYPE,
        body=json.dumps(body).encode("utf-8"),
        headers=retry_after_headers(body),
        close=close,
    )


def _answer(plan: Plan, status: int, body, close: bool) -> Response:
    """The app's answer to ``plan`` as a :class:`Response`, whichever
    phase gave it: an error or a unary answer is JSON, a raw one its
    image bytes, a stream's lines one NDJSON body."""
    if status != 200 or plan.kind == "unary":
        return _json(status, body, close)
    if plan.kind == "raw":
        return Response(200, PPM_TYPE, body=body, close=close)
    return Response(200, NDJSON_TYPE, body=b"".join(body), close=close)


def ready(
    app: ApiApp, plan: Plan, *, keep_alive: bool, draining: bool
) -> Response | None:
    """Answer a planned request if that takes no waiting, else ``None``.

    Safe to call from a thread that must not block (an event loop): it
    reaches no kernel, pool, socket or disk.  What it answers is already
    in memory — an error, a cached page's bytes, or the lines of an
    export from offset 0 whose ranking is cached with those lines
    encoded (an NDJSON body, as :func:`compute` would send it).  It is
    also the only phase that parses the body and charges the tenant, for
    every kind of request — ``plan.request`` carries the result to
    :func:`compute`.
    """
    if plan.error is not None:
        return _json(plan.error.http_status, error_payload(plan.error), True)
    plan.request, answer = app.ready_wire(
        plan.route.name, plan.payload, context=plan.context
    )
    return None if answer is None else _answer(plan, *answer, draining or not keep_alive)


def compute(app: ApiApp, plan: Plan, *, keep_alive: bool, draining: bool) -> Response:
    """Answer a planned request :func:`ready` returned ``None`` for.

    This is where the application may wait, a whole export included:
    its lines are ready when the app answers, so a raw or stream request
    that fails answers an ordinary JSON error status like any other.
    """
    status, body = app.compute_wire(
        plan.route.name, plan.request, raw=plan.kind == "raw"
    )
    return _answer(plan, status, body, draining or not keep_alive)


def respond(app: ApiApp, plan: Plan, *, keep_alive: bool, draining: bool) -> Response:
    """Answer a planned request (this is where the application runs).

    ``keep_alive`` is the client's wish, ``draining`` the server's state;
    the response closes when either says so or the plan failed.
    """
    return ready(app, plan, keep_alive=keep_alive, draining=draining) or compute(
        app, plan, keep_alive=keep_alive, draining=draining
    )

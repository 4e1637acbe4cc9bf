"""The asyncio driver without a socket (`repro.api.aio.server._Connection`).

A connection is one asyncio protocol object; everything it does is a
reaction to a callback, so its whole contract can be driven by hand: a
fake transport records ``write`` / ``pause_reading`` / ``resume_reading``
/ ``close`` / ``abort``, and a step executor parks every submission
until the test says the "thread" has finished.  One test per contract
point, a segmentation property over the parser + driver together, and —
over real sockets, because their subject is the kernel's buffers and a
timer — the idle bound and the write-side backpressure.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import http.client
import inspect
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api.aio.server as aio_server
from repro.api.aio.server import AioApiServer, _Connection, serve_background
from repro.api.app import ApiApp
from repro.api.http import _Handler
from repro.api.http import serve_background as threaded_serve
from repro.api.limits import RequestGate
from repro.api.transport import IDLE_SECONDS, TransportStats
from repro.spell import SpellService
from repro.synth import make_spell_compendium
from tests.test_api_conformance import split_responses

TOKEN = "s3cret"
DEPTH = 4


# ----------------------------------------------------------------- the fakes
class FakeTransport:
    """What the connection asks of its transport, in order."""

    def __init__(self, loop, protocol, *, pause_at_write: int | None = None):
        self.loop = loop
        self.protocol = protocol
        self.writes: list[bytes] = []
        self.calls: list[str] = []
        self.closing = False
        self.pause_at_write = pause_at_write  # the write that crosses high water

    @property
    def written(self) -> bytes:
        return b"".join(self.writes)

    def write(self, data) -> None:
        assert not self.closing, "wrote after close"
        self.writes.append(bytes(data))
        if len(self.writes) == self.pause_at_write:
            self.protocol.pause_writing()

    def pause_reading(self) -> None:
        self.calls.append("pause_reading")

    def resume_reading(self) -> None:
        self.calls.append("resume_reading")

    def is_closing(self) -> bool:
        return self.closing

    def _end(self, how: str) -> None:
        if not self.closing:
            self.closing = True
            self.calls.append(how)
            # like the selector transport: connection_lost on a later turn
            self.loop.call_soon(self.protocol.connection_lost, None)

    def close(self) -> None:
        self._end("close")

    def abort(self) -> None:
        self._end("abort")


class StepExecutor:
    """``submit`` parks the call; ``run`` is the thread finishing it."""

    def __init__(self, *, inline: bool = False):
        self.inline = inline
        self.parked: list[tuple] = []
        self.names: list[str] = []  # what was submitted, ever

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        self.names.append(getattr(fn, "__name__", None) or fn.func.__name__)
        self.parked.append((future, fn, args))
        if self.inline:
            self.run()
        return future

    def run(self, count: int | None = None) -> None:
        for _ in range(len(self.parked) if count is None else count):
            future, fn, args = self.parked.pop(0)
            try:
                future.set_result(fn(*args))
            except Exception as exc:  # noqa: BLE001 — delivered like a thread would
                future.set_exception(exc)


class Harness:
    """A bound (never serving) server, a private loop, fake connections."""

    def __init__(self, app: ApiApp, *, depth: int = DEPTH, inline: bool = False):
        self.app = app
        self.loop = asyncio.new_event_loop()
        self.server = AioApiServer(app, pipeline_depth=depth, transport_label="aio-fake")
        self.server._loop = self.loop
        self.server._executor = self.executor = StepExecutor(inline=inline)
        self.server._sweep()  # arms the idle timer, as serve_forever does
        self.released = 0

    def connect(self, **transport_kwargs) -> tuple[_Connection, FakeTransport]:
        conn = _Connection(self.server, ("10.0.0.1", 4321), self._release)
        transport = FakeTransport(self.loop, conn, **transport_kwargs)
        conn.connection_made(transport)
        return conn, transport

    def _release(self) -> None:
        self.released += 1

    def turn(self) -> None:
        """Let the loop run everything that is ready (done-callbacks hop
        through ``call_soon_threadsafe`` and ``call_soon``)."""
        for _ in range(6):
            self.loop.run_until_complete(asyncio.sleep(0))

    def finish(self, count: int | None = None) -> None:
        """The executor finishes ``count`` parked calls and the loop hears."""
        self.executor.run(count)
        self.turn()

    @property
    def stats(self) -> dict:
        return self.server.stats.snapshot()

    def close(self) -> None:
        self.server._sweeper.cancel()
        self.server._sock.close()
        self.loop.close()
        self.app.service.unregister_transport_stats("aio-fake", self.server.stats.snapshot)


# -------------------------------------------------------------- the fixtures
@pytest.fixture(scope="module")
def setup():
    return make_spell_compendium(
        n_datasets=6, n_relevant=2, n_genes=120, n_conditions=10,
        module_size=12, query_size=3, seed=11,
    )


@pytest.fixture(scope="module")
def service(setup):
    with SpellService(setup[0], n_workers=1) as svc:
        svc.search(setup[1].query_genes)  # every page of this query is a hit
        yield svc


@pytest.fixture()
def harness(service):
    h = Harness(ApiApp(service))
    yield h
    h.close()


def wire(method: str, path: str, payload=None, headers=()) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode()
    lines = [f"{method} {path} HTTP/1.1", "Host: x", *headers]
    if payload is not None:
        lines.append(f"Content-Length: {len(body)}")
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body


@pytest.fixture(scope="module")
def traffic(setup):
    """Request builders over the warmed query: ``hit(page)`` is answered
    by ``ready``; ``miss`` and ``export`` need the executor."""
    genes = list(setup[1].query_genes)

    class Traffic:
        @staticmethod
        def hit(page: int = 0, headers=()) -> bytes:
            return wire("POST", "/v1/search",
                        {"genes": genes, "page": page, "page_size": 3}, headers)

        @staticmethod
        def miss(headers=()) -> bytes:
            return wire("POST", "/v1/search",
                        {"genes": genes, "page_size": 5, "use_cache": False}, headers)

        @staticmethod
        def export(chunk_size: int = 20, headers=()) -> bytes:
            return wire("POST", "/v1/search/export",
                        {"genes": genes, "chunk_size": chunk_size}, headers)

    return Traffic


def pages(transport: FakeTransport) -> list:
    """What each written response answered: a page number, or the
    response's kind for anything that is not a search page."""
    out = []
    for status, headers, body in split_responses(transport.written):
        if headers["content-type"].startswith("application/x-ndjson"):
            out.append("export")
        elif status != 200:
            out.append(status)
        else:
            out.append(json.loads(body)["page"])
    return out


# ----------------------------------------------------- the contract points
class TestContract:
    def test_1_a_hit_behind_a_miss_waits_answers_keep_their_order(
        self, harness, traffic
    ):
        conn, transport = harness.connect()
        conn.data_received(traffic.miss() + traffic.hit(1) + traffic.hit(2))
        # all three are parsed and admitted, nothing may overtake the miss
        assert transport.writes == []
        assert harness.stats["in_flight"] == 3
        assert harness.executor.names == ["compute"]  # one call per connection
        harness.finish()
        assert pages(transport) == [0, 1, 2]
        assert harness.executor.names == ["compute"]  # the hits never left the loop
        assert harness.stats["in_flight"] == 0
        assert harness.stats["inline_responses"] == 2

    def test_2_a_full_window_pauses_reading_and_resumes_below_it(self, harness, traffic):
        conn, transport = harness.connect()
        burst = b"".join(traffic.hit(i) for i in range(2 * DEPTH))
        conn.data_received(burst)
        # one callback: DEPTH answers, then the window (the rest of the
        # burst, parsed) is full — reading pauses exactly once
        assert pages(transport) == list(range(DEPTH))
        assert len(conn.window) == DEPTH
        assert transport.calls == ["pause_reading"]
        assert harness.stats["pipelined_max_depth"] == DEPTH  # never past the window
        harness.turn()
        assert pages(transport) == list(range(2 * DEPTH))
        assert transport.calls == ["pause_reading", "resume_reading"]
        assert harness.stats["read_pauses"] == 1
        assert harness.executor.names == []

    def test_3_pause_writing_stops_answers_and_export_lines(self, harness, traffic):
        # (a) a client that pipelines and never reads: the write that
        # crosses high water is the last until the buffer drains
        conn, transport = harness.connect(pause_at_write=2)
        conn.data_received(b"".join(traffic.hit(i) for i in range(DEPTH)))
        assert pages(transport) == [0, 1]
        assert len(conn.window) == DEPTH - 2
        harness.turn()
        assert pages(transport) == [0, 1]  # nothing moves without the client
        conn.resume_writing()
        assert pages(transport) == list(range(DEPTH))
        assert harness.stats["write_pauses"] == 1

        # (b) an export owed to a client that is not reading is not even
        # computed until the client drains: nothing is built to be buffered
        conn, transport = harness.connect()
        conn.pause_writing()
        conn.data_received(traffic.export(chunk_size=10))
        harness.turn()
        assert harness.executor.names == [] and transport.writes == []
        conn.resume_writing()
        harness.finish()
        (status, _headers, body), = split_responses(transport.written)
        trailer = json.loads(body.strip().split(b"\n")[-1])
        assert status == 200 and trailer["status"] == "ok"
        assert harness.stats["in_flight"] == 0

    def test_4_admission_on_the_head_a_refusal_is_the_last_answer(
        self, service, traffic
    ):
        h = Harness(ApiApp(service, gate=RequestGate(auth_token=TOKEN)))
        try:
            conn, transport = h.connect()
            # a head that declares a body it never delivers, without the token
            conn.data_received(
                b"POST /v1/search HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\n"
            )
            (status, headers, body), = split_responses(transport.written)
            assert status == 401 and headers["connection"] == "close"
            assert json.loads(body)["error"]["code"] == "UNAUTHORIZED"
            assert transport.calls == ["close"]
            # its body, and anything pipelined behind it, is never parsed
            conn.data_received(b"x" * 50 + wire("GET", "/v1/health"))
            h.turn()
            assert len(split_responses(transport.written)) == 1
            assert h.stats["requests_total"] == 1 and h.stats["in_flight"] == 0
            assert h.released == 1

            # an admitted head waits for its body — and only for its body
            conn, transport = h.connect()
            request = traffic.hit(0, headers=(f"Authorization: Bearer {TOKEN}",))
            conn.data_received(request[:-5])
            assert conn.pending is not None and transport.writes == []
            assert h.stats["in_flight"] == 0  # not a request until it is whole
            conn.data_received(request[-5:])
            assert pages(transport) == [0]
        finally:
            h.close()

    def test_5_a_burst_of_hits_yields_the_loop_once_per_window(self, harness, traffic):
        conn, transport = harness.connect()
        scheduled = []
        call_soon = harness.loop.call_soon

        def spy(callback, *args, **kwargs):
            scheduled.append(callback)
            return call_soon(callback, *args, **kwargs)

        harness.loop.call_soon = spy
        try:
            conn.data_received(b"".join(traffic.hit(i) for i in range(DEPTH + 2)))
            assert pages(transport) == list(range(DEPTH))  # not one more inline
            assert scheduled == [conn._pump]
            # bytes arriving before the continuation runs wait their turn
            conn.data_received(traffic.hit(DEPTH + 2))
            assert pages(transport) == list(range(DEPTH))
            assert scheduled == [conn._pump]
        finally:
            del harness.loop.call_soon
        harness.turn()
        assert pages(transport) == list(range(DEPTH + 3))

    def test_6_a_half_closed_client_gets_every_answer_it_is_owed(self, harness, traffic):
        conn, transport = harness.connect()
        conn.data_received(traffic.miss() + traffic.hit(1))
        assert conn.eof_received() is True  # keep the write side open
        assert transport.calls == []
        harness.finish()
        assert pages(transport) == [0, 1]
        assert transport.calls == ["close"]  # ... and then the close
        harness.turn()
        assert harness.released == 1 and harness.stats["open_connections"] == 0

        # nothing owed: the transport may close at once
        conn, transport = harness.connect()
        conn.data_received(traffic.hit(0))
        assert conn.eof_received() is False

        # gone mid-body: the pipeline words the 400, the driver delivers it
        conn, transport = harness.connect()
        conn.data_received(traffic.hit(0)[:-5])
        assert conn.eof_received() is False
        (status, headers, body), = split_responses(transport.written)
        assert status == 400 and headers["connection"] == "close"
        assert json.loads(body)["error"]["code"] == "MALFORMED_BODY"

    def test_7_drain_finishes_what_was_admitted_closes_the_idle(
        self, harness, traffic
    ):
        idle, idle_transport = harness.connect()
        half, half_transport = harness.connect()
        half.data_received(b"POST /v1/search HTTP/1.1\r\nContent-Le")
        lone, lone_transport = harness.connect()
        lone.data_received(traffic.miss())
        busy, busy_transport = harness.connect()
        busy.data_received(traffic.miss() + traffic.hit(1) + traffic.hit(2))
        drain = harness.loop.create_task(harness.server._drain_and_close())
        harness.turn()
        assert idle_transport.calls == ["close"] and half_transport.calls == ["close"]
        assert lone_transport.calls == busy_transport.calls == [] and not drain.done()
        harness.finish()
        harness.loop.run_until_complete(asyncio.wait_for(drain, 5))
        # a request already computing is answered in full and its
        # connection, now idle, closed behind it
        (status, _headers, _body), = split_responses(lone_transport.written)
        assert status == 200 and lone_transport.calls == ["close"]
        # the first answer written during the drain says it is the last;
        # what was pipelined behind it is the client's to retry
        first, second = split_responses(busy_transport.written)
        assert (first[0], second[0]) == (200, 200)
        assert "connection" not in first[1] and second[1]["connection"] == "close"
        assert busy_transport.calls == ["close"]
        assert harness.server._connections == set()
        assert harness.stats["in_flight"] == 0 and harness.stats["drained_requests"] == 4
        assert harness.released == 4

    def test_9_started_and_finished_pair_when_the_client_vanishes(
        self, harness, traffic
    ):
        # lost while compute is on the executor, two more admitted behind it
        conn, transport = harness.connect()
        conn.data_received(traffic.miss() + traffic.hit(1) + traffic.hit(2))
        conn.connection_lost(ConnectionResetError())
        assert harness.released == 0  # the slot bounds the work still running
        assert harness.stats["in_flight"] == 3
        harness.finish()
        assert harness.stats["in_flight"] == 0 and harness.released == 1
        assert harness.stats["open_connections"] == 0 and transport.writes == []
        assert conn not in harness.server._connections

        # the executor call itself failing drops the connection, not the books
        conn, transport = harness.connect()
        conn.data_received(traffic.miss())
        future, _fn, _args = harness.executor.parked.pop()
        future.set_exception(RuntimeError("pipeline bug"))
        harness.turn()
        assert transport.calls == ["abort"] and transport.writes == []
        assert harness.stats["in_flight"] == 0 and harness.released == 2
        assert harness.stats["requests_total"] == 4

    def test_10_ready_answers_on_the_loop_only_those_count_inline(
        self, harness, traffic
    ):
        conn, transport = harness.connect()
        for page in range(3):
            conn.data_received(traffic.hit(page))  # one callback each: in, out
            assert pages(transport)[-1] == page
        conn.data_received(wire("GET", "/v1/nope"))  # a failed plan is ready's too
        assert pages(transport) == [0, 1, 2, 404]
        assert harness.executor.names == []
        assert harness.stats["inline_responses"] == 4

        conn, transport = harness.connect()
        conn.data_received(traffic.miss())
        harness.finish()
        conn.data_received(wire("GET", "/v1/health"))
        harness.finish()
        assert [status for status, _, _ in split_responses(transport.written)] == [200, 200]
        assert harness.executor.names == ["compute", "compute"]
        assert harness.stats["inline_responses"] == 4  # unchanged
        assert harness.stats["keepalive_reuses"] == 4


def test_the_sweep_closes_what_owes_nothing_and_has_been_silent(harness, traffic):
    parked, parked_transport = harness.connect()
    parked.data_received(traffic.hit(0))  # answered: a keep-alive client at rest
    half, half_transport = harness.connect()
    half.data_received(traffic.hit(0)[:-5])  # a body that never completes
    busy, busy_transport = harness.connect()
    busy.data_received(traffic.miss())  # owed an answer: never idle
    fresh, fresh_transport = harness.connect()
    for conn in (parked, half, busy):
        conn.touched -= harness.server.idle_seconds + 1
    harness.server._sweeper.cancel()
    harness.server._sweep()
    assert parked_transport.calls == ["close"] and half_transport.calls == ["close"]
    assert busy_transport.calls == [] and fresh_transport.calls == []
    assert harness.stats["idle_closed"] == 2
    harness.finish()
    assert pages(busy_transport) == [0]


@pytest.mark.parametrize("chunk_size", [1, 7, 100])
def test_a_warm_export_is_answered_inline_in_one_write(harness, setup, traffic, chunk_size):
    """``ready`` answers a warm export on the loop, from the memo — head,
    every chunk line and the trailer leave in one write, and nothing is
    handed to the executor."""
    payload = {"genes": list(setup[1].query_genes), "chunk_size": chunk_size}
    expected = list(harness.app.export(payload))  # warm: the memo
    conn, transport = harness.connect()
    conn.data_received(traffic.export(chunk_size=chunk_size))
    harness.finish()
    assert harness.executor.names == [] and harness.executor.parked == []
    assert len(transport.writes) == 1
    (status, headers, body), = split_responses(transport.written)
    assert status == 200 and headers["content-length"] == str(len(body))
    assert "transfer-encoding" not in headers
    lines = body.splitlines(keepends=True)
    assert lines[:-1] == expected[:-1]
    assert json.loads(lines[-1])["status"] == "ok"
    assert harness.stats["in_flight"] == 0


# ------------------------------------------------- segmentation (ROADMAP 3c)
def scrub(obj):
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in obj.items()
                if k not in ("elapsed_seconds", "total_seconds")}
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


def comparable(data: bytes) -> list:
    """The responses in ``data`` with the wall-clock stamps (and the one
    header that counts their digits) removed; everything else verbatim."""
    out = []
    for status, headers, body in split_responses(data):
        headers.pop("content-length", None)
        out.append((status, headers, [scrub(json.loads(line)) for line in body.splitlines()]))
    return out


def deliver(service, stream: bytes, cuts: list[int]) -> tuple[bytes, dict]:
    h = Harness(ApiApp(service, gate=RequestGate(auth_token=TOKEN)), inline=True)
    try:
        conn, transport = h.connect()
        for start, end in zip([0, *cuts], [*cuts, len(stream)]):
            if not transport.closing:
                conn.data_received(stream[start:end])
                h.turn()
        return transport.written, h.stats
    finally:
        h.close()


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_any_segmentation_of_a_pipelined_stream_yields_the_same_responses(
    service, traffic, data
):
    """ROADMAP 3c's parser fuzz, first slice: a valid pipelined stream of
    hits, misses, an export and one refused request, cut at drawn offsets
    (down to single bytes), is answered as if it had arrived whole."""
    auth = (f"Authorization: Bearer {TOKEN}",)
    admitted = data.draw(st.permutations([
        traffic.hit(0, auth), traffic.hit(1, auth), traffic.miss(auth),
        traffic.export(40, auth), traffic.miss(auth), traffic.hit(2, auth),
    ]))
    # the refusal (no token, body unread) ends the connection: the health
    # probe behind it must never be answered
    stream = b"".join(admitted) + traffic.hit(0) + wire("GET", "/v1/health")
    cuts = sorted(data.draw(st.sets(st.integers(1, len(stream) - 1), max_size=40)))
    if data.draw(st.booleans()):  # a run of single-byte segments somewhere
        at = data.draw(st.integers(1, len(stream) - 12))
        cuts = sorted({*cuts, *range(at, at + 10)})
    whole, whole_stats = deliver(service, stream, [])
    pieces, piece_stats = deliver(service, stream, cuts)
    assert comparable(pieces) == comparable(whole)
    assert [status for status, _, _ in split_responses(whole)] == [200] * 6 + [401]
    for stats in (whole_stats, piece_stats):
        assert stats["requests_total"] == 7 and stats["in_flight"] == 0


# ------------------------------------------------------------- real sockets
def search_once(conn: http.client.HTTPConnection, genes) -> int:
    conn.request("POST", "/v1/search", body=json.dumps({"genes": genes, "page_size": 3}))
    response = conn.getresponse()
    response.read()
    return response.status


def test_a_slow_loris_is_closed_at_the_idle_bound_neighbours_never_notice(
    setup, service, monkeypatch
):
    monkeypatch.setattr(AioApiServer, "idle_seconds", 0.2)
    server, thread = serve_background(ApiApp(service), transport_label="aio-idle")
    addr = server.server_address[:2]
    genes = list(setup[1].query_genes)
    try:
        loris = socket.create_connection(addr, timeout=5)
        loris.sendall(b"POST /v1/search HTTP/1.1\r\nContent-Le")
        neighbour = http.client.HTTPConnection(*addr, timeout=5)
        deadline = time.monotonic() + 5
        closed = False
        loris.settimeout(0.05)
        while not closed and time.monotonic() < deadline:
            assert search_once(neighbour, genes) == 200  # same connection throughout
            try:
                closed = loris.recv(1) == b""
            except TimeoutError:
                pass
        assert closed, "half a request line held its slot past the idle bound"
        neighbour.request("GET", "/v1/health")
        health = json.loads(neighbour.getresponse().read())
        transport = health["serving"]["transport"]["aio-idle"]
        assert transport["idle_closed"] >= 1
        assert transport["total_connections"] == 2 and transport["open_connections"] == 1
        loris.close()
        neighbour.close()
    finally:
        server.close(timeout=5)
        thread.join(timeout=10)


def test_a_client_that_pipelines_and_never_reads_stalls_only_itself(setup, service):
    """Write backpressure over a real socket: the server's buffer for a
    deaf client stops at the transport's high-water mark (plus the answer
    that crossed it) however much the client has asked for."""
    server, thread = serve_background(ApiApp(service), transport_label="aio-deaf")
    addr = server.server_address[:2]
    genes = list(setup[1].query_genes)
    n_requests = 4000  # ~5 MB of answers, far past every kernel buffer
    n_pages = 7  # answers differ, so their order is checkable
    stream = b"".join(
        wire("POST", "/v1/search", {"genes": genes, "page": i % n_pages, "page_size": 10})
        for i in range(n_requests)
    )
    try:
        deaf = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # a fixed receive buffer: left to autotune, the kernel would soak
        # up megabytes on the deaf client's behalf before anyone stalls
        deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 14)
        deaf.settimeout(30)
        deaf.connect(addr)
        sender = threading.Thread(
            target=deaf.sendall, args=(stream,), daemon=True
        )
        sender.start()
        deadline = time.monotonic() + 10
        while server.stats.snapshot()["write_pauses"] == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        time.sleep(0.2)  # were it going to grow, it would be growing now
        snap = server.stats.snapshot()
        assert snap["write_pauses"] >= 1
        assert snap["in_flight"] <= server.pipeline_depth
        (conn,) = server._connections
        _low, high = conn.transport.get_write_buffer_limits()
        buffered = conn.transport.get_write_buffer_size()
        assert 0 < buffered <= high + 4096, (buffered, high)
        assert snap["requests_total"] < n_requests  # it stalled: it did not finish

        # the loop is not the one stalled: a neighbour is served meanwhile
        neighbour = http.client.HTTPConnection(*addr, timeout=5)
        assert search_once(neighbour, genes) == 200
        neighbour.close()

        # and once the client reads, every answer arrives, in order
        reader = deaf.makefile("rb")
        for i in range(n_requests):
            status_line = reader.readline()
            assert status_line.split()[1] == b"200", status_line
            length = None
            while (line := reader.readline().strip()):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            assert json.loads(reader.read(length))["page"] == i % n_pages
        sender.join(timeout=10)
        assert not sender.is_alive()
        deaf.close()
    finally:
        server.close(timeout=5)
        thread.join(timeout=10)


# ------------------------------------------------- counters, structure locks
def test_transport_snapshot_appends_its_three_new_counters(service):
    keys = list(TransportStats().snapshot())
    assert keys == [
        "open_connections", "total_connections", "keepalive_reuses",
        "pipelined_max_depth", "in_flight", "requests_total",
        "drained_requests", "draining", "inline_responses",
        "read_pauses", "write_pauses", "idle_closed",  # appended, PR 24
    ]
    server, thread = threaded_serve(ApiApp(service), transport_label="http-counters")
    try:
        conn = http.client.HTTPConnection(*server.server_address[:2], timeout=5)
        conn.request("GET", "/v1/health")
        reported = json.loads(conn.getresponse().read())
        conn.close()
        transport = reported["serving"]["transport"]["http-counters"]
        assert list(transport) == keys
        assert [transport[k] for k in keys[-3:]] == [0, 0, 0]
    finally:
        server.close(timeout=5)
        thread.join(timeout=10)


def test_a_closed_facade_leaves_health(service):
    """``close()`` takes a facade's transport probe out of ``/v1/health``
    — its own probe only: a later facade under the same label stays."""
    app = ApiApp(service)

    def transports() -> dict:
        return service.serving_stats().get("transport", {})

    old, old_thread = threaded_serve(app, transport_label="http-twice")
    new, new_thread = threaded_serve(app, transport_label="http-twice")
    aio, aio_thread = serve_background(app, transport_label="aio-once")
    assert {"http-twice", "aio-once"} <= set(transports())
    old.close(timeout=5)
    old_thread.join(timeout=10)
    assert transports()["http-twice"]["draining"] is False  # the later facade's
    for server, thread in ((new, new_thread), (aio, aio_thread)):
        server.close(timeout=5)
        thread.join(timeout=10)
    assert not {"http-twice", "aio-once"} & set(transports())


def test_both_drivers_hold_connections_to_one_idle_bound():
    assert _Handler.timeout == IDLE_SECONDS == AioApiServer.idle_seconds


def test_the_driver_is_one_protocol_class_and_nothing_beside_it():
    """Structure lock: the reader/responder task pair, the queue between
    them and the per-request ``sock_*`` futures are gone and stay gone."""
    for name in ("_put_or_abort", "_read_loop", "_respond_loop", "_ConnState", "_DONE",
                 "_plan", "_enqueue", "_write_response", "_handle_connection"):
        assert not hasattr(aio_server, name) and not hasattr(AioApiServer, name), name
    source = inspect.getsource(aio_server)
    for gone in ("asyncio.Queue", "sock_recv", "sock_sendall", "create_task"):
        assert gone not in source, gone
    assert issubclass(_Connection, asyncio.BufferedProtocol)  # recv_into one buffer
    server_state = inspect.getsource(AioApiServer.__init__)
    assert "_conn_tasks" not in source and "_conn_socks" not in source
    assert server_state.count("set()") == 1  # one set of live connections
    assert len(source.splitlines()) <= 507

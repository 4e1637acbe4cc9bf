"""Resumable exports + client-disconnect hardening (PR 9).

Two contracts over ``/v1/search/export``:

* **Resume** — a request carrying ``resume_offset`` (a chunk boundary)
  restarts the stream at that offset, and the resumed stream's chunk
  lines are **bit-identical** to the same-offset lines of an
  uninterrupted export; its trailer checksum covers exactly the resumed
  lines.  Asserted at the app layer and over live sockets on *both*
  facades (threaded and asyncio), plus splice reassembly equality.
* **Disconnect** — a client that vanishes mid-stream must not leak:
  the connection slot is released, nothing stays in flight, and the
  index's ``ScratchPool`` returns to its steady state.
  Regression-tested on both facades with a hard RST close
  (``SO_LINGER`` 0).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import socket
import struct
import time

import pytest

from repro.api.app import ApiApp
from repro.api.errors import ApiError
from repro.api.http import serve_background as threaded_serve
from repro.api.aio.server import serve_background as aio_serve
from repro.api.protocol import ExportRequest
from repro.spell import SpellService
from repro.synth import make_spell_compendium


@pytest.fixture(scope="module")
def setup():
    """Small (compendium, truth) pair private to this module — read-only."""
    return make_spell_compendium(
        n_datasets=6,
        n_relevant=2,
        n_genes=150,
        n_conditions=10,
        module_size=12,
        query_size=3,
        seed=23,
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
def threaded_addr(app):
    server, thread = threaded_serve(app)
    yield server.server_address[:2]
    server.close(timeout=5)
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def aio_addr(app):
    server, thread = aio_serve(app)
    yield server.server_address[:2]
    server.close(timeout=5)
    thread.join(timeout=10)


def read_stream(addr, payload: dict):
    """POST an export over a live socket; returns (status, raw lines)."""
    conn = http.client.HTTPConnection(*addr, timeout=30)
    try:
        conn.request(
            "POST",
            "/v1/search/export",
            body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, [line for line in raw.split(b"\n") if line]
    finally:
        conn.close()


def split_stream(lines: list[bytes]):
    """(chunk lines, parsed chunks, parsed trailer) from raw NDJSON lines."""
    parsed = [json.loads(line) for line in lines]
    assert parsed and parsed[-1]["kind"] == "trailer"
    return lines[:-1], parsed[:-1], parsed[-1]


def stream_checksum(chunk_lines: list[bytes]) -> str:
    digest = hashlib.sha256()
    for line in chunk_lines:
        digest.update(line + b"\n")
    return f"sha256:{digest.hexdigest()}"


class TestResumeValidation:
    def test_resume_offset_must_sit_on_a_chunk_boundary(self):
        with pytest.raises(ApiError) as exc:
            ExportRequest(genes=("A",), chunk_size=5, resume_offset=7)
        assert exc.value.code == "INVALID_REQUEST"

    def test_resume_offset_must_be_non_negative(self):
        with pytest.raises(ApiError) as exc:
            ExportRequest(genes=("A",), chunk_size=5, resume_offset=-5)
        assert exc.value.code == "INVALID_REQUEST"

    def test_boundary_violation_is_a_pre_stream_400(self, setup, threaded_addr):
        _, truth = setup
        status, lines = read_stream(
            threaded_addr,
            {"genes": list(truth.query_genes), "chunk_size": 5, "resume_offset": 3},
        )
        assert status == 400
        body = json.loads(b"".join(lines))
        assert body["error"]["code"] == "INVALID_REQUEST"


class TestResumeBitIdentity:
    CHUNK = 7  # deliberately not a divisor of the ranking length

    def _full_and_resumed(self, addr, genes, skip_chunks: int):
        status, full = read_stream(
            addr, {"genes": genes, "chunk_size": self.CHUNK}
        )
        assert status == 200
        offset = skip_chunks * self.CHUNK
        status, resumed = read_stream(
            addr,
            {"genes": genes, "chunk_size": self.CHUNK, "resume_offset": offset},
        )
        assert status == 200
        return full, resumed, offset

    @pytest.mark.parametrize("facade", ["threaded", "aio"])
    def test_resumed_stream_bit_identical_on_both_facades(
        self, setup, threaded_addr, aio_addr, facade
    ):
        _, truth = setup
        addr = threaded_addr if facade == "threaded" else aio_addr
        genes = list(truth.query_genes)
        full, resumed, offset = self._full_and_resumed(addr, genes, skip_chunks=3)

        full_chunks, full_parsed, full_trailer = split_stream(full)
        res_chunks, res_parsed, res_trailer = split_stream(resumed)

        # chunk lines are byte-identical to the uninterrupted tail
        assert res_chunks == full_chunks[3:]
        # the trailer accounts for exactly this stream
        assert res_trailer["status"] == "ok"
        assert res_trailer["resume_offset"] == offset
        assert res_trailer["n_chunks"] == len(res_chunks)
        assert res_trailer["total_rows"] == full_trailer["total_rows"] - offset
        assert res_trailer["checksum"] == stream_checksum(res_chunks)
        # splice reassembly: interrupted prefix + resumed tail == whole
        spliced = full_chunks[:3] + res_chunks
        assert spliced == full_chunks
        rows = [r for c in full_parsed for r in c["gene_rows"]]
        spliced_rows = [
            r
            for c in (full_parsed[:3] + res_parsed)
            for r in c["gene_rows"]
        ]
        assert spliced_rows == rows
        # dataset ranking rides both trailers identically
        assert res_trailer["dataset_rows"] == full_trailer["dataset_rows"]

    def test_facades_agree_on_resumed_bytes(self, setup, threaded_addr, aio_addr):
        _, truth = setup
        genes = list(truth.query_genes)
        payload = {"genes": genes, "chunk_size": self.CHUNK, "resume_offset": 14}
        _, via_threaded = read_stream(threaded_addr, payload)
        _, via_aio = read_stream(aio_addr, payload)
        t_chunks, _, t_trailer = split_stream(via_threaded)
        a_chunks, _, a_trailer = split_stream(via_aio)
        assert t_chunks == a_chunks
        assert t_trailer["checksum"] == a_trailer["checksum"]

    def test_resume_past_end_yields_empty_ok_stream(self, setup, threaded_addr):
        _, truth = setup
        genes = list(truth.query_genes)
        _, full = read_stream(threaded_addr, {"genes": genes, "chunk_size": 5})
        _, _, trailer = split_stream(full)
        beyond = ((trailer["total_rows"] // 5) + 2) * 5
        _, resumed = read_stream(
            threaded_addr,
            {"genes": genes, "chunk_size": 5, "resume_offset": beyond},
        )
        chunks, _, res_trailer = split_stream(resumed)
        assert chunks == []
        assert res_trailer["status"] == "ok"
        assert res_trailer["total_rows"] == 0
        assert res_trailer["n_chunks"] == 0

    def test_interrupt_then_resume_at_app_layer(self, setup, app):
        """Abandon a stream after k chunks, resume at the boundary, and
        the reassembled stream equals the uninterrupted one."""
        _, truth = setup
        genes = list(truth.query_genes)
        full = list(app.export({"genes": genes, "chunk_size": 10}))

        interrupted = app.export({"genes": genes, "chunk_size": 10})
        got: list[bytes] = []
        for line in interrupted:
            got.append(line)
            if len(got) == 4:
                break
        interrupted.close()  # the client vanished

        resumed = list(
            app.export({"genes": genes, "chunk_size": 10, "resume_offset": 40})
        )
        assert got + resumed[:-1] == full[:-1]  # chunk lines reassemble
        trailer = json.loads(resumed[-1])
        # app-layer lines carry their newline already — hash them as-is
        digest = hashlib.sha256()
        for line in resumed[:-1]:
            digest.update(line)
        assert trailer["checksum"] == f"sha256:{digest.hexdigest()}"


def _rst_close_mid_stream(addr, genes):
    """Start an export, read the response head, then RST the socket."""
    sock = socket.create_connection(addr, timeout=30)
    try:
        body = json.dumps({"genes": genes, "chunk_size": 1}).encode()
        request = (
            b"POST /v1/search/export HTTP/1.1\r\n"
            b"Host: test\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        sock.sendall(request)
        sock.recv(256)  # the 200 head and the first body bytes
        # RST on close: the rest of the answer is thrown away unread, and
        # the server's next read or write on this connection fails
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER,
            struct.pack("ii", 1, 0),
        )
    finally:
        sock.close()


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


class TestDisconnectLeaks:
    @pytest.mark.parametrize("facade", ["threaded", "aio"])
    def test_mid_stream_disconnect_leaks_nothing(self, setup, facade):
        compendium, truth = setup
        service = SpellService(compendium)
        app = ApiApp(service)
        serve = threaded_serve if facade == "threaded" else aio_serve
        server, thread = serve(app)
        addr = server.server_address[:2]
        try:
            # establish the scratch pool's steady state with a clean query
            service.search(truth.query_genes, use_cache=False)
            idle_baseline = service._index._scratch.idle_count()

            _rst_close_mid_stream(addr, list(truth.query_genes))

            # the connection slot is released ...
            assert _wait_until(
                lambda: server.stats.snapshot()["open_connections"] == 0
            ), server.stats.snapshot()
            assert _wait_until(
                lambda: server.stats.snapshot()["in_flight"] == 0
            ), server.stats.snapshot()
            # ... and no scratch buffer leaked out of the pool
            assert service._index._scratch.idle_count() == idle_baseline
            # the server still answers: the slot really was recycled
            status, lines = read_stream(
                addr, {"genes": list(truth.query_genes), "chunk_size": 50}
            )
            assert status == 200
            _, _, trailer = split_stream(lines)
            assert trailer["status"] == "ok"
        finally:
            server.close(timeout=5)
            thread.join(timeout=10)
            service.close()

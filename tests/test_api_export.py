"""Streaming deep-result export: ``/v1/search/export`` end to end.

The acceptance bar (ISSUE 5): the export stream, reassembled, is
**bit-identical** to the concatenation of all ``/v1/search`` pages for
the same request — asserted over a live socket — and a failure answers
a structured JSON error status before the first byte, never a silently
truncated stream.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api.aio.server import serve_background as aio_serve
from repro.api.app import ApiApp
from repro.api.errors import ApiError
from repro.api.http import serve
from repro.api.http import serve_background as threaded_serve
from repro.api.pipeline import plan_request, read_body, respond
from repro.api.protocol import ExportChunk, ExportRequest, ExportTrailer
from repro.spell import SpellService
from repro.spell.backend import ExportCursor


@pytest.fixture(scope="module")
def export_setup():
    """Small (compendium, truth) pair private to this module — read-only."""
    from repro.synth import make_spell_compendium

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
def live_export(export_setup):
    compendium, truth = export_setup
    service = SpellService(compendium, n_workers=2)
    app = ApiApp(service)
    server = serve(app, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", app, truth
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def post_json(base: str, path: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def read_stream(base: str, payload: dict):
    """POST the export; returns (headers, chunk dicts, trailer dict, raw lines)."""
    request = urllib.request.Request(
        base + "/v1/search/export", data=json.dumps(payload).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        headers = dict(resp.headers)
        raw = resp.read()
    lines = [line for line in raw.split(b"\n") if line]
    parsed = [json.loads(line) for line in lines]
    assert parsed, "stream must contain at least a trailer"
    trailer = parsed[-1]
    assert trailer["kind"] == "trailer", "stream must end with a trailer line"
    chunks = parsed[:-1]
    assert all(c["kind"] == "chunk" for c in chunks)
    return headers, chunks, trailer, lines


class TestExportStream:
    def test_export_bit_identical_to_paged(self, live_export):
        """The acceptance bar, over a live socket with real HTTP."""
        base, _, truth = live_export
        genes = list(truth.query_genes)
        size = 7  # deliberately not a divisor of the ranking length

        headers, chunks, trailer, lines = read_stream(
            base, {"genes": genes, "chunk_size": size}
        )
        assert headers["Content-Type"].startswith("application/x-ndjson")
        assert headers["Content-Length"] == str(sum(len(line) + 1 for line in lines))
        assert "Transfer-Encoding" not in headers

        paged_rows: list = []
        page = 0
        while True:
            status, body = post_json(
                base, "/v1/search", {"genes": genes, "page": page, "page_size": size}
            )
            assert status == 200
            paged_rows.extend(body["gene_rows"])
            page += 1
            if page >= body["total_pages"]:
                break

        export_rows = [row for c in chunks for row in c["gene_rows"]]
        assert export_rows == paged_rows  # ranks, ids, scores — bit-identical
        assert trailer["status"] == "ok"
        assert trailer["total_rows"] == len(export_rows) == body["total_genes"]
        assert trailer["total_genes"] == body["total_genes"]
        assert trailer["n_chunks"] == len(chunks)
        # chunks are self-describing: offsets tile the ranking exactly
        assert [c["offset"] for c in chunks] == list(
            range(0, len(export_rows), size)
        )
        # dataset ranking rides the trailer, identical to the paged answer
        assert trailer["dataset_rows"] == body["dataset_rows"]

    def test_checksum_covers_chunk_bytes(self, live_export):
        base, _, truth = live_export
        _, _, trailer, lines = read_stream(
            base, {"genes": list(truth.query_genes), "chunk_size": 11}
        )
        digest = hashlib.sha256()
        for line in lines[:-1]:
            digest.update(line + b"\n")
        assert trailer["checksum"] == f"sha256:{digest.hexdigest()}"

    def test_top_k_caps_export(self, live_export):
        base, _, truth = live_export
        _, chunks, trailer, _ = read_stream(
            base, {"genes": list(truth.query_genes), "top_k": 10, "chunk_size": 4}
        )
        rows = [row for c in chunks for row in c["gene_rows"]]
        assert len(rows) == 10
        assert trailer["total_rows"] == 10
        assert trailer["total_genes"] >= 10  # full candidate count still reported
        # the capped export is the head of the uncapped one
        _, full_chunks, _, _ = read_stream(
            base, {"genes": list(truth.query_genes), "chunk_size": 4}
        )
        full_rows = [row for c in full_chunks for row in c["gene_rows"]]
        assert rows == full_rows[:10]

    def test_single_chunk_when_size_exceeds_ranking(self, live_export):
        base, _, truth = live_export
        _, chunks, trailer, _ = read_stream(
            base, {"genes": list(truth.query_genes), "chunk_size": 1_000_000}
        )
        assert len(chunks) == 1 and chunks[0]["offset"] == 0
        assert trailer["n_chunks"] == 1

    def test_pre_stream_errors_are_plain_json(self, live_export):
        """Failures before streaming (bad query) answer with an ordinary
        error status, not a 200 + error trailer."""
        base, _, _ = live_export
        status, body = post_json(
            base, "/v1/search/export", {"genes": ["NOT_A_GENE"]}
        )
        assert status == 404
        assert body["error"]["code"] == "UNKNOWN_GENE"
        status, body = post_json(
            base, "/v1/search/export", {"genes": [], "chunk_size": 5}
        )
        assert status == 400
        assert body["error"]["code"] == "INVALID_QUERY"
        status, body = post_json(
            base, "/v1/search/export", {"genes": ["A"], "chunk_size": 0}
        )
        assert status == 400
        assert body["error"]["code"] == "INVALID_REQUEST"

    def test_export_counts_in_health(self, live_export):
        base, _, truth = live_export
        read_stream(base, {"genes": list(truth.query_genes), "chunk_size": 50})
        with urllib.request.urlopen(base + "/v1/health", timeout=30) as resp:
            health = json.loads(resp.read())
        stats = health["endpoints"]["search/export"]
        assert stats["count"] >= 1
        assert health["endpoints"]["search/export"]["count"] >= stats["errors"]

    def test_unknown_endpoint_listing_includes_export(self, live_export):
        base, _, _ = live_export
        status, body = post_json(base, "/v1/nope", {})
        assert status == 404
        assert "/v1/search/export" in body["error"]["details"]["endpoints"]


class TestMidStreamFailure:
    """A cursor that raises while it encodes.  An export is ready whole
    before its first byte is sent, so the failure is answered with a
    structured JSON error status (500 ``INTERNAL``) — never a 200 with a
    truncated stream, and no chunk or trailer line at all — and each answer
    is one failed export in the endpoint stats."""

    @pytest.fixture
    def exploding(self, monkeypatch):
        real_chunks = ExportCursor._chunks

        def exploding(cursor, offset, exportable):
            for i, chunk in enumerate(real_chunks(cursor, offset, exportable)):
                if i == 2:
                    raise RuntimeError("disk on fire")
                yield chunk

        monkeypatch.setattr(ExportCursor, "_chunks", exploding)

    @staticmethod
    def assert_internal(status, content_type, answer):
        assert status == 500
        assert content_type.startswith("application/json")
        assert json.loads(answer)["error"]["code"] == "INTERNAL"

    def test_error_trailer_not_truncation(self, export_setup, exploding):
        """In process: the pipeline both facades run, and ``ApiApp.export``."""
        compendium, truth = export_setup
        payload = {"genes": list(truth.query_genes), "chunk_size": 5}
        body = json.dumps(payload).encode()
        with SpellService(compendium) as service:
            app = ApiApp(service)
            plan = plan_request(
                app, "POST", "/v1/search/export",
                {"content-length": str(len(body))}, "127.0.0.1",
            )
            read_body(plan, body)
            response = respond(app, plan, keep_alive=True, draining=False)
            self.assert_internal(
                response.status, response.content_type, response.body
            )
            with pytest.raises(ApiError) as exc:
                app.export(payload)
            assert (exc.value.code, exc.value.http_status) == ("INTERNAL", 500)
            stats = app.health().endpoints["search/export"]
            assert (stats["count"], stats["errors"]) == (2, 2)

    def test_error_trailer_over_live_socket(self, export_setup, exploding):
        """Over both facades' sockets: a plain JSON answer, not an NDJSON
        body."""
        compendium, truth = export_setup
        body = json.dumps(
            {"genes": list(truth.query_genes), "chunk_size": 5}
        ).encode()
        with SpellService(compendium) as service:
            app = ApiApp(service)
            for serve_background in (threaded_serve, aio_serve):
                server, thread = serve_background(app)
                try:
                    conn = http.client.HTTPConnection(
                        *server.server_address[:2], timeout=30
                    )
                    conn.request("POST", "/v1/search/export", body=body)
                    answer = conn.getresponse()
                    assert answer.getheader("Transfer-Encoding") is None
                    self.assert_internal(
                        answer.status, answer.getheader("Content-Type"), answer.read()
                    )
                    conn.close()
                finally:
                    server.close(timeout=5)
                    thread.join(timeout=10)
            stats = app.health().endpoints["search/export"]
            assert (stats["count"], stats["errors"]) == (2, 2)


class TestServiceCursor:
    def test_iter_result_matches_respond_rows(self, export_setup):
        """Service-level parity, independent of any transport."""
        from repro.api.protocol import SearchRequest

        compendium, truth = export_setup
        service = SpellService(compendium)
        request = ExportRequest(genes=truth.query_genes, chunk_size=13)
        items = list(service.iter_result(request))
        chunks = [i for i in items if isinstance(i, ExportChunk)]
        trailers = [i for i in items if isinstance(i, ExportTrailer)]
        assert len(trailers) == 1 and trailers[0].status == "ok"
        rows = [row for c in chunks for row in c.gene_rows]
        paged = service.respond(
            SearchRequest(genes=truth.query_genes, page=0, page_size=len(rows))
        )
        assert tuple(rows) == paged.gene_rows

    def test_iter_result_eager_validation(self, export_setup):
        """Invalid queries raise at call time, not at first iteration —
        a transport must be able to answer 4xx before streaming."""
        compendium, _ = export_setup
        service = SpellService(compendium)
        with pytest.raises(Exception):
            service.iter_result(
                ExportRequest(genes=("NOT_A_GENE",), chunk_size=5)
            )

    def test_export_request_validation(self):
        with pytest.raises(ApiError) as exc:
            ExportRequest(genes=())
        assert exc.value.code == "INVALID_QUERY"
        with pytest.raises(ApiError):
            ExportRequest(genes=("A",), chunk_size=0)
        with pytest.raises(ApiError):
            ExportRequest(genes=("A", "A"))

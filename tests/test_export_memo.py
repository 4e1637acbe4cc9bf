"""A warm export is a byte copy: the encoded chunk lines a cached
ranking keeps.

:meth:`ExportCursor.lines` serves an export from one encoding of the
ranking, memoized on its :class:`GeneTable`, plus its checksummed
trailer line; the typed face (iterating the cursor) still builds every
:class:`ExportChunk`.  The contract under test: the memo's bytes are
exactly ``ndjson_line`` over the typed walk — cold or warm, resumed
anywhere, through the app, the pipeline and over both facades, HTTP
framing included — and the memo holds one chunking, is never pickled,
never lands on a resident entry from an uncached export, dies with the
compendium version, and is counted in ``/v1/health``.  A warm export
leaves the threaded facade in one write, head included.
"""

from __future__ import annotations

import ast
import hashlib
import json
import pickle
import socket
import socketserver
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api.aio.server import serve_background as aio_serve
from repro.api.app import ApiApp
from repro.api.http import serve_background as threaded_serve
from repro.api.pipeline import plan_request, read_body, respond
from repro.api.protocol import ExportRequest, ExportTrailer, SearchRequest, ndjson_line
from repro.data.pcl import write_pcl
from repro.spell import SpellService
from repro.spell.backend import PAGES_PER_RANKING
from repro.synth import make_spell_compendium
from tests.test_api_conformance import split_responses

SRC = Path(repro.__file__).resolve().parent

CACHE_KEYS_BEFORE = [
    "entries", "max_entries", "hits", "misses", "evictions", "hot_entry_hits",
    "min_cost", "admitted", "rejected",
]


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
def served(setup):
    """One service and app behind both facades: ``(service, app, addrs)``."""
    compendium, _ = setup
    with SpellService(compendium) as service:
        app = ApiApp(service)
        servers = {"threaded": threaded_serve(app), "aio": aio_serve(app)}
        try:
            yield service, app, {
                name: server.server_address[:2] for name, (server, _) in servers.items()
            }
        finally:
            for server, thread in servers.values():
                server.close(timeout=5)
                thread.join(timeout=10)


def raw_response(addr, path: str, payload: dict | None = None,
                 version: bytes = b"HTTP/1.1") -> bytes:
    """One request's raw response bytes (``Connection: close``, read to
    EOF): a POST of ``payload``, or a GET without one."""
    body = b"" if payload is None else json.dumps(payload).encode()
    method = b"GET" if payload is None else b"POST"
    with socket.create_connection(addr, timeout=30) as sock:
        sock.sendall(
            method + b" " + path.encode() + b" " + version + b"\r\nHost: test\r\n"
            b"Connection: close\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        raw = b""
        while block := sock.recv(65536):
            raw += block
    return raw


def raw_export(addr, payload: dict) -> list[bytes]:
    """POST an export and return its NDJSON lines, parsed strictly off
    the raw socket bytes: a ``Content-Length`` body, never chunked."""
    (status, headers, body), = split_responses(
        raw_response(addr, "/v1/search/export", payload)
    )
    assert status == 200 and "transfer-encoding" not in headers
    return body.splitlines(keepends=True)


def without_elapsed(line: bytes) -> dict:
    trailer = json.loads(line)
    trailer.pop("elapsed_seconds")
    return trailer


def lines_of(cursor) -> list[bytes]:
    """A cursor's wire lines: the chunk lines, then the trailer line."""
    return list(cursor.lines())


def piped_export(app, payload: dict) -> list[bytes]:
    """An export's lines through the three pipeline calls, socket-free."""
    body = json.dumps(payload).encode()
    head = {"content-length": str(len(body))}
    plan = plan_request(app, "POST", "/v1/search/export", head, "127.0.0.1")
    read_body(plan, body)
    response = respond(app, plan, keep_alive=False, draining=False)
    assert response.status == 200
    return response.body.splitlines(keepends=True)


def cached_table(service, request: ExportRequest):
    """The resident ranking an export of ``request`` is served from."""
    return service.search(
        request.genes, top_k=request.top_k, datasets=request.datasets
    ).genes


# -------------------------------------------------------------- the property
@st.composite
def export_requests(draw, genes, names, exportable_of):
    chunk_size = draw(st.integers(1, 60))
    top_k = draw(st.none() | st.integers(1, 200))
    datasets = draw(st.none() | st.lists(st.sampled_from(names), min_size=1, unique=True))
    exportable = exportable_of(top_k, datasets)
    # every chunk boundary, past the end included (``exportable`` is
    # rarely a multiple of ``chunk_size``, so the last chunk is short)
    k = draw(st.integers(0, exportable // chunk_size + 2))
    return ExportRequest(
        genes=genes, top_k=top_k, chunk_size=chunk_size,
        datasets=None if datasets is None else tuple(datasets),
        resume_offset=k * chunk_size,
    )


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lines_are_ndjson_of_the_typed_walk(served, setup, data):
    service, app, addrs = served
    compendium, truth = setup

    def exportable_of(top_k, datasets):
        result = service.search(truth.query_genes, top_k=top_k, datasets=datasets)
        return min(result.total_genes, len(result.genes))

    request = data.draw(
        export_requests(truth.query_genes, [ds.name for ds in compendium], exportable_of)
    )
    typed = list(service.iter_result(request))
    assert isinstance(typed[-1], ExportTrailer)
    expected = [ndjson_line(chunk) for chunk in typed[:-1]]

    table = cached_table(service, request)
    table.encoded = None
    cold = lines_of(service.iter_result(request))
    assert table.encoded is not None and table.encoded[0] == request.chunk_size
    warm = lines_of(service.iter_result(request))
    for lines in (cold, warm):
        assert lines[:-1] == expected
        trailer = json.loads(lines[-1])
        assert trailer["total_rows"] == typed[-1].total_rows
        assert trailer["total_genes"] == typed[-1].total_genes

    streamed = list(app.export(request.to_wire()))
    assert streamed[:-1] == expected
    trailer = json.loads(streamed[-1])
    assert trailer["status"] == "ok"
    assert trailer["n_chunks"] == len(expected)
    assert trailer["total_rows"] == sum(len(c.gene_rows) for c in typed[:-1])
    assert trailer["checksum"] == "sha256:" + hashlib.sha256(b"".join(expected)).hexdigest()
    paths = [piped_export(app, request.to_wire())]
    paths += [raw_export(addr, request.to_wire()) for addr in addrs.values()]
    for lines in paths:
        assert lines[:-1] == expected  # the same lines, byte for byte
        assert without_elapsed(lines[-1]) == without_elapsed(streamed[-1])


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ready_export_is_the_typed_walk_export(served, setup, data):
    """The ready half's export — chunk lines from the memo, the trailer
    spliced into a stored cut — is what the compute half sends, on both
    facades, apart from ``elapsed_seconds``: whatever the gene order,
    ``top_datasets``, filter and resume point.  A ``use_cache=false``
    export is its own typed walk's bytes too.  Every trailer's
    ``checksum`` and ``n_chunks`` re-verify against the chunk lines sent
    with it."""
    service, app, addrs = served
    compendium, truth = setup

    def exportable_of(top_k, datasets):
        result = service.search(truth.query_genes, top_k=top_k, datasets=datasets)
        return min(result.total_genes, len(result.genes))

    def walk(request):
        """The chunk lines and trailer (sans ``elapsed_seconds``) the
        typed walk of ``request`` puts on the wire."""
        typed = list(service.iter_result(request))
        chunks = [ndjson_line(chunk) for chunk in typed[:-1]]
        trailer = without_elapsed(ndjson_line(typed[-1]))
        trailer.update(
            checksum="sha256:" + hashlib.sha256(b"".join(chunks)).hexdigest(),
            n_chunks=len(chunks),
        )
        return chunks, trailer

    genes = tuple(data.draw(st.permutations(truth.query_genes)))
    request = replace(
        data.draw(export_requests(genes, [ds.name for ds in compendium], exportable_of)),
        top_datasets=data.draw(st.integers(0, 8)),
    )
    payload = request.to_wire()
    # a ranking's last bits follow the gene order it was first scored
    # in, and the cache key does not: an uncached export is compared with
    # its own walk
    expected = {True: walk(request), False: walk(replace(request, use_cache=False))}

    status, computed = app.compute_wire("search/export", request)  # encodes the lines
    assert status == 200
    bodies = {"compute": (list(computed), True)}
    _, answer = app.ready_wire("search/export", payload)
    if request.resume_offset:
        assert answer is None  # a resumed export is compute's
    else:
        assert answer[0] == 200
        bodies["ready"] = (list(answer[1]), True)
    for name, addr in addrs.items():
        bodies[name] = (raw_export(addr, payload), True)  # warm: ready's from offset 0
        uncached = dict(payload, use_cache=False)
        bodies[f"{name}, uncached"] = (raw_export(addr, uncached), False)
    for name, (lines, cached) in bodies.items():
        chunks, trailer = expected[cached]
        assert lines[:-1] == chunks, name
        assert without_elapsed(lines[-1]) == trailer, name


def test_handle_wire_answers_a_warm_export_like_a_cold_one(setup):
    """``handle_wire`` and ``export`` never raise on a stream, whichever
    phase answered it: a cold export (compute's lines) and a warm one
    (the ready half's) are both ``(200, lines)`` with the same lines."""
    compendium, truth = setup
    with SpellService(compendium) as service:
        app = ApiApp(service)
        payload = {"genes": list(truth.query_genes), "chunk_size": 9}
        assert app.ready_wire("search/export", payload)[1] is None
        cold = app.handle_wire("search/export", payload)
        assert app.ready_wire("search/export", payload)[1] is not None
        warm = app.handle_wire("search/export", payload)
        streamed = list(app.export(payload))
        for status, lines in (cold, warm, (200, streamed)):
            assert status == 200
            assert all(isinstance(line, bytes) for line in lines)
            assert list(lines[:-1]) == list(cold[1][:-1])
            assert without_elapsed(lines[-1]) == without_elapsed(cold[1][-1])


@pytest.mark.parametrize("facade", ["threaded", "aio"])
def test_a_warm_export_counts_one_hit_one_query_one_answer(served, setup, facade):
    service, app, addrs = served
    payload = {"genes": list(setup[1].query_genes), "chunk_size": 11}

    def counts():
        cache, answers = service.cache_stats(), app.health().endpoints["search/export"]
        return (
            cache["hits"], cache["misses"], service.query_count,
            answers["count"], answers["errors"],
        )

    raw_export(addrs[facade], payload)  # encodes the lines
    before = counts()
    raw_export(addrs[facade], payload)
    assert [a - b for a, b in zip(counts(), before)] == [1, 0, 1, 1, 0]


def test_ready_refuses_an_export_it_would_resume_or_encode(setup):
    """In ``ready``, a resumed export, a ``use_cache=false`` export and a
    resident ranking whose lines are not encoded at this ``chunk_size``
    are ``None`` and move nothing: not the cache's counters, the served
    count, the endpoint counts or the LRU order (read off what the LRU
    evicts next)."""
    compendium, truth = setup
    target = list(truth.query_genes)
    spare = [g for g in compendium.gene_universe() if g not in target]
    other, new = spare[:2], spare[2:4]
    with SpellService(compendium, cache_size=2) as service:
        app = ApiApp(service)
        payload = {"genes": target, "chunk_size": 10}
        list(app.export(payload))  # resident, lines encoded at 10
        service.search(other)  # LRU order: target, other
        before = (service.cache_stats(), service.query_count, app.health().endpoints)
        for refused in (
            dict(payload, resume_offset=10),
            dict(payload, use_cache=False),
            dict(payload, chunk_size=7),
        ):
            request, answer = app.ready_wire("search/export", refused)
            assert request is not None and answer is None, refused
        assert (service.cache_stats(), service.query_count, app.health().endpoints) == before
        service.search(new)  # evicts the LRU entry: still the target
        hits = service.cache_stats()["hits"]
        service.search(other)
        assert service.cache_stats()["hits"] == hits + 1
        assert app.ready_wire("search/export", payload)[1] is None  # evicted


def test_trailer_memo_is_bounded(setup):
    """A ranking stores at most ``PAGES_PER_RANKING`` trailers; a warm
    export past that builds its trailer per call, with the same bytes."""
    compendium, truth = setup
    with SpellService(compendium) as service:
        app = ApiApp(service)
        payload = {"genes": list(truth.query_genes), "chunk_size": 13}
        list(app.export(payload))
        table = cached_table(service, ExportRequest.from_wire(payload))
        for top_datasets in range(PAGES_PER_RANKING + 3):
            sent = dict(payload, top_datasets=top_datasets)
            warm = list(app.export(sent))
            assert without_elapsed(warm[-1]) == without_elapsed(
                list(app.export(dict(sent, use_cache=False)))[-1]
            )
        assert len(table.encoded[4]) == PAGES_PER_RANKING


@pytest.mark.parametrize("facade", ["threaded", "aio"])
def test_an_http10_export_is_a_content_length_body(served, setup, facade):
    """An HTTP/1.0 client cannot read chunked transfer coding (RFC 9112
    6.1): it gets a ``Content-Length`` body whose lines verify against
    their own trailer."""
    _, _, addrs = served
    payload = {"genes": list(setup[1].query_genes), "chunk_size": 7}
    raw = raw_response(addrs[facade], "/v1/search/export", payload, b"HTTP/1.0")
    (status, headers, body), = split_responses(raw)
    assert status == 200
    assert headers["content-type"].startswith("application/x-ndjson")
    assert headers["content-length"] == str(len(body))
    assert "transfer-encoding" not in headers
    *chunk_lines, trailer_line = body.splitlines(keepends=True)
    trailer = json.loads(trailer_line)
    assert trailer["status"] == "ok"
    assert [json.loads(line)["kind"] for line in chunk_lines] == ["chunk"] * len(chunk_lines)
    assert trailer["n_chunks"] == len(chunk_lines) > 1
    assert trailer["checksum"] == "sha256:" + hashlib.sha256(b"".join(chunk_lines)).hexdigest()


# ------------------------------------------------------------ memo contract
def test_one_chunking_per_table(setup):
    compendium, truth = setup
    with SpellService(compendium) as service:
        for size in range(1, 51):
            request = ExportRequest(genes=truth.query_genes, chunk_size=size)
            lines = lines_of(service.iter_result(request))
            table = cached_table(service, request)
            assert table.encoded[0] == size
            assert list(table.encoded[2]) == lines[:-1]
            assert service.cache_stats()["encoded_bytes"] == table.encoded_bytes()
            assert table.encoded_bytes() == sum(map(len, lines[:-1]))


def test_racing_chunkings_never_mix(setup):
    """Threads exporting one cached ranking at different sizes replace
    each other's memo; every stream is still exactly its own size's."""
    compendium, truth = setup
    sizes = (7, 10, 13)
    with SpellService(compendium) as service:
        expected = {
            size: [
                ndjson_line(chunk)
                for chunk in list(
                    service.iter_result(ExportRequest(genes=truth.query_genes, chunk_size=size))
                )[:-1]
            ]
            for size in sizes
        }
        failures: list = []

        def worker(seed: int) -> None:
            for i in range(40):
                size = sizes[(seed + i) % len(sizes)]
                request = ExportRequest(genes=truth.query_genes, chunk_size=size)
                if lines_of(service.iter_result(request))[:-1] != expected[size]:
                    failures.append(size)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def test_racing_warm_exports_never_mix(setup):
    """Threads exporting one cached ranking through the app — gene
    orders, ``top_datasets`` and chunk sizes mixed, so the ready half's
    trailer memo and the compute half's re-chunking race — each get
    exactly their own lines and trailer."""
    compendium, truth = setup
    genes = list(truth.query_genes)
    payloads = [
        {"genes": order, "chunk_size": size, "top_datasets": top}
        for order in (genes, genes[::-1])
        for size in (7, 13)
        for top in (2, 5, 10)
    ]
    with SpellService(compendium) as service:
        app = ApiApp(service)

        def export(payload):
            *chunks, trailer = app.export(payload)
            return chunks, without_elapsed(trailer)

        expected = [export(payload) for payload in payloads]
        failures: list = []

        def worker(seed: int) -> None:
            for i in range(30):
                k = (seed * 7 + i) % len(payloads)
                if export(payloads[k]) != expected[k]:
                    failures.append(payloads[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        table = cached_table(service, ExportRequest.from_wire(payloads[0]))
        assert len(table.encoded[4]) <= PAGES_PER_RANKING


def test_memo_is_never_pickled(setup):
    compendium, truth = setup
    with SpellService(compendium) as service:
        request = ExportRequest(genes=truth.query_genes, chunk_size=25)
        table = cached_table(service, request)
        bare = pickle.dumps(table)
        lines_of(service.iter_result(request))
        assert service.export_cached(request) is not None  # a warm export: a trailer
        page = SearchRequest(genes=tuple(truth.query_genes), page_size=7)
        assert service.respond_cached(page) is not None  # a hit: the page memo
        assert len(table.encoded[4]) == 1 and len(table.pages) == 1
        assert pickle.dumps(table) == bare  # not one byte more on the wire
        copy = pickle.loads(bare)
        assert copy.encoded is None and copy == table
        assert len(copy.pages) == 0


def test_uncached_export_memoizes_nothing_resident(setup):
    compendium, truth = setup
    with SpellService(compendium) as service:
        request = ExportRequest(genes=truth.query_genes, chunk_size=10)
        table = cached_table(service, request)  # resident, not yet exported
        uncached = ExportRequest(genes=truth.query_genes, chunk_size=10, use_cache=False)
        lines = lines_of(service.iter_result(uncached))
        assert table.encoded is None
        assert service.cache_stats()["encoded_bytes"] == 0
        assert lines_of(service.iter_result(request))[:-1] == lines[:-1]


def test_export_after_ingest_is_not_stale(setup, tmp_path):
    compendium, truth = setup
    with SpellService(compendium) as service:
        app = ApiApp(service)
        payload = {"genes": list(truth.query_genes), "chunk_size": 20}
        search = {"genes": list(truth.query_genes), "page_size": 7}
        before = list(app.export(payload))
        assert list(app.export(payload))[:-1] == before[:-1]  # warm: the memo
        page_before = app.handle_wire("search", search)[1]  # warm: the page memo
        assert len(cached_table(service, ExportRequest(**payload)).pages) == 1
        source = tmp_path / "copy.pcl"
        write_pcl(list(compendium)[0].matrix, source)
        status, body = app.handle_wire(
            "ingest", {"name": "copy", "format": "pcl", "content": source.read_text()}
        )
        assert status == 200, body
        misses = service.cache_stats()["misses"]
        page_after = app.handle_wire("search", search)[1]
        assert service.cache_stats()["misses"] == misses + 1
        page_fresh = app.handle_wire("search", dict(search, use_cache=False))[1]
        for page in (page_before, page_after, page_fresh):
            page.pop("elapsed_seconds")
        assert page_after == page_fresh
        assert page_after != page_before
        after = list(app.export(payload))
        fresh = list(app.export(dict(payload, use_cache=False)))
        assert after[:-1] == fresh[:-1]
        assert after[:-1] != before[:-1]


def test_health_counts_encoded_bytes(setup):
    compendium, truth = setup
    with SpellService(compendium) as service:
        app = ApiApp(service)
        payload = {"genes": list(truth.query_genes), "chunk_size": 10}
        app.handle_wire("search", {"genes": list(truth.query_genes)})
        cache = app.handle_wire("health", None)[1]["cache"]
        assert list(cache) == CACHE_KEYS_BEFORE + ["encoded_bytes"]
        assert cache["encoded_bytes"] == 0
        lines = list(app.export(payload))
        held = app.handle_wire("health", None)[1]["cache"]["encoded_bytes"]
        assert held == sum(map(len, lines[:-1])) > 0
        trailer = list(app.export(payload))[-1]  # warm: stores its trailer, cut
        elapsed = repr(json.loads(trailer)["elapsed_seconds"]).encode()
        held += len(trailer) - len(elapsed)
        assert app.handle_wire("health", None)[1]["cache"]["encoded_bytes"] == held
        list(app.export(payload))  # a repeat warm export adds nothing
        assert app.handle_wire("health", None)[1]["cache"]["encoded_bytes"] == held


# ------------------------------------------------------------ structure locks
def _calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def _is_json_dumps(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute) and func.attr == "dumps"
        and isinstance(func.value, ast.Name) and func.value.id == "json"
    )


def test_only_ndjson_line_encodes_a_stream_message():
    """No module that handles export messages calls ``json.dumps`` but
    ``ndjson_line`` itself: a stream line is encoded in one place."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "ExportChunk" not in source and "ExportTrailer" not in source:
            continue
        tree = ast.parse(source)
        allowed = {
            id(call)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "ndjson_line"
            for call in _calls(fn)
        }
        offenders += [
            f"{path.relative_to(SRC)}:{call.lineno}"
            for call in _calls(tree)
            if _is_json_dumps(call) and id(call) not in allowed
        ]
    assert offenders == []


def test_only_the_protocol_and_pipeline_encode_a_search_page():
    """A ``SearchResponse`` wire dict is JSON-encoded in two places: the
    protocol's encoder (``ndjson_line``, which ``page_body_parts`` cuts a
    memoized page from) and ``pipeline._json`` (a computed answer).  No
    other module that handles pages or wire answers calls ``json.dumps``."""
    handles = ("SearchResponse", "to_wire(", "ready_wire(", "compute_wire(", "handle_wire(")
    allowed_in = {"api/protocol.py": "ndjson_line", "api/pipeline.py": "_json"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if not any(name in source for name in handles):
            continue
        tree = ast.parse(source)
        where = allowed_in.get(path.relative_to(SRC).as_posix())
        allowed = {
            id(call)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == where
            for call in _calls(fn)
        }
        offenders += [
            f"{path.relative_to(SRC)}:{call.lineno}"
            for call in _calls(tree)
            if _is_json_dumps(call) and id(call) not in allowed
        ]
    assert offenders == []


def _stats_records(tree) -> list[tuple[str | None, str | None]]:
    """``(class, function)`` around every ``<x>._stats.record(...)`` call
    (a nested function counts as the one it is defined in)."""
    found = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, fn or child.name)
                continue
            func = getattr(child, "func", None)
            if (
                isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                and func.attr == "record" and isinstance(func.value, ast.Attribute)
                and func.value.attr == "_stats"
            ):
                found.append((cls, fn))
            visit(child, cls, fn)

    visit(tree, None, None)
    return found


def test_endpoints_are_counted_where_the_app_answers():
    """Under ``repro.api`` an endpoint is counted in three places:
    ``ApiApp.ready_wire`` (refusals and ready answers),
    ``ApiApp.compute_wire`` (every handler answer, an export included)
    and ``ApiApp.record_rejection`` (a refusal before the app saw the
    request)."""
    counted = {
        (path.relative_to(SRC).as_posix(), cls, fn)
        for path in sorted((SRC / "api").rglob("*.py"))
        for cls, fn in _stats_records(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert counted == {
        ("api/app.py", "ApiApp", name)
        for name in ("ready_wire", "compute_wire", "record_rejection")
    }


@pytest.fixture()
def sent(monkeypatch):
    """Every write the threaded facade makes to a socket (its unbuffered
    writer's ``write`` is one ``sendall``)."""
    writes: list[bytes] = []
    real = socketserver._SocketWriter.write

    def counted(writer, data):
        writes.append(bytes(data))
        return real(writer, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", counted)
    return writes


def test_threaded_driver_sends_a_unary_answer_in_one_write(served, setup, sent):
    _, _, addrs = served
    genes = list(setup[1].query_genes)
    for path, payload in (("/v1/search", {"genes": genes, "page_size": 5}),
                          ("/v1/health", None)):
        raw_response(addrs["threaded"], path, payload)  # warm
        sent.clear()
        raw = raw_response(addrs["threaded"], path, payload)
        assert raw.startswith(b"HTTP/1.1 200")
        assert sent == [raw], path


@pytest.mark.parametrize("chunk_size", [1, 7, 100])
def test_threaded_driver_sends_a_warm_export_in_one_write(served, setup, sent, chunk_size):
    _, _, addrs = served
    payload = {"genes": list(setup[1].query_genes), "chunk_size": chunk_size}
    raw_response(addrs["threaded"], "/v1/search/export", payload)  # warm: the memo
    sent.clear()
    raw = raw_response(addrs["threaded"], "/v1/search/export", payload)
    # one send: the head, every chunk line and the trailer
    assert sent == [raw]
    assert json.loads(raw_export(addrs["threaded"], payload)[-1])["status"] == "ok"

"""A warm hit is a byte lookup: the encoded pages a cached ranking keeps.

:meth:`SearchBackend.respond_cached` — the ready half of ``/v1/search``
— answers a cache hit with the page's JSON body, cut once around
``elapsed_seconds`` (:func:`~repro.api.protocol.page_body_parts`) and
memoized on the ranking's :class:`GeneTable` (``pages``).  The contract
under test: that body is exactly ``json.dumps(SearchResponse.from_result(
...).to_wire())`` at the same ``elapsed_seconds``, on the first hit and
every repeat, whatever the client's gene names hold; an error is never
memoized and repeats byte for byte; the memo is filled by hits only,
holds at most ``PAGES_PER_RANKING`` pages, and is safe to read while
other threads publish into it.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.api import pipeline
from repro.api.app import ApiApp
from repro.api.http import serve_background as threaded_serve
from repro.api.protocol import SearchRequest, SearchResponse
from repro.data.pcl import write_pcl
from repro.spell import SpellService
from repro.spell.backend import PAGES_PER_RANKING
from repro.spell.catalog import CompendiumCatalog
from repro.synth import make_spell_compendium

TENANTS = (None, "default", "acme")


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
        seed=31,
    )


@pytest.fixture(scope="module")
def fleet(setup, tmp_path_factory):
    """An app over a catalog: the pinned default tenant plus ``acme``,
    which serves two of the default's datasets.  ``(app, catalog,
    genes, names)``: genes every dataset holds, and each tenant's
    dataset names."""
    compendium, _ = setup
    root = tmp_path_factory.mktemp("catalog")
    source = root / "submission.pcl"
    with SpellService(compendium) as default:
        catalog = CompendiumCatalog(root / "tenants", default_service=default)
        for dataset in list(compendium)[:2]:
            write_pcl(dataset.matrix, source)
            catalog.ingest("acme", dataset.name, "pcl", source.read_text(encoding="utf-8"))
        genes = sorted(set.intersection(*(set(ds.gene_ids) for ds in compendium)))
        names = {
            tenant: [ds.name for ds in catalog.resolve(tenant)[1].compendium]
            for tenant in TENANTS
        }
        try:
            yield ApiApp(default, catalog=catalog), catalog, genes[:12], names
        finally:
            catalog.close()


def ready(app: ApiApp, wire: dict):
    """One ``POST /v1/search`` through the pipeline's ready half, socket
    free: ``(Response or None, plan)``."""
    raw = json.dumps(wire).encode()
    plan = pipeline.plan_request(
        app, "POST", "/v1/search", {"content-length": str(len(raw))}, "127.0.0.1"
    )
    pipeline.read_body(plan, raw)
    return pipeline.ready(app, plan, keep_alive=True, draining=False), plan


def compute(app: ApiApp, plan):
    return pipeline.compute(app, plan, keep_alive=True, draining=False)


def memo_bytes(catalog) -> int:
    return sum(
        catalog.resolve(tenant)[1].cache_stats()["encoded_bytes"] for tenant in TENANTS[1:]
    )


#: gene names a client may send that JSON must escape: quotes,
#: backslashes, control and non-ASCII characters, and the text of the
#: very field the memo is cut at
hostile_names = st.just('"elapsed_seconds": 1') | st.text(
    alphabet=st.sampled_from('"\\:,{} é☃\n\x00'), min_size=1, max_size=8
)


@st.composite
def search_requests(draw, genes, names):
    tenant = draw(st.sampled_from(TENANTS))
    present = draw(st.lists(st.sampled_from(genes), min_size=1, max_size=4, unique=True))
    missing = draw(st.lists(hostile_names, max_size=2, unique=True))
    datasets = draw(
        st.none()
        | st.lists(st.sampled_from(names[tenant]), min_size=1, unique=True).map(tuple)
    )
    return SearchRequest(
        genes=tuple(draw(st.permutations(present + missing))),
        page=draw(st.integers(0, 7).map(lambda page: 10_000 if page == 7 else page)),
        page_size=draw(st.integers(1, 60)),
        top_datasets=draw(st.integers(0, 8)),
        top_k=draw(st.none() | st.integers(1, 200)),
        datasets=datasets,
        compendium=tenant,
    )


# -------------------------------------------------------------- the property
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ready_body_is_the_encoded_page(fleet, data):
    app, catalog, genes, names = fleet
    drawn = data.draw(search_requests(genes, names))
    service = catalog.resolve(drawn.compendium)[1]
    response, plan = ready(app, drawn.to_wire())
    if response is None:  # not resident yet: the miss is compute's
        compute(app, plan)
    # the same cache entry in the reverse gene order: a page of its own
    for request in (drawn, replace(drawn, genes=drawn.genes[::-1])):
        result = service.search(request.genes, top_k=request.top_k, datasets=request.datasets)
        table = result.genes
        bodies = []
        for _ in range(3):  # the first hit, then repeats
            response, _ = ready(app, request.to_wire())
            assert response is not None
            bodies.append(response.body)
            if response.status == 200:
                elapsed = json.loads(response.body)["elapsed_seconds"]
                page = SearchResponse.from_result(result, request, elapsed_seconds=elapsed)
                assert response.body == json.dumps(page.to_wire()).encode()
            assert len(table.pages) <= PAGES_PER_RANKING
    event(f"status {response.status}")
    if response.status != 200:
        assert json.loads(response.body)["error"]["code"] == "PAGE_OUT_OF_RANGE"
        assert bodies == [bodies[0]] * 3
        held = table.pages
        ready(app, request.to_wire())
        assert table.pages is held  # an error is never memoized


@settings(max_examples=20, deadline=None)
@given(
    names=st.lists(hostile_names, min_size=1, max_size=3, unique=True),
    tenant=st.sampled_from(TENANTS),
)
def test_unknown_genes_are_never_memoized(fleet, names, tenant):
    app, catalog, _, _ = fleet
    wire = {"genes": names, "compendium": tenant}
    held = memo_bytes(catalog)
    bodies = []
    for _ in range(3):
        response, plan = ready(app, wire)
        assert response is None  # the universe's verdict: compute gives it
        response = compute(app, plan)
        assert response.status == 404
        bodies.append(response.body)
    assert json.loads(bodies[0])["error"]["code"] == "UNKNOWN_GENE"
    assert bodies == [bodies[0]] * 3
    assert memo_bytes(catalog) == held


# ------------------------------------------------------------ memo contract
def test_hits_fill_the_memo_and_a_miss_never_does(setup):
    compendium, truth = setup
    with SpellService(compendium) as service:
        request = SearchRequest(genes=tuple(truth.query_genes), page_size=7)
        assert service.respond_cached(request) is None
        service.respond(request)  # the miss
        table = service.search(request.genes).genes
        assert len(table.pages) == 0 and service.cache_stats()["encoded_bytes"] == 0
        first = service.respond_cached(request)
        (head, tail), = table.pages.values()
        assert service.cache_stats()["encoded_bytes"] == len(head) + len(tail)
        assert first.startswith(head) and first.endswith(tail)
        held = table.pages
        service.respond_cached(request)
        assert table.pages is held  # a repeat reads, never republishes
        for page in range(1, 3 * PAGES_PER_RANKING):
            service.respond_cached(SearchRequest(genes=request.genes, page=page, page_size=3))
        assert len(table.pages) == PAGES_PER_RANKING
        stats = service.cache_stats()
        assert (stats["hits"], stats["misses"]) == (3 * PAGES_PER_RANKING + 2, 1)


def test_threads_paging_one_entry_share_a_bounded_memo(setup):
    """Eight threads on the threaded facade page one cached ranking with
    more distinct page parameters than the memo holds: each gets its own
    page, byte for byte, while health sums the memo beside them."""
    compendium, truth = setup
    genes = list(truth.query_genes)
    params = [(page, size) for size in (4, 5, 6) for page in range(4)]
    assert len(params) > PAGES_PER_RANKING
    with SpellService(compendium) as service:
        app = ApiApp(service)
        expected = {
            (page, size): service.respond(
                SearchRequest(genes=tuple(genes), page=page, page_size=size)
            ).to_wire()
            for page, size in params
        }
        table = service.search(genes).genes
        server, serving = threaded_serve(app)
        addr = server.server_address[:2]
        failures: list = []
        sizes: list[int] = []
        done = threading.Event()

        def worker(seed: int) -> None:
            conn = http.client.HTTPConnection(*addr, timeout=30)
            try:
                for i in range(30):
                    page, size = params[(seed + i) % len(params)]
                    body = json.dumps({"genes": genes, "page": page, "page_size": size})
                    conn.request("POST", "/v1/search", body=body)
                    reply = conn.getresponse()
                    raw = reply.read()
                    want = dict(expected[page, size])
                    want["elapsed_seconds"] = json.loads(raw)["elapsed_seconds"]
                    if reply.status != 200 or raw != json.dumps(want).encode():
                        failures.append((page, size, reply.status))
                    sizes.append(len(table.pages))
            except Exception as exc:  # noqa: BLE001 — reported below
                failures.append(exc)
            finally:
                conn.close()

        def health() -> None:
            while not done.is_set():
                try:
                    app.handle_wire("health", None)  # iterates every memo
                except Exception as exc:  # noqa: BLE001 — reported below
                    failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            watcher = threading.Thread(target=health)
            watcher.start()
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
            watcher.join(timeout=10)
            server.close(timeout=5)
            serving.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(sizes) == 8 * 30
        assert max(sizes) == len(table.pages) == PAGES_PER_RANKING

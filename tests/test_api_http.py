"""End-to-end tests of the HTTP facade: a live threaded server.

Boots :class:`ApiHTTPServer` on an ephemeral port, issues real HTTP
requests with ``urllib``, and checks (a) parity with direct
``SpellService`` answers — the acceptance bar: rankings served over the
wire are bit-identical to in-process results — and (b) that every
failure mode comes back as a structured error code, never a raw 500.
"""

from __future__ import annotations

import base64
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api.app import ApiApp
from repro.api.http import serve
from repro.api.protocol import RenderRequest, SearchRequest
from repro.cluster import hierarchical_cluster
from repro.spell import SpellService
from repro.viz.ppm import decode_ppm


@pytest.fixture(scope="module")
def live_api(request):
    """(base_url, service, app) against a live threaded server."""
    compendium, truth = request.getfixturevalue("spell_setup_api")
    service = SpellService(compendium, n_workers=2)
    app = ApiApp(service)
    server = serve(app, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", service, truth
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def spell_setup_api():
    """Small (compendium, truth) pair private to this module — read-only."""
    from repro.synth import make_spell_compendium

    return make_spell_compendium(
        n_datasets=6,
        n_relevant=2,
        n_genes=120,
        n_conditions=10,
        module_size=12,
        query_size=3,
        seed=11,
    )


def http(base: str, path: str, payload: dict | None = None) -> tuple[int, dict]:
    """GET (payload None) or POST json; returns (status, parsed body)."""
    if payload is None:
        request = urllib.request.Request(base + path)
    else:
        request = urllib.request.Request(
            base + path, data=json.dumps(payload).encode(), method="POST"
        )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestEndToEnd:
    def test_health(self, live_api):
        base, service, _ = live_api
        status, body = http(base, "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["api_version"] == "v1"
        assert body["datasets"] == len(service.compendium)
        assert body["genes"] == len(service.compendium.gene_universe())

    def test_search_parity_with_direct_service(self, live_api):
        """The acceptance bar: wire rankings == direct SpellService.search()."""
        base, service, truth = live_api
        query = list(truth.query_genes)
        status, body = http(base, "/v1/search", {"genes": query, "page_size": 30})
        assert status == 200
        direct = service.search(query)
        api_genes = [(row[1], row[2]) for row in body["gene_rows"]]
        direct_genes = [(g.gene_id, g.score) for g in direct.genes[:30]]
        assert api_genes == direct_genes  # scores bit-identical through JSON
        api_datasets = [(row[1], row[2]) for row in body["dataset_rows"]]
        direct_datasets = [(d.name, d.weight) for d in direct.datasets[:10]]
        assert api_datasets == direct_datasets
        assert body["total_genes"] == direct.total_genes

    def test_search_pagination_consistent(self, live_api):
        base, _, truth = live_api
        query = list(truth.query_genes)
        _, p0 = http(base, "/v1/search", {"genes": query, "page": 0, "page_size": 5})
        _, p1 = http(base, "/v1/search", {"genes": query, "page": 1, "page_size": 5})
        ranks = [row[0] for row in p0["gene_rows"] + p1["gene_rows"]]
        assert ranks == list(range(1, 11))
        genes = [row[1] for row in p0["gene_rows"] + p1["gene_rows"]]
        assert len(set(genes)) == 10  # no overlap between pages

    def test_batch_matches_single(self, live_api):
        base, _, truth = live_api
        query = list(truth.query_genes)
        status, body = http(
            base,
            "/v1/search/batch",
            {"searches": [{"genes": query, "page_size": 10}] * 3},
        )
        assert status == 200
        assert len(body["results"]) == 3
        _, single = http(base, "/v1/search", {"genes": query, "page_size": 10})
        for result in body["results"]:
            assert result["gene_rows"] == single["gene_rows"]

    def test_datasets_endpoint(self, live_api):
        base, service, _ = live_api
        status, body = http(base, "/v1/datasets")
        assert status == 200
        names = [d["name"] for d in body["datasets"]]
        assert names == service.compendium.names
        for info, ds in zip(body["datasets"], service.compendium):
            assert info["n_genes"] == ds.n_genes
            assert info["n_conditions"] == ds.n_conditions

    def test_cluster_parity(self, live_api):
        base, service, truth = live_api
        query = list(truth.query_genes)
        status, body = http(
            base, "/v1/cluster", {"search": {"genes": query}, "top_genes": 10}
        )
        assert status == 200
        result = service.search(query)
        top = result.top_genes(10)
        dataset = result.datasets[0].name
        matrix = service.compendium[dataset].matrix.subset_genes(top, missing="skip")
        tree = hierarchical_cluster(matrix.values, leaf_ids=matrix.gene_ids)
        assert body["dataset"] == dataset
        assert body["genes"] == [matrix.gene_ids[i] for i in tree.leaf_order()]
        assert len(body["merges"]) == matrix.n_genes - 1

    def test_render_heatmap_roundtrip(self, live_api):
        base, _, truth = live_api
        status, body = http(
            base,
            "/v1/render/heatmap",
            {"search": {"genes": list(truth.query_genes)}, "top_genes": 6,
             "cell_width": 4, "cell_height": 3},
        )
        assert status == 200
        pixels = decode_ppm(base64.b64decode(body["ppm_base64"]))
        assert pixels.shape == (body["height"], body["width"], 3)
        assert body["height"] == len(body["genes"]) * 3

    def test_render_raw_ppm_format(self, live_api):
        base, _, truth = live_api
        payload = json.dumps(
            {"search": {"genes": list(truth.query_genes)}, "top_genes": 4}
        ).encode()
        request = urllib.request.Request(
            base + "/v1/render/heatmap?format=ppm", data=payload, method="POST"
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            assert resp.headers["Content-Type"] == "image/x-portable-pixmap"
            pixels = decode_ppm(resp.read())
        assert pixels.ndim == 3

    def test_concurrent_clients_consistent(self, live_api):
        """Many threads hammering the shared index get identical answers."""
        base, _, truth = live_api
        query = list(truth.query_genes)
        answers: list[list] = []
        errors: list[Exception] = []
        lock = threading.Lock()

        def worker() -> None:
            try:
                _, body = http(base, "/v1/search", {"genes": query, "page_size": 15})
                with lock:
                    answers.append(body["gene_rows"])
            except Exception as exc:  # pragma: no cover - diagnostic only
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(answers) == 8
        assert all(a == answers[0] for a in answers)


class TestErrorPaths:
    def test_unknown_endpoint(self, live_api):
        base, _, _ = live_api
        status, body = http(base, "/v1/nope")
        assert status == 404
        assert body["error"]["code"] == "UNKNOWN_ENDPOINT"
        assert "/v1/search" in body["error"]["details"]["endpoints"]

    def test_path_outside_prefix(self, live_api):
        base, _, _ = live_api
        status, body = http(base, "/search")
        assert status == 404
        assert body["error"]["code"] == "UNKNOWN_ENDPOINT"

    def test_wrong_method(self, live_api):
        base, _, _ = live_api
        status, body = http(base, "/v1/search")  # GET on a POST route
        assert status == 405
        assert body["error"]["code"] == "METHOD_NOT_ALLOWED"
        status, body = http(base, "/v1/datasets", {})  # POST on a GET route
        assert status == 405

    def test_malformed_body(self, live_api):
        base, _, _ = live_api
        request = urllib.request.Request(
            base + "/v1/search", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=30)
        assert exc.value.code == 400
        assert json.loads(exc.value.read())["error"]["code"] == "MALFORMED_BODY"

    def test_non_object_body(self, live_api):
        base, _, _ = live_api
        request = urllib.request.Request(
            base + "/v1/search", data=b"[1, 2]", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=30)
        assert json.loads(exc.value.read())["error"]["code"] == "MALFORMED_BODY"

    def test_unknown_gene(self, live_api):
        base, _, _ = live_api
        status, body = http(base, "/v1/search", {"genes": ["NOT_A_GENE"]})
        assert status == 404
        assert body["error"]["code"] == "UNKNOWN_GENE"
        assert body["error"]["details"]["unknown_genes"] == ["NOT_A_GENE"]

    def test_partially_unknown_query_succeeds(self, live_api):
        base, _, truth = live_api
        genes = [truth.query_genes[0], "NOT_A_GENE"]
        status, body = http(base, "/v1/search", {"genes": genes})
        assert status == 200
        assert body["query_missing"] == ["NOT_A_GENE"]

    def test_unknown_dataset_filter(self, live_api):
        base, _, truth = live_api
        status, body = http(
            base,
            "/v1/search",
            {"genes": list(truth.query_genes), "datasets": ["ghost_dataset"]},
        )
        assert status == 404
        assert body["error"]["code"] == "UNKNOWN_DATASET"

    def test_page_out_of_range(self, live_api):
        base, _, truth = live_api
        status, body = http(
            base, "/v1/search", {"genes": list(truth.query_genes), "page": 99_999}
        )
        assert status == 400
        assert body["error"]["code"] == "PAGE_OUT_OF_RANGE"
        assert body["error"]["details"]["total_pages"] >= 1

    def test_unsupported_version(self, live_api):
        base, _, truth = live_api
        status, body = http(
            base, "/v1/search", {"api_version": "v9", "genes": list(truth.query_genes)}
        )
        assert status == 400
        assert body["error"]["code"] == "UNSUPPORTED_VERSION"

    def test_stats_track_errors(self, live_api):
        base, _, _ = live_api
        http(base, "/v1/search", {"genes": ["NOT_A_GENE"]})
        _, body = http(base, "/v1/health")
        search_stats = body["endpoints"]["search"]
        assert search_stats["errors"] >= 1
        assert search_stats["count"] >= search_stats["errors"]

    def test_stats_track_parse_failures(self, live_api):
        """A request the handler never saw (bad wire payload) still counts."""
        base, _, _ = live_api
        _, before = http(base, "/v1/health")
        errors_before = before["endpoints"].get("search", {}).get("errors", 0)
        status, body = http(base, "/v1/search", {"genes": 5})
        assert status == 400 and body["error"]["code"] == "INVALID_REQUEST"
        _, after = http(base, "/v1/health")
        assert after["endpoints"]["search"]["errors"] == errors_before + 1

    def test_unsupported_verb_structured_405(self, live_api):
        """DELETE/PUT/... must return the JSON error contract, not HTML 501."""
        base, _, _ = live_api
        request = urllib.request.Request(
            base + "/v1/search", data=b"{}", method="DELETE"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=30)
        assert exc.value.code == 405
        assert exc.value.headers["Content-Type"].startswith("application/json")
        assert json.loads(exc.value.read())["error"]["code"] == "METHOD_NOT_ALLOWED"

    def test_raw_ppm_app_failure_is_structured_json(self, live_api):
        """?format=ppm when the *app* raises (past parsing): the client
        must get a structured JSON error — never a half-written PPM or
        an image content-type wrapping an error."""
        base, _, truth = live_api
        payload = json.dumps(
            {"search": {"genes": list(truth.query_genes)},
             "dataset": "no_such_dataset"}
        ).encode()
        request = urllib.request.Request(
            base + "/v1/render/heatmap?format=ppm", data=payload, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=30)
        assert exc.value.code == 404
        assert exc.value.headers["Content-Type"].startswith("application/json")
        body = exc.value.read()
        assert not body.startswith(b"P6")  # not a PPM fragment
        parsed = json.loads(body)
        assert parsed["error"]["code"] == "UNKNOWN_DATASET"
        assert parsed["api_version"] == "v1"

    def test_raw_ppm_unknown_gene_is_structured_json(self, live_api):
        base, _, _ = live_api
        request = urllib.request.Request(
            base + "/v1/render/heatmap?format=ppm",
            data=json.dumps({"search": {"genes": ["NOT_A_GENE"]}}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=30)
        assert exc.value.code == 404
        assert exc.value.headers["Content-Type"].startswith("application/json")
        assert json.loads(exc.value.read())["error"]["code"] == "UNKNOWN_GENE"

    def test_raw_ppm_app_failures_counted_in_health(self, live_api):
        """Mid-render failures on the raw-bytes branch must move the
        endpoint's error counters exactly like the JSON branch."""
        base, _, truth = live_api
        _, before = http(base, "/v1/health")
        errors_before = before["endpoints"].get("render/heatmap", {}).get("errors", 0)
        request = urllib.request.Request(
            base + "/v1/render/heatmap?format=ppm",
            data=json.dumps(
                {"search": {"genes": list(truth.query_genes)},
                 "dataset": "no_such_dataset"}
            ).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(request, timeout=30)
        _, after = http(base, "/v1/health")
        assert after["endpoints"]["render/heatmap"]["errors"] == errors_before + 1

    def test_rejected_request_does_not_desync_keepalive(self, live_api):
        """An error sent before the body is drained must close the
        connection — otherwise the unread body is parsed as the next
        request line on a reused keep-alive socket."""
        from http.client import HTTPConnection

        base, _, truth = live_api
        host, port = base.removeprefix("http://").split(":")
        conn = HTTPConnection(host, int(port), timeout=30)
        try:
            body = json.dumps({"genes": list(truth.query_genes)})
            conn.request("POST", "/v1/nope", body=body)
            resp = conn.getresponse()
            assert resp.status == 404
            assert resp.getheader("Connection") == "close"
            resp.read()
        finally:
            conn.close()
        # a fresh connection must serve normally afterwards
        status, body = http(base, "/v1/health")
        assert status == 200 and body["status"] == "ok"


class TestWireHandlerDirect:
    """The transport-agnostic dispatch, without a socket in the way."""

    def test_handle_wire_success_and_error(self, spell_setup_api):
        compendium, truth = spell_setup_api
        app = ApiApp(SpellService(compendium))
        status, body = app.handle_wire("search", {"genes": list(truth.query_genes)})
        assert status == 200 and body["gene_rows"]
        status, body = app.handle_wire("search", {"genes": []})
        assert status == 400 and body["error"]["code"] == "INVALID_QUERY"
        status, body = app.handle_wire("bogus", {})
        assert status == 404 and body["error"]["code"] == "UNKNOWN_ENDPOINT"

    def test_typed_entry_points_match_wire(self, spell_setup_api):
        compendium, truth = spell_setup_api
        app = ApiApp(SpellService(compendium))
        request = SearchRequest(genes=truth.query_genes, page_size=12)
        typed = app.search(request)
        _, wire = app.handle_wire("search", request.to_wire())
        assert wire["gene_rows"] == [list(r) for r in typed.gene_rows]

    def test_unknown_gene_respects_dataset_filter(self):
        """Genes that exist only outside the filter are UNKNOWN_GENE (404),
        the same stable code an unfiltered all-unknown query gets."""
        import numpy as np

        from repro.data.compendium import Compendium
        from repro.data.dataset import Dataset
        from repro.data.matrix import ExpressionMatrix

        rng = np.random.default_rng(7)
        conditions = [f"c{i}" for i in range(6)]

        def dataset(name: str, genes: list[str]) -> Dataset:
            values = rng.normal(size=(len(genes), len(conditions)))
            return Dataset(name=name, matrix=ExpressionMatrix(values, genes, conditions))

        compendium = Compendium([
            dataset("A", ["G1", "G2", "G3"]),
            dataset("B", ["H1", "H2", "H3"]),
        ])
        app = ApiApp(SpellService(compendium))
        status, body = app.handle_wire(
            "search", {"genes": ["G1", "G2"], "datasets": ["B"]}
        )
        assert status == 404
        assert body["error"]["code"] == "UNKNOWN_GENE"
        assert body["error"]["details"]["unknown_genes"] == ["G1", "G2"]
        # same genes against the dataset that holds them still work
        status, body = app.handle_wire(
            "search", {"genes": ["G1", "G2"], "datasets": ["A"]}
        )
        assert status == 200 and body["dataset_rows"][0][1] == "A"

    def test_raw_render_parse_failures_counted(self, live_api):
        """?format=ppm parse failures must show up in /v1/health stats."""
        base, _, _ = live_api
        _, before = http(base, "/v1/health")
        errors_before = before["endpoints"].get("render/heatmap", {}).get("errors", 0)
        request = urllib.request.Request(
            base + "/v1/render/heatmap?format=ppm",
            data=json.dumps({"search": {"genes": []}}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=30)
        assert json.loads(exc.value.read())["error"]["code"] == "INVALID_QUERY"
        _, after = http(base, "/v1/health")
        assert after["endpoints"]["render/heatmap"]["errors"] == errors_before + 1

    def test_cluster_and_render_honor_search_top_k(self, spell_setup_api):
        """A top_k-capped search must bound what cluster/render touch."""
        from repro.api.protocol import ClusterRequest

        compendium, truth = spell_setup_api
        app = ApiApp(SpellService(compendium))
        capped = SearchRequest(genes=truth.query_genes, top_k=3)
        cluster = app.cluster(ClusterRequest(search=capped, top_genes=10))
        assert len(cluster.genes) <= 3
        full = app.search(SearchRequest(genes=truth.query_genes, page_size=3))
        assert sorted(cluster.genes) == sorted(row[1] for row in full.gene_rows)
        render = app.render_heatmap(
            RenderRequest(search=capped, top_genes=10)
        )
        assert len(render.genes) <= 3

    def test_unknown_endpoint_stats_bounded(self, spell_setup_api):
        """Bogus endpoint names must not grow the stats map per name."""
        compendium, _ = spell_setup_api
        app = ApiApp(SpellService(compendium))
        for name in ("bogus1", "bogus2", "bogus3"):
            status, _ = app.handle_wire(name, {})
            assert status == 404
        stats = app.health().endpoints
        assert "bogus1" not in stats
        assert stats["(unknown)"]["errors"] == 3

    def test_render_typed(self, spell_setup_api):
        compendium, truth = spell_setup_api
        app = ApiApp(SpellService(compendium))
        response = app.render_heatmap(
            RenderRequest(
                search=SearchRequest(genes=truth.query_genes),
                top_genes=5, cluster=True,
            )
        )
        pixels = decode_ppm(response.ppm)
        assert pixels.shape == (response.height, response.width, 3)


class TestGracefulDrain:
    """The threaded facade honors the shared drain contract
    (:mod:`repro.api.transport`): ``close()`` finishes in-flight
    requests before tearing down, bounded by a timeout."""

    class _SlowSearch:
        def __init__(self, inner, delay):
            self._inner = inner
            self._delay = delay

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def respond(self, *args, **kwargs):
            import time

            time.sleep(self._delay)
            return self._inner.respond(*args, **kwargs)

    def test_close_drains_in_flight_requests(self, spell_setup_api):
        import time

        from repro.api.http import serve_background

        compendium, truth = spell_setup_api
        with SpellService(compendium, n_workers=2) as inner:
            app = ApiApp(self._SlowSearch(inner, delay=0.6))
            server, thread = serve_background(app)
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            payload = {"genes": list(truth.query_genes), "page_size": 10}
            results = []

            def issue():
                results.append(http(base, "/v1/search", payload))

            clients = [threading.Thread(target=issue) for _ in range(3)]
            for t in clients:
                t.start()
            time.sleep(0.25)  # requests now inside the slow respond()
            assert server.stats.snapshot()["in_flight"] >= 1
            drained = server.close(timeout=10)
            for t in clients:
                t.join(timeout=15)
            thread.join(timeout=10)

            assert drained is True
            assert len(results) == 3  # zero dropped in-flight responses
            for status, body in results:
                assert status == 200
                assert body["total_genes"] > 0
            snap = server.stats.snapshot()
            assert snap["drained_requests"] >= 1
            assert snap["in_flight"] == 0

    def test_transport_counters_in_health(self, live_api):
        base, _service, _truth = live_api
        status, body = http(base, "/v1/health")
        assert status == 200
        transport = body["serving"]["transport"]["http"]
        assert transport["requests_total"] >= 1
        assert transport["draining"] is False

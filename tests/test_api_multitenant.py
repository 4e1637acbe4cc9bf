"""Multi-tenant serving over the wire: compat, quotas, ingestion.

Four acceptance bars from the fleet refactor, checked end-to-end over
**both** facades (threaded and asyncio):

* **Wire compatibility** — a request omitting the append-only
  ``compendium`` field is answered byte-compatible with a pre-fleet
  single-tenant deployment (same JSON bodies modulo timing fields);
  naming ``"default"`` explicitly is the identical answer.
* **Tenant routing** — ``POST /v1/ingest`` grows a named tenant live,
  and tenant-scoped searches answer exactly like a dedicated service
  built over the same submissions.
* **Quotas** — per-authenticated-token buckets 429 one principal
  without touching another, per-tenant budgets 429 one compendium
  without touching the default, and both carry a working
  ``Retry-After`` header on both facades.
* **Operability** — ``GET /v1/datasets`` carries the durable
  ``fingerprint`` + storage ``tier`` per dataset, ``/v1/health`` rolls
  up per-tenant stats, and the aio CLI accepts every flag the threaded
  CLI does (no drift).
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api.app import ApiApp
from repro.api.aio.server import serve_background as aio_serve
from repro.api.http import serve_background as threaded_serve
from repro.api.limits import RequestGate
from repro.api.protocol import (
    DatasetInfo,
    HealthResponse,
    IngestRequest,
    IngestResponse,
    SearchRequest,
)
from repro.data.compendium import Compendium
from repro.data.loader import parse_dataset
from repro.data.pcl import write_pcl
from repro.spell import SpellService
from repro.spell.catalog import CompendiumCatalog
from repro.synth import make_spell_compendium

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def setup():
    """Small (compendium, truth) pair private to this module — read-only."""
    return make_spell_compendium(
        n_datasets=6,
        n_relevant=2,
        n_genes=80,
        n_conditions=8,
        module_size=10,
        query_size=3,
        seed=13,
    )


def pcl_text(tmp_path, dataset) -> str:
    path = tmp_path / f"{dataset.name}.pcl.src"
    write_pcl(dataset.matrix, path)
    return path.read_text(encoding="utf-8")


def scrub(obj):
    """Drop timing fields — the only divergence the oracle allows."""
    if isinstance(obj, dict):
        return {
            k: scrub(v)
            for k, v in obj.items()
            if k not in ("elapsed_seconds", "total_seconds")
        }
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


def request_raw(addr, method, path, payload=None, headers=None):
    """One request over a fresh connection; (status, body bytes, headers)."""
    conn = http.client.HTTPConnection(*addr, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body, headers=dict(headers or {}))
        resp = conn.getresponse()
        return resp.status, resp.read(), dict(resp.getheaders())
    finally:
        conn.close()


def request_json(addr, method, path, payload=None, headers=None):
    status, body, resp_headers = request_raw(
        addr, method, path, payload, headers
    )
    return status, json.loads(body), resp_headers


class TestProtocol:
    def test_compendium_field_round_trips(self):
        req = SearchRequest(genes=("g1",), compendium="acme")
        assert req.to_wire()["compendium"] == "acme"
        assert SearchRequest.from_wire(req.to_wire()) == req

    def test_omitting_compendium_still_parses(self):
        """The pre-fleet client payload is untouched wire format."""
        req = SearchRequest.from_wire({"genes": ["g1"]})
        assert req.compendium is None

    def test_hostile_compendium_rejected_at_parse(self):
        from repro.api.errors import ApiError

        for bad in ("../evil", "a/b", "", "x" * 65):
            with pytest.raises(ApiError) as exc:
                SearchRequest.from_wire({"genes": ["g1"], "compendium": bad})
            assert exc.value.code == "INVALID_REQUEST"

    def test_ingest_round_trip(self):
        req = IngestRequest(
            name="ds1", format="pcl", content="x\ty\n", compendium="acme"
        )
        assert IngestRequest.from_wire(req.to_wire()) == req
        resp = IngestResponse(
            compendium="acme",
            dataset="ds1",
            n_genes=3,
            n_conditions=2,
            fingerprint="f" * 40,
            compendium_fingerprint="c" * 40,
            datasets=1,
            elapsed_seconds=0.1,
        )
        assert IngestResponse.from_wire(resp.to_wire()) == resp

    def test_dataset_info_and_health_append_only_fields(self):
        info = DatasetInfo(
            name="d", n_genes=1, n_conditions=1, metadata={},
            fingerprint="a" * 40, tier="cold",
        )
        assert DatasetInfo.from_wire(info.to_wire()) == info
        health = HealthResponse(
            status="ok", datasets=1, genes=1, uptime_seconds=0.0,
            index_bytes=0, query_count=0, cache={}, endpoints={},
            tenants={"default": {"resident": True}},
        )
        assert HealthResponse.from_wire(health.to_wire()) == health


@pytest.fixture(scope="module")
def fleet(setup, tmp_path_factory):
    """Both facades over one catalog-backed app, plus a plain
    single-tenant app as the wire-compat baseline."""
    compendium, truth = setup
    tmp = tmp_path_factory.mktemp("fleet")
    service = SpellService(compendium, n_workers=2)
    catalog = CompendiumCatalog(tmp / "catalog", default_service=service)
    app = ApiApp(service, gate=RequestGate(), catalog=catalog)

    plain_service = SpellService(compendium, n_workers=2)
    plain_app = ApiApp(plain_service)

    aio_server, aio_thread = aio_serve(app, transport_label="aio-fleet")
    thr_server, thr_thread = threaded_serve(app, transport_label="http-fleet")
    plain_server, plain_thread = threaded_serve(
        plain_app, transport_label="http-plain"
    )
    yield {
        "aio": aio_server.server_address[:2],
        "threaded": thr_server.server_address[:2],
        "plain": plain_server.server_address[:2],
        "service": service,
        "truth": truth,
        "tmp": tmp,
        "catalog": catalog,
    }
    for server, thread in (
        (aio_server, aio_thread),
        (thr_server, thr_thread),
        (plain_server, plain_thread),
    ):
        server.close(timeout=5)
        thread.join(timeout=10)
    catalog.close()
    service.close()
    plain_service.close()


class TestWireCompat:
    """Requests omitting ``compendium`` == the pre-fleet deployment."""

    @pytest.mark.parametrize("facade", ["aio", "threaded"])
    def test_default_tenant_bodies_match_plain_single_tenant(
        self, fleet, facade
    ):
        query = list(fleet["truth"].query_genes)
        for endpoint, payload in [
            ("/v1/search", {"genes": query, "page_size": 20}),
            (
                "/v1/search/batch",
                {"searches": [{"genes": query, "page_size": 5}] * 2},
            ),
        ]:
            status, got, _ = request_json(
                fleet[facade], "POST", endpoint, payload
            )
            ref_status, want, _ = request_json(
                fleet["plain"], "POST", endpoint, payload
            )
            assert (status, scrub(got)) == (ref_status, scrub(want)), endpoint
        # explicitly naming the default tenant changes nothing
        status, named, _ = request_json(
            fleet[facade], "POST", "/v1/search",
            {"genes": query, "page_size": 20, "compendium": "default"},
        )
        status2, anon, _ = request_json(
            fleet[facade], "POST", "/v1/search",
            {"genes": query, "page_size": 20},
        )
        assert status == status2 == 200
        assert scrub(named) == scrub(anon)

    def test_unknown_compendium_is_structured_404(self, fleet):
        for facade in ("aio", "threaded"):
            status, body, _ = request_json(
                fleet[facade], "POST", "/v1/search",
                {"genes": ["g1"], "compendium": "ghost"},
            )
            assert status == 404, facade
            assert body["error"]["code"] == "UNKNOWN_COMPENDIUM"
            assert "known" in body["error"]["details"]


class TestIngestEndToEnd:
    def test_ingest_then_search_matches_dedicated_service(self, fleet, setup):
        compendium, truth = setup
        query = list(truth.query_genes)
        subset = list(compendium)[:3]
        # each facade gets its own tenant so the test order can't matter
        for facade, tenant in (("threaded", "acme"), ("aio", "zenith")):
            submitted = []
            for ds in subset:
                text = pcl_text(fleet["tmp"], ds)
                submitted.append(parse_dataset(text, "pcl", name=ds.name))
                status, body, _ = request_json(
                    fleet[facade], "POST", "/v1/ingest",
                    {
                        "name": ds.name, "format": "pcl",
                        "content": text, "compendium": tenant,
                    },
                )
                assert status == 200, body
                assert body["compendium"] == tenant
                assert body["dataset"] == ds.name
                assert len(body["fingerprint"]) == 40
            assert body["datasets"] == len(subset)

            status, got, _ = request_json(
                fleet[facade], "POST", "/v1/search",
                {"genes": query, "page_size": 25, "compendium": tenant},
            )
            assert status == 200, got
            with SpellService(Compendium(submitted), n_workers=1) as oracle:
                want = ApiApp(oracle).handle_wire(
                    "search", {"genes": query, "page_size": 25}
                )[1]
            assert scrub(got) == scrub(want), facade

    def test_duplicate_409_and_malformed_400_over_the_wire(self, fleet, setup):
        compendium, _ = setup
        ds = list(compendium)[4]
        text = pcl_text(fleet["tmp"], ds)
        payload = {
            "name": ds.name, "format": "pcl",
            "content": text, "compendium": "dupes",
        }
        status, body, _ = request_json(
            fleet["threaded"], "POST", "/v1/ingest", payload
        )
        assert status == 200, body
        status, body, _ = request_json(
            fleet["aio"], "POST", "/v1/ingest", payload
        )
        assert status == 409
        assert body["error"]["code"] == "DATASET_EXISTS"
        status, body, _ = request_json(
            fleet["aio"], "POST", "/v1/ingest",
            {
                "name": "broken", "format": "pcl",
                "content": "definitely\tnot\ta\tpcl",
                "compendium": "dupes",
            },
        )
        assert status == 400
        assert body["error"]["code"] == "INVALID_REQUEST"


class TestOperability:
    def test_datasets_carry_fingerprint_and_tier(self, fleet, setup):
        compendium, _ = setup
        by_name = {ds.name: ds for ds in compendium}
        for facade in ("aio", "threaded"):
            status, body, _ = request_json(fleet[facade], "GET", "/v1/datasets")
            assert status == 200
            for entry in body["datasets"]:
                assert entry["fingerprint"] == by_name[entry["name"]].fingerprint
                assert entry["tier"] == "resident"  # no store → all resident

    def test_health_rolls_up_tenants(self, fleet):
        for facade in ("aio", "threaded"):
            status, body, _ = request_json(fleet[facade], "GET", "/v1/health")
            assert status == 200
            tenants = body["tenants"]
            assert tenants["default"]["resident"] is True
            assert "_catalog" in tenants
            assert tenants["_catalog"]["resident"] >= 1

    def test_plain_app_health_has_empty_tenants(self, fleet):
        status, body, _ = request_json(fleet["plain"], "GET", "/v1/health")
        assert status == 200
        assert body["tenants"] == {}


class TestQuotas:
    @pytest.fixture()
    def gated(self, setup):
        """Boot both facades over one gate recipe; returns addresses."""
        compendium, _ = setup
        cleanups = []

        def boot(**gate_kwargs):
            service = SpellService(compendium, n_workers=1)
            aio_server, aio_thread = aio_serve(
                ApiApp(service, gate=RequestGate(**gate_kwargs)),
                transport_label="aio-quota",
            )
            thr_server, thr_thread = threaded_serve(
                ApiApp(service, gate=RequestGate(**gate_kwargs)),
                transport_label="http-quota",
            )
            cleanups.append(
                (service, aio_server, aio_thread, thr_server, thr_thread)
            )
            return aio_server.server_address[:2], thr_server.server_address[:2]

        yield boot
        for service, aio_server, aio_thread, thr_server, thr_thread in cleanups:
            aio_server.close(timeout=5)
            thr_server.close(timeout=5)
            aio_thread.join(timeout=10)
            thr_thread.join(timeout=10)
            service.close()

    def test_per_token_quota_isolates_principals(self, gated, setup):
        """alice exhausting her bucket never costs bob a request."""
        _, truth = setup
        payload = {"genes": list(truth.query_genes), "page_size": 5}
        addrs = gated(
            auth_tokens={"tok-alice": "alice", "tok-bob": "bob"},
            token_rate_limit=0.001,
            token_rate_burst=2,
        )
        for addr in addrs:
            alice = {"Authorization": "Bearer tok-alice"}
            statuses = [
                request_raw(addr, "POST", "/v1/search", payload, alice)[0]
                for _ in range(3)
            ]
            assert statuses == [200, 200, 429], addr
            status, body, headers = request_json(
                addr, "POST", "/v1/search", payload, alice
            )
            assert status == 429
            assert body["error"]["code"] == "RATE_LIMITED"
            assert body["error"]["details"]["scope"] == "token"
            assert body["error"]["details"]["principal"] == "alice"
            assert int(headers["Retry-After"]) >= 1
            # bob's bucket is untouched by alice's exhaustion
            bob = {"Authorization": "Bearer tok-bob"}
            status, _, _ = request_json(
                addr, "POST", "/v1/search", payload, bob
            )
            assert status == 200

    def test_per_tenant_budget_spares_other_tenants(self, gated, setup):
        """Exhausting one compendium's budget never 429s the default."""
        _, truth = setup
        query = list(truth.query_genes)
        addrs = gated(tenant_rate_limit=0.001, tenant_rate_burst=2)
        for addr in addrs:
            named = {"genes": query, "page_size": 5, "compendium": "default"}
            statuses = [
                request_raw(addr, "POST", "/v1/search", named)[0]
                for _ in range(3)
            ]
            assert statuses == [200, 200, 429], addr
            status, body, headers = request_json(
                addr, "POST", "/v1/search", named
            )
            assert status == 429
            assert body["error"]["code"] == "RATE_LIMITED"
            assert body["error"]["details"]["scope"] == "tenant"
            assert int(headers["Retry-After"]) >= 1


class TestCliParity:
    def _flags(self, module: str) -> set[str]:
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        import re

        return set(re.findall(r"--[a-z][a-z-]+", proc.stdout))

    def test_aio_cli_accepts_every_threaded_flag(self):
        """Satellite: the facades' operator surfaces must not drift —
        every threaded-CLI flag works verbatim on the aio CLI."""
        threaded = self._flags("repro.api.http")
        aio = self._flags("repro.api.aio")
        assert threaded <= aio, sorted(threaded - aio)
        # the fleet flags exist on both
        for flag in (
            "--catalog-root", "--max-resident", "--auth-tokens-file",
            "--token-rate-limit", "--tenant-rate-limit", "--store-verify",
        ):
            assert flag in threaded and flag in aio, flag

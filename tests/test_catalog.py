"""The multi-tenant compendium catalog: residency, isolation, oracle.

The tentpole claim under test: a tenant served through
:class:`CompendiumCatalog` + :class:`ApiApp` answers **bit-identical**
(modulo timing fields) to a dedicated single-tenant ``SpellService``
built over the same datasets — multi-tenancy is routing, never a
different answer.  Around that oracle sit the catalog's own contracts:
lazy loads, the bounded LRU with the default tenant pinned, eviction
through the idempotent ``close()`` drain contract, filesystem-safe
tenant grammar, and the per-tenant stats rollup that feeds
``/v1/health``.
"""

from __future__ import annotations

import pytest

from repro.api.app import DEFAULT_TENANT as APP_DEFAULT_TENANT
from repro.api.app import ApiApp
from repro.api.errors import ApiError
from repro.data.compendium import Compendium
from repro.data.pcl import write_pcl
from repro.spell.catalog import DEFAULT_TENANT, CompendiumCatalog
from repro.spell.service import SpellService
from repro.synth import make_spell_compendium

COMPENDIUM_KWARGS = dict(
    n_datasets=6,
    n_relevant=2,
    n_genes=80,
    n_conditions=8,
    module_size=10,
    query_size=3,
    seed=7,
)


@pytest.fixture(scope="module")
def setup():
    """Small (compendium, truth) pair private to this module — read-only."""
    return make_spell_compendium(**COMPENDIUM_KWARGS)


def pcl_text(tmp_path, dataset) -> str:
    """The dataset as PCL text, exactly as a client would submit it."""
    path = tmp_path / f"{dataset.name}.pcl.src"
    write_pcl(dataset.matrix, path)
    return path.read_text(encoding="utf-8")


def ingest_all(catalog, tmp_path, tenant, datasets) -> None:
    for ds in datasets:
        catalog.ingest(tenant, ds.name, "pcl", pcl_text(tmp_path, ds))


def scrub(obj):
    """Drop the timing fields the oracle explicitly excludes."""
    if isinstance(obj, dict):
        return {
            k: scrub(v)
            for k, v in obj.items()
            if k not in ("elapsed_seconds", "total_seconds")
        }
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


class TestDefaultTenant:
    def test_app_and_catalog_agree_on_the_default_name(self):
        # app.py deliberately does not import the catalog (single-tenant
        # deployments never load it); this pin keeps the two constants
        # from drifting apart.
        assert APP_DEFAULT_TENANT == DEFAULT_TENANT == "default"

    def test_external_default_is_pinned_and_never_closed(self, setup, tmp_path):
        compendium, truth = setup
        with SpellService(compendium, n_workers=1) as svc:
            catalog = CompendiumCatalog(
                tmp_path, default_service=svc, max_resident=1
            )
            ingest_all(catalog, tmp_path, "t1", list(compendium)[:1])
            ingest_all(catalog, tmp_path, "t2", list(compendium)[:1])
            # two loads past the budget of 1: the default survives both
            tenant, service = catalog.resolve(None)
            assert tenant == DEFAULT_TENANT and service is svc
            catalog.close()
            # close() left the external default to its owner
            result = svc.search(truth.query_genes)
            assert result.genes


class TestResidency:
    def test_lazy_load_and_lru_eviction(self, setup, tmp_path):
        compendium, _ = setup
        catalog = CompendiumCatalog(tmp_path, max_resident=2)
        try:
            ingest_all(catalog, tmp_path, "alpha", list(compendium)[:2])
            ingest_all(catalog, tmp_path, "beta", list(compendium)[2:3])
            stats = catalog.stats()
            assert stats["alpha"]["resident"] and stats["beta"]["resident"]

            # a third tenant pushes the least-recently-used one out
            ingest_all(catalog, tmp_path, "gamma", list(compendium)[3:4])
            stats = catalog.stats()
            assert not stats["alpha"]["resident"]
            assert stats["alpha"]["evictions"] == 1
            assert stats["beta"]["resident"] and stats["gamma"]["resident"]
            assert stats["_catalog"]["resident"] == 2

            # touching the evicted tenant reloads it from its store
            # (mmap cold start) and evicts the new LRU victim instead
            _, service = catalog.resolve("alpha")
            assert sorted(ds.name for ds in service.compendium) == sorted(
                ds.name for ds in list(compendium)[:2]
            )
            stats = catalog.stats()
            assert stats["alpha"]["resident"]
            assert stats["alpha"]["loads"] == 2  # initial + reload
            assert not stats["beta"]["resident"]
        finally:
            catalog.close()

    def test_resident_never_loads_and_never_waits(self, setup, tmp_path):
        """``resident()`` is ``resolve()`` for a caller that must not
        block: no load, no filesystem, no queueing behind the lock."""
        import threading

        compendium, _ = setup
        catalog = CompendiumCatalog(tmp_path, max_resident=2)
        try:
            ingest_all(catalog, tmp_path, "alpha", list(compendium)[:1])
            ingest_all(catalog, tmp_path, "beta", list(compendium)[1:2])
            ingest_all(catalog, tmp_path, "gamma", list(compendium)[2:3])  # evicts alpha
            assert catalog.resident("alpha") is None  # on disk, not in RAM
            assert catalog.stats()["alpha"]["loads"] == 1  # and it stayed that way
            assert catalog.resident("nope") is None
            tenant, service = catalog.resident("beta")
            assert (tenant, service) == catalog.resolve("beta")
            # a hit counts as a use: gamma is now the LRU victim, not beta
            catalog.resolve("alpha")
            assert catalog.resident("beta") is not None
            assert catalog.resident("gamma") is None

            # busy (a load or an ingest holds the lock): "ask again from
            # somewhere that may block", immediately
            holding, done = threading.Event(), threading.Event()

            def hold():
                with catalog._lock:
                    holding.set()
                    done.wait(10)

            holder = threading.Thread(target=hold)
            holder.start()
            assert holding.wait(10)
            try:
                assert catalog.resident("beta") is None
            finally:
                done.set()
                holder.join(timeout=10)
            assert catalog.resident("beta") is not None
        finally:
            catalog.close()

    def test_reload_after_eviction_serves_identical_rankings(
        self, setup, tmp_path
    ):
        compendium, truth = setup
        query = list(truth.query_genes)
        catalog = CompendiumCatalog(tmp_path, max_resident=1)
        try:
            ingest_all(catalog, tmp_path, "alpha", list(compendium)[:3])
            _, warm = catalog.resolve("alpha")
            baseline = [
                (g.gene_id, g.score) for g in warm.search(query).genes
            ]
            ingest_all(catalog, tmp_path, "other", list(compendium)[3:4])
            assert not catalog.stats()["alpha"]["resident"]
            _, cold = catalog.resolve("alpha")
            assert cold is not warm  # a genuinely new service instance
            again = [(g.gene_id, g.score) for g in cold.search(query).genes]
            assert again == baseline  # scores bit-identical across reload
        finally:
            catalog.close()

    def test_eviction_is_safe_mid_request(self, setup, tmp_path):
        """The drain contract: a closed (evicted) service still answers
        the in-flight request it was serving."""
        compendium, truth = setup
        catalog = CompendiumCatalog(tmp_path, max_resident=1)
        try:
            ingest_all(catalog, tmp_path, "alpha", list(compendium)[:2])
            _, victim = catalog.resolve("alpha")
            ingest_all(catalog, tmp_path, "other", list(compendium)[2:3])
            # victim has been evicted (closed) — but a caller holding the
            # reference finishes its request in-process
            result = victim.search(list(truth.query_genes))
            assert result.genes
        finally:
            catalog.close()


class TestGrammar:
    @pytest.mark.parametrize(
        "hostile",
        ["../evil", "a/b", ".hidden", "", "x" * 65, "a\x00b", "a b"],
    )
    def test_hostile_tenant_names_are_routing_errors(self, tmp_path, hostile):
        catalog = CompendiumCatalog(tmp_path)
        with pytest.raises(ApiError) as exc:
            catalog.resolve(hostile)
        assert exc.value.code == "UNKNOWN_COMPENDIUM"
        # nothing escaped the root: the only entry is the root itself
        assert list(tmp_path.parent.glob("evil")) == []

    def test_unknown_tenant_lists_known_names(self, setup, tmp_path):
        compendium, _ = setup
        catalog = CompendiumCatalog(tmp_path)
        ingest_all(catalog, tmp_path, "alpha", list(compendium)[:1])
        with pytest.raises(ApiError) as exc:
            catalog.resolve("nope")
        assert exc.value.code == "UNKNOWN_COMPENDIUM"
        assert exc.value.details["known"] == ["alpha"]
        catalog.close()


class TestOracle:
    """Tenant-scoped answers == a dedicated single-tenant service."""

    def test_search_and_batch_bit_identical_to_dedicated_service(
        self, setup, tmp_path
    ):
        compendium, truth = setup
        query = list(truth.query_genes)
        subset = list(compendium)[:3]

        catalog = CompendiumCatalog(tmp_path)
        ingest_all(catalog, tmp_path, "acme", subset)
        app = ApiApp(SpellService(compendium, n_workers=1), catalog=catalog)

        # the dedicated service is built over the *same submissions* the
        # tenant serves — the PCL text round-trip, not the in-memory
        # synthetic objects (PCL carries no free-form metadata)
        from repro.data.loader import parse_dataset

        submitted = [
            parse_dataset(pcl_text(tmp_path, ds), "pcl", name=ds.name)
            for ds in subset
        ]
        oracle = ApiApp(SpellService(Compendium(submitted), n_workers=1))
        try:
            for endpoint, payload in [
                ("search", {"genes": query, "page_size": 25}),
                (
                    "search/batch",
                    {"searches": [{"genes": query, "page_size": 10}] * 2},
                ),
                ("datasets", {}),
            ]:
                tenant_payload = dict(payload, compendium="acme")
                status, got = app.handle_wire(endpoint, tenant_payload)
                assert status == 200, got
                status, want = oracle.handle_wire(endpoint, payload)
                assert status == 200, want
                assert scrub(got) == scrub(want), endpoint
        finally:
            app.service.close()
            oracle.service.close()
            catalog.close()

    def test_tenants_are_isolated(self, setup, tmp_path):
        """A query routed to tenant A can never see tenant B's data."""
        compendium, truth = setup
        query = list(truth.query_genes)
        catalog = CompendiumCatalog(tmp_path)
        try:
            ingest_all(catalog, tmp_path, "a", list(compendium)[:2])
            ingest_all(catalog, tmp_path, "b", list(compendium)[2:5])
            _, svc_a = catalog.resolve("a")
            _, svc_b = catalog.resolve("b")
            names_a = {ds.name for ds in svc_a.compendium}
            names_b = {ds.name for ds in svc_b.compendium}
            assert not names_a & names_b
            result = svc_a.search(query)
            assert {d.name for d in result.datasets} <= names_a
        finally:
            catalog.close()


class TestIngest:
    def test_ingest_creates_tenant_and_bumps_fingerprint(self, setup, tmp_path):
        compendium, _ = setup
        catalog = CompendiumCatalog(tmp_path)
        try:
            ds0, ds1 = list(compendium)[:2]
            tenant, service, dataset = catalog.ingest(
                "fresh", ds0.name, "pcl", pcl_text(tmp_path, ds0)
            )
            assert tenant == "fresh" and dataset.name == ds0.name
            first = service.compendium.fingerprint
            _, service, _ = catalog.ingest(
                "fresh", ds1.name, "pcl", pcl_text(tmp_path, ds1)
            )
            assert service.compendium.fingerprint != first
            assert catalog.stats()["fresh"]["ingests"] == 2
            # the sources are durable: a brand-new catalog over the same
            # root serves both datasets without any in-memory state
            reopened = CompendiumCatalog(tmp_path)
            _, reloaded = reopened.resolve("fresh")
            assert sorted(d.name for d in reloaded.compendium) == sorted(
                [ds0.name, ds1.name]
            )
            reopened.close()
        finally:
            catalog.close()

    def test_duplicate_is_structured_409_and_store_untouched(
        self, setup, tmp_path
    ):
        compendium, _ = setup
        catalog = CompendiumCatalog(tmp_path)
        try:
            ds = list(compendium)[0]
            text = pcl_text(tmp_path, ds)
            _, service, _ = catalog.ingest("t", ds.name, "pcl", text)
            before = service.compendium.fingerprint
            with pytest.raises(ApiError) as exc:
                catalog.ingest("t", ds.name, "pcl", text)
            assert exc.value.code == "DATASET_EXISTS"
            assert exc.value.details == {"compendium": "t", "dataset": ds.name}
            assert service.compendium.fingerprint == before
        finally:
            catalog.close()

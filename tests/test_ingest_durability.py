"""Live ingestion never corrupts a tenant: validation, crashes, races.

The ingest path's safety contract, end to end through the loaders:

* **Validation before mutation** — a malformed SOFT or PCL submission
  is a structured 4xx and the tenant's directory tree (sources and
  store manifest alike) is byte-identical to before the request; a
  duplicate name is the structured 409 with the same guarantee.  Both
  loader formats also round-trip *valid* submissions end to end.
* **Publish failure** — a full disk under the source publish is the
  structured 503 the store's own publishes answer, with no temp file
  left and the tenant's tree unchanged; the retry succeeds.
* **Crash safety** — a real ingesting process killed by ``os._exit``
  either before the source publish (nothing changed) or between the
  source publish and the index manifest publish (prior manifest
  intact; the next load resyncs the store to the sources) leaves a
  tenant every subsequent load serves cleanly.  Same harness as
  ``test_store_durability.py``.
* **Publication atomicity under racing queries** — a seeded reader
  pounding a tenant while a writer ingests always observes either the
  prior or the fully-published compendium: served dataset lists are
  exact prefixes of the ingest order, and every health fingerprint is
  one the writer actually published.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import repro
from repro.api.app import ApiApp
from repro.data.pcl import write_pcl
from repro.data.soft import write_series_matrix
from repro.spell.catalog import CompendiumCatalog
from repro.spell.service import SpellService
from repro.spell.store import IndexStore
from repro.synth import make_spell_compendium

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

COMPENDIUM_KWARGS = dict(
    n_datasets=6,
    n_relevant=2,
    n_genes=60,
    n_conditions=6,
    module_size=8,
    query_size=3,
    seed=19,
)


@pytest.fixture(scope="module")
def setup():
    """Small (compendium, truth) pair private to this module — read-only."""
    return make_spell_compendium(**COMPENDIUM_KWARGS)


def pcl_text(tmp_path, dataset) -> str:
    path = tmp_path / f"{dataset.name}.pcl.src"
    write_pcl(dataset.matrix, path)
    return path.read_text(encoding="utf-8")


def soft_text(tmp_path, dataset) -> str:
    path = tmp_path / f"{dataset.name}.soft.src"
    write_series_matrix(dataset, path)
    return path.read_text(encoding="utf-8")


def tree_snapshot(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` with its exact bytes."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestValidationBeforeMutation:
    @pytest.mark.parametrize("fmt", ["pcl", "soft"])
    def test_valid_submission_round_trips_both_loaders(
        self, setup, tmp_path, fmt
    ):
        compendium, truth = setup
        ds = list(compendium)[0]
        text = {"pcl": pcl_text, "soft": soft_text}[fmt](tmp_path, ds)
        catalog = CompendiumCatalog(tmp_path / "cat")
        try:
            tenant, service, ingested = catalog.ingest("t", ds.name, fmt, text)
            assert ingested.name == ds.name
            assert ingested.fingerprint  # durable content hash
            assert service.search(list(truth.query_genes)).genes
        finally:
            catalog.close()

    @pytest.mark.parametrize(
        "fmt,garbage",
        [
            ("pcl", "not\ta\tpcl\nrow"),
            ("pcl", ""),
            ("soft", "!Series_title = truncated\nno matrix here"),
            ("soft", "\x00\x01binary junk"),
        ],
    )
    def test_malformed_submission_is_4xx_and_store_untouched(
        self, setup, tmp_path, fmt, garbage
    ):
        compendium, _ = setup
        root = tmp_path / "cat"
        catalog = CompendiumCatalog(root)
        app = ApiApp(
            SpellService(compendium, n_workers=1), catalog=catalog
        )
        try:
            # seed the tenant so there is real state to protect
            ds = list(compendium)[0]
            catalog.ingest("t", ds.name, "pcl", pcl_text(tmp_path, ds))
            before = tree_snapshot(root)
            status, body = app.handle_wire(
                "ingest",
                {
                    "name": "victim", "format": fmt,
                    "content": garbage, "compendium": "t",
                },
            )
            assert 400 <= status < 500, body
            assert body["error"]["code"] == "INVALID_REQUEST"
            assert tree_snapshot(root) == before  # byte-identical tree
        finally:
            app.service.close()
            catalog.close()

    def test_duplicate_is_409_and_store_untouched(self, setup, tmp_path):
        compendium, _ = setup
        root = tmp_path / "cat"
        catalog = CompendiumCatalog(root)
        app = ApiApp(SpellService(compendium, n_workers=1), catalog=catalog)
        try:
            ds = list(compendium)[0]
            text = pcl_text(tmp_path, ds)
            catalog.ingest("t", ds.name, "pcl", text)
            before = tree_snapshot(root)
            status, body = app.handle_wire(
                "ingest",
                {
                    "name": ds.name, "format": "pcl",
                    "content": text, "compendium": "t",
                },
            )
            assert status == 409
            assert body["error"]["code"] == "DATASET_EXISTS"
            assert tree_snapshot(root) == before
        finally:
            app.service.close()
            catalog.close()


class TestPublishFailure:
    def test_full_disk_is_a_structured_503_and_the_tenant_is_unchanged(
        self, setup, tmp_path, monkeypatch
    ):
        """A source publishes through the store's one crash-safe publish:
        ENOSPC is a stable code, never a leaked 500, and leaves no
        ``*.tmp`` behind — the same ingest simply succeeds on retry."""
        compendium, _ = setup
        root = tmp_path / "cat"
        catalog = CompendiumCatalog(root)
        app = ApiApp(SpellService(compendium, n_workers=1), catalog=catalog)
        try:
            first, second = list(compendium)[:2]
            catalog.ingest("t", first.name, "pcl", pcl_text(tmp_path, first))
            before = tree_snapshot(root)
            payload = {
                "name": second.name, "format": "pcl",
                "content": pcl_text(tmp_path, second), "compendium": "t",
            }

            def full_disk(fd):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(os, "fsync", full_disk)
            status, body = app.handle_wire("ingest", payload)
            monkeypatch.undo()
            assert status == 503, body
            assert body["error"]["code"] == "INDEX_STALE"
            assert f"could not publish {second.name}.pcl" in body["error"]["message"]
            assert "No space left" in body["error"]["message"]
            assert not list(root.rglob("*.tmp"))
            assert tree_snapshot(root) == before  # byte-identical tree
            status, body = app.handle_wire("ingest", payload)
            assert status == 200, body
            assert body["datasets"] == 2
        finally:
            app.service.close()
            catalog.close()

    def test_failed_first_ingest_leaves_no_ghost_tenant(
        self, setup, tmp_path, monkeypatch
    ):
        """A tenant is its sources: the directory a failed first publish
        leaves behind is not a tenant — health does not list it, a query
        is ``UNKNOWN_COMPENDIUM``, and the retried ingest creates it."""
        compendium, truth = setup
        root = tmp_path / "cat"
        catalog = CompendiumCatalog(root)
        app = ApiApp(SpellService(compendium, n_workers=1), catalog=catalog)
        try:
            first = list(compendium)[0]
            payload = {
                "name": first.name, "format": "pcl",
                "content": pcl_text(tmp_path, first), "compendium": "fresh",
            }

            def full_disk(fd):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(os, "fsync", full_disk)
            status, body = app.handle_wire("ingest", payload)
            monkeypatch.undo()
            assert status == 503, body
            assert body["error"]["code"] == "INDEX_STALE"
            assert (root / "fresh").is_dir()  # the publish got that far
            _, health = app.handle_wire("health", None)
            assert "fresh" not in health["tenants"]
            search = {"genes": list(truth.query_genes), "compendium": "fresh"}
            status, body = app.handle_wire("search", search)
            assert status == 404, body
            assert body["error"]["code"] == "UNKNOWN_COMPENDIUM"
            assert "fresh" not in body["error"]["details"]["known"]

            status, body = app.handle_wire("ingest", payload)
            assert status == 200, body
            assert body["datasets"] == 1
            _, health = app.handle_wire("health", None)
            assert health["tenants"]["fresh"]["datasets"] == 1
            status, body = app.handle_wire("search", search)
            assert status == 200, body
        finally:
            app.service.close()
            catalog.close()


def _crash_ingest(root: Path, sources: Path, *, patch: str) -> None:
    """A real process ingests ``dataset_01`` into tenant ``t`` under
    ``root`` and dies (``os._exit(9)``) inside ``patch``."""
    script = textwrap.dedent(
        f"""
        import os
        from pathlib import Path
        import repro.spell.catalog as catalog_mod
        from repro.spell.catalog import CompendiumCatalog
        from repro.spell.store import IndexStore

        catalog = CompendiumCatalog({str(root)!r})
        catalog.resolve("t")  # tenant resident before the patch lands
        {patch} = lambda *a, **k: os._exit(9)
        text = (Path({str(sources)!r}) / "dataset_01.pcl.src").read_text()
        catalog.ingest("t", "dataset_01", "pcl", text)
        os._exit(7)  # unreachable: the patched step must run
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        timeout=180,
    )
    assert proc.returncode == 9, proc.stderr.decode()


class TestCrashInjection:
    """Kill a real ingesting process; every survivor state is consistent."""

    def _seeded_tenant(self, setup, tmp_path) -> tuple[Path, Path]:
        """A tenant with one committed dataset + the source texts on disk."""
        compendium, _ = setup
        root = tmp_path / "cat"
        sources = tmp_path / "src"
        sources.mkdir()
        for ds in list(compendium)[:2]:
            write_pcl(ds.matrix, sources / f"{ds.name}.pcl.src")
        catalog = CompendiumCatalog(root)
        catalog.ingest(
            "t", "dataset_00",
            "pcl", (sources / "dataset_00.pcl.src").read_text(),
        )
        catalog.close()
        return root, sources

    def test_killed_before_source_publish_changes_nothing(
        self, setup, tmp_path
    ):
        root, sources = self._seeded_tenant(setup, tmp_path)
        before = tree_snapshot(root)
        _crash_ingest(
            root, sources, patch="catalog_mod._atomic_write_text"
        )
        assert tree_snapshot(root) == before  # not one byte moved
        catalog = CompendiumCatalog(root)
        _, service = catalog.resolve("t")
        assert [ds.name for ds in service.compendium] == ["dataset_00"]
        catalog.close()

    def test_killed_between_source_and_manifest_publish_resyncs(
        self, setup, tmp_path
    ):
        root, sources = self._seeded_tenant(setup, tmp_path)
        manifest = root / "t" / "store" / "manifest.json"
        committed = manifest.read_bytes()
        _crash_ingest(
            root, sources,
            patch="IndexStore._publish_manifest",
        )
        # the prior manifest survived the crash bit-for-bit...
        assert manifest.read_bytes() == committed
        # ...the source did land durably (no .tmp debris)...
        tenant_sources = root / "t" / "datasets"
        assert sorted(p.name for p in tenant_sources.iterdir()) == [
            "dataset_00.pcl", "dataset_01.pcl",
        ]
        # ...and the next load resyncs the store to the sources
        catalog = CompendiumCatalog(root)
        _, service = catalog.resolve("t")
        assert sorted(ds.name for ds in service.compendium) == [
            "dataset_00", "dataset_01",
        ]
        catalog.close()
        assert IndexStore.verify(root / "t" / "store").clean


class TestPublicationRace:
    def test_racing_queries_see_prior_or_fully_published_only(
        self, setup, tmp_path
    ):
        """Seeded writer-vs-readers race over the live ingest path.

        Readers must never observe a half-published compendium: every
        served dataset list is an exact prefix of the ingest order, and
        every health fingerprint is one the writer published.
        """
        compendium, truth = setup
        order = [ds.name for ds in compendium]
        texts = {ds.name: pcl_text(tmp_path, ds) for ds in compendium}
        catalog = CompendiumCatalog(tmp_path / "cat")
        app = ApiApp(SpellService(compendium, n_workers=1), catalog=catalog)
        query = list(truth.query_genes)

        _, first, _ = catalog.ingest("race", order[0], "pcl", texts[order[0]])
        published = {first.compendium.fingerprint}
        prefixes = [order[: k + 1] for k in range(len(order))]
        failures: list[str] = []
        done = threading.Event()

        def writer():
            try:
                for name in order[1:]:
                    status, body = app.handle_wire(
                        "ingest",
                        {
                            "name": name, "format": "pcl",
                            "content": texts[name], "compendium": "race",
                        },
                    )
                    assert status == 200, body
                    published.add(body["compendium_fingerprint"])
            finally:
                done.set()

        def reader():
            while not done.is_set() or not reads:
                status, body = app.handle_wire(
                    "search",
                    {"genes": query, "page_size": 10, "compendium": "race"},
                )
                if status != 200:
                    failures.append(f"search {status}: {body}")
                    break
                status, body = app.handle_wire(
                    "datasets", {"compendium": "race"}
                )
                if status != 200:
                    failures.append(f"datasets {status}: {body}")
                    break
                names = [d["name"] for d in body["datasets"]]
                if names not in prefixes:
                    failures.append(f"torn dataset list: {names}")
                    break
                status, body = app.handle_wire("health", None)
                fingerprint = body["tenants"]["race"].get("fingerprint")
                if fingerprint is not None:
                    reads.append(fingerprint)

        reads: list[str] = []
        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        try:
            assert not failures, failures[:3]
            assert reads, "readers never observed the tenant"
            # every observed fingerprint is prior-or-fully-published
            assert set(reads) <= published
            # and the final state is the full publication
            _, final = catalog.resolve("race")
            assert final.compendium.fingerprint in published
            assert [ds.name for ds in final.compendium] == order
        finally:
            app.service.close()
            catalog.close()

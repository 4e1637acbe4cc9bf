"""Tests for the persistent index store and the array-backed query path:
save→load round trips (mmap and in-memory), stale-shard sync, manifest
validation, and GeneTable / top-k ranking semantics."""

import json

import numpy as np
import pytest

import repro.spell.index as index_mod
from repro.api.protocol import SearchRequest
from repro.data import Compendium, Dataset, ExpressionMatrix
from repro.spell import (
    GeneScore,
    GeneTable,
    IndexStore,
    SpellIndex,
    SpellService,
    ranked_gene_table,
)
from repro.spell.store import FORMAT_VERSION, MANIFEST_NAME
from repro.synth import make_spell_compendium
from repro.util.errors import SearchError, StoreCorruptError, StoreError


@pytest.fixture()
def setup():
    return make_spell_compendium(
        n_datasets=6,
        n_relevant=2,
        n_genes=80,
        n_conditions=10,
        module_size=10,
        query_size=3,
        seed=7,
    )


def _replaced(comp: Compendium, name: str) -> Dataset:
    """A same-name dataset with perturbed values (a genuinely stale shard)."""
    old = comp[name]
    values = np.array(old.matrix.values)
    values[0] = -values[0]
    return Dataset(
        name=name,
        matrix=ExpressionMatrix(
            values, list(old.matrix.gene_ids), list(old.matrix.condition_names)
        ),
    )


def _full_ranking(result):
    return (
        result.dataset_ranking(),
        [(g.gene_id, g.score, g.n_datasets) for g in result.genes],
    )


# ------------------------------------------------------------- fingerprints
class TestFingerprints:
    def test_dataset_fingerprint_tracks_content(self, setup):
        comp, _ = setup
        ds = comp[0]
        assert ds.fingerprint == ds.fingerprint  # stable / cached
        changed = _replaced(comp, ds.name)
        assert changed.fingerprint != ds.fingerprint

    def test_compendium_fingerprint_is_order_sensitive(self, setup):
        comp, _ = setup
        fp = comp.fingerprint
        comp.reorder(list(reversed(comp.names)))
        assert comp.fingerprint != fp
        comp.reorder(list(reversed(comp.names)))
        assert comp.fingerprint == fp  # durable: same content+order, same token


# ------------------------------------------------------------ save and load
class TestSaveLoad:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_load_matches_fresh_build(self, setup, tmp_path, mmap):
        comp, truth = setup
        fresh = SpellIndex.build(comp)
        IndexStore.save(fresh, tmp_path / "store")
        loaded = IndexStore.load(tmp_path / "store", mmap=mmap)
        q = list(truth.query_genes)
        assert _full_ranking(loaded.search(q)) == _full_ranking(fresh.search(q))
        assert loaded.dataset_names == fresh.dataset_names
        assert loaded.dtype == fresh.dtype

    def test_mmap_load_is_zero_copy(self, setup, tmp_path):
        comp, _ = setup
        IndexStore.save(SpellIndex.build(comp), tmp_path)
        loaded = IndexStore.load(tmp_path, mmap=True)
        assert all(isinstance(e.normalized, np.memmap) for e in loaded._entries)
        in_memory = IndexStore.load(tmp_path, mmap=False)
        assert not any(isinstance(e.normalized, np.memmap) for e in in_memory._entries)

    def test_float32_round_trip(self, setup, tmp_path):
        comp, truth = setup
        fresh = SpellIndex.build(comp, dtype=np.float32)
        IndexStore.save(fresh, tmp_path)
        loaded = IndexStore.load(tmp_path)
        assert loaded.dtype == np.dtype(np.float32)
        q = list(truth.query_genes)
        assert _full_ranking(loaded.search(q)) == _full_ranking(fresh.search(q))

    def test_matches_checks_content_order_and_dtype(self, setup, tmp_path):
        comp, _ = setup
        IndexStore.save(SpellIndex.build(comp), tmp_path)
        assert IndexStore.matches(tmp_path, comp)
        assert IndexStore.matches(tmp_path, comp, dtype=np.float64)
        assert not IndexStore.matches(tmp_path, comp, dtype=np.float32)
        comp.reorder(list(reversed(comp.names)))
        assert not IndexStore.matches(tmp_path, comp)
        assert not IndexStore.matches(tmp_path / "nowhere", comp)


# ----------------------------------------------------------------- syncing
class TestSync:
    def test_sync_rewrites_exactly_the_changed_shards(self, setup, tmp_path):
        comp, _ = setup
        index = SpellIndex.build(comp)
        IndexStore.save(index, tmp_path)
        before = {p.name: p.stat().st_mtime_ns for p in tmp_path.glob("shard-*.npy")}

        stale_name = comp.names[2]
        replacement = _replaced(comp, stale_name)
        comp.remove(stale_name)
        comp.add(replacement)
        updated = index.updated(comp)
        report = IndexStore.sync(updated, tmp_path)

        assert report.written == (stale_name,)
        assert report.removed == (stale_name,)  # the old shard file retires
        assert set(report.unchanged) == set(comp.names) - {stale_name}
        after = {p.name: p.stat().st_mtime_ns for p in tmp_path.glob("shard-*.npy")}
        untouched = set(before) & set(after)
        assert len(untouched) == len(comp) - 1
        assert all(before[f] == after[f] for f in untouched)
        # round trip still matches a fresh build of the mutated compendium
        loaded = IndexStore.load(tmp_path)
        fresh = SpellIndex.build(comp)
        q = comp[0].gene_ids[:2]
        assert _full_ranking(loaded.search(q)) == _full_ranking(fresh.search(q))

    def test_sync_removes_dropped_datasets(self, setup, tmp_path):
        comp, _ = setup
        index = SpellIndex.build(comp)
        IndexStore.save(index, tmp_path)
        gone = comp.names[-1]
        index = index.updated(Compendium(list(comp)[:-1]))
        report = IndexStore.sync(index, tmp_path)
        assert report.written == ()
        assert report.removed == (gone,)
        assert len(list(tmp_path.glob("shard-*.npy"))) == len(comp) - 1
        assert gone not in IndexStore.load(tmp_path).dataset_names

    def test_sync_into_empty_directory_is_a_full_save(self, setup, tmp_path):
        comp, _ = setup
        index = SpellIndex.build(comp)
        report = IndexStore.sync(index, tmp_path / "new")
        assert set(report.written) == set(comp.names)
        assert IndexStore.matches(tmp_path / "new", comp)

    def test_noop_sync_touches_nothing(self, setup, tmp_path):
        comp, _ = setup
        index = SpellIndex.build(comp)
        IndexStore.save(index, tmp_path)
        report = IndexStore.sync(index, tmp_path)
        assert not report.dirty
        assert set(report.unchanged) == set(comp.names)

    def test_sync_sweeps_orphan_shard_files(self, setup, tmp_path):
        """Shard files no committed manifest references (a writer crashed
        between np.save and the manifest rename) are reclaimed by the
        next successful sync — a churning store can't grow forever."""
        comp, _ = setup
        index = SpellIndex.build(comp)
        IndexStore.save(index, tmp_path)
        live = {p.name for p in tmp_path.glob("shard-*.npy")}
        orphans = {"shard-deadbeefdeadbeef.npy", "shard-0123456789abcdef.npy"}
        for name in orphans:
            np.save(tmp_path / name, np.zeros((3, 3)))
            # np.save appends .npy only when missing; both names end .npy
        assert {p.name for p in tmp_path.glob("shard-*.npy")} == live | orphans

        report = IndexStore.sync(index, tmp_path)
        assert set(report.swept) == orphans
        assert not report.dirty  # sweeping strays rewrites no live shard
        assert {p.name for p in tmp_path.glob("shard-*.npy")} == live

    def test_crash_between_write_and_sweep_loads_cleanly(self, setup, tmp_path):
        """Simulated crash mid-sync: the replacement shard landed on disk
        but the manifest publish (and sweep) never ran.  The store must
        load cleanly (old content — the committed manifest never points
        at missing files), and the next successful sync reclaims every
        unreferenced byte."""
        from repro.spell.store import _shard_filename

        comp, _ = setup
        index = SpellIndex.build(comp)
        IndexStore.save(index, tmp_path)
        old_names = list(comp.names)

        stale_name = comp.names[1]
        replacement = _replaced(comp, stale_name)
        comp.remove(stale_name)
        comp.add(replacement)
        updated = index.updated(comp)
        # the "crashed" writer: np.save of the new shard completed, then
        # the process died before the manifest rename
        entry = next(e for e in updated._entries if e.name == stale_name)
        stray = _shard_filename(
            entry.name, entry.fingerprint, entry.normalized.dtype.name
        )
        np.save(tmp_path / stray, np.ascontiguousarray(entry.normalized))

        loaded = IndexStore.load(tmp_path)  # must not trip over the stray
        assert loaded.dataset_names == old_names

        report = IndexStore.sync(updated, tmp_path)
        assert stale_name in report.written
        assert IndexStore.matches(tmp_path, comp)
        # every remaining file is referenced by the committed manifest
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        referenced = {s["file"] for s in manifest["shards"]}
        assert {p.name for p in tmp_path.glob("shard-*.npy")} == referenced

    def test_from_scratch_sync_sweeps_too(self, setup, tmp_path):
        """A corrupt manifest with stranded shard files: sync rebuilds the
        store *and* clears the strays the new manifest doesn't claim."""
        comp, _ = setup
        index = SpellIndex.build(comp)
        IndexStore.save(index, tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        np.save(tmp_path / "shard-feedfacefeedface.npy", np.ones((2, 2)))

        report = IndexStore.sync(index, tmp_path)
        assert set(report.written) == set(comp.names)
        assert "shard-feedfacefeedface.npy" in report.swept
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        referenced = {s["file"] for s in manifest["shards"]}
        assert {p.name for p in tmp_path.glob("shard-*.npy")} == referenced


# ------------------------------------------------------- manifest validation
class TestManifestValidation:
    def test_missing_store_raises_clear_error(self, tmp_path):
        with pytest.raises(StoreError, match="no index store"):
            IndexStore.load(tmp_path)

    def test_corrupt_json_raises_clear_error(self, setup, tmp_path):
        comp, _ = setup
        IndexStore.save(SpellIndex.build(comp), tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(StoreError, match="corrupt index-store manifest"):
            IndexStore.load(tmp_path)

    def test_wrong_format_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "parquet"}))
        with pytest.raises(StoreError, match="not a spell-index-store"):
            IndexStore.load(tmp_path)

    def test_old_format_version_rejected(self, setup, tmp_path):
        comp, _ = setup
        IndexStore.save(SpellIndex.build(comp), tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="format_version"):
            IndexStore.load(tmp_path)

    def test_corrupt_shard_file_rejected(self, setup, tmp_path):
        comp, _ = setup
        IndexStore.save(SpellIndex.build(comp), tmp_path)
        shard = next(iter(tmp_path.glob("shard-*.npy")))
        shard.write_bytes(b"definitely not an npy file")
        # no bound compendium -> nothing to rebuild from: the load must
        # refuse (never serve the bytes) and quarantine the damaged file
        with pytest.raises(StoreCorruptError, match="failed integrity verification"):
            IndexStore.load(tmp_path)
        assert not shard.exists()
        assert (tmp_path / "quarantine" / shard.name).exists()

    def test_shard_shape_mismatch_rejected(self, setup, tmp_path):
        comp, _ = setup
        IndexStore.save(SpellIndex.build(comp), tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["shards"][0]["gene_ids"] = manifest["shards"][0]["gene_ids"][:-1]
        manifest["shards"][0]["n_genes"] -= 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="shape"):
            IndexStore.load(tmp_path)


# ------------------------------------------------------- service integration
class TestServicePersistence:
    def test_second_service_cold_starts_from_store(self, setup, tmp_path, monkeypatch):
        comp, truth = setup
        store = tmp_path / "idx"
        first = SpellService(comp, store_dir=store)
        q = list(truth.query_genes)
        expect = _full_ranking(first.search(q))

        calls = []
        real = index_mod._index_dataset

        def counting(ds, dtype=np.float64):
            calls.append(ds.name)
            return real(ds, dtype)

        monkeypatch.setattr(index_mod, "_index_dataset", counting)
        second = SpellService(comp, store_dir=store)
        assert calls == []  # zero re-normalization: pure store load
        assert _full_ranking(second.search(q)) == expect

    def test_store_syncs_on_compendium_mutation(self, setup, tmp_path, monkeypatch):
        comp, truth = setup
        store = tmp_path / "idx"
        service = SpellService(comp, store_dir=store)
        q = list(truth.query_genes)
        service.search(q)

        stale_name = comp.names[0]
        replacement = _replaced(comp, stale_name)
        comp.remove(stale_name)
        comp.add(replacement)

        calls = []
        real = index_mod._index_dataset

        def counting(ds, dtype=np.float64):
            calls.append(ds.name)
            return real(ds, dtype)

        monkeypatch.setattr(index_mod, "_index_dataset", counting)
        service.search(q)  # triggers _sync_index + IndexStore.sync
        assert calls == [stale_name]  # exactly the changed dataset re-normalized
        # the on-disk store now serves the mutated compendium directly
        monkeypatch.setattr(
            index_mod, "_index_dataset", lambda *a, **k: pytest.fail("rebuilt")
        )
        reopened = SpellService(comp, store_dir=store)
        assert _full_ranking(reopened.search(q)) == _full_ranking(service.search(q))

    def test_stale_store_reuses_surviving_shards(self, setup, tmp_path, monkeypatch):
        """A restart against a mutated compendium re-normalizes only the
        diff; every surviving shard comes off disk."""
        comp, truth = setup
        store = tmp_path / "idx"
        IndexStore.save(SpellIndex.build(comp), store)

        stale_name = comp.names[1]
        replacement = _replaced(comp, stale_name)
        comp.remove(stale_name)
        comp.add(replacement)

        calls = []
        real = index_mod._index_dataset

        def counting(ds, dtype=np.float64):
            calls.append(ds.name)
            return real(ds, dtype)

        monkeypatch.setattr(index_mod, "_index_dataset", counting)
        service = SpellService(comp, store_dir=store)
        assert calls == [stale_name]
        q = list(truth.query_genes)
        fresh = SpellService(comp, cache_size=0, store_dir=None)
        assert _full_ranking(service.search(q)) == _full_ranking(fresh.search(q))
        assert IndexStore.matches(store, comp)  # synced back to current


# --------------------------------------------------- review regression cases
class TestReviewRegressions:
    def _two_datasets(self):
        rng = np.random.default_rng(11)

        def make(name, gene_ids):
            return Dataset(
                name=name,
                matrix=ExpressionMatrix(
                    rng.normal(size=(len(gene_ids), 8)),
                    gene_ids,
                    [f"c{i}" for i in range(8)],
                ),
            )

        shared = [f"G{i:03d}" for i in range(20)]
        return make("A", shared), make("B", shared + ["ONLY_IN_B"])

    def test_removed_datasets_genes_leave_the_universe(self):
        """A gene unique to a removed dataset must read as missing again."""
        a, b = self._two_datasets()
        index = SpellIndex.build(Compendium([a, b]))
        assert "ONLY_IN_B" in index.search(["ONLY_IN_B", "G001"]).query_used
        index = index.updated(Compendium([a]))
        result = index.search(["ONLY_IN_B", "G001", "G002"])
        assert "ONLY_IN_B" in result.query_missing
        assert "ONLY_IN_B" not in result.query_used
        with pytest.raises(SearchError, match="no query gene"):
            index.search(["ONLY_IN_B"])
        # re-adding resurrects the gene
        index = index.updated(Compendium([a, b]))
        assert "ONLY_IN_B" in index.search(["ONLY_IN_B", "G001"]).query_used

    def test_dtype_switch_lands_in_new_shard_files(self, setup, tmp_path):
        """float32 and float64 shards must never share a file (a live
        mmap reader of one dtype survives a save of the other)."""
        comp, _ = setup
        IndexStore.save(SpellIndex.build(comp), tmp_path)
        f64_files = set(p.name for p in tmp_path.glob("shard-*.npy"))
        IndexStore.save(SpellIndex.build(comp, dtype=np.float32), tmp_path)
        f32_files = set(p.name for p in tmp_path.glob("shard-*.npy")) - f64_files
        assert len(f32_files) == len(comp)  # disjoint addressing
        loaded = IndexStore.load(tmp_path)
        assert loaded.dtype == np.dtype(np.float32)

    def test_service_dtype_switch_retires_old_shards(self, setup, tmp_path):
        """The service rebuild path syncs, so superseded shard files are
        cleaned up instead of stranding a full compendium copy per dtype."""
        comp, truth = setup
        store = tmp_path / "idx"
        SpellService(comp, store_dir=store)
        assert len(list(store.glob("shard-*.npy"))) == len(comp)
        s32 = SpellService(comp, store_dir=store, dtype=np.float32)
        assert len(list(store.glob("shard-*.npy"))) == len(comp)  # no orphans
        assert IndexStore.load(store).dtype == np.dtype(np.float32)
        assert s32.search(list(truth.query_genes)).total_genes > 0

    def test_service_recovers_from_matching_but_corrupt_store(
        self, setup, tmp_path
    ):
        comp, truth = setup
        store = tmp_path / "idx"
        SpellService(comp, store_dir=store)
        next(iter(store.glob("shard-*.npy"))).unlink()  # manifest still matches
        service = SpellService(comp, store_dir=store)  # must not raise
        q = list(truth.query_genes)
        fresh = SpellService(comp, cache_size=0)
        assert _full_ranking(service.search(q)) == _full_ranking(fresh.search(q))
        assert IndexStore.matches(store, comp)  # store healed by the rebuild


# ------------------------------------------------ GeneTable / top-k ranking
class TestGeneTable:
    def test_sequence_protocol(self):
        table = GeneTable(["A", "B"], [2.0, 1.0], [3, 1])
        assert len(table) == 2 and table.total == 2
        assert table[0] == GeneScore("A", 2.0, 3)
        assert [g.gene_id for g in table] == ["A", "B"]
        sliced = table[1:]
        assert isinstance(sliced, GeneTable)
        assert sliced.ranking() == ["B"] and sliced.total == 2

    def test_equality(self):
        a = GeneTable(["A"], [1.0], [1])
        assert a == GeneTable(["A"], [1.0], [1])
        assert a != GeneTable(["A"], [2.0], [1])

    def test_from_scores_round_trip(self):
        scores = [GeneScore("A", 2.0, 3), GeneScore("B", 1.0, 1)]
        assert list(GeneTable.from_scores(scores)) == scores

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(SearchError):
            GeneTable(["A", "B"], [1.0], [1])

    def test_top_k_matches_full_sort_with_ties(self):
        ids = np.asarray(["G5", "G1", "G4", "G2", "G3", "G6"])
        scores = np.asarray([0.5, 0.9, 0.5, 0.5, 0.9, 0.1])
        n_ds = np.ones(6, dtype=np.int64)
        full = ranked_gene_table(ids, scores, n_ds)
        assert full.ranking() == ["G1", "G3", "G2", "G4", "G5", "G6"]
        for k in range(7):
            top = ranked_gene_table(ids, scores, n_ds, top_k=k)
            assert top.ranking() == full.ranking()[:k]
            assert top.total == 6
        with pytest.raises(SearchError):
            ranked_gene_table(ids, scores, n_ds, top_k=-1)

    def test_service_top_k_pages_match_full_search(self, setup):
        comp, truth = setup
        q = tuple(truth.query_genes)
        cached = SpellService(comp)
        uncached = SpellService(comp, cache_size=0)
        full = cached.search(list(q))
        for page in (0, 1, 3):
            request = SearchRequest(genes=q, page=page, page_size=7)
            a = cached.respond(request)
            b = uncached.respond(request)
            assert a.gene_rows == b.gene_rows
            assert a.total_genes == b.total_genes == len(full.genes)

    def test_search_top_k_cached_separately_from_full(self, setup):
        comp, truth = setup
        q = list(truth.query_genes)
        service = SpellService(comp)
        partial = service.search(q, top_k=5)
        assert len(partial.genes) == 5
        assert partial.total_genes > 5
        full = service.search(q)
        assert len(full.genes) == full.total_genes  # not the truncated entry
        assert [g.gene_id for g in full.genes[:5]] == [g.gene_id for g in partial.genes]

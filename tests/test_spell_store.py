"""Tests for the persistent index store and the array-backed query path:
save→load round trips (mmap and in-memory), stale-shard sync, manifest
validation, and GeneTable / top-k ranking semantics."""

import ast
import builtins
import inspect
import json
import os
import shutil
import tempfile
import textwrap
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import repro
import repro.spell.index as index_mod
import repro.spell.store as store_mod
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
from repro.spell.store import FORMAT_VERSION, MANIFEST_NAME, _cli
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


    # -- a manifest is outside input: every key, hostile values ----------
    HOSTILE_RECORDS = [
        ({"file": "../x.npy"}, "bad file"),
        ({"file": "/abs/x.npy"}, "bad file"),  # made absolute to the sibling below
        ({"file": "sub/shard-0123456789abcdef.npy"}, "bad file"),
        ({"file": "shard-zz.npy"}, "bad file"),
        ({"file": "x.npz"}, "bad file"),
        ({"n_genes": "80"}, "bad n_genes"),
        ({"n_genes": -1}, "bad n_genes"),
        ({"n_genes": True}, "bad n_genes"),
        ({"n_genes": 81}, "n_genes 81 for 80 gene ids"),
        ({"gene_ids": {"G1": 0, "G2": 1}}, "bad gene_ids"),
        ({"gene_ids": ["G1", 7]}, "bad gene_ids"),
        ({"sha256": "abc123"}, "bad sha256"),
        ({"sha256": "z" * 64}, "bad sha256"),
        ({"nbytes": {"a": 1}}, "bad nbytes"),
        ({"n_conditions": 10.0}, "bad n_conditions"),
        ({"dtype": "object"}, "bad dtype"),
        ({"name": ["dataset_00"]}, "bad name"),
        ({"fingerprint": None}, "bad fingerprint"),
        ({"tier": "frozen"}, "bad tier"),
        ({"tier": "cold", "cold_file": "../x.npz"}, "bad cold_file"),
        ({"cold_file": "shard-0123456789abcdef.npz"}, "bad cold_file"),
        (["name", "file"], "is not an object"),
    ]

    @staticmethod
    def _tampered(comp, root, update):
        """``root/store`` with record 0 edited, beside files a path out of
        the store could reach; returns the store and the outside snapshot."""
        store = root / "store"
        IndexStore.save(SpellIndex.build(comp), store)
        manifest = json.loads((store / MANIFEST_NAME).read_text())
        record = manifest["shards"][0]
        for name in ("x.npy", "x.npz", "sibling/x.npy"):
            (root / name).parent.mkdir(exist_ok=True)
            (root / name).write_bytes((store / record["file"]).read_bytes())
        if isinstance(update, dict):
            update = {**record, **update}
            if update["file"] == "/abs/x.npy":
                update["file"] = str(root / "x.npy")
        manifest["shards"][0] = update
        (store / MANIFEST_NAME).write_text(json.dumps(manifest))
        return store, _outside(root, store)

    @pytest.mark.parametrize(
        "update,why", HOSTILE_RECORDS, ids=[str(u)[:40] for u, _ in HOSTILE_RECORDS]
    )
    def test_hostile_record_is_refused_everywhere(
        self, setup, tmp_path, capsys, update, why
    ):
        comp, _ = setup
        store, outside = self._tampered(comp, tmp_path, update)
        names = [comp.names[0]]
        for entry in (
            lambda: IndexStore.load(store),
            lambda: IndexStore.load(store, mmap=False, bind=comp, verify="eager"),
            lambda: IndexStore.verify(store),
            lambda: IndexStore.tiers(store),
            lambda: IndexStore.demote(store, names),
            lambda: IndexStore.promote(store, names, bind=comp),
        ):
            with pytest.raises(StoreError, match=why):
                entry()
        assert IndexStore.matches(store, comp) is False
        for verb in ("verify", "tiers", "demote", "promote"):
            assert _cli([verb, str(store), *names]) == 2
            assert why in json.loads(capsys.readouterr().err)["error"]
        assert _outside(tmp_path, store) == outside  # nothing written, nothing unlinked

    def test_service_rebuilds_over_a_refused_manifest(self, setup, tmp_path):
        """Refusal is self-healing where it matters: the service treats
        it as "rebuild from the bound compendium and sync"."""
        comp, truth = setup
        store, outside = self._tampered(comp, tmp_path, {"file": "../x.npy"})
        q = list(truth.query_genes)
        with SpellService(comp, store_dir=store) as service:
            with SpellService(comp, cache_size=0) as oracle:
                assert _full_ranking(service.search(q)) == _full_ranking(oracle.search(q))
            for entry in service._index._entries:  # nothing mapped from outside
                mapped = getattr(entry.normalized, "filename", None)
                assert mapped is None or Path(mapped).parent == store
        assert IndexStore.matches(store, comp) and IndexStore.verify(store).clean
        assert _outside(tmp_path, store) == outside

    def test_manifest_bytes_are_the_parent_commits(self, tmp_path):
        """Stores cross the upgrade in both directions: for the same
        index, ``save`` and ``save`` + ``demote`` write the bytes recorded
        from the commit before ``_Shard`` (key order, ``cold_file`` kept)."""
        IndexStore.save(SpellIndex.build(_exact_compendium()), tmp_path)
        assert (tmp_path / MANIFEST_NAME).read_text() == PARENT_MANIFEST
        IndexStore.demote(tmp_path, ["beta"])
        cold = PARENT_MANIFEST.replace(
            '"nbytes": 192, "tier": "resident"}',
            '"nbytes": 192, "tier": "cold", "cold_file": "shard-b2a81477bd9a9791.npz"}',
        )
        assert cold != PARENT_MANIFEST
        assert (tmp_path / MANIFEST_NAME).read_text() == cold
        IndexStore.promote(tmp_path, ["beta"])
        assert (tmp_path / MANIFEST_NAME).read_text() == PARENT_MANIFEST

    def test_scrub_calls_a_lost_cold_shard_missing(self, setup, tmp_path):
        comp, _ = setup
        IndexStore.save(SpellIndex.build(comp), tmp_path)
        IndexStore.demote(tmp_path, [comp.names[1]])
        next(tmp_path.glob("*.npz")).unlink()
        report = IndexStore.verify(tmp_path)
        assert report.missing == (comp.names[1],) and report.corrupt == ()

    def test_operations_guide_carries_the_record_table(self):
        guide = Path(repro.__file__).parents[2] / "docs" / "operations.md"
        assert store_mod.record_table() in guide.read_text(encoding="utf-8"), (
            "docs/operations.md is stale: paste the output of `python -c "
            "'from repro.spell import store; print(store.record_table())'`"
        )


def _outside(root, store) -> dict[str, bytes]:
    """Every file under ``root`` that is not in ``store``, with its bytes."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and store not in p.parents
    }


def _exact_compendium() -> Compendium:
    """Rows of two values, each twice: every normalized entry is exactly
    +-0.5 whatever the summation order, so shard bytes (and their sha256)
    are the same on every platform."""

    def make(name, rows, genes):
        matrix = ExpressionMatrix(np.asarray(rows, dtype=float), genes, ["c0", "c1", "c2", "c3"])
        return Dataset(name=name, matrix=matrix)

    return Compendium([
        make("alpha", [[1, 1, 3, 3], [5, 2, 5, 2], [0, 4, 4, 0]], ["G1", "G2", "G3"]),
        make("beta", [[2, 6, 6, 2], [7, 7, 1, 1]], ["G2", "G4"]),
    ])


PARENT_MANIFEST = (
    '{"format": "spell-index-store", "format_version": 2, "dtype": "float64", "shards": ['
    '{"name": "alpha", "file": "shard-e311657055e2a2cb.npy", "dtype": "float64", '
    '"fingerprint": "8b6b472d1fc237106dac5e602f48c2f49488e609", "n_genes": 3, '
    '"n_conditions": 4, "gene_ids": ["G1", "G2", "G3"], '
    '"sha256": "722b30e4092131110ecd66fcf83ec6b610e027c021ac78d147e1f08e99b29bb8", '
    '"nbytes": 224, "tier": "resident"}, '
    '{"name": "beta", "file": "shard-b2a81477bd9a9791.npy", "dtype": "float64", '
    '"fingerprint": "190c5132a35baed4993fd703e7042638c9d5a3de", "n_genes": 2, '
    '"n_conditions": 4, "gene_ids": ["G2", "G4"], '
    '"sha256": "01a6dd4ad7f7834e8eba29dad5346b03b243f0540d9f833cf50609c9e5b6cf17", '
    '"nbytes": 192, "tier": "resident"}]}'
)


# ------------------------------------------------------- fuzzing the manifest
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
#: per record key, values that pass (or nearly pass) its test — the
#: mutations that reach the code behind the validator
PLAUSIBLE = {
    "name": st.text(max_size=6) | st.sampled_from(["dataset_00", "dataset_01"]),
    "file": st.sampled_from(["shard-0123456789abcdef.npy", "../x.npy", "/etc/hostname"]),
    "dtype": st.sampled_from(["float32", "float64"]),
    "fingerprint": st.text(max_size=6),
    "n_genes": st.integers(-1, 13),
    "n_conditions": st.integers(-1, 5),
    "gene_ids": st.lists(st.text(max_size=4), min_size=11, max_size=13),
    "sha256": st.sampled_from(["0" * 64, "0" * 63]),
    "nbytes": st.integers(-1, 2**70),
    "tier": st.sampled_from(["resident", "cold"]),
    "cold_file": st.sampled_from(["shard-0123456789abcdef.npz", "../x.npz"]),
}


def _paths(node, prefix=()):
    """The path of every value at any depth of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield (*prefix, key)
        if isinstance(child, (dict, list)):
            yield from _paths(child, (*prefix, key))


@contextmanager
def _touched():
    """Every path opened, replaced or unlinked while the block runs."""
    seen: list = []
    real_open, real_replace, real_unlink = builtins.open, os.replace, os.unlink

    def spy_open(file, *args, **kwargs):
        if not isinstance(file, int):  # a descriptor names no path
            seen.append(file)
        return real_open(file, *args, **kwargs)

    def spy_replace(src, dst, **kwargs):
        seen.extend((src, dst))
        return real_replace(src, dst, **kwargs)

    def spy_unlink(path, **kwargs):
        seen.append(path)
        return real_unlink(path, **kwargs)

    with mock.patch("builtins.open", spy_open), mock.patch("io.open", spy_open), \
            mock.patch("os.replace", spy_replace), mock.patch("os.unlink", spy_unlink):
        yield seen


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """(compendium, index, {file name: bytes}) of a small store with one
    cold shard — the valid manifest every fuzz example starts from."""
    comp, _ = make_spell_compendium(
        n_datasets=3, n_relevant=1, n_genes=12, n_conditions=4,
        module_size=4, query_size=2, seed=5,
    )
    directory = tmp_path_factory.mktemp("pristine")
    index = SpellIndex.build(comp)
    IndexStore.save(index, directory)
    IndexStore.demote(directory, [comp.names[2]])
    return comp, index, {p.name: p.read_bytes() for p in directory.iterdir()}


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_manifest_is_loaded_or_refused_inside_the_store(pristine, data):
    """ROADMAP 3c, first parser.  Any sequence of JSON mutations of a
    valid manifest, then every entry point: each returns or raises
    ``StoreError``, touches no path outside the store directory, and an
    unrefused load serves exactly the manifest's datasets."""
    comp, index, files = pristine
    manifest = json.loads(files[MANIFEST_NAME])
    # half the examples stay near a valid manifest, to get past the validator
    ops = data.draw(st.sampled_from([("plausible",), ("delete", "retype", "replace")]))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(manifest))
        if ops == ("plausible",):
            paths = [path for path in paths if len(path) == 3]  # the keys of the records
        path = data.draw(st.sampled_from(paths), label="at")
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        op = data.draw(st.sampled_from(ops), label="op")
        if op == "delete":
            del parent[path[-1]]
        elif op == "retype":
            kind = type(parent[path[-1]])
            parent[path[-1]] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not kind))
        else:
            parent[path[-1]] = data.draw(PLAUSIBLE[path[-1]] if op == "plausible" else JSON_VALUES)
        if not isinstance(manifest.get("shards"), list):
            break  # nothing left to walk into
    names = list(comp.names)
    loads = [
        lambda: IndexStore.load(store, sweep=False),
        lambda: IndexStore.load(store, mmap=False, bind=comp),
        lambda: IndexStore.load(store, bind=comp, verify="eager"),
    ]
    others = [
        lambda: IndexStore.verify(store),
        lambda: IndexStore.tiers(store),
        lambda: IndexStore.matches(store, comp),
        lambda: IndexStore.demote(store, names[:2]),
        lambda: IndexStore.promote(store, names, bind=comp),
        lambda: IndexStore.promote(store, names),
        lambda: IndexStore.sync(index, store),
    ]
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch).resolve()
        store = root / "store"
        (root / "x.npy").write_bytes(b"outside")
        outside = _outside(root, store)
        for entry in loads + others:
            # each entry point meets the mutated manifest, not an earlier one's repair
            shutil.rmtree(store, ignore_errors=True)
            store.mkdir()
            for name, content in files.items():
                (store / name).write_bytes(content)
            (store / MANIFEST_NAME).write_text(json.dumps(manifest))
            with _touched() as seen:
                try:
                    result = entry()
                except StoreError:
                    result = None
            strays = [p for p in map(Path, seen) if store not in p.resolve().parents]
            assert strays == [], strays
            if entry in loads and result is not None:
                event("a load was served")
                served = [(s["name"], s["fingerprint"]) for s in manifest["shards"]]
                assert result.fingerprints() == served
        assert IndexStore.matches(store, comp)  # sync, the last entry, always heals
        assert _outside(root, store) == outside


# ------------------------------------------------------------ structure locks
def test_each_store_mechanism_is_stated_once():
    """Structure lock: one publish, one record, one verified read — the
    hand-written copies stay deleted."""
    src = Path(repro.__file__).parent
    replacers = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(scope):
                if isinstance(node, ast.Attribute) and node.attr in ("replace", "rename") \
                        and getattr(node.value, "id", None) == "os":
                    replacers.add(f"{path.relative_to(src)}:{scope.name}")
    assert replacers == {"spell/store.py:_publish_bytes", "spell/store.py:_quarantine"}
    for gone in ("_shard_record", "_cold_filename", "_atomic_write_text",
                 "_compress_bytes", "_decompress_bytes"):
        assert not hasattr(store_mod, gone), gone
    for gone in ("_publish_shard", "_stored_file"):
        assert not hasattr(IndexStore, gone), gone
    text = (src / "spell" / "store.py").read_text(encoding="utf-8")
    assert "stats is not None" not in text and 'shard["' not in text
    for move in (IndexStore.demote, IndexStore.promote):  # docstring + one call
        _, body = ast.parse(textwrap.dedent(inspect.getsource(move))).body[0].body
        assert isinstance(body, ast.Return) and body.value.func.attr == "_retier"
    assert not hasattr(repro.util, "TimingRegistry")


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

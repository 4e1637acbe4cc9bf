"""Tests for the fused-arena scoring path and multi-process batch serving.

Covers the PR-4 serving spine end to end: the shard arena + scratch pool
under ``SpellIndex.search``, the batched ``search_batch`` kernel's
bit-identity oracle, the process pool over the mmap store (including
stale-worker resync and fallback), batch consistency across a
copy-on-write index swap, and the result cache's admission policy as
surfaced through ``/v1/health``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api.app import ApiApp
from repro.api.protocol import BatchSearchRequest, SearchRequest
from repro.data import Compendium
from repro.spell import (
    BatchQuery,
    IndexStore,
    IndexWorkerPool,
    QueryCache,
    ScoreScratch,
    SpellIndex,
    SpellService,
    WorkerPoolError,
)
from repro.synth import make_spell_compendium
from repro.util import LruCache
from repro.util.errors import SearchError


@pytest.fixture()
def setup():
    """A compendium small enough to mutate freely in every test."""
    return make_spell_compendium(
        n_datasets=8,
        n_relevant=3,
        n_genes=150,
        n_conditions=10,
        module_size=14,
        query_size=3,
        seed=41,
    )


def _queries(comp, truth, n=8):
    universe = comp.gene_universe()
    qs = [list(truth.query_genes)]
    for i in range(n - 1):
        qs.append(
            [universe[(5 * i) % len(universe)], universe[(5 * i + 2) % len(universe)]]
        )
    return qs


def _rows(result):
    return [(g.gene_id, g.score, g.n_datasets) for g in result.genes]


def _weights(result):
    return [(d.name, d.weight, d.n_query_present) for d in result.datasets]


# -------------------------------------------------------------------- arena
class TestShardArena:
    def test_inram_build_fuses_into_one_buffer(self, setup):
        comp, _ = setup
        index = SpellIndex.build(comp)
        arena = index._arena
        assert arena.fused
        assert len(arena) == len(comp)
        # every view aliases the single flat buffer and preserves values
        for entry, view in zip(index._entries, arena.views):
            assert view.base is arena._flat or view.base is arena._flat.base
            assert entry.normalized is view
        # offsets tile the buffer contiguously
        sizes = [v.size for v in arena.views]
        assert arena.offsets == [sum(sizes[:i]) for i in range(len(sizes))]

    def test_mmap_load_stays_zero_copy(self, setup, tmp_path):
        comp, truth = setup
        built = SpellIndex.build(comp)
        IndexStore.save(built, tmp_path)
        loaded = IndexStore.load(tmp_path, mmap=True)
        assert not loaded._arena.fused  # fusing would fault in every page
        assert any(isinstance(v, np.memmap) for v in loaded._arena.views)
        q = list(truth.query_genes)
        assert _rows(loaded.search(q)) == _rows(built.search(q))

    def test_incremental_add_keeps_views_parallel(self, setup):
        comp, truth = setup
        datasets = list(comp)
        built = SpellIndex.build(Compendium(datasets[:-1]))
        index = built.updated(comp)
        assert len(index._arena) == len(index._entries)
        # the shards both hold are the same arena views, not copies
        assert all(a is b for a, b in zip(index._arena.views, built._arena.views))
        fresh = SpellIndex.build(comp)
        q = list(truth.query_genes)
        assert _rows(index.search(q)) == _rows(fresh.search(q))
        index = index.updated(Compendium(datasets[1:]))
        assert len(index._arena) == len(index._entries)
        assert all(a is b for a, b in zip(index._arena.views, built._arena.views[1:]))
        shrunk = SpellIndex.build(Compendium(datasets[1:]))
        assert _rows(index.search(q)) == _rows(shrunk.search(q))

    def test_scratch_reuses_buffers_and_grows(self):
        scratch = ScoreScratch()
        flat = scratch.flat(16, np.float64)
        assert flat.shape == (16,) and flat.dtype == np.float64
        # same or smaller requests are windows of the same allocation
        assert np.shares_memory(scratch.flat(16, np.float64), flat)
        assert np.shares_memory(scratch.flat(8, np.float64), flat)
        assert scratch.flat(8, np.float64).shape == (8,)
        # growth and a dtype change re-allocate
        assert not np.shares_memory(scratch.flat(32, np.float64), flat)
        assert scratch.flat(8, np.float32).dtype == np.float32
        # the pair buffer is independent of the flat buffer
        grams = scratch.grams(12, np.float32)
        assert grams.shape == (12,) and not np.shares_memory(grams, scratch.flat(8, np.float32))

    def test_scratch_pool_recycles_across_threads(self):
        """The free-list must survive thread death (thread-per-request
        transports never reuse threads)."""
        from repro.spell import ScratchPool

        pool = ScratchPool()
        holder: list[ScoreScratch] = []

        def use():
            scratch = pool.acquire()
            scratch.flat(8, np.float64)
            pool.release(scratch)
            holder.append(scratch)

        t = threading.Thread(target=use)
        t.start()
        t.join()
        assert pool.acquire() is holder[0]  # a new thread gets the recycled one

    def test_updated_reuses_fused_views_without_recopy(self, setup):
        """Copy-on-write sync must not memcpy the whole index: unchanged
        shards keep their (already-fused) views by identity."""
        comp, truth = setup
        index = SpellIndex.build(comp)
        fused_views = list(index._arena.views)
        comp.remove(comp.names[-1])
        new_index = index.updated(comp)
        assert not new_index._arena.fused  # reuse, not a fresh O(bytes) copy
        for view, old in zip(new_index._arena.views, fused_views):
            assert view is old
        q = list(truth.query_genes)
        fresh = SpellIndex.build(comp)
        assert _rows(new_index.search(q)) == _rows(fresh.search(q))

    def test_search_results_do_not_alias_scratch(self, setup):
        """Pooled scratch must never leak into (mutable) results."""
        comp, truth = setup
        index = SpellIndex.build(comp)
        q = list(truth.query_genes)
        first = index.search(q)
        snapshot = first.genes.scores.copy()
        for other in _queries(comp, truth)[1:]:
            index.search(other)
        assert np.array_equal(first.genes.scores, snapshot)


# ------------------------------------------------------------- batched kernel
class TestSearchBatch:
    def test_batch_bit_identical_to_per_query_search(self, setup):
        comp, truth = setup
        index = SpellIndex.build(comp)
        queries = _queries(comp, truth)
        specs = [
            BatchQuery(genes=tuple(queries[0])),
            BatchQuery(genes=tuple(queries[1]), top_k=5),
            BatchQuery(genes=tuple(queries[2]), datasets=tuple(comp.names[:4])),
            BatchQuery(genes=tuple(queries[3]), top_k=3,
                       datasets=tuple(comp.names[2:])),
        ] + [BatchQuery(genes=tuple(q)) for q in queries[4:]]
        batch = index.search_batch(specs)
        assert len(batch) == len(specs)
        for spec, got in zip(specs, batch):
            oracle = index.search(
                list(spec.genes), top_k=spec.top_k, datasets=spec.datasets
            )
            assert _rows(got) == _rows(oracle)
            assert _weights(got) == _weights(oracle)
            assert got.total_genes == oracle.total_genes
            assert got.query_used == oracle.query_used
            assert got.query_missing == oracle.query_missing

    def test_batch_float32_matches_per_query(self, setup):
        comp, truth = setup
        index = SpellIndex.build(comp, dtype=np.float32)
        queries = _queries(comp, truth, n=4)
        batch = index.search_batch(queries)
        for q, got in zip(queries, batch):
            assert _rows(got) == _rows(index.search(q))

    def test_batch_is_all_or_nothing(self, setup):
        comp, truth = setup
        index = SpellIndex.build(comp)
        good = tuple(truth.query_genes)
        with pytest.raises(SearchError):
            index.search_batch([BatchQuery(genes=good), BatchQuery(genes=())])
        with pytest.raises(SearchError):
            index.search_batch(
                [BatchQuery(genes=good), BatchQuery(genes=("nope", "nada"))]
            )
        with pytest.raises(SearchError):
            index.search_batch(
                [BatchQuery(genes=good, datasets=("no-such-dataset",))]
            )

    def test_empty_batch(self, setup):
        comp, _ = setup
        index = SpellIndex.build(comp)
        assert index.search_batch([]) == []


# --------------------------------------------------------- scratch discipline
class TestScratchPoolLeak:
    """Regression: failing queries must not strand pooled scratch buffers.

    A search that raises *after* ``acquire()`` (e.g. a bad ``top_k``
    surfacing during finalization) used to be the leak shape the
    try/finally discipline exists for: every failed query would strand
    one scratch, silently regrowing allocations on the serving path.
    Hammer failing calls and assert the pool's steady state is stable.
    """

    def _steady_state(self, index, query):
        index.search(query)  # populate one scratch in the free-list
        return index._scratch.idle_count()

    def test_failing_search_keeps_pool_stable(self, setup):
        comp, truth = setup
        index = SpellIndex.build(comp)
        query = list(truth.query_genes)
        steady = self._steady_state(index, query)
        for _ in range(50):
            with pytest.raises(SearchError):
                # top_k validation fires in _finalize, after acquire()
                index.search(query, top_k=-1)
        assert index._scratch.idle_count() == steady
        # and the pool still serves correct answers afterwards
        assert _rows(index.search(query)) == _rows(SpellIndex.build(comp).search(query))

    def test_failing_batch_keeps_pool_stable(self, setup):
        comp, truth = setup
        index = SpellIndex.build(comp)
        query = tuple(truth.query_genes)
        bad_batch = [
            BatchQuery(genes=query),
            # the second member's bad top_k fires after the batch
            # acquired its scratch
            BatchQuery(genes=query[:2], top_k=-1),
        ]
        with pytest.raises(SearchError):
            index.search_batch(bad_batch)
        # the first failure parks the batch's scratches in the free-list;
        # repeated failures must recycle those, never strand new ones
        steady = index._scratch.idle_count()
        for _ in range(25):
            with pytest.raises(SearchError):
                index.search_batch(bad_batch)
        assert index._scratch.idle_count() == steady

    def test_pre_acquire_failures_never_touch_pool(self, setup):
        comp, truth = setup
        index = SpellIndex.build(comp)
        steady = self._steady_state(index, list(truth.query_genes))
        for _ in range(25):
            with pytest.raises(SearchError):
                index.search(list(truth.query_genes), datasets=["no-such-dataset"])
            with pytest.raises(SearchError):
                index.search(["totally-unknown-gene"])
        assert index._scratch.idle_count() == steady

    def test_batch_shares_one_pooled_scratch(self, setup):
        """A batch scores its members in turn on one scratch drawn from
        (and returned to) the same pool as single-query search — no
        per-member buffers, no per-batch allocations."""
        comp, truth = setup
        index = SpellIndex.build(comp)
        queries = _queries(comp, truth, n=6)
        steady = self._steady_state(index, list(truth.query_genes))
        index.search_batch(queries)
        assert index._scratch.idle_count() == steady == 1
        scratch = index._scratch.acquire()
        index._scratch.release(scratch)
        index.search_batch(queries)
        assert index._scratch.acquire() is scratch  # reused, not regrown


# ----------------------------------------------------------- process serving
@pytest.fixture(scope="module")
def proc_service():
    """One spawned 2-process service shared by the pool tests (spawn is
    slow; the pool is exercised, not rebuilt, per test)."""
    comp, truth = make_spell_compendium(
        n_datasets=8,
        n_relevant=3,
        n_genes=150,
        n_conditions=10,
        module_size=14,
        query_size=3,
        seed=42,
    )
    service = SpellService(comp, n_procs=2)
    yield comp, truth, service
    service.close()


def _batch_request(queries, **kw):
    return BatchSearchRequest(
        searches=tuple(SearchRequest(genes=tuple(q), **kw) for q in queries)
    )


class TestProcessPool:
    def test_proc_batch_bit_identical_to_threaded(self, proc_service):
        comp, truth, service = proc_service
        queries = _queries(comp, truth)
        request = _batch_request(queries, page_size=12)
        got = service.respond_batch(request)
        assert service._procpool is not None
        assert got.n_workers == 2
        oracle = SpellService(comp, n_workers=2, cache_size=0)
        expect = oracle.respond_batch(request)
        for a, b in zip(got.results, expect.results):
            assert a.gene_rows == b.gene_rows
            assert a.dataset_rows == b.dataset_rows
            assert a.total_genes == b.total_genes and a.total_pages == b.total_pages

    def test_warm_batch_answered_inline_from_cache(self, proc_service):
        comp, truth, service = proc_service
        queries = _queries(comp, truth)
        request = _batch_request(queries, page_size=12)
        service.respond_batch(request)  # prime
        dispatched_before = service._procpool.batches
        warm = service.respond_batch(request)
        assert warm.cache_hits == len(queries)
        assert service._procpool.batches == dispatched_before  # nothing scattered

    def test_workers_resync_on_version_bump(self, proc_service):
        comp, truth, service = proc_service
        queries = _queries(comp, truth, n=4)
        request = _batch_request(queries, page_size=10, use_cache=False)
        service.respond_batch(request)  # ensure workers hold the current index
        removed = comp[comp.names[-1]]
        comp.remove(removed.name)
        try:
            resyncs_before = service._procpool.resyncs
            got = service.respond_batch(request)
            assert service._procpool.resyncs > resyncs_before
            # post-resync answers are bit-identical to a direct index oracle
            for q, resp in zip(queries, got.results):
                oracle = service._index.search(q, top_k=10)
                assert resp.gene_rows == tuple(
                    (i + 1, g.gene_id, g.score) for i, g in enumerate(oracle.genes[:10])
                )
                assert removed.name not in [row[1] for row in resp.dataset_rows]
        finally:
            comp.add(removed)  # restore for the other module-scoped tests

    def test_member_error_fails_batch_all_or_nothing(self, proc_service):
        comp, truth, service = proc_service
        bad = BatchSearchRequest(
            searches=(
                SearchRequest(genes=tuple(truth.query_genes)),
                SearchRequest(genes=("definitely", "not", "genes")),
            )
        )
        with pytest.raises(SearchError):
            service.respond_batch(bad)
        assert not service._procpool.broken  # user errors must not kill the pool

    def test_broken_pool_respawns_and_recovers(self, setup):
        comp, truth = setup
        service = SpellService(comp, n_procs=2, n_workers=2, cache_size=0)
        try:
            queries = _queries(comp, truth, n=4)
            request = _batch_request(queries, page_size=10)
            service.respond_batch(request)
            first_pool = service._procpool
            first_pool.close()  # kill the workers behind the service's back
            got = service.respond_batch(request)  # must still answer
            # a transient failure heals: a fresh pool served this batch
            assert service._procpool is not first_pool
            assert not service._procpool.broken
            assert service._pool_respawns == 1
            oracle = SpellService(comp, n_workers=1, cache_size=0)
            expect = oracle.respond_batch(request)
            for a, b in zip(got.results, expect.results):
                assert a.gene_rows == b.gene_rows
        finally:
            service.close()

    def test_exhausted_respawn_budget_falls_back_without_double_counting(
        self, setup
    ):
        """Once respawning is pointless the batch is served in-process —
        and the counters (hits/misses/history) move exactly once per
        member, inline hits included."""
        comp, truth = setup
        service = SpellService(comp, n_procs=2, n_workers=2)
        try:
            queries = _queries(comp, truth, n=3)
            hot = queries[0]
            service.search(hot)  # prime one cache entry
            count0 = service.query_count
            hits0 = service.cache_stats()["hits"]
            misses0 = service.cache_stats()["misses"]
            # exhaust the respawn budget, then break the pool (two members:
            # a lone miss is scored in-process and would not spawn it)
            service.respond_batch(_batch_request([hot, queries[1]], use_cache=False))
            service._procpool.close()
            service._pool_respawns = service.MAX_POOL_RESPAWNS
            request = _batch_request(queries, page_size=10)
            got = service.respond_batch(request)
            assert service._pool_disabled  # budget exhausted, threads from now on
            stats = service.cache_stats()
            assert stats["hits"] - hits0 == 1  # the primed member, once
            assert stats["misses"] - misses0 == len(queries) - 1  # probes, once
            assert service.query_count - count0 == len(queries) + 2
            oracle = SpellService(comp, n_workers=1, cache_size=0)
            expect = oracle.respond_batch(request)
            for a, b in zip(got.results, expect.results):
                assert a.gene_rows == b.gene_rows
        finally:
            service.close()

    def test_environmental_worker_error_becomes_pool_error(self, setup, tmp_path):
        """A worker hitting a broken store (not a bad query) must surface
        as WorkerPoolError so the service falls back instead of failing
        the client's batch."""
        comp, truth = setup
        index = SpellIndex.build(comp)
        IndexStore.save(index, tmp_path)
        with IndexWorkerPool(tmp_path, n_procs=1) as pool:
            # warm the worker onto the current tokens
            pool.run_batch(index.fingerprints(), [BatchQuery(genes=tuple(truth.query_genes))])
            (tmp_path / "manifest.json").unlink()  # store breaks under the worker
            bumped = [(n, "f" * 40) for n, _ in index.fingerprints()]  # force reload
            with pytest.raises(WorkerPoolError):
                pool.run_batch(bumped, [BatchQuery(genes=tuple(truth.query_genes))])

    def test_pool_refuses_unknown_tokens(self, setup, tmp_path):
        comp, _ = setup
        index = SpellIndex.build(comp)
        IndexStore.save(index, tmp_path)
        with IndexWorkerPool(tmp_path, n_procs=1) as pool:
            bogus = [("no-such-dataset", "0" * 40)]
            with pytest.raises(WorkerPoolError):
                pool.run_batch(bogus, [BatchQuery(genes=("G1", "G2"))])
            assert not pool.broken  # stale is a state, not a crash

    def test_pool_direct_matches_index(self, setup, tmp_path):
        comp, truth = setup
        index = SpellIndex.build(comp)
        IndexStore.save(index, tmp_path)
        specs = [BatchQuery(genes=tuple(q)) for q in _queries(comp, truth, n=5)]
        with IndexWorkerPool(tmp_path, n_procs=2) as pool:
            results, busy = pool.run_batch(index.fingerprints(), specs)
            assert busy >= 0.0
        assert len(results) == len(specs)
        for spec, got in zip(specs, results):
            assert _rows(got) == _rows(index.search(list(spec.genes)))


# ---------------------------------------------------- consistency under swap
class TestMidSwapConsistency:
    def test_batches_mid_updated_swap_stay_consistent(self, setup):
        """A batch racing a compendium mutation must serve answers from a
        *consistent* index — entirely pre-swap or entirely post-swap per
        query, never a stale mixture (bit-checked against both oracles)."""
        comp, truth = setup
        service = SpellService(comp, n_workers=2)
        queries = _queries(comp, truth, n=4)
        request = _batch_request(queries, page_size=10)
        victim = comp[comp.names[-1]]

        old_index = SpellIndex.build(comp)
        new_index = SpellIndex.build(
            Compendium([ds for ds in comp if ds.name != victim.name])
        )
        valid: dict[str, list] = {}
        for q in queries:
            valid[",".join(q)] = [
                tuple(
                    (i + 1, g.gene_id, g.score)
                    for i, g in enumerate(index.search(q).genes[:10])
                )
                for index in (old_index, new_index)
            ]

        failures: list[str] = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                response = service.respond_batch(request)
                for q, result in zip(queries, response.results):
                    if result.gene_rows not in valid[",".join(q)]:
                        failures.append(",".join(q))

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            comp.remove(victim.name)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not failures, f"inconsistent mid-swap answers for {set(failures)}"
        # post-swap: the service must now serve the new state exclusively
        final = service.respond_batch(request)
        for q, result in zip(queries, final.results):
            assert result.gene_rows == valid[",".join(q)][1]


# ------------------------------------------------------------ cache admission
class TestCacheAdmission:
    def test_lru_tracks_per_entry_hits(self):
        lru = LruCache(max_entries=4)
        lru.put("a", 1)
        lru.put("b", 2)
        for _ in range(3):
            lru.get("a")
        lru.get("b")
        assert lru.entry_hits("a") == 3 and lru.entry_hits("b") == 1
        assert lru.hottest(1) == [("a", 3)]
        assert lru.stats()["hot_entry_hits"] == 3
        lru.put("c", 3)
        lru.put("d", 4)
        lru.put("e", 5)  # evicts the LRU entry ("a": its last hit predates b's)
        assert lru.entry_hits("a") == 0
        assert lru.stats()["hot_entry_hits"] == 1  # b's count survives

    def test_hottest_tie_break_is_deterministic(self):
        """Equally-hot entries must rank identically regardless of the
        order they entered the dict — /v1/health must not flap."""
        forward = LruCache(max_entries=8)
        backward = LruCache(max_entries=8)
        keys = ["zeta", "alpha", "mid"]
        for k in keys:
            forward.put(k, k)
        for k in reversed(keys):
            backward.put(k, k)
        for k in keys:  # every entry equally hot
            forward.get(k)
            backward.get(k)
        assert forward.hottest(3) == backward.hottest(3)
        # ties order by key repr; higher counts still come first
        forward.get("mid")
        assert forward.hottest(3) == [("mid", 2), ("alpha", 1), ("zeta", 1)]

    def test_put_refresh_resets_entry_hits(self):
        """Refreshing a key installs a new value; its hit count must
        describe the current value, not the stale one it replaced."""
        lru = LruCache(max_entries=4)
        lru.put("a", 1)
        for _ in range(5):
            lru.get("a")
        assert lru.entry_hits("a") == 5
        lru.put("a", 2)  # refresh
        assert lru.entry_hits("a") == 0
        assert lru.stats()["hot_entry_hits"] == 0
        assert lru.hits == 5  # the lifetime aggregate is untouched
        assert lru.get("a") == 2
        assert lru.entry_hits("a") == 1

    def test_min_cost_gates_admission(self):
        cache = QueryCache(max_entries=8, min_cost=100)
        assert not cache.store(1, ["A"], "cheap", cost=10)
        assert cache.lookup(1, ["A"]) is None
        assert cache.store(1, ["B"], "pricey", cost=500)
        assert cache.lookup(1, ["B"]) == "pricey"
        assert cache.store(1, ["C"], "uncosted")  # opt-out is always admitted
        stats = cache.stats()
        assert stats["min_cost"] == 100
        assert stats["admitted"] == 2 and stats["rejected"] == 1

    def test_service_admission_knob(self, setup):
        comp, truth = setup
        q = list(truth.query_genes)
        # threshold above the universe size: nothing is ever admitted
        picky = SpellService(comp, cache_min_cost=10**6)
        picky.search(q)
        picky.search(q)
        stats = picky.cache_stats()
        assert stats["entries"] == 0 and stats["hits"] == 0
        assert stats["rejected"] == 2
        # threshold below it: the second query is a hit
        normal = SpellService(comp, cache_min_cost=10)
        normal.search(q)
        normal.search(q)
        stats = normal.cache_stats()
        assert stats["hits"] == 1 and stats["admitted"] == 1
        assert stats["hot_entry_hits"] == 1

    def test_health_surfaces_admission_and_serving(self, setup):
        comp, truth = setup
        service = SpellService(comp, n_workers=2, cache_min_cost=5)
        app = ApiApp(service)
        status, body = app.handle_wire(
            "search", {"genes": list(truth.query_genes)}
        )
        assert status == 200
        status, body = app.handle_wire("health", None)
        assert status == 200
        cache = body["cache"]
        for key in ("hits", "misses", "admitted", "rejected", "min_cost",
                    "hot_entry_hits"):
            assert key in cache, f"health cache lacks {key}"
        assert cache["min_cost"] == 5 and cache["admitted"] == 1
        serving = body["serving"]
        assert serving["n_workers"] == 2
        assert serving["n_procs"] == 1 and serving["procpool"] is None

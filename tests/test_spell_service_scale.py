"""Tests for the serving-grade SPELL subsystem: result cache, batched
queries, and incremental index maintenance."""

import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.api.app import ApiApp
from repro.api.errors import ApiError
from repro.api.protocol import BatchSearchRequest, SearchRequest
from repro.data import Compendium, Dataset, ExpressionMatrix
from repro.spell import (
    BatchQuery,
    QueryCache,
    SpellIndex,
    SpellService,
    canonical_query,
    query_key,
)
from repro.synth import make_spell_compendium
from repro.util import LruCache
from repro.util.deadline import Deadline, DeadlineExceeded
from repro.util.errors import SearchError, ValidationError


@pytest.fixture()
def small_setup():
    """A compendium small enough to mutate freely in every test."""
    return make_spell_compendium(
        n_datasets=6,
        n_relevant=2,
        n_genes=80,
        n_conditions=10,
        module_size=10,
        query_size=3,
        seed=99,
    )


# ---------------------------------------------------------------------- LRU
class TestLruCache:
    def test_put_get_and_stats(self):
        lru = LruCache(max_entries=2)
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert lru.get("b") is None
        assert lru.stats() == {
            "entries": 1, "max_entries": 2, "hits": 1, "misses": 1, "evictions": 0,
            "hot_entry_hits": 1,
        }

    def test_eviction_order_respects_recency(self):
        lru = LruCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # refresh a; b is now oldest
        lru.put("c", 3)
        assert "a" in lru and "c" in lru and "b" not in lru
        assert lru.evictions == 1

    def test_put_existing_key_updates_without_eviction(self):
        lru = LruCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)
        assert lru.get("a") == 10
        assert len(lru) == 2
        assert lru.evictions == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValidationError):
            LruCache(max_entries=0)

    def test_concurrent_access_is_safe(self):
        lru = LruCache(max_entries=64)

        def worker(base):
            for i in range(200):
                lru.put((base, i % 80), i)
                lru.get((base, (i * 7) % 80))

        threads = [threading.Thread(target=worker, args=(b,)) for b in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(lru) <= 64


# ------------------------------------------------------------------- keying
class TestQueryKeys:
    def test_canonical_query_sorts_and_dedupes(self):
        assert canonical_query(["B", "A", "B"]) == ("A", "B")

    def test_query_key_order_insensitive(self):
        assert query_key(3, ["X", "Y"]) == query_key(3, ["Y", "X"])

    def test_query_key_version_sensitive(self):
        assert query_key(3, ["X"]) != query_key(4, ["X"])

    def test_query_key_extra_params(self):
        assert query_key(1, ["X"], extra=(0, 20)) != query_key(1, ["X"], extra=(1, 20))

    def test_query_cache_round_trip(self):
        cache = QueryCache(max_entries=4)
        cache.store(7, ["b", "a"], "answer")
        assert cache.lookup(7, ["a", "b"]) == "answer"
        assert cache.lookup(8, ["a", "b"]) is None  # version invalidates
        assert cache.hits == 1 and cache.misses == 1

    def test_a_probe_that_misses_leaves_no_trace(self):
        cache = QueryCache(2)
        cache.store(1, ["a"], "A")
        cache.store(1, ["b"], "B")
        assert cache.probe_all(1, [(["zzz"], ())]) is None
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        assert cache.probe_all(1, [(["a"], ())]) == ["A"]  # a hit is a hit: counted, made recent
        assert (cache.hits, cache.misses) == (1, 0)
        assert cache.entry_hits(1, ["a"]) == 1
        cache.store(1, ["c"], "C")  # so b, not a, is the LRU victim
        assert cache.lookup(1, ["b"]) is None and cache.lookup(1, ["a"]) == "A"
        assert (cache.hits, cache.misses, cache.evictions) == (2, 1, 1)


# ------------------------------------------------------------ version token
class TestCompendiumVersion:
    def test_version_bumps_on_every_mutation(self, small_setup):
        comp, _ = small_setup
        v0 = comp.version
        ds = comp[0]
        comp.remove(ds.name)
        assert comp.version == v0 + 1
        comp.add(ds)
        assert comp.version == v0 + 2
        comp.reorder(list(reversed(comp.names)))
        assert comp.version == v0 + 3

    def test_fresh_compendium_counts_constructor_adds(self):
        comp, _ = make_spell_compendium(
            n_datasets=3, n_relevant=2, n_genes=40, module_size=6, query_size=2, seed=1
        )
        assert comp.version == 3


# ------------------------------------------------------------- result cache
class TestServiceCache:
    def test_repeat_query_hits_cache_with_identical_result(self, small_setup):
        comp, truth = small_setup
        service = SpellService(comp)
        first = service.search(list(truth.query_genes))
        second = service.search(list(truth.query_genes))
        assert service.cache_stats()["hits"] == 1
        assert first.gene_ranking() == second.gene_ranking()
        assert first.dataset_ranking() == second.dataset_ranking()

    def test_permuted_query_shares_cache_entry(self, small_setup):
        comp, truth = small_setup
        service = SpellService(comp)
        q = list(truth.query_genes)
        a = service.search(q)
        b = service.search(list(reversed(q)))
        assert service.cache_stats()["hits"] == 1
        assert a.gene_ranking() == b.gene_ranking()
        # attribution fields follow the caller's order, not the cached one
        assert b.query == tuple(reversed(q))

    def test_mutation_invalidates_cache(self, small_setup):
        comp, truth = small_setup
        service = SpellService(comp)
        q = list(truth.query_genes)
        service.search(q)
        removed = comp[comp.names[-1]]
        comp.remove(removed.name)
        stale_free = service.search(q)
        assert service.cache_stats()["hits"] == 0  # version changed => miss
        assert removed.name not in stale_free.dataset_ranking()

    def test_cached_result_matches_fresh_service_after_mutation(self, small_setup):
        comp, truth = small_setup
        service = SpellService(comp)
        q = list(truth.query_genes)
        service.search(q)
        comp.remove(comp.names[-1])
        incremental = service.search(q)
        fresh = SpellService(comp, cache_size=0).search(q)
        assert incremental.dataset_ranking() == fresh.dataset_ranking()
        assert [(g.gene_id, g.score) for g in incremental.genes] == [
            (g.gene_id, g.score) for g in fresh.genes
        ]

    def test_cache_disabled(self, small_setup):
        comp, truth = small_setup
        service = SpellService(comp, cache_size=0)
        service.search(list(truth.query_genes))
        service.search(list(truth.query_genes))
        assert service.cache_stats() == {
            "entries": 0, "max_entries": 0, "hits": 0, "misses": 0, "evictions": 0,
        }  # disabled cache: bare counters, no admission/hot-entry fields

    def test_validation_still_applies_with_cache(self, small_setup):
        comp, truth = small_setup
        service = SpellService(comp)
        service.search(list(truth.query_genes))
        with pytest.raises(SearchError):
            service.search([])
        with pytest.raises(SearchError):
            service.search([truth.query_genes[0], truth.query_genes[0]])


# ---------------------------------------------------------- batched queries
class TestRespondCached:
    """``respond_cached`` is ``respond`` for an answer already in the
    cache, and a no-op returning ``None`` otherwise."""

    def test_miss_returns_none_and_moves_no_counter(self, small_setup):
        comp, truth = small_setup
        service = SpellService(comp)
        request = SearchRequest(genes=tuple(truth.query_genes), page_size=7)
        before = (service.cache_stats(), service.query_count, service.storage_stats())
        assert service.respond_cached(request) is None
        assert (service.cache_stats(), service.query_count, service.storage_stats()) == before
        uncached = SearchRequest(genes=tuple(truth.query_genes), use_cache=False)
        assert SpellService(comp, cache_size=0).respond_cached(request) is None
        service.respond(request)
        assert service.respond_cached(uncached) is None  # the client opted out

    def test_hit_is_the_answer_respond_gives_counted_once(self, small_setup):
        comp, truth = small_setup
        service = SpellService(comp)
        request = SearchRequest(genes=tuple(truth.query_genes), page=1, page_size=7)
        computed = service.respond(request)
        hit = service.respond_cached(request)  # the page's JSON body
        again = service.respond(request)
        elapsed = json.loads(hit)["elapsed_seconds"]
        assert hit == json.dumps(replace(computed, elapsed_seconds=elapsed).to_wire()).encode()
        assert computed.partial is False
        assert again.gene_rows == computed.gene_rows
        assert again.dataset_rows == computed.dataset_rows
        assert (again.total_pages, again.partial) == (computed.total_pages, False)
        stats = service.cache_stats()
        assert (stats["hits"], stats["misses"], service.query_count) == (2, 1, 3)

    def test_same_errors_as_respond(self, small_setup):
        comp, truth = small_setup
        service = SpellService(comp)
        service.respond(SearchRequest(genes=tuple(truth.query_genes)))
        past_the_end = SearchRequest(genes=tuple(truth.query_genes), page=10_000)
        for answer in (service.respond, service.respond_cached):
            with pytest.raises(ApiError) as err:
                answer(past_the_end)
            assert err.value.code == "PAGE_OUT_OF_RANGE"

    def test_a_hit_then_a_miss_leaves_no_trace(self, small_setup):
        """The hit half of a batch is all or nothing: members that hit
        *before* the first miss are neither counted nor made recent, so
        the full call that follows counts each member once and the LRU
        evicts what it would have evicted."""
        comp, truth = small_setup
        universe = comp.gene_universe()
        old, warm, cold, new = (
            (universe[i], universe[i + 1]) for i in (0, 10, 20, 30)
        )
        service = SpellService(comp, cache_size=2)
        service.search(old)
        service.search(warm)  # LRU order: old, warm
        before = (service.cache_stats(), service.query_count)
        members = [(genes, None, None, True, None) for genes in (old, cold)]
        assert service._answer(members, Deadline.never(), cached_only=True) is None
        assert (service.cache_stats(), service.query_count) == before
        service.search(new)  # evicts the LRU entry: still ``old``, never touched
        stats = service.cache_stats()
        service.search(warm)
        assert service.cache_stats()["hits"] == stats["hits"] + 1
        service.search(old)
        assert service.cache_stats()["misses"] == stats["misses"] + 1

        answered, (hits, misses, _) = service._answer(
            [(genes, None, None, True, None) for genes in (old, warm)],
            Deadline.never(), cached_only=True,
        )
        assert (hits, misses, len(answered)) == (2, 0, 2)

    def test_pages_off_the_arrays_match_the_per_row_path(self, small_setup):
        """``from_result`` slices a GeneTable with ``rows()``; the rows are
        bit-identical to materialising a GeneScore per row."""
        from repro.api.protocol import SearchResponse

        comp, truth = small_setup
        result = SpellService(comp).search(list(truth.query_genes))
        for page, page_size in [(0, 7), (3, 7), (0, 1000)]:
            request = SearchRequest(
                genes=tuple(truth.query_genes), page=page, page_size=page_size
            )
            fast = SearchResponse.from_result(result, request, elapsed_seconds=0.0)
            start = page * page_size
            slow = tuple(
                (start + i + 1, g.gene_id, g.score)
                for i, g in enumerate(result.genes[start : start + page_size])
            )
            assert fast.gene_rows == slow
            assert [type(v) for row in fast.gene_rows for v in row] == [
                type(v) for row in slow for v in row
            ]


class TestDatasetHeat:
    def test_heat_counts_answers_each_dataset_contributed_to(self, small_setup):
        comp, _ = small_setup
        service = SpellService(comp)
        genes = comp.gene_universe()
        # more distinct results than one fold holds, some of them repeated
        queries = [genes[i:i + 3] for i in range(service._FOLD_AT + 10)]
        expected: dict[str, int] = {}
        for i, query in enumerate(queries):
            for _ in range(1 + i % 3):  # repeats are cache hits
                result = service.search(query)
                for ds in result.datasets:
                    if ds.weight > 0.0:
                        expected[ds.name] = expected.get(ds.name, 0) + 1
        assert service._heat() == expected
        assert len(service._use_tallies) == 0
        hot = service.storage_stats()["hot_datasets"]
        assert hot == sorted(expected, key=lambda n: (-expected[n], repr(n)))[:5]


    def test_concurrent_answers_lose_no_count(self, small_setup):
        import sys

        comp, truth = small_setup
        service = SpellService(comp)
        queries = [list(truth.query_genes), comp.gene_universe()[:3]]
        contributing = [
            sum(1 for ds in service.search(q).datasets if ds.weight > 0.0) for q in queries
        ]
        n_threads, rounds = 8, 200

        def hammer():
            for i in range(rounds):
                service.search(queries[i % 2])
                if i % 50 == 0:
                    service.storage_stats()  # folds race the tallies

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        per_query = 1 + n_threads * rounds // 2
        assert sum(service._heat().values()) == per_query * sum(contributing)


class TestSearchMany:
    def _queries(self, comp, truth, n=6):
        universe = comp.gene_universe()
        qs = [list(truth.query_genes)]
        for i in range(n - 1):
            qs.append([universe[(3 * i) % len(universe)], universe[(3 * i + 1) % len(universe)]])
        return qs

    @staticmethod
    def _batch_request(queries, *, page_size=20, scheduler="map"):
        return BatchSearchRequest(
            searches=tuple(
                SearchRequest(genes=tuple(q), page_size=page_size) for q in queries
            ),
            scheduler=scheduler,
        )

    @pytest.mark.parametrize("scheduler", ["map", "steal"])
    def test_batch_matches_serial_search(self, small_setup, scheduler):
        comp, truth = small_setup
        queries = self._queries(comp, truth)
        batched = SpellService(comp, n_workers=3, cache_size=0).respond_batch(
            self._batch_request(queries, page_size=10, scheduler=scheduler)
        )
        serial = SpellService(comp, cache_size=0)
        assert len(batched.results) == len(queries)
        for query, page in zip(queries, batched.results):
            expect = serial.respond(
                SearchRequest(genes=tuple(query), page_size=10)
            )
            assert page.gene_rows == expect.gene_rows
            assert page.dataset_rows == expect.dataset_rows
            assert page.query == expect.query

    def test_batch_timing_and_counters(self, small_setup):
        comp, truth = small_setup
        queries = self._queries(comp, truth)
        service = SpellService(comp, n_workers=2)
        batch = service.respond_batch(self._batch_request(queries))
        assert batch.total_seconds > 0
        assert batch.queries_per_second > 0
        assert batch.n_workers == 1  # scored in-process, whatever n_workers says
        assert batch.cache_misses == len(queries)
        again = service.respond_batch(self._batch_request(queries))
        assert again.cache_hits == len(queries)

    def test_empty_batch_rejected(self, small_setup):
        with pytest.raises(ApiError) as exc:
            BatchSearchRequest(searches=())
        assert exc.value.code == "INVALID_REQUEST"

    def test_unknown_scheduler_rejected(self, small_setup):
        _comp, truth = small_setup
        with pytest.raises(ApiError) as exc:
            BatchSearchRequest(
                searches=(SearchRequest(genes=tuple(truth.query_genes)),),
                scheduler="magic",
            )
        assert exc.value.code == "INVALID_REQUEST"


# ------------------------------------------------------- incremental index
class TestIncrementalIndex:
    def test_add_dataset_matches_fresh_build(self, small_setup):
        comp, truth = small_setup
        datasets = list(comp)
        grown = SpellIndex.build(Compendium(datasets[:-1])).updated(comp)
        fresh = SpellIndex.build(comp)
        q = list(truth.query_genes)
        a, b = grown.search(q), fresh.search(q)
        assert a.dataset_ranking() == b.dataset_ranking()
        assert [(g.gene_id, g.score) for g in a.genes] == [
            (g.gene_id, g.score) for g in b.genes
        ]

    def test_remove_dataset_matches_fresh_build(self, small_setup):
        comp, truth = small_setup
        datasets = list(comp)
        shrunk = SpellIndex.build(comp).updated(Compendium(datasets[:-1]))
        fresh = SpellIndex.build(Compendium(datasets[:-1]))
        q = list(truth.query_genes)
        a, b = shrunk.search(q), fresh.search(q)
        assert a.dataset_ranking() == b.dataset_ranking()
        assert [(g.gene_id, g.score) for g in a.genes] == [
            (g.gene_id, g.score) for g in b.genes
        ]

    def test_parallel_build_matches_serial(self, small_setup):
        comp, truth = small_setup
        q = list(truth.query_genes)
        a = SpellIndex.build(comp, n_workers=1).search(q)
        b = SpellIndex.build(comp, n_workers=4).search(q)
        assert a.dataset_ranking() == b.dataset_ranking()
        assert [(g.gene_id, g.score) for g in a.genes] == [
            (g.gene_id, g.score) for g in b.genes
        ]

    def test_same_name_replacement_is_reindexed(self, small_setup):
        """Swapping a dataset for new data under the *same name* must not
        serve shards normalized from the old values."""
        comp, truth = small_setup
        q = list(truth.query_genes)
        service = SpellService(comp)
        service_result_before = service.search(q)
        name = comp.names[0]
        old = comp.remove(name)
        values = np.array(old.matrix.values)
        flip_row = next(
            i for i, g in enumerate(old.matrix.gene_ids) if g not in set(q)
        )
        values[flip_row] = -values[flip_row]  # flipped gene: correlations invert
        replacement = Dataset(
            name=name,
            matrix=ExpressionMatrix(
                values,
                list(old.matrix.gene_ids),
                list(old.matrix.condition_names),
            ),
        )
        comp.add(replacement)
        swapped = service.search(q)
        fresh = SpellService(comp, cache_size=0).search(q)
        assert [(d.name, d.weight) for d in swapped.datasets] == [
            (d.name, d.weight) for d in fresh.datasets
        ]
        assert [(g.gene_id, g.score) for g in swapped.genes] == [
            (g.gene_id, g.score) for g in fresh.genes
        ]
        # the scenario must actually discriminate: the flipped gene's score
        # changed, so a stale shard would have produced different rankings
        pre = {g.gene_id: g.score for g in service_result_before.genes}
        post = {g.gene_id: g.score for g in swapped.genes}
        flipped = old.matrix.gene_ids[flip_row]
        assert flipped in pre and flipped in post and pre[flipped] != post[flipped]

    def test_updated_is_copy_on_write(self, small_setup):
        """updated() leaves the receiver untouched for in-flight readers."""
        comp, truth = small_setup
        q = list(truth.query_genes)
        index = SpellIndex.build(comp)
        before = index.search(q)
        shrunk = Compendium(list(comp)[:-1])
        new_index = index.updated(shrunk)
        assert new_index.n_datasets == len(comp) - 1
        assert index.n_datasets == len(comp)
        after = index.search(q)
        assert before.dataset_ranking() == after.dataset_ranking()
        assert [(g.gene_id, g.score) for g in before.genes] == [
            (g.gene_id, g.score) for g in after.genes
        ]

    def test_service_syncs_index_on_compendium_growth(self, small_setup):
        comp, truth = small_setup
        datasets = list(comp)
        base = Compendium(datasets[:-1])
        service = SpellService(base)
        q = list(truth.query_genes)
        before = service.search(q)
        assert datasets[-1].name not in before.dataset_ranking()
        base.add(datasets[-1])
        after = service.search(q)
        assert datasets[-1].name in after.dataset_ranking()
        fresh = SpellService(Compendium(datasets), cache_size=0).search(q)
        assert after.dataset_ranking() == fresh.dataset_ranking()


# ------------------------------------------------------- deadlines vs the pool
class TestDeadlineSparesThePool:
    def test_expired_batches_never_cost_the_pool(self, small_setup):
        """A client deadline that runs out mid-gather is the client's
        problem: ``DeadlineExceeded`` (a 504, no in-process fallback), and
        the pool — neither broken nor respawned — serves the next batch,
        however many such clients came before."""
        comp, truth = small_setup
        universe = comp.gene_universe()
        queries = [tuple(truth.query_genes)] + [
            (universe[i], universe[i + k]) for k in (1, 2, 3) for i in range(40)
        ]
        wire = {"searches": [{"genes": list(q), "use_cache": False} for q in queries]}
        service = SpellService(comp, n_procs=2)
        try:
            app = ApiApp(service)
            status, body = app.handle_wire("search/batch", wire)  # pays the spawn
            assert status == 200 and body["n_workers"] == 2
            pool = service._procpool
            fallbacks = []
            in_process = service._index.search_batch
            service._index.search_batch = lambda misses: (
                fallbacks.append(len(misses)) or in_process(misses)
            )
            misses = [BatchQuery(q) for q in queries]
            for _ in range(service.MAX_POOL_RESPAWNS + 2):
                # a budget spent by the time the gather first looks: the
                # scatter went out, no reply can be back yet
                with pytest.raises(DeadlineExceeded):
                    service._compute_many(misses, Deadline(0.0), False)
            status, body = app.handle_wire("search/batch", {**wire, "deadline_ms": 1})
            assert status == 504 and body["error"]["code"] == "DEADLINE_EXCEEDED"
            assert fallbacks == []

            status, body = app.handle_wire("search/batch", wire)
            assert status == 200 and body["n_workers"] == 2
            assert service._procpool is pool
            assert service._pool_respawns == 0 and not service._pool_disabled
            stats = service.serving_stats()["procpool"]
            assert stats["broken"] is False and stats["batches"] == 2
            oracle = ApiApp(SpellService(comp, cache_size=0))
            _, expect = oracle.handle_wire("search/batch", wire)
            for got, want in zip(body["results"], expect["results"]):
                assert got["gene_rows"] == want["gene_rows"]
                assert got["dataset_rows"] == want["dataset_rows"]
        finally:
            service.close()

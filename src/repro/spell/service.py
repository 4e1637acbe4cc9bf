"""SPELL's query service (the paper's Figure 4 backend), serving-grade.

The *public* query surface now lives in :mod:`repro.api`: transports and
frontends speak the versioned wire protocol
(:class:`~repro.api.protocol.SearchRequest` /
:class:`~repro.api.protocol.SearchResponse`) through
:class:`~repro.api.app.ApiApp` (or the HTTP facade in
:mod:`repro.api.http`), and :class:`SpellService` is the engine room
behind that boundary.  :meth:`SpellService.respond` /
:meth:`SpellService.respond_batch` are the protocol-typed entry points;
the historical :meth:`search_page` / :meth:`search_many` survive as thin
shims over them but are **deprecated** (they emit ``DeprecationWarning``
and will be removed once nothing in-repo or downstream calls them).

What the service adds over the raw engine/index:

* **Result cache** — an LRU keyed on the canonicalized query plus the
  compendium's version token (:mod:`repro.spell.cache`); repeated or
  permuted queries are answered without touching the index.  Dataset
  filters and top-k truncation are part of the key, so partial answers
  never masquerade as full ones.
* **Batched queries** — :meth:`respond_batch` fans a batch across threads
  sharing one index (NumPy releases the GIL in the scoring matmuls),
  modelling many concurrent users.
* **Incremental index maintenance** — when the compendium's version
  token moves, the service diffs dataset names and splices shards via
  ``SpellIndex.add_dataset`` / ``remove_dataset`` instead of rebuilding.
* **Persistent index** — ``store_dir=`` points the service at an
  :class:`~repro.spell.store.IndexStore` directory: a fresh process
  memory-maps the saved shards (zero-copy cold start) instead of
  re-normalizing the compendium, and every index sync also rewrites the
  stale shards on disk.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.api.errors import ApiError
from repro.api.protocol import (
    BatchSearchRequest,
    BatchSearchResponse,
    ExportChunk,
    ExportRequest,
    ExportTrailer,
    SearchRequest,
    SearchResponse,
)
from repro.data.compendium import Compendium
from repro.parallel.pmap import parallel_map
from repro.parallel.workqueue import WorkStealingPool
from repro.spell.cache import DEFAULT_CACHE_SIZE, QueryCache, rebind_result
from repro.spell.engine import GeneTable, SpellEngine, SpellResult
from repro.spell.index import BatchQuery, SpellIndex
from repro.spell.procpool import (
    REPLY_TIMEOUT_SECONDS,
    IndexWorkerPool,
    WorkerPoolError,
)
from repro.spell.store import IndexStore, StorageStats
from repro.util.deadline import Deadline
from repro.util.errors import SearchError, StoreError
from repro.util.lru import LruCache
from repro.util.timing import Stopwatch

__all__ = ["SearchPage", "BatchSearchResult", "SpellService"]


@dataclass(frozen=True)
class SearchPage:
    """One page of search output, shaped like the Figure 4 web table.

    Legacy in-process shape, kept for existing callers; new code should
    consume :class:`repro.api.protocol.SearchResponse` (which adds
    ``total_pages`` and strict page-range checking).
    """

    query: tuple[str, ...]
    page: int
    page_size: int
    total_genes: int
    gene_rows: tuple[tuple[int, str, float], ...]  # (rank, gene, score)
    dataset_rows: tuple[tuple[int, str, float], ...]  # (rank, dataset, weight)
    elapsed_seconds: float


@dataclass(frozen=True)
class BatchSearchResult:
    """Per-query pages plus aggregate timing for one :meth:`search_many`."""

    pages: tuple[SearchPage, ...]
    total_seconds: float
    n_workers: int
    cache_hits: int  # hits observed during this batch
    cache_misses: int

    @property
    def queries_per_second(self) -> float:
        """Aggregate throughput; ``0.0`` when unmeasurable.

        An empty batch, or one that finished faster than the clock's
        resolution, has no measurable rate and reports ``0.0`` (never
        ``inf`` — downstream arithmetic and JSON encoding must survive
        the value).
        """
        if self.total_seconds <= 0.0 or not self.pages:
            return 0.0
        return len(self.pages) / self.total_seconds


def _page_from_response(response: SearchResponse) -> SearchPage:
    """Downgrade a protocol response to the legacy ``SearchPage`` shape."""
    return SearchPage(
        query=response.query,
        page=response.page,
        page_size=response.page_size,
        total_genes=response.total_genes,
        gene_rows=response.gene_rows,
        dataset_rows=response.dataset_rows,
        elapsed_seconds=response.elapsed_seconds,
    )


class SpellService:
    """Stateful query service over a (mutable) compendium.

    ``use_index=True`` (default) answers from the precomputed index;
    ``use_index=False`` recomputes correlations per query with the exact
    engine — the cold path the ablation bench compares against.
    ``cache_size=0`` disables result caching (every query recomputes).

    ``store_dir`` enables the persistent index: when the directory
    already holds shards for exactly this compendium (matched by content
    fingerprint and dtype) they are reopened via mmap (``store_mmap``)
    instead of rebuilt; otherwise the service builds once and saves.
    ``dtype`` selects the shard precision — ``float32`` halves index
    memory and speeds the matmuls at the cost of last-digit score drift
    (see the ablation bench for rank agreement).

    ``n_procs >= 2`` turns on multi-core *batch* serving: worker
    processes each reopen the persistent store via mmap (sharing shard
    pages through the OS page cache — the index is never pickled) and
    :meth:`respond_batch` scatters cache-missing batch members across
    them.  A service without ``store_dir`` gets a private temporary
    store (removed by :meth:`close`).  Per-batch version tokens keep
    workers honest: a stale worker resyncs or refuses, and any pool
    failure falls back to the in-process threaded path — answers first,
    parallelism second.  ``cache_min_cost`` sets the result cache's
    admission threshold (see :class:`~repro.spell.cache.QueryCache`).
    """

    def __init__(
        self,
        compendium: Compendium,
        *,
        use_index: bool = True,
        n_workers: int = 1,
        n_procs: int = 1,
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_min_cost: int = 0,
        dtype=np.float64,
        store_dir: str | Path | None = None,
        store_mmap: bool = True,
        store_verify: str | None = None,
        pool_timeout: float = REPLY_TIMEOUT_SECONDS,
    ) -> None:
        self.compendium = compendium
        self.use_index = bool(use_index)
        self.n_workers = max(1, int(n_workers))
        self.n_procs = max(1, int(n_procs))
        self.pool_timeout = float(pool_timeout)
        #: label -> zero-arg callable; serving facades report through here
        self._transport_probes: dict = {}
        self.dtype = np.dtype(dtype)
        self._store_dir = Path(store_dir) if store_dir is not None else None
        self._owns_store_dir = False
        if self.n_procs > 1 and self.use_index and self._store_dir is None:
            # process workers serve from the store; a caller who asked for
            # multi-core serving without naming one gets a private store
            self._store_dir = Path(tempfile.mkdtemp(prefix="spell-procpool-"))
            self._owns_store_dir = True
        self._store_mmap = bool(store_mmap)
        #: integrity policy for store loads: None = eager for in-RAM,
        #: lazy for mmap (the IndexStore default); "eager"/"lazy" forces
        self._store_verify = store_verify
        #: storage-tier counters for /v1/health — one object for the
        #: service's lifetime, threaded through every IndexStore call
        self.storage = StorageStats()
        #: per-dataset usage signal for cold-tier demotion: an LruCache
        #: whose per-entry hit counts rank how recently/often each
        #: dataset contributed positive weight to an answer
        self._dataset_hits: LruCache[str, bool] = LruCache(
            max(64, 4 * max(1, len(compendium)))
        )
        self._engine = SpellEngine(compendium, n_workers=n_workers)
        self._index = self._open_index() if self.use_index else None
        self._indexed_version = compendium.version
        self._cache = (
            QueryCache(cache_size, min_cost=cache_min_cost) if cache_size > 0 else None
        )
        self._procpool: IndexWorkerPool | None = None  # spawned lazily
        self._pool_respawns = 0
        self._pool_disabled = False  # set when respawning stops helping
        # requests answered and their summed seconds: a pair, not a
        # per-request list, so a long-lived server's memory stays flat
        self._served = 0
        self._served_seconds = 0.0
        self._lock = threading.Lock()  # guards latency counters + index maintenance
        self._store_lock = threading.Lock()  # serializes on-disk store writes
        self._pool_lock = threading.Lock()  # guards procpool lifecycle

    def _open_index(self) -> SpellIndex:
        """Reopen the persistent index when current, else build (and save).

        A *stale* store (the compendium changed since the last save) is
        still worth opening: shards whose fingerprints survive are
        reused from disk and only the diff re-normalizes, after which
        the store is synced back to current.
        """
        if self._store_dir is not None:
            # a matching-but-unreadable store (e.g. a shard file lost out
            # from under its manifest) falls through to a rebuild rather
            # than bricking construction
            try:
                stale = IndexStore.load(
                    self._store_dir,
                    mmap=self._store_mmap,
                    bind=self.compendium,
                    verify=self._store_verify,
                    stats=self.storage,
                )
            except StoreError:
                # covers StoreCorruptError too: with the compendium bound,
                # load already quarantined and rebuilt what it could; what
                # it could not is rebuilt from source right here
                stale = None
            if stale is not None and stale.dtype == self.dtype:
                # compare against the entries actually loaded, not a
                # re-read of the manifest (cheaper, and can't race a
                # concurrent sync into mixing old shards with a new
                # manifest's verdict)
                loaded = [(e.name, e.fingerprint) for e in stale._entries]
                live = [(ds.name, ds.fingerprint) for ds in self.compendium]
                if loaded == live:
                    return stale
                index = stale.updated(self.compendium)
                IndexStore.sync(index, self._store_dir, stats=self.storage)
                return index
        index = SpellIndex.build(
            self.compendium, n_workers=self.n_workers, dtype=self.dtype
        )
        if self._store_dir is not None:
            # sync, not save: a rebuild that supersedes an existing store
            # (e.g. a dtype switch) must also retire the old shard files
            IndexStore.sync(index, self._store_dir, stats=self.storage)
        return index

    # ------------------------------------------------------------ maintenance
    def _sync_index(self) -> None:
        """Bring the index up to the compendium's current version.

        Copy-on-write: ``SpellIndex.updated`` builds a new index reusing
        every unchanged shard (matched by dataset identity, so same-name
        replacements re-normalize) and only then is the reference
        swapped — in-flight searches on the old index stay consistent,
        and nothing is ever fully rebuilt.
        """
        if self._index is None:
            return
        with self._lock:
            if self.compendium.version == self._indexed_version:
                return
            self._index = self._index.updated(self.compendium)
            self._indexed_version = self.compendium.version
            index = self._index
        if self._store_dir is not None:
            # mirror the splice on disk: only stale shards rewrite.  Disk
            # IO happens outside self._lock (searches count their latency under
            # it); _store_lock alone serializes writers on the directory.
            with self._store_lock:
                IndexStore.sync(index, self._store_dir, stats=self.storage)

    def sync_index(self) -> None:
        """Publish any pending compendium change (public ``_sync_index``).

        Ingestion calls this eagerly after mutating the compendium so
        the copy-on-write swap (and the manifest-first disk publish)
        happens *inside* the ingest request — a racing query sees either
        the prior index or the fully-published one, never a half-synced
        state deferred to some later search.
        """
        self._sync_index()

    def ingest_dataset(self, dataset) -> str:
        """Add one parsed dataset to the live compendium and publish it.

        Append-only (``Compendium.add`` rejects a duplicate name), then
        an eager :meth:`sync_index`; returns the dataset's durable
        fingerprint.  Callers own any on-disk source bookkeeping — this
        method is purely the in-memory + index-store publication step.
        """
        self.compendium.add(dataset)
        self._sync_index()
        return dataset.fingerprint

    def dataset_tiers(self) -> dict[str, str]:
        """Storage tier per dataset (``"resident"`` / ``"cold"``).

        From the persistent store's committed manifest when one backs
        this service; in-memory-only serving is all ``"resident"`` by
        definition.  Datasets added but not yet synced report resident.
        """
        tiers = {ds.name: "resident" for ds in self.compendium}
        if self._store_dir is not None:
            with self._store_lock:
                stored = IndexStore.tiers(self._store_dir)
            for name, tier in stored.items():
                if name in tiers:
                    tiers[name] = tier
        return tiers

    def demote_cold(self, *, min_hits: int = 1, keep: int = 1) -> tuple[str, ...]:
        """Compress rarely-used datasets' shards into the store's cold tier.

        Victims are datasets whose per-entry hit count in the
        ``_dataset_hits`` LRU (see :meth:`_note_dataset_use`) is below
        ``min_hits`` — i.e. they have not contributed positive weight to
        recent answers.  At least ``keep`` datasets always stay resident.
        On-disk only: the in-RAM index keeps serving its current arrays
        (mmaps of an unlinked file stay valid); the next cold start pays
        decompression for exactly the datasets nobody was using.
        Returns the demoted dataset names.
        """
        if self._store_dir is None or self._index is None:
            return ()
        names = [ds.name for ds in self.compendium]
        victims = [
            name for name in names if self._dataset_hits.entry_hits(name) < min_hits
        ]
        if keep > 0 and len(victims) > max(0, len(names) - keep):
            victims = victims[: max(0, len(names) - keep)]
        if not victims:
            return ()
        with self._store_lock:
            return IndexStore.demote(self._store_dir, victims, stats=self.storage)

    def promote_cold(self, names: Sequence[str] | None = None) -> tuple[str, ...]:
        """Decompress cold shards back to the resident tier (all by default).

        Checksum re-verification happens inside :meth:`IndexStore.promote`;
        a rotten cold shard is quarantined and rebuilt from the bound
        compendium rather than promoted.
        """
        if self._store_dir is None:
            return ()
        if names is None:
            names = [
                name
                for name, tier in IndexStore.tiers(self._store_dir).items()
                if tier == "cold"
            ]
        if not names:
            return ()
        with self._store_lock:
            return IndexStore.promote(
                self._store_dir,
                list(names),
                bind=self.compendium,
                stats=self.storage,
            )

    # ----------------------------------------------------------------- search
    def search(
        self,
        query: Sequence[str],
        *,
        use_cache: bool = True,
        top_k: int | None = None,
        datasets: Sequence[str] | None = None,
    ) -> SpellResult:
        """Raw search result, served from cache when possible.

        ``top_k`` asks for only the first ``k`` ranked genes (selected
        via ``argpartition``; identical to the head of the full ranking).
        ``datasets`` restricts the search to the named datasets.  Both
        are part of the cache key, so truncated or filtered answers never
        masquerade as full ones.
        """
        query = [str(g) for g in query]
        if not query:
            raise SearchError("query must contain at least one gene")
        if len(set(query)) != len(query):
            raise SearchError("query contains duplicate genes")
        if datasets is not None:
            datasets = tuple(str(d) for d in datasets)

        version = self.compendium.version
        extra = self._cache_extra(top_k, datasets)
        with Stopwatch() as sw:
            cached = (
                self._cache.lookup(version, query, extra=extra)
                if (self._cache is not None and use_cache)
                else None
            )
            if cached is not None:
                result = rebind_result(cached, query)
            else:
                self._sync_index()
                if self._index is not None:
                    result = self._index.search(query, top_k=top_k, datasets=datasets)
                else:
                    result = self._engine.search(query, top_k=top_k, datasets=datasets)
                if self._cache is not None and use_cache:
                    self._cache.store(
                        version, query, result, extra=extra, cost=result.total_genes
                    )
        self._note_dataset_use(result)
        with self._lock:
            self._served += 1
            self._served_seconds += sw.elapsed
        return result

    def _note_dataset_use(self, result: SpellResult) -> None:
        """Record which datasets contributed to an answer.

        Feeds :meth:`demote_cold`: every positively-weighted dataset of
        the result (they are ranked descending, so the scan stops at the
        first non-contributor) gets a hit in the ``_dataset_hits`` LRU —
        per-entry hit counts then rank the hot set, and datasets that
        never score are the cold-tier candidates.
        """
        lru = self._dataset_hits
        for ds in result.datasets:
            if ds.weight <= 0.0:
                break
            if ds.name not in lru:
                lru.put(ds.name, True)
            lru.get(ds.name)

    @staticmethod
    def _cache_extra(
        top_k: int | None, datasets: Sequence[str] | None
    ) -> tuple:
        """The non-gene part of a result's cache key (shared by every path)."""
        extra: tuple = ()
        if top_k is not None:
            extra += ("top_k", int(top_k))
        if datasets is not None:
            extra += ("datasets", tuple(sorted(set(datasets))))
        return extra

    # -------------------------------------------------- protocol entry points
    def respond(
        self,
        request: SearchRequest,
        *,
        strict_page: bool = True,
        deadline: Deadline | None = None,
    ) -> SearchResponse:
        """Answer one protocol :class:`~repro.api.protocol.SearchRequest`.

        This is the canonical paged path every transport routes through:
        pagination, ``total_pages`` accounting, and the
        ``PAGE_OUT_OF_RANGE`` check all live in
        :meth:`SearchResponse.from_result`.  With the cache on,
        pagination slices the cached full result, so every page of a
        query shares one cache entry; with the cache off only the first
        ``(page + 1) * page_size`` rows are ranked (``argpartition``
        top-k) instead of sorting the whole gene universe.

        The deadline budget (``deadline`` composed with the request's
        own ``deadline_ms``) is checked before the search starts — the
        in-process scoring kernel is uninterruptible, so an already
        spent budget fails fast rather than committing to the work.
        """
        budget = Deadline.tighter(deadline, Deadline.after_ms(request.deadline_ms))
        budget.check("search admission")
        caching = self._cache is not None and request.use_cache
        top_k = request.top_k
        if top_k is None and not caching:
            top_k = (request.page + 1) * request.page_size
        with Stopwatch() as sw:
            result = self.search(
                request.genes,
                use_cache=request.use_cache,
                top_k=top_k,
                datasets=request.datasets,
            )
        return SearchResponse.from_result(
            result, request, elapsed_seconds=sw.elapsed, strict=strict_page
        )

    def iter_result(self, request: ExportRequest, *, deadline: Deadline | None = None):
        """Cursor over one query's *full* ranking in fixed-size slices.

        The deep-export path: one search resolves the whole ranking
        (capped by ``request.top_k``), then the cursor walks the
        :class:`~repro.spell.engine.GeneTable` in ``chunk_size`` slices
        — per-chunk work is two array ``tolist()`` calls off the arena
        ranking, never a per-page :class:`SearchResponse` (no repeated
        cache lookups, no repeated dataset rows, no page accounting).
        The concatenated chunk rows are bit-identical to the
        concatenation of every page of the equivalent paged search.

        Returns an iterator yielding :class:`ExportChunk` objects
        followed by exactly one ``status="ok"`` :class:`ExportTrailer`
        (``checksum``/``n_chunks`` are left for the stream encoder,
        which owns the wire bytes).  The search itself runs *eagerly*,
        so invalid queries raise here — before a transport has
        committed a success status line to the stream.
        """
        budget = Deadline.tighter(deadline, Deadline.after_ms(request.deadline_ms))
        budget.check("export admission")
        with Stopwatch() as sw:
            result = self.search(
                request.genes,
                use_cache=request.use_cache,
                top_k=request.top_k,
                datasets=request.datasets,
            )
        return self._iter_chunks(result, request, sw.elapsed)

    @staticmethod
    def _iter_chunks(result: SpellResult, request: ExportRequest, elapsed: float):
        table = result.genes
        exportable = result.total_genes
        if request.top_k is not None:
            exportable = min(exportable, request.top_k)
        exportable = min(exportable, len(table))
        # resume: skip whole chunks already streamed to the client.  The
        # protocol pins resume_offset to a chunk boundary, and chunks are
        # cut at fixed multiples of chunk_size from zero, so the resumed
        # stream's chunk lines are bit-identical to the same-offset lines
        # of an uninterrupted export (same search, same slicing).
        offset = min(request.resume_offset, exportable)
        while offset < exportable:
            stop = min(offset + request.chunk_size, exportable)
            if isinstance(table, GeneTable):
                rows = table.rows(offset, stop)
            else:  # legacy tuple-of-GeneScore results
                rows = [
                    (offset + i + 1, g.gene_id, g.score)
                    for i, g in enumerate(table[offset:stop])
                ]
            yield ExportChunk(offset=offset, gene_rows=tuple(rows))
            offset = stop
        yield ExportTrailer(
            status="ok",
            total_genes=result.total_genes,
            # rows this cursor walked (a resumed cursor skips the prefix);
            # the stream encoder re-counts what actually hit the wire
            total_rows=exportable - min(request.resume_offset, exportable),
            resume_offset=request.resume_offset,
            query=result.query,
            query_used=result.query_used,
            query_missing=result.query_missing,
            dataset_rows=tuple(
                (i + 1, d.name, d.weight)
                for i, d in enumerate(result.datasets[: request.top_datasets])
            ),
            elapsed_seconds=float(elapsed),
        )

    def respond_batch(
        self,
        request: BatchSearchRequest,
        *,
        strict_page: bool = True,
        deadline: Deadline | None = None,
    ) -> BatchSearchResponse:
        """Answer a protocol batch concurrently over the shared index.

        With ``n_procs >= 2`` the batch's cache misses are scattered
        across the process pool (each worker mmap-shares the persistent
        store and scores its slice with ``search_batch``); cache
        hits are answered inline either way.  Any pool failure falls
        back to the thread path below.  ``scheduler="map"`` uses the
        order-preserving thread pool; ``"steal"`` routes through
        :class:`WorkStealingPool`, which absorbs the imbalance between
        cache hits and cold searches.  Results come back in input order
        on every path.  All-or-nothing: a failing member request fails
        the batch with its error.

        The deadline budget bounds the whole batch (member requests'
        own ``deadline_ms`` can only tighten it); on the process-pool
        path it clamps every gather wait, and a spent budget surfaces
        as ``DeadlineExceeded`` — never as an in-process fallback that
        would blow the same budget again.
        """
        budget = Deadline.tighter(deadline, Deadline.after_ms(request.deadline_ms))
        budget.check("batch admission")
        self._sync_index()  # once up front, not per worker

        hits0 = self._cache.hits if self._cache is not None else 0
        misses0 = self._cache.misses if self._cache is not None else 0

        searches = list(request.searches)
        if self._procs_usable():
            with Stopwatch() as sw:
                results = self._respond_batch_procs(searches, strict_page, budget)
            return BatchSearchResponse(
                results=tuple(results),
                total_seconds=sw.elapsed,
                n_workers=self.n_procs,
                cache_hits=(self._cache.hits - hits0)
                if self._cache is not None else 0,
                cache_misses=(self._cache.misses - misses0)
                if self._cache is not None else 0,
            )

        def one(req: SearchRequest) -> SearchResponse:
            return self.respond(req, strict_page=strict_page, deadline=budget)

        with Stopwatch() as sw:
            if request.scheduler == "steal" and self.n_workers > 1:
                results = WorkStealingPool(self.n_workers).map(one, searches)
            else:
                results = parallel_map(one, searches, n_workers=self.n_workers)
        return BatchSearchResponse(
            results=tuple(results),
            total_seconds=sw.elapsed,
            n_workers=self.n_workers,
            cache_hits=(self._cache.hits - hits0) if self._cache is not None else 0,
            cache_misses=(self._cache.misses - misses0) if self._cache is not None else 0,
        )

    # ----------------------------------------------- multi-process batch path
    #: A broken pool is respawned this many times before the service gives
    #: up on multi-process serving (a persistently failing environment
    #: must not pay spawn cost on every batch forever).
    MAX_POOL_RESPAWNS = 3

    def _procs_usable(self) -> bool:
        """Can (and should) this batch take the multi-process path?

        A *broken* pool does not disqualify — ``_ensure_procpool``
        respawns it (transient worker deaths heal); only
        ``_pool_disabled`` (respawn budget exhausted, or spawning
        impossible here) routes batches to the thread path for good.
        """
        return (
            self.n_procs > 1
            and self.use_index
            and self._index is not None
            and self._store_dir is not None
            and not self._pool_disabled
        )

    def _ensure_procpool(self) -> IndexWorkerPool:
        """The live worker pool, respawning a broken one (bounded)."""
        with self._pool_lock:
            if self._procpool is not None and self._procpool.broken:
                self._procpool.close()
                self._procpool = None
                self._pool_respawns += 1
                if self._pool_respawns > self.MAX_POOL_RESPAWNS:
                    self._pool_disabled = True
                    raise WorkerPoolError(
                        f"worker pool failed {self._pool_respawns} times; "
                        "multi-process serving disabled for this service"
                    )
            if self._procpool is None:
                try:
                    self._procpool = IndexWorkerPool(
                        self._store_dir,
                        n_procs=self.n_procs,
                        mmap=True,
                        reply_timeout=self.pool_timeout,
                    )
                except WorkerPoolError:
                    self._pool_disabled = True  # spawn is impossible here
                    raise
            return self._procpool

    def _respond_batch_procs(
        self,
        searches: list[SearchRequest],
        strict_page: bool,
        budget: Deadline,
    ) -> list[SearchResponse]:
        """Scatter the batch's cache misses across the worker processes.

        Cache hits are answered inline (the workers never see them);
        misses are dispatched as :class:`BatchQuery` specs carrying the
        same effective ``top_k`` the in-process path would use, and the
        full results coming back populate the cache exactly as a local
        search would — so the proc path and the thread path are
        indistinguishable to a later query.  If the pool cannot serve
        (spawn failure, dead worker, persistent staleness), the *same*
        pending specs are answered in-process by ``search_batch`` —
        the inline cache hits are never recomputed and every counter
        (hits, misses, query count) moves exactly once per member.
        Member-request errors (bad page, unknown gene) propagate as
        themselves, failing the batch all-or-nothing.
        """
        version = self.compendium.version
        responses: dict[int, SearchResponse] = {}
        pending: list[int] = []
        specs: list[BatchQuery] = []
        plans: list[tuple[bool, int | None, tuple]] = []  # (caching, top_k, extra)
        for idx, req in enumerate(searches):
            caching = self._cache is not None and req.use_cache
            top_k = req.top_k
            if top_k is None and not caching:
                top_k = (req.page + 1) * req.page_size
            extra = self._cache_extra(top_k, req.datasets)
            if caching:
                with Stopwatch() as sw:
                    cached = self._cache.lookup(version, list(req.genes), extra=extra)
                if cached is not None:
                    result = rebind_result(cached, list(req.genes))
                    self._note_dataset_use(result)
                    with self._lock:
                        self._served += 1
                        self._served_seconds += sw.elapsed
                    responses[idx] = SearchResponse.from_result(
                        result, req, elapsed_seconds=sw.elapsed, strict=strict_page
                    )
                    continue
            pending.append(idx)
            specs.append(
                BatchQuery(genes=req.genes, top_k=top_k, datasets=req.datasets)
            )
            plans.append((caching, top_k, extra))

        if specs:
            try:
                pool = self._ensure_procpool()
                results, busy = pool.run_batch(
                    self._index.fingerprints(), specs, deadline=budget
                )
                if len(results) != len(specs):  # defensive; a pool bug
                    raise WorkerPoolError(
                        f"pool returned {len(results)} results for "
                        f"{len(specs)} queries"
                    )
            except WorkerPoolError:
                # answers first: the misses run through the same batched
                # kernel in-process (never re-touching the inline hits)
                with Stopwatch() as sw:
                    results = self._index.search_batch(specs)
                busy = sw.elapsed
            per_query = busy / len(results) if results else 0.0
            for idx, (caching, top_k, extra), result in zip(pending, plans, results):
                req = searches[idx]
                if caching:
                    self._cache.store(
                        version, list(req.genes), result,
                        extra=extra, cost=result.total_genes,
                    )
                self._note_dataset_use(result)
                with self._lock:
                    self._served += 1
                    self._served_seconds += per_query
                responses[idx] = SearchResponse.from_result(
                    result, req, elapsed_seconds=per_query, strict=strict_page
                )
        return [responses[i] for i in range(len(searches))]

    # ------------------------------------------------------------ legacy shims
    def search_page(
        self,
        query: Sequence[str],
        *,
        page: int = 0,
        page_size: int = 20,
        top_datasets: int = 10,
        use_cache: bool = True,
    ) -> SearchPage:
        """Legacy paginated view; thin shim over :meth:`respond`.

        .. deprecated::
            Build a :class:`~repro.api.protocol.SearchRequest` and call
            :meth:`respond` instead — the protocol path adds
            ``total_pages``, strict page-range checking, and the
            sharded-serving ``partial``/``shards`` fields.

        Keeps the historical contract: invalid arguments raise
        :class:`SearchError` and a page past the end returns an *empty*
        page rather than failing (the protocol path raises
        ``PAGE_OUT_OF_RANGE`` instead).
        """
        warnings.warn(
            "SpellService.search_page is deprecated; build a SearchRequest "
            "and call SpellService.respond",
            DeprecationWarning,
            stacklevel=2,
        )
        if page < 0:
            raise SearchError(f"page must be >= 0, got {page}")
        if page_size < 1:
            raise SearchError(f"page_size must be >= 1, got {page_size}")
        try:
            request = SearchRequest(
                genes=tuple(str(g) for g in query),
                page=page,
                page_size=page_size,
                top_datasets=top_datasets,
                use_cache=use_cache,
            )
        except ApiError as exc:
            raise SearchError(exc.message) from exc
        return _page_from_response(self.respond(request, strict_page=False))

    def search_many(
        self,
        queries: Sequence[Sequence[str]],
        *,
        page: int = 0,
        page_size: int = 20,
        top_datasets: int = 10,
        use_cache: bool = True,
        scheduler: str = "map",
    ) -> BatchSearchResult:
        """Legacy batched entry point; thin shim over :meth:`respond_batch`.

        .. deprecated::
            Build a :class:`~repro.api.protocol.BatchSearchRequest` and
            call :meth:`respond_batch` instead.
        """
        warnings.warn(
            "SpellService.search_many is deprecated; build a "
            "BatchSearchRequest and call SpellService.respond_batch",
            DeprecationWarning,
            stacklevel=2,
        )
        if scheduler not in ("map", "steal"):
            raise SearchError(f"unknown scheduler {scheduler!r}")
        queries = [list(q) for q in queries]
        if not queries:
            raise SearchError("search_many needs at least one query")
        try:
            request = BatchSearchRequest(
                searches=tuple(
                    SearchRequest(
                        genes=tuple(str(g) for g in q),
                        page=page,
                        page_size=page_size,
                        top_datasets=top_datasets,
                        use_cache=use_cache,
                    )
                    for q in queries
                ),
                scheduler=scheduler,
            )
        except ApiError as exc:
            raise SearchError(exc.message) from exc
        response = self.respond_batch(request, strict_page=False)
        return BatchSearchResult(
            pages=tuple(_page_from_response(r) for r in response.results),
            total_seconds=response.total_seconds,
            n_workers=response.n_workers,
            cache_hits=response.cache_hits,
            cache_misses=response.cache_misses,
        )

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release serving resources: the worker pool and any private store.

        Idempotent; the service still answers queries afterwards (the
        in-process paths own no closable state), but multi-process
        serving stays off until a new service is built.
        """
        with self._pool_lock:
            if self._procpool is not None:
                self._procpool.close()
                self._procpool = None
        self.n_procs = 1
        if self._owns_store_dir and self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._store_dir = None
            self._owns_store_dir = False

    def __enter__(self) -> "SpellService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ stats
    @property
    def query_count(self) -> int:
        with self._lock:
            return self._served

    def register_transport_stats(self, label: str, probe) -> None:
        """Attach a transport's counter snapshot to ``serving_stats``.

        A serving facade (threaded HTTP, asyncio) registers its
        :meth:`~repro.api.transport.TransportStats.snapshot` under a
        facade-specific label; ``/v1/health`` then reports every
        transport fronting this service side by side under the
        append-only ``serving.transport`` field.
        """
        self._transport_probes[str(label)] = probe

    def unregister_transport_stats(self, label: str) -> None:
        self._transport_probes.pop(str(label), None)

    def serving_stats(self) -> dict:
        """Observability snapshot of the batch-serving topology."""
        stats: dict = {"n_workers": self.n_workers, "n_procs": self.n_procs}
        with self._pool_lock:
            pool = self._procpool
            stats["procpool"] = pool.stats() if pool is not None else None
        if self._transport_probes:
            stats["transport"] = {
                label: probe() for label, probe in sorted(self._transport_probes.items())
            }
        return stats

    def mean_latency(self) -> float:
        with self._lock:
            if not self._served:
                raise SearchError("no queries executed yet")
            return self._served_seconds / self._served

    def index_bytes(self) -> int:
        return self._index.nbytes() if self._index is not None else 0

    def cache_stats(self) -> dict[str, int]:
        if self._cache is None:
            return {"entries": 0, "max_entries": 0, "hits": 0, "misses": 0, "evictions": 0}
        return self._cache.stats()

    def storage_stats(self) -> dict:
        """Storage-tier counters for ``/v1/health`` (append-only keys).

        ``resident``/``cold`` gauge the store's current tier split;
        ``promotions``/``demotions``/``quarantined``/``rebuilt``/
        ``corrupt``/``verified``/``cold_loads``/``swept``/
        ``publish_errors`` count lifetime events.  ``persistent`` says
        whether a store directory backs this service at all.
        """
        stats = self.storage.snapshot()
        stats["persistent"] = self._store_dir is not None
        stats["hot_datasets"] = [
            name for name, _ in self._dataset_hits.hottest(5)
        ]
        return stats

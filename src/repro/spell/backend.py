"""The search-backend contract :class:`~repro.api.app.ApiApp` serves from.

A backend answers SPELL queries over one compendium.  Two exist — the
single-node :class:`~repro.spell.service.SpellService` (index, store,
process pool) and the sharded
:class:`~repro.cluster_serving.router.RouterService` (ring, scatter-
gather, hedging) — and they differ in exactly one step: *how a cache
miss is computed*.  Everything around that step is decided here, once:
query validation, the result-cache probe and store (a partial answer is
never admitted — a later identical query must retry the missing shards,
not replay the gap), served-count/latency counters, the protocol entry
points :meth:`~SearchBackend.respond` / :meth:`~SearchBackend.respond_batch`
/ :meth:`~SearchBackend.iter_result`, and the stats ``/v1/health``
reports.  The step is also the only place a search can *wait* (kernel,
pool pipes, shard sockets), so everything before it is callable on its
own — :meth:`~SearchBackend.respond_cached` — from a thread that must
not block.  A subclass supplies :meth:`~SearchBackend._compute` plus
whatever is genuinely its own.
"""

from __future__ import annotations

import threading
from typing import Sequence

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
from repro.spell.cache import QueryCache, rebind_result
from repro.spell.engine import GeneTable, SpellResult
from repro.util.deadline import Deadline
from repro.util.errors import SearchError
from repro.util.timing import Stopwatch

__all__ = ["COMPLETE", "SearchBackend"]

#: The report of an answer that covers every selected dataset (shared,
#: never mutated): what a cache hit and a single-node search both carry.
COMPLETE: dict = {"partial": False, "shards": {}}


class SearchBackend:
    """One compendium, one result cache, one set of serving counters."""

    #: processes scoring batches; only a process-pool backend raises it
    n_procs = 1

    def __init__(
        self,
        compendium: Compendium,
        *,
        n_workers: int,
        cache_size: int,
        cache_min_cost: int,
    ) -> None:
        self.compendium = compendium
        self.n_workers = max(1, int(n_workers))
        self._cache = (
            QueryCache(cache_size, min_cost=cache_min_cost) if cache_size > 0 else None
        )
        # requests answered and their summed seconds: a pair, not a
        # per-request list, so a long-lived server's memory stays flat
        self._served = 0
        self._served_seconds = 0.0
        # their own lock, never the maintenance one: a cache hit answered
        # on an event loop must not queue behind an index splice
        self._served_lock = threading.Lock()
        self._lock = threading.Lock()  # guards subclass maintenance + its counters
        #: label -> zero-arg callable; serving facades report through here
        self._transport_probes: dict = {}

    # ------------------------------------------------------------ the one step
    def _compute(
        self,
        query: list[str],
        top_k: int | None,
        datasets: tuple[str, ...] | None,
        deadline: Deadline,
        require_complete: bool,
    ) -> tuple[SpellResult, dict]:
        """Answer one validated, cache-missing query.

        Returns ``(result, report)`` where ``report`` is :data:`COMPLETE`
        or a ``{"partial": True, "shards": {...}}`` verdict.  With
        ``require_complete`` a backend that cannot cover every selected
        dataset must raise instead of degrading.
        """
        raise NotImplementedError

    # ----------------------------------------------------------------- search
    @staticmethod
    def _cache_extra(top_k: int | None, datasets: Sequence[str] | None) -> tuple:
        """The non-gene part of a result's cache key (shared by every path)."""
        extra: tuple = ()
        if top_k is not None:
            extra += ("top_k", int(top_k))
        if datasets is not None:
            extra += ("datasets", tuple(sorted(set(datasets))))
        return extra

    def _record_served(self, seconds: float) -> None:
        with self._served_lock:
            self._served += 1
            self._served_seconds += seconds

    def _search_report(
        self,
        query: Sequence[str],
        *,
        use_cache: bool = True,
        top_k: int | None = None,
        datasets: Sequence[str] | None = None,
        require_complete: bool = False,
        deadline: Deadline | None = None,
        cached_only: bool = False,
    ) -> tuple[SpellResult, dict] | None:
        """Cache-aware search returning ``(result, partiality report)``.

        ``top_k`` and ``datasets`` are part of the cache key, so
        truncated or filtered answers never masquerade as full ones.

        ``cached_only`` is the hit half on its own: a resident answer is
        served and counted exactly as above, anything else returns
        ``None`` having touched nothing — no miss, no LRU reorder, no
        served count — so the full call that follows is the one that
        counts.  That half never waits: it does not reach ``_compute``.
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
        caching = self._cache is not None and use_cache
        with Stopwatch() as sw:
            cached = None
            if caching:
                find = self._cache.probe if cached_only else self._cache.lookup
                cached = find(version, query, extra=extra)
            if cached is not None:
                result, report = rebind_result(cached, query), COMPLETE
            elif cached_only:
                return None
            else:
                result, report = self._compute(
                    query, top_k, datasets,
                    Deadline.never() if deadline is None else deadline,
                    require_complete,
                )
                if caching and not report["partial"]:
                    self._cache.store(
                        version, query, result, extra=extra, cost=result.total_genes
                    )
        self._record_served(sw.elapsed)
        return result, report

    def search(
        self,
        query: Sequence[str],
        *,
        use_cache: bool = True,
        top_k: int | None = None,
        datasets: Sequence[str] | None = None,
    ) -> SpellResult:
        """Raw search result, served from cache when possible.

        ``top_k`` asks for only the first ``k`` ranked genes (identical
        to the head of the full ranking); ``datasets`` restricts the
        search to the named datasets.
        """
        return self._search_report(
            query, use_cache=use_cache, top_k=top_k, datasets=datasets
        )[0]

    # -------------------------------------------------- protocol entry points
    def respond(
        self, request: SearchRequest, *, deadline: Deadline | None = None
    ) -> SearchResponse:
        """Answer one protocol :class:`~repro.api.protocol.SearchRequest`.

        This is the canonical paged path every transport routes through:
        pagination, ``total_pages`` accounting, and the
        ``PAGE_OUT_OF_RANGE`` check all live in
        :meth:`SearchResponse.from_result`.  With the cache on,
        pagination slices the cached full result, so every page of a
        query shares one cache entry; with the cache off only the first
        ``(page + 1) * page_size`` rows are ranked.

        The deadline budget (``deadline`` — started at admission by the
        API layer — composed with the request's own ``deadline_ms``) is
        checked before the search starts, so an already spent budget
        fails fast rather than committing to the work; partiality rides
        the append-only ``partial``/``shards`` fields.
        """
        return self._respond(request, deadline, cached_only=False)

    def respond_cached(
        self, request: SearchRequest, *, deadline: Deadline | None = None
    ) -> SearchResponse | None:
        """:meth:`respond` when the answer is already in the result cache,
        else ``None`` with no counter moved — the half of ``respond``
        that never waits (same checks, same errors, same bytes)."""
        return self._respond(request, deadline, cached_only=True)

    def _respond(
        self, request: SearchRequest, deadline: Deadline | None, *, cached_only: bool
    ) -> SearchResponse | None:
        budget = Deadline.tighter(deadline, Deadline.after_ms(request.deadline_ms))
        budget.check("search admission")
        top_k = request.top_k
        if top_k is None and not (self._cache is not None and request.use_cache):
            top_k = (request.page + 1) * request.page_size
        with Stopwatch() as sw:
            answer = self._search_report(
                request.genes,
                use_cache=request.use_cache,
                top_k=top_k,
                datasets=request.datasets,
                deadline=budget,
                cached_only=cached_only,
            )
        if answer is None:
            return None
        result, report = answer
        return SearchResponse.from_result(
            result,
            request,
            elapsed_seconds=sw.elapsed,
            partial=report["partial"],
            shards=report["shards"],
        )

    def respond_batch(
        self, request: BatchSearchRequest, *, deadline: Deadline | None = None
    ) -> BatchSearchResponse:
        """Answer a protocol batch concurrently; results in input order.

        All-or-nothing: a failing member request fails the batch with
        its error (a *partial* member is a success carrying
        ``partial=True``).  The deadline budget bounds the whole batch;
        a member's own ``deadline_ms`` can only tighten it.
        """
        budget = Deadline.tighter(deadline, Deadline.after_ms(request.deadline_ms))
        budget.check("batch admission")
        cache = self._cache
        hits0, misses0 = (cache.hits, cache.misses) if cache is not None else (0, 0)
        with Stopwatch() as sw:
            results, n_workers = self._run_batch(
                list(request.searches), request.scheduler, budget
            )
        return BatchSearchResponse(
            results=tuple(results),
            total_seconds=sw.elapsed,
            n_workers=n_workers,
            cache_hits=cache.hits - hits0 if cache is not None else 0,
            cache_misses=cache.misses - misses0 if cache is not None else 0,
        )

    def _run_batch(
        self, searches: list[SearchRequest], scheduler: str, budget: Deadline
    ) -> tuple[list[SearchResponse], int]:
        """Fan the members across threads; returns ``(responses, workers)``.

        ``scheduler="map"`` uses the order-preserving thread pool;
        ``"steal"`` routes through :class:`WorkStealingPool`, which
        absorbs the imbalance between cache hits and cold searches.
        """

        def one(req: SearchRequest) -> SearchResponse:
            return self.respond(req, deadline=budget)

        if scheduler == "steal" and self.n_workers > 1:
            return WorkStealingPool(self.n_workers).map(one, searches), self.n_workers
        return parallel_map(one, searches, n_workers=self.n_workers), self.n_workers

    def iter_result(self, request: ExportRequest, *, deadline: Deadline | None = None):
        """Cursor over one query's *full* ranking in fixed-size slices.

        The deep-export path: one search resolves the whole ranking
        (capped by ``request.top_k``), then the cursor walks the
        :class:`~repro.spell.engine.GeneTable` in ``chunk_size`` slices
        — per-chunk work is two array ``tolist()`` calls off the arena
        ranking, never a per-page :class:`SearchResponse`.  The
        concatenated chunk rows are bit-identical to the concatenation
        of every page of the equivalent paged search.

        An export **requires** a complete ranking: the trailer checksums
        the stream as the full ranking, so an unreachable shard raises
        ``SHARD_UNAVAILABLE`` here instead of degrading.

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
            result, _report = self._search_report(
                request.genes,
                use_cache=request.use_cache,
                top_k=request.top_k,
                datasets=request.datasets,
                require_complete=True,
                deadline=budget,
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

    # ------------------------------------------------------------------ stats
    @property
    def query_count(self) -> int:
        with self._served_lock:
            return self._served

    def mean_latency(self) -> float:
        with self._served_lock:
            if not self._served:
                raise SearchError("no queries executed yet")
            return self._served_seconds / self._served

    def cache_stats(self) -> dict[str, int]:
        if self._cache is None:
            return {"entries": 0, "max_entries": 0, "hits": 0, "misses": 0, "evictions": 0}
        return self._cache.stats()

    def register_transport_stats(self, label: str, probe) -> None:
        """Attach a transport's counter snapshot to ``serving_stats``.

        A serving facade (threaded HTTP, asyncio) registers its
        :meth:`~repro.api.transport.TransportStats.snapshot` under a
        facade-specific label; ``/v1/health`` then reports every
        transport fronting this backend side by side under the
        append-only ``serving.transport`` field.
        """
        self._transport_probes[str(label)] = probe

    def unregister_transport_stats(self, label: str) -> None:
        self._transport_probes.pop(str(label), None)

    def _topology_stats(self) -> dict:
        """The backend-specific part of :meth:`serving_stats`."""
        return {}

    def serving_stats(self) -> dict:
        """Observability snapshot of the serving topology."""
        stats: dict = {
            "n_workers": self.n_workers,
            "n_procs": self.n_procs,
            **self._topology_stats(),
        }
        if self._transport_probes:
            stats["transport"] = {
                label: probe() for label, probe in sorted(self._transport_probes.items())
            }
        return stats

    def index_bytes(self) -> int:
        raise NotImplementedError

    # ``/v1/health`` and ``/v1/datasets`` answer the v1 default (``{}``)
    # for the parts of the picture a backend does not have: per-shard
    # routing state exists only behind a router, storage tiers only
    # where a backend owns a store.
    def shard_stats(self) -> dict:
        return {}

    def storage_stats(self) -> dict:
        return {}

    def dataset_tiers(self) -> dict[str, str]:
        return {}

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release serving resources (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

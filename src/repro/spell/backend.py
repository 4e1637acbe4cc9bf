"""The search-backend contract :class:`~repro.api.app.ApiApp` serves from.

A backend answers SPELL queries over one compendium.  Two exist — the
single-node :class:`~repro.spell.service.SpellService` (index, store,
process pool) and the sharded
:class:`~repro.cluster_serving.router.RouterService` (ring, scatter-
gather, hedging) — and they differ in exactly one step: *how cache
misses are computed*.  Everything around that step is decided here,
once, in :meth:`~SearchBackend._answer`: query validation, the
result-cache probe and store (a partial answer is never admitted — a
later identical query must retry the missing shards, not replay the
gap) and the served count.  A batch is that function
over its members — hits answered inline, the misses handed to the step
together — and :meth:`~SearchBackend.respond`,
:meth:`~SearchBackend.search` and :meth:`~SearchBackend.iter_result` are
the batch of one.  The step is also the only place a search can *wait*
(kernel, pool pipes, shard sockets), so everything before it is callable
on its own — :meth:`~SearchBackend.respond_cached` for a page,
:meth:`~SearchBackend.export_cached` for an export — from a thread that
must not block.  A subclass supplies
:meth:`~SearchBackend._compute_many` plus whatever is genuinely its own.
"""

from __future__ import annotations

import hashlib
import threading
from time import perf_counter
from typing import Sequence

from repro.api.protocol import (
    BatchSearchRequest,
    BatchSearchResponse,
    ExportChunk,
    ExportRequest,
    ExportTrailer,
    SearchRequest,
    SearchResponse,
    elapsed_parts,
    ndjson_line,
)
from repro.data.compendium import Compendium
from repro.spell.cache import QueryCache, rebind_result
from repro.spell.engine import SpellResult
from repro.spell.index import BatchQuery
from repro.spell.partials import GeneUniverse, checked_query
from repro.util.deadline import Deadline
from repro.util.timing import Stopwatch

__all__ = ["COMPLETE", "ExportCursor", "PAGES_PER_RANKING", "SearchBackend"]

#: The report of an answer that covers every selected dataset (shared,
#: never mutated): what a cache hit and a single-node search both carry.
COMPLETE: dict = {"partial": False, "shards": {}}

#: Encoded pages one cached ranking keeps for its hits (a constant, not a
#: knob): a table's page memo stops growing here, and later pages are
#: encoded per hit.
PAGES_PER_RANKING = 8


class ExportCursor:
    """One export's walk over a resolved ranking, with two faces.

    Iterated, it yields typed :class:`ExportChunk` messages then the
    ``ok`` :class:`ExportTrailer`; :meth:`lines` is the same export as
    its wire lines (:func:`~repro.api.protocol.ndjson_line`).  Both come
    from one offset walk (:meth:`_chunks`).

    Chunks are cut at fixed multiples of ``chunk_size`` from zero, so a
    resumed stream's lines are bit-identical to the same-offset lines of
    an uninterrupted export (same search, same slicing) — which is what
    lets :meth:`lines` serve every export of a ranking from one encoding
    of it, memoized on the ranking's :class:`GeneTable` (``encoded``).
    """

    __slots__ = ("result", "request", "elapsed")

    def __init__(self, result: SpellResult, request: ExportRequest, elapsed: float) -> None:
        self.result = result
        self.request = request
        self.elapsed = elapsed

    def _bounds(self) -> tuple[int, int]:
        """``(offset, exportable)``: where this stream starts (the
        protocol pins ``resume_offset`` to a chunk boundary; past the
        end is the end) and how many rows the whole export has."""
        exportable = min(self.result.total_genes, len(self.result.genes))
        if self.request.top_k is not None:
            exportable = min(exportable, self.request.top_k)
        return min(self.request.resume_offset, exportable), exportable

    def _chunks(self, offset: int, exportable: int):
        table, size = self.result.genes, self.request.chunk_size
        while offset < exportable:
            stop = min(offset + size, exportable)
            yield ExportChunk(offset=offset, gene_rows=tuple(table.rows(offset, stop)))
            offset = stop

    def _trailer(self, offset: int, exportable: int, **integrity) -> ExportTrailer:
        result, request = self.result, self.request
        return ExportTrailer(
            status="ok",
            total_genes=result.total_genes,
            total_rows=exportable - offset,  # a resumed cursor skips the prefix
            resume_offset=request.resume_offset,
            query=result.query,
            query_used=result.query_used,
            query_missing=result.query_missing,
            dataset_rows=tuple(
                (i + 1, d.name, d.weight)
                for i, d in enumerate(result.datasets[: request.top_datasets])
            ),
            elapsed_seconds=float(self.elapsed),
            **integrity,
        )

    def __iter__(self):
        offset, exportable = self._bounds()
        yield from self._chunks(offset, exportable)
        yield self._trailer(offset, exportable)

    def memo(self) -> tuple | None:
        """The ranking's export memo (``GeneTable.encoded``) when it holds
        this export's chunking, else ``None``."""
        memo = self.result.genes.encoded
        if memo is None or memo[0] != self.request.chunk_size:
            return None
        return memo if memo[1] == self._bounds()[1] else None

    def lines(self) -> tuple[bytes, ...]:
        """The export's wire lines: the chunk lines, then the trailer line.

        The table keeps one chunking — the whole ranking's lines at one
        ``chunk_size``, with their checksum — and a different size
        replaces it; a resumed export is a suffix of it.  The trailer's
        ``checksum`` is ``sha256`` over the exact bytes of this export's
        chunk lines (newline included) in order — it promises the
        integrity of what is sent, so it hashes wire bytes, not protocol
        objects — and its ``n_chunks`` counts them.  Only a resumed
        export hashes per call; from offset 0 the memo's checksum is
        this export's.
        """
        offset, exportable = self._bounds()
        size = self.request.chunk_size
        memo = self.memo()
        if memo is None:
            lines = tuple(map(ndjson_line, self._chunks(0, exportable)))
            memo = self.result.genes.encoded = (size, exportable, lines, _checksum(lines), {})
        chunks = memo[2][-(-offset // size):]
        trailer = self._trailer(
            offset,
            exportable,
            checksum=_checksum(chunks) if offset else memo[3],
            n_chunks=len(chunks),
        )
        return chunks + (ndjson_line(trailer),)

    def spliced(self, memo: tuple) -> tuple[bytes, ...]:
        """:meth:`lines` of an export from offset 0, out of ``memo`` (this
        export's chunking, as :meth:`memo` returned it) and encoding no
        chunk.

        The trailer line is the memo's stored one for this ``(query as
        sent, top_datasets)``, cut around ``elapsed_seconds``
        (:func:`~repro.api.protocol.elapsed_parts`) with this export's
        value spliced in.  The first export of a key builds it and stores
        it — copy-on-write, up to :data:`PAGES_PER_RANKING` trailers.
        """
        size, exportable, lines, checksum, trailers = memo
        key = (self.request.genes, self.request.top_datasets)
        parts = trailers.get(key)
        if parts is None:
            trailer = self._trailer(0, exportable, checksum=checksum, n_chunks=len(lines))
            parts = elapsed_parts(trailer, line=True)
            table = self.result.genes
            if len(trailers) < PAGES_PER_RANKING and table.encoded is memo:
                table.encoded = (size, exportable, lines, checksum, {**trailers, key: parts})
        elapsed = float.__repr__(float(self.elapsed)).encode("ascii")
        return lines + (parts[0] + elapsed + parts[1],)


def _checksum(lines: tuple[bytes, ...]) -> str:
    """The trailer's ``checksum`` of ``lines``, sent in order."""
    return "sha256:" + hashlib.sha256(b"".join(lines)).hexdigest()


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
        self._served = 0  # requests answered
        # their own lock, never the maintenance one: a cache hit answered
        # on an event loop must not queue behind an index splice
        self._served_lock = threading.Lock()
        self._lock = threading.Lock()  # guards subclass maintenance + its counters
        #: label -> zero-arg callable; serving facades report through here
        self._transport_probes: dict = {}

    # ------------------------------------------------------------ the one step
    def _compute_many(
        self,
        misses: list[BatchQuery],
        deadline: Deadline,
        require_complete: bool,
    ) -> tuple[list[tuple[SpellResult, dict]], int]:
        """Answer validated, cache-missing queries — however many there are.

        Returns ``(answers, width)``: one ``(result, report)`` per miss,
        in order, where ``report`` is :data:`COMPLETE` or a ``{"partial":
        True, "shards": {...}}`` verdict, and the width the misses
        actually ran at (1 = one after another in this thread).  With
        ``require_complete`` a backend that cannot cover every selected
        dataset must raise instead of degrading.  All-or-nothing: a
        failing member raises its own error, answering none.
        """
        raise NotImplementedError

    def _note_dataset_use(self, result: SpellResult) -> None:
        """``result`` was served once more (a backend that owns storage
        tiers keeps its demotion signal here)."""

    # ----------------------------------------------------------------- search
    @staticmethod
    def _cache_extra(top_k: int | None, datasets: Sequence[str] | None) -> tuple:
        """The non-gene part of a result's cache key."""
        extra: tuple = ()
        if top_k is not None:
            extra += ("top_k", int(top_k))
        if datasets is not None:
            extra += ("datasets", tuple(sorted(set(datasets))))
        return extra

    def _record_served(self, answers: int) -> None:
        with self._served_lock:
            self._served += answers

    def _answer(
        self,
        members: Sequence[tuple],
        deadline: Deadline,
        *,
        require_complete: bool = False,
        cached_only: bool = False,
        accept=None,
    ) -> tuple[list[tuple[SpellResult, dict, float]], tuple[int, int, int]] | None:
        """Probe, score the misses, store: the path every search takes.

        Each member is ``(genes, top_k, datasets, use_cache, rows)``;
        ``top_k`` and ``datasets`` are part of the cache key, so truncated
        or filtered answers never masquerade as full ones, and ``rows``
        is how deep the caller will read (``None`` = all of it): an
        answer that is not going to be cached is ranked no deeper.

        Every member is validated and looked up first — one
        ``compendium.version`` read keys them all — and only the misses
        reach :meth:`_compute_many`, together; what comes back is stored
        unless partial, then every member is counted served, once.
        Returns ``(answers, (hits, misses, width))``: per member
        ``(result, report, seconds)`` in input order, then how many of
        *these* members the cache answered, how many it was asked for in
        vain (a ``use_cache=False`` member is neither), and the width
        :meth:`_compute_many` reported.

        ``cached_only`` is the hit half on its own: when every member is
        resident they are served and counted exactly as above, but if any
        is not the answer is ``None`` having touched nothing — no hit, no
        miss, no LRU reorder, no served count — so the full call that
        follows is the one that counts.  One hold of the cache's lock
        decides it, for one member or many, and ``accept`` (a predicate
        on a resident result, run under that lock) can refuse a resident
        member as if it were missing.  That half never waits: it does not
        reach ``_compute_many``.
        """
        version = self.compendium.version
        keyed: list[tuple] = []  # (query, top_k, datasets, cache-key extra | None)
        looked_up = 0
        for genes, top_k, datasets, use_cache, rows in members:
            query = checked_query(genes)
            if datasets is not None:
                datasets = tuple(map(str, datasets))
            extra = None
            if use_cache and self._cache is not None:
                looked_up += 1
                extra = self._cache_extra(top_k, datasets)
            elif top_k is None:
                top_k = rows
            keyed.append((query, top_k, datasets, extra))
        resident = None
        if cached_only:
            if looked_up == len(keyed):
                resident = self._cache.probe_all(
                    version, [(query, extra) for query, _, _, extra in keyed], accept
                )
            if resident is None:
                return None
        answers: list = []
        pending: list[tuple[int, BatchQuery, tuple | None]] = []
        for position, (query, top_k, datasets, extra) in enumerate(keyed):
            t0 = perf_counter()
            if resident is not None:
                cached = resident[position]
            elif extra is not None:
                cached = self._cache.lookup(version, query, extra=extra)
            else:
                cached = None
            if cached is not None:
                answers.append((rebind_result(cached, query), COMPLETE, perf_counter() - t0))
            else:
                pending.append((position, BatchQuery(query, top_k, datasets), extra))
                answers.append(None)
        width = 1
        if pending:
            t0 = perf_counter()
            computed, width = self._compute_many(
                [spec for _, spec, _ in pending], deadline, require_complete
            )
            each = (perf_counter() - t0) / len(pending)
            for (position, spec, extra), (result, report) in zip(pending, computed):
                if extra is not None and not report["partial"]:
                    self._cache.store(
                        version, spec.genes, result, extra=extra, cost=result.total_genes
                    )
                answers[position] = (result, report, each)
        for result, _, _ in answers:
            self._note_dataset_use(result)
        self._record_served(len(answers))
        hits = len(answers) - len(pending)
        return answers, (hits, looked_up - hits, width)

    def search(
        self,
        query: Sequence[str],
        *,
        use_cache: bool = True,
        top_k: int | None = None,
        datasets: Sequence[str] | None = None,
        deadline: Deadline | None = None,
    ) -> SpellResult:
        """Raw search result, served from cache when possible.

        ``top_k`` asks for only the first ``k`` ranked genes (identical
        to the head of the full ranking); ``datasets`` restricts the
        search to the named datasets.  ``deadline`` bounds it as it does
        :meth:`respond`'s, checked before the search starts.  A raw
        result has no field to flag a partial ranking, so a backend that
        cannot cover every selected dataset raises instead.
        """
        if deadline is None:
            deadline = Deadline.never()
        deadline.check("search admission")
        member = (query, top_k, datasets, use_cache, None)
        answers, _ = self._answer((member,), deadline, require_complete=True)
        return answers[0][0]

    # -------------------------------------------------- protocol entry points
    def _respond(
        self,
        requests: Sequence[SearchRequest],
        deadline: Deadline | None,
        what: str,
        *,
        cached_only: bool = False,
    ) -> tuple[list[tuple[SpellResult, dict, float]], tuple[int, int, int]] | None:
        """:meth:`_answer` for protocol requests.  ``deadline`` bounds
        them all; a member's own ``deadline_ms`` can only tighten it."""
        members = []
        for request in requests:
            if request.deadline_ms is not None:
                deadline = Deadline.tighter(deadline, Deadline.after_ms(request.deadline_ms))
            members.append((
                request.genes, request.top_k, request.datasets, request.use_cache,
                (request.page + 1) * request.page_size,
            ))
        if deadline is None:
            deadline = Deadline.never()
        deadline.check(what)
        return self._answer(members, deadline, cached_only=cached_only)

    @staticmethod
    def _page(request: SearchRequest, answer: tuple) -> SearchResponse:
        result, report, seconds = answer
        return SearchResponse.from_result(
            result,
            request,
            elapsed_seconds=seconds,
            partial=report["partial"],
            shards=report["shards"],
        )

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
        answers, _ = self._respond((request,), deadline, "search admission")
        return self._page(request, answers[0])

    def respond_cached(
        self, request: SearchRequest, *, deadline: Deadline | None = None
    ) -> bytes | None:
        """:meth:`respond` when the answer is already in the result cache,
        as the page's JSON body, else ``None`` with no counter moved —
        the half of ``respond`` that never waits (same checks, same
        errors, same bytes).

        The body comes from the ranking's page memo (``GeneTable.pages``)
        with this hit's ``elapsed_seconds`` spliced in; the first hit on a
        page builds and stores it, up to :data:`PAGES_PER_RANKING`.  A
        miss never fills the memo, and an error is never stored.
        :meth:`export_cached` is the same half of an export.
        """
        answered = self._respond(
            (request,), deadline, "search admission", cached_only=True
        )
        if answered is None:
            return None
        (answer,), _ = answered
        result, _, seconds = answer
        table = result.genes
        pages = table.pages
        # the rest of what the body depends on is in the cache key, and a
        # hit is always COMPLETE
        key = (request.genes, request.page, request.page_size, request.top_datasets)
        parts = pages.get(key)
        if parts is None:
            parts = elapsed_parts(self._page(request, answer))
            if len(pages) < PAGES_PER_RANKING:
                # copy-on-write: a reader never sees a dict change size
                table.pages = {**pages, key: parts}
        return parts[0] + float.__repr__(seconds).encode("ascii") + parts[1]

    def respond_batch(
        self, request: BatchSearchRequest, *, deadline: Deadline | None = None
    ) -> BatchSearchResponse:
        """Answer a protocol batch; results in input order.

        The members' cache hits are answered inline and the misses are
        scored together, however this backend scores misses.
        All-or-nothing: a failing member request fails the batch with
        its error (a *partial* member is a success carrying
        ``partial=True``).  The deadline budget bounds the whole batch;
        a member's own ``deadline_ms`` can only tighten it.
        ``cache_hits``/``cache_misses`` count this batch's own members,
        whatever else the cache answered meanwhile.
        """
        budget = Deadline.tighter(deadline, Deadline.after_ms(request.deadline_ms))
        with Stopwatch() as sw:
            answers, (hits, misses, width) = self._respond(
                request.searches, budget, "batch admission"
            )
            pages = tuple(map(self._page, request.searches, answers))
        return BatchSearchResponse(
            results=pages,
            total_seconds=sw.elapsed,
            n_workers=width,
            cache_hits=hits,
            cache_misses=misses,
        )

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

        Returns an :class:`ExportCursor`: iterated, it yields
        :class:`ExportChunk` objects followed by exactly one
        ``status="ok"`` :class:`ExportTrailer` (without ``checksum`` and
        ``n_chunks``, which describe wire bytes); its
        :meth:`~ExportCursor.lines` is the same export as wire lines,
        trailer included.  The search itself runs *eagerly*, so invalid
        queries raise here.
        """
        budget = Deadline.tighter(deadline, Deadline.after_ms(request.deadline_ms))
        budget.check("export admission")
        member = (request.genes, request.top_k, request.datasets, request.use_cache, None)
        answers, _ = self._answer((member,), budget, require_complete=True)
        result, _report, seconds = answers[0]
        return ExportCursor(result, request, seconds)

    def export_cached(
        self, request: ExportRequest, *, deadline: Deadline | None = None
    ) -> tuple[bytes, ...] | None:
        """:meth:`iter_result`'s wire lines when they are already encoded,
        else ``None`` with no counter moved — the half of an export that
        never waits (same checks, same errors, same bytes but for
        ``elapsed_seconds``).

        It answers an export from offset 0 whose ranking is in the result
        cache with its lines encoded at this ``chunk_size``: the memo is
        judged with the hit, in one hold of the cache's lock, and the
        lines it saw are the lines answered, so this half never encodes a
        ranking.  The trailer is :meth:`ExportCursor.spliced`'s.  A
        resumed export, a ``use_cache=False`` one and a ranking not yet
        encoded at this size are ``None``; the full call answers them.
        """
        if request.resume_offset:
            return None
        budget = Deadline.tighter(deadline, Deadline.after_ms(request.deadline_ms))
        budget.check("export admission")
        seen: list = []

        def encoded(result: SpellResult) -> bool:
            seen.append(ExportCursor(result, request, 0.0).memo())
            return seen[-1] is not None

        member = (request.genes, request.top_k, request.datasets, request.use_cache, None)
        answered = self._answer((member,), budget, cached_only=True, accept=encoded)
        if answered is None:
            return None
        ((result, _, seconds),), _ = answered
        return ExportCursor(result, request, seconds).spliced(seen[-1])

    # ------------------------------------------------------------------ stats
    @property
    def query_count(self) -> int:
        with self._served_lock:
            return self._served

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

    def unregister_transport_stats(self, label: str, probe) -> None:
        """Detach ``probe`` from ``label`` if that label still holds it:
        a closing facade never removes a later facade registered under
        the same label."""
        label = str(label)
        if self._transport_probes.get(label) == probe:
            self._transport_probes.pop(label, None)

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

    def universe(self) -> GeneUniverse:
        """The gene universe this backend judges queries against, current
        with its compendium."""
        raise NotImplementedError

    def gene_count(self) -> int:
        return self.universe().gene_count()

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

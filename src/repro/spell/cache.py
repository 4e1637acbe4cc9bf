"""Result caching for the SPELL query service.

The deployed SPELL answers many users over one fixed compendium, and the
same handful of queries recur ("popular gene sets"); memoizing results is
the cheapest scaling lever.  Keys are *canonicalized*: the gene set is
deduped and sorted so that ``["B", "A"]`` and ``["A", "B"]`` share one
entry, and paging parameters are part of the key only for paged lookups.
Every key also embeds the compendium's version token, so a mutation
(dataset added/removed/reordered) silently invalidates all prior entries
— stale answers miss, then age out of the LRU.

A cached :class:`~repro.spell.engine.SpellResult` stores the canonical
gene order; :func:`rebind_result` restates the query-attribution fields
in the caller's original order before serving, so hits are
indistinguishable from fresh computes.  Results carry their gene
ranking as an array-backed :class:`~repro.spell.engine.GeneTable`;
rebinding never touches it, so a hit costs three tuple rebuilds no
matter how many genes the ranking holds.  Top-k (truncated) results are
keyed with ``extra=("top_k", k)`` so a partial ranking can never be
served where a full one was requested.

**Admission policy**: under heavy traffic most queries are one-offs;
letting every result in churns the LRU and evicts the hot gene sets the
cache exists for.  ``QueryCache(min_cost=...)`` only *admits* results
whose cost — the candidate-gene-universe size the search had to rank,
passed by the caller as ``cost=`` — meets the threshold; cheap results
are recomputed on demand instead of displacing expensive ones.
Admission and rejection are counted (and per-entry hit counts tracked)
so ``/v1/health`` can report how the policy behaves in production.

A resident result may also hold encoded bytes on its ``GeneTable``: its
export encoding (the NDJSON chunk lines of one chunking, plus the
trailers its warm exports were answered with) and the bodies of the
pages its cache hits were answered with; ``encoded_bytes`` in
:meth:`QueryCache.stats` sums them all, so what the memos hold is
visible.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Callable, Sequence

from repro.spell.engine import SpellResult
from repro.util.lru import LruCache

__all__ = ["canonical_query", "query_key", "rebind_result", "QueryCache"]

#: Default number of cached results per service.
DEFAULT_CACHE_SIZE = 256


def canonical_query(query: Sequence[str]) -> tuple[str, ...]:
    """Deduped, sorted gene tuple — the order-insensitive cache identity."""
    return tuple(sorted({str(g) for g in query}))


def query_key(
    version: int,
    query: Sequence[str],
    *,
    extra: tuple = (),
) -> tuple:
    """Full cache key: compendium version + canonical genes + extras.

    ``extra`` carries anything else that changes the answer (page,
    page_size, top_datasets, index vs engine path, ...).
    """
    return (int(version), canonical_query(query), tuple(extra))


def rebind_result(result: SpellResult, query: Sequence[str]) -> SpellResult:
    """Restate a cached result's query-attribution fields for ``query``.

    Rankings (datasets, genes) are order-independent and reused verbatim;
    only ``query``/``query_used``/``query_missing`` follow the caller's
    gene order.
    """
    query = tuple(str(g) for g in query)
    used = set(result.query_used)
    return replace(
        result,
        query=query,
        query_used=tuple(g for g in query if g in used),
        query_missing=tuple(g for g in query if g not in used),
    )


class QueryCache:
    """LRU of SPELL answers keyed on canonicalized queries.

    Thin wrapper over :class:`repro.util.lru.LruCache` that owns the key
    discipline (the service never builds keys by hand) plus the
    *admission* discipline: with ``min_cost > 0``, :meth:`store` only
    admits values whose ``cost`` (for SPELL results, the candidate gene
    universe the search ranked) meets the threshold — cheap answers are
    cheaper to recompute than the hot entry they would evict.  A
    ``cost=None`` store (caller opted out of costing) is always
    admitted.
    """

    def __init__(
        self, max_entries: int = DEFAULT_CACHE_SIZE, *, min_cost: int = 0
    ) -> None:
        self._lru: LruCache[tuple, object] = LruCache(max_entries)
        self.min_cost = max(0, int(min_cost))
        self.admitted = 0
        self.rejected = 0
        self._admission_lock = threading.Lock()  # the LRU locks its own counters

    def lookup(self, version: int, query: Sequence[str], *, extra: tuple = ()):
        return self._lru.get(query_key(version, query, extra=extra))

    def probe_all(
        self,
        version: int,
        members: Sequence[tuple[Sequence[str], tuple]],
        accept: Callable[[object], bool] | None = None,
    ):
        """:meth:`lookup` of every ``(query, extra)`` member, all or nothing.

        When every member is resident (and ``accept``, if given, takes
        each resident value) they are all served and counted exactly as by
        :meth:`lookup`; otherwise the answer is ``None`` and nothing —
        ``hits``/``misses``/``evictions``, the LRU order — has moved, so
        the :meth:`lookup` a caller makes next, once it is somewhere it may
        wait for the answers, is the one that counts.
        """
        return self._lru.probe_all(
            [query_key(version, query, extra=extra) for query, extra in members],
            accept,
        )

    def store(
        self,
        version: int,
        query: Sequence[str],
        value,
        *,
        extra: tuple = (),
        cost: int | None = None,
    ) -> bool:
        """Admit ``value`` unless the admission policy rejects it.

        Returns True when the entry was admitted.
        """
        if cost is not None and cost < self.min_cost:
            with self._admission_lock:
                self.rejected += 1
            return False
        with self._admission_lock:
            self.admitted += 1
        self._lru.put(query_key(version, query, extra=extra), value)
        return True

    def entry_hits(self, version: int, query: Sequence[str], *, extra: tuple = ()) -> int:
        """Hits served by one resident entry (0 if absent or evicted)."""
        return self._lru.entry_hits(query_key(version, query, extra=extra))

    def hottest(self, n: int = 5) -> list[tuple[tuple, int]]:
        """The ``n`` resident entries that served the most hits."""
        return self._lru.hottest(n)

    def clear(self) -> None:
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    @property
    def evictions(self) -> int:
        return self._lru.evictions

    def stats(self) -> dict[str, int]:
        stats = self._lru.stats()
        stats["min_cost"] = self.min_cost
        stats["admitted"] = self.admitted
        stats["rejected"] = self.rejected
        # summed at snapshot time: neither memo keeps a counter
        stats["encoded_bytes"] = sum(
            value.genes.encoded_bytes()
            for value in self._lru.values()
            if isinstance(value, SpellResult)
        )
        return stats

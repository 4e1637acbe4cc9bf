"""A small thread-safe LRU map with hit/miss/eviction counters.

The serving layer (SPELL query cache, render caches) needs bounded
memoization under concurrent access; this is the shared primitive.  It is
deliberately tiny: an ``OrderedDict`` guarded by one lock, recency
updated on every hit, oldest entry evicted on overflow.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, Sequence, TypeVar

from repro.util.errors import ValidationError

__all__ = ["LruCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


class LruCache(Generic[K, V]):
    """Bounded mapping evicting the least-recently-used entry first."""

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValidationError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._data: OrderedDict[K, V] = OrderedDict()
        self._entry_hits: dict[K, int] = {}  # per-resident-entry hit counts
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._data

    def _hit(self, key: K):
        """``key``'s value, counted as a hit and marked most-recently-used,
        or ``_MISSING`` with nothing touched (caller holds the lock)."""
        value = self._data.get(key, _MISSING)
        if value is not _MISSING:
            self._data.move_to_end(key)
            self.hits += 1
            self._entry_hits[key] = self._entry_hits.get(key, 0) + 1
        return value

    def get(self, key: K, default: V | None = None) -> V | None:
        """Look up ``key``, marking it most-recently-used on a hit."""
        with self._lock:
            value = self._hit(key)
            if value is _MISSING:
                self.misses += 1
                return default
            return value

    def probe_all(
        self, keys: Sequence[K], accept: Callable[[V], bool] | None = None
    ) -> list[V] | None:
        """Every key's value, or ``None`` unless all of them are resident.

        For a caller whose miss is followed by a counting :meth:`get` of
        the same keys (a ready-phase probe ahead of the full lookup):
        when every key is resident each is a hit like any other — counted,
        made most-recently-used, in the order given — and when any is
        missing every counter and the recency order stay exactly as they
        were.  A resident value ``accept`` refuses counts as missing.  One
        lock hold decides it, so the verdict is exact however many keys
        there are.
        """
        with self._lock:
            for key in keys:
                value = self._data.get(key, _MISSING)
                if value is _MISSING or (accept is not None and not accept(value)):
                    return None
            return [self._hit(key) for key in keys]

    def put(self, key: K, value: V) -> None:
        """Insert/refresh ``key``, evicting the oldest entry on overflow.

        Refreshing an existing key restarts its per-entry hit count:
        the counts describe the *currently resident value* (so
        ``hottest`` ranks what is actually being served), not the key's
        lifetime popularity — the aggregate ``hits`` counter keeps the
        lifetime view.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._entry_hits.pop(key, None)
            self._data[key] = value
            while len(self._data) > self.max_entries:
                evicted, _ = self._data.popitem(last=False)
                self._entry_hits.pop(evicted, None)
                self.evictions += 1

    def entry_hits(self, key: K) -> int:
        """Hits this *resident* entry has served (0 after eviction)."""
        with self._lock:
            return self._entry_hits.get(key, 0)

    def hottest(self, n: int = 5) -> list[tuple[K, int]]:
        """The ``n`` resident entries that served the most hits.

        Ties break on the key's ``repr`` so the ordering is a pure
        function of cache *content*, never of dict insertion history —
        without the tie-break, observability surfaces built on this
        (``/v1/health``) flap across runs for equally-hot entries.
        """
        with self._lock:
            ranked = sorted(
                self._entry_hits.items(), key=lambda kv: (-kv[1], repr(kv[0]))
            )
            return ranked[: max(0, int(n))]

    def values(self) -> list[V]:
        """The resident values, least-recently-used first (a snapshot)."""
        with self._lock:
            return list(self._data.values())

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._entry_hits.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._data),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hot_entry_hits": max(self._entry_hits.values(), default=0),
            }

"""SPELL's query service (the paper's Figure 4 backend), serving-grade.

The *public* query surface lives in :mod:`repro.api`: transports and
frontends speak the versioned wire protocol
(:class:`~repro.api.protocol.SearchRequest` /
:class:`~repro.api.protocol.SearchResponse`) through
:class:`~repro.api.app.ApiApp`, and :class:`SpellService` is the
single-node engine room behind that boundary.  The protocol entry points
(``respond`` / ``respond_batch`` / ``iter_result``), the result cache
and the serving counters are :class:`~repro.spell.backend.SearchBackend`'s
— shared with the sharded router — so this module holds only what a
single node owns:

* **The index** — a cache miss is answered from the precomputed
  :class:`~repro.spell.index.SpellIndex`, whose gene universe also
  judges the query (unknown dataset, unknown gene).
* **Incremental index maintenance** — when the compendium's version
  token moves, the service swaps in ``SpellIndex.updated``: a new
  immutable index sharing every unchanged shard, never a rebuild.
* **Persistent index** — ``store_dir=`` points the service at an
  :class:`~repro.spell.store.IndexStore` directory: a fresh process
  memory-maps the saved shards (zero-copy cold start) instead of
  re-normalizing the compendium, and every index sync also rewrites the
  stale shards on disk.
* **Multi-process batches** — with ``n_procs >= 2`` a batch's cache
  misses are scattered across worker processes sharing the mmap store.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.data.compendium import Compendium
from repro.spell.backend import COMPLETE, SearchBackend
from repro.spell.cache import DEFAULT_CACHE_SIZE
from repro.spell.engine import SpellResult
from repro.spell.index import BatchQuery, SpellIndex
from repro.spell.partials import GeneUniverse
from repro.spell.procpool import (
    REPLY_TIMEOUT_SECONDS,
    IndexWorkerPool,
    WorkerPoolError,
)
from repro.spell.store import IndexStore, StorageStats
from repro.util.deadline import Deadline
from repro.util.errors import StoreError

__all__ = ["SpellService"]


class SpellService(SearchBackend):
    """Stateful query service over a (mutable) compendium.

    Cache misses are answered from the precomputed index (the exact
    :class:`~repro.spell.engine.SpellEngine` is the reference the tests
    and the ablation bench compare it against, not a serving mode).
    ``cache_size=0`` disables result caching (every query recomputes).

    ``store_dir`` enables the persistent index: when the directory
    already holds shards for exactly this compendium (matched by content
    fingerprint and dtype) they are reopened via mmap instead of
    rebuilt; otherwise the service builds once and saves.
    ``dtype`` selects the shard precision — ``float32`` halves index
    memory and speeds the matmuls at the cost of last-digit score drift
    (see the ablation bench for rank agreement).

    ``n_procs >= 2`` turns on multi-core serving: worker processes each
    reopen the persistent store via mmap (sharing shard pages through
    the OS page cache — the index is never pickled) and a batch's cache
    misses are scattered across them instead of scored under this
    process's GIL (a lone miss — a single search, an export — has
    nothing to scatter and stays in-process).  A service without
    ``store_dir`` gets a private temporary store (removed by
    :meth:`close`).  Per-dispatch version tokens keep workers honest: a
    stale worker resyncs or refuses, and any pool failure falls back to
    the same kernel in-process — answers first, parallelism second.
    ``n_workers`` threads normalise shards at index build; no query
    fans out across threads.  ``cache_min_cost`` sets the result cache's
    admission threshold (see :class:`~repro.spell.cache.QueryCache`).
    """

    def __init__(
        self,
        compendium: Compendium,
        *,
        n_workers: int = 1,
        n_procs: int = 1,
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_min_cost: int = 0,
        dtype=np.float64,
        store_dir: str | Path | None = None,
        store_verify: str | None = None,
        pool_timeout: float = REPLY_TIMEOUT_SECONDS,
    ) -> None:
        super().__init__(
            compendium,
            n_workers=n_workers,
            cache_size=cache_size,
            cache_min_cost=cache_min_cost,
        )
        self.n_procs = max(1, int(n_procs))
        self.pool_timeout = float(pool_timeout)
        self.dtype = np.dtype(dtype)
        self._store_dir = Path(store_dir) if store_dir is not None else None
        self._owns_store_dir = False
        if self.n_procs > 1 and self._store_dir is None:
            # process workers serve from the store; a caller who asked for
            # multi-core serving without naming one gets a private store
            self._store_dir = Path(tempfile.mkdtemp(prefix="spell-procpool-"))
            self._owns_store_dir = True
        #: integrity policy for store loads, which are always mmap here:
        #: None = lazy (the IndexStore default for mmap); "eager"/"lazy"
        #: forces
        self._store_verify = store_verify
        #: storage-tier counters for /v1/health — one object for the
        #: service's lifetime, threaded through every IndexStore call
        self.storage = StorageStats()
        #: usage signal for cold-tier demotion, kept O(1) per answer: a
        #: tally per distinct ``result.datasets`` tuple (cache hits share
        #: the cached tuple; holding it keeps its ``id`` unique), folded
        #: into answers-contributed-to per dataset when somebody asks
        self._use_tallies: dict[int, list] = {}  # id -> [datasets tuple, answers]
        self._dataset_heat: dict[str, int] = {}
        self._use_lock = threading.Lock()
        self._index = self._open_index()
        self._indexed_version = compendium.version
        self._procpool: IndexWorkerPool | None = None  # spawned lazily
        self._pool_respawns = 0
        self._pool_disabled = False  # set when respawning stops helping
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
                    mmap=True,
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
                live = [(ds.name, ds.fingerprint) for ds in self.compendium]
                if stale.fingerprints() == live:
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

    def ingest_dataset(self, dataset) -> str:
        """Add one parsed dataset to the live compendium and publish it.

        Append-only (``Compendium.add`` rejects a duplicate name), then
        an eager :meth:`_sync_index`, so the swap and the disk publish
        happen inside the ingest request; returns the dataset's durable
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

        Victims are datasets whose heat (see :meth:`_note_dataset_use`)
        is below ``min_hits`` — i.e. they have not contributed positive
        weight to that many answers.  At least ``keep`` datasets always
        stay resident.
        On-disk only: the in-RAM index keeps serving its current arrays
        (mmaps of an unlinked file stay valid); the next cold start pays
        decompression for exactly the datasets nobody was using.
        Returns the demoted dataset names.
        """
        if self._store_dir is None:
            return ()
        names = [ds.name for ds in self.compendium]
        heat = self._heat()
        victims = [name for name in names if heat.get(name, 0) < min_hits]
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
    def _compute_many(
        self,
        misses: list[BatchQuery],
        deadline: Deadline,
        require_complete: bool,
    ) -> tuple[list[tuple[SpellResult, dict]], int]:
        """Score the misses (always complete): several on the worker pool
        when one is usable, else through the same batched kernel
        in-process.

        On the pool the misses are scattered across the workers (each
        mmap-shares the persistent store and scores its slice with
        ``search_batch``); ``deadline`` clamps every gather wait, and a
        spent budget surfaces as ``DeadlineExceeded`` — never as an
        in-process fallback that would blow the same budget again.  If
        the pool cannot serve (spawn failure, dead worker, persistent
        staleness) the *same* misses are answered in-process: answers
        first, parallelism second.  A lone miss — every single search,
        every export — has nothing to scatter and stays in-process: it
        would occupy one worker behind the pool's pipe lock and pickle
        its whole ranking back.  In-process ``deadline`` is not
        consulted — the kernel is uninterruptible, and the budget was
        checked at admission.  Member-request errors (unknown gene, bad
        filter) propagate as themselves either way.
        """
        self._sync_index()  # once up front, not per member or per worker
        index = self._index
        if len(misses) > 1 and self._procs_usable():
            try:
                results, _busy = self._ensure_procpool().run_batch(
                    index.fingerprints(), misses, deadline=deadline
                )
                if len(results) != len(misses):  # defensive; a pool bug
                    raise WorkerPoolError(
                        f"pool returned {len(results)} results for {len(misses)} queries"
                    )
                return [(result, COMPLETE) for result in results], self.n_procs
            except WorkerPoolError:
                pass  # fall through: the same misses, the same kernel, in-process
        return [(result, COMPLETE) for result in index.search_batch(misses)], 1

    #: Distinct results tallied before they are folded into per-dataset
    #: heat — bounds the tally map (and the tuples it pins) under
    #: all-distinct traffic, where every answer brings a new tuple.
    _FOLD_AT = 64

    def _note_dataset_use(self, result: SpellResult) -> None:
        """Record that ``result``'s datasets contributed to one more answer.

        Feeds :meth:`demote_cold`.  One dict bump under one lock per
        answer, however many datasets contributed; *which* of them did
        is worked out by :meth:`_fold`, off the answer path.
        """
        datasets = result.datasets
        with self._use_lock:
            tally = self._use_tallies.get(id(datasets))
            if tally is not None:
                tally[1] += 1
                return
            self._use_tallies[id(datasets)] = [datasets, 1]
            if len(self._use_tallies) > self._FOLD_AT:
                self._fold()

    def _fold(self) -> None:
        """Spend the tallies: every positively-weighted dataset of a
        tallied result (ranked descending, so the scan stops at the
        first non-contributor) gains that result's answer count (caller
        holds ``_use_lock``)."""
        heat = self._dataset_heat
        for datasets, answers in self._use_tallies.values():
            for ds in datasets:
                if ds.weight <= 0.0:
                    break
                heat[ds.name] = heat.get(ds.name, 0) + answers
        self._use_tallies.clear()

    def _heat(self) -> dict[str, int]:
        """Answers each dataset has contributed positive weight to."""
        with self._use_lock:
            self._fold()
            return dict(self._dataset_heat)

    # ----------------------------------------------------- multi-process path
    #: A broken pool is respawned this many times before the service gives
    #: up on multi-process serving (a persistently failing environment
    #: must not pay spawn cost on every batch forever).
    MAX_POOL_RESPAWNS = 3

    def _procs_usable(self) -> bool:
        """Can (and should) these misses take the multi-process path?

        A *broken* pool does not disqualify — ``_ensure_procpool``
        respawns it (transient worker deaths heal); only
        ``_pool_disabled`` (respawn budget exhausted, or spawning
        impossible here) keeps scoring in-process for good.
        """
        return self.n_procs > 1 and self._store_dir is not None and not self._pool_disabled

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
                        reply_timeout=self.pool_timeout,
                    )
                except WorkerPoolError:
                    self._pool_disabled = True  # spawn is impossible here
                    raise
            return self._procpool

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

    # ------------------------------------------------------------------ stats
    def _topology_stats(self) -> dict:
        with self._pool_lock:
            pool = self._procpool
            return {"procpool": pool.stats() if pool is not None else None}

    def index_bytes(self) -> int:
        return self._index.nbytes()

    def universe(self) -> GeneUniverse:
        self._sync_index()
        return self._index.universe

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
        # ties break on the name so equally-hot datasets do not flap
        heat = self._heat()
        stats["hot_datasets"] = sorted(heat, key=lambda name: (-heat[name], repr(name)))[:5]
        return stats

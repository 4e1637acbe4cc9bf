"""Precomputed correlation index for fast repeated SPELL queries.

The paper's deployed SPELL "runs on a pre-defined collection of
microarray data through a web interface" — i.e. the compendium is static
and queries are interactive, which calls for precomputation.

The index stores, per dataset, a row-normalized matrix ``Xn`` (each row
z-scored over its observed values, missing entries zero-filled, then
scaled to unit norm).  Correlation against any gene then collapses to a
matrix-vector product ``Xn @ Xn[q]``.  With missing data this is an
*approximation* of pairwise-complete Pearson (exact when nothing is
missing); the ablation bench quantifies both the speedup and the rank
agreement against the exact engine.

Hot-path layout (see :mod:`repro.spell.arena`): the shards' normalized
rows live in one contiguous per-dtype arena whenever they are in-RAM
arrays, and the kernel walks zero-copy *views* of that one buffer;
shards reopened from the persistent store stay memory-mapped (fusing
would fault in every page and destroy the zero-copy cold start), in
which case the views are simply the per-shard maps.  Either way it is
one code path over ``ShardArena.views``.

One kernel, :meth:`SpellIndex._score`, is the only place shard values
are multiplied; ``search``, ``search_batch`` and ``search_partials`` all
end in it.  What it does **per dataset** is the BLAS calls and nothing
else: gather the query rows ``Q``, ``Q @ Q.T`` into the pooled pair
buffer, and — for positive-weight datasets — ``Xn @ Q.T`` into the
pooled flat buffer.  Everything else runs **once per query** across all
selected datasets: one gather from the stacked slot->row table says
where every query gene sits in every shard; the ``i < j`` Gram entries
are Fisher-z'd, averaged and squared into weights as one
``(datasets, pairs)`` array; the flat buffer is clipped and
row-averaged in one go; and the three universe accumulators come from
three ``np.bincount`` calls (:func:`repro.spell.partials.rank_scores`).
A query costs a few hundred NumPy calls instead of a few thousand,
which matters twice on a serving thread: each call is dispatch overhead
larger than the arithmetic it wraps, and each is a GIL hand-off point
for the next handler thread to convoy on.

Three reductions fix the float order, and each is the one a textbook
per-dataset loop performs (the executable spec in
``tests/test_spell_kernel.py`` holds the kernel to that loop bit for
bit): the pair mean is a C-contiguous axis-1 ``mean`` — per row the
very sum ``np.mean`` takes over that dataset's 1-D pair vector; the
score mean adds a gene's ``q`` correlations left to right and divides
once — what ``mean(axis=1)`` does below 8 query genes, and the
canonical order from 8 up, where numpy would sum in 8 lanes (the spec
bounds that difference); and ``bincount`` walks the concatenated
contributions front to back, so each gene's slot receives its datasets'
terms in compendium order starting from ``0.0``, exactly like a
per-dataset ``totals[slots] += weight * scores``.

:meth:`search_batch` resolves (and so validates) every member, then
scores them in turn through that kernel on one pooled scratch —
:meth:`search` *is* a batch of one — so batch rankings are
bit-identical to per-query rankings by construction, not by parallel
maintenance of two loops.  The pooled scratch owns the pair buffer and
the flat matmul buffer, so no query allocates its ``Σ genes × q``
workspace; results never alias it (the accumulators are fresh
``bincount`` outputs).

Because each dataset's shard is independent, the index supports both a
parallel sharded :meth:`build` (normalization fanned over
``parallel_map``) and *incremental* maintenance: :meth:`add_dataset` /
:meth:`remove_dataset` splice one shard without touching the others, so
growing the compendium no longer forces a full rebuild.  Shards carry
their source dataset's content fingerprint, which is what the
persistent store (:mod:`repro.spell.store`) uses to rewrite only stale
shards and what :meth:`updated` falls back on to reuse shards across
processes (where object identity is useless).

Shards may be held in ``float32`` (``build(..., dtype=np.float32)``):
half the memory and faster matmuls, at the cost of last-digit score
differences against the float64 reference — the ablation bench
validates rank agreement between the two dtypes.  Aggregation always
accumulates in float64 regardless of shard dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import groupby
from typing import Sequence

import numpy as np

from repro.data.compendium import Compendium
from repro.data.dataset import Dataset
from repro.parallel.pmap import parallel_map
from repro.spell.arena import ScoreScratch, ScratchPool, ShardArena
from repro.spell.engine import DatasetScore, SpellResult, MIN_QUERY_PRESENT
from repro.spell.partials import DatasetPartial, rank_scores
from repro.stats.correlation import fisher_z
from repro.util.errors import SearchError, ValidationError

__all__ = ["SpellIndex", "BatchQuery"]

#: Shard dtypes the index (and its on-disk store) supports.
SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


@lru_cache(maxsize=64)
def _pair_index(p: int) -> np.ndarray:
    """Flat positions of the ``i < j`` pairs of a ``(p, p)`` Gram matrix,
    in ``np.triu_indices`` (row-major) order."""
    i, j = np.triu_indices(p, k=1)
    index = i * p + j
    index.setflags(write=False)  # one cached array serves every query
    return index


@dataclass(frozen=True)
class BatchQuery:
    """One member of a :meth:`SpellIndex.search_batch` batch.

    Mirrors the per-call keywords of :meth:`SpellIndex.search` so each
    batch member can carry its own truncation and dataset filter.
    """

    genes: tuple[str, ...]
    top_k: int | None = None
    datasets: tuple[str, ...] | None = None


@dataclass
class _DatasetIndex:
    """One immutable shard.  ``source`` is the exact :class:`Dataset` the
    shard was normalized from — identity comparison against the live
    compendium detects same-name replacements that a name diff misses.
    ``fingerprint`` is the source dataset's content hash, the durable
    (cross-process) form of the same identity.

    ``normalized`` may be repointed (value-preserving) at an arena view
    when the owning index fuses its shards; every rebind keeps the exact
    same float values, so shard sharing across copy-on-write indexes
    stays sound.
    """

    name: str
    gene_ids: list[str]
    normalized: np.ndarray  # (genes, conditions) unit-norm rows, contiguous
    source: Dataset | None = None
    fingerprint: str | None = None
    _gene_pos: dict[str, int] | None = None

    @property
    def gene_pos(self) -> dict[str, int]:
        """gene id -> local row; built lazily (cold start never needs it)."""
        if self._gene_pos is None:
            self._gene_pos = {g: i for i, g in enumerate(self.gene_ids)}
        return self._gene_pos


def _index_dataset(ds: Dataset, dtype=np.float64) -> _DatasetIndex:
    """Normalize one dataset into its index shard (pure per-dataset work).

    Normalization always runs in float64; ``dtype`` only controls the
    stored (and therefore matmul) precision.
    """
    X = ds.matrix.values
    with np.errstate(invalid="ignore"):
        mean = np.nanmean(X, axis=1, keepdims=True)
        std = np.nanstd(X, axis=1, keepdims=True)
    centered = X - mean
    z = np.divide(centered, std, out=np.zeros_like(centered), where=std > 0)
    z = np.where(np.isnan(X), 0.0, z)
    norms = np.sqrt((z * z).sum(axis=1, keepdims=True))
    z = np.divide(z, norms, out=np.zeros_like(z), where=norms > 0)
    return _DatasetIndex(
        name=ds.name,
        gene_ids=list(ds.matrix.gene_ids),
        normalized=np.ascontiguousarray(z, dtype=np.dtype(dtype)),
        source=ds,
        fingerprint=ds.fingerprint,
    )


class SpellIndex:
    """Search index over a compendium snapshot, maintained shard-by-shard.

    Build with :meth:`build` (optionally parallel across datasets);
    ``search`` answers queries without touching the raw datasets again.
    The index does not *watch* the compendium — callers keep it current
    through :meth:`add_dataset` / :meth:`remove_dataset` (in-place,
    single-threaded use) or :meth:`updated` (copy-on-write: returns a new
    index sharing unchanged shards, safe to swap in while other threads
    keep searching the old one — the discipline ``SpellService`` uses).
    """

    def __init__(self, entries: list[_DatasetIndex]) -> None:
        if not entries:
            raise SearchError("index is empty")
        self._entries = list(entries)
        self.dtype = np.dtype(self._entries[0].normalized.dtype)
        if self.dtype not in SUPPORTED_DTYPES:
            raise ValidationError(f"unsupported shard dtype {self.dtype}")
        # Global gene universe: aggregation runs over dense arrays indexed
        # by universe slot instead of per-gene dicts (the old inner loop
        # was pure Python over every gene of every dataset and dominated
        # query time).  The universe only grows — removed datasets leave
        # their slots behind, which costs memory proportional to genes
        # ever seen but keeps every other shard's mapping valid.  Slot
        # tables and per-shard row maps are index-local so shards can be
        # shared between indexes (copy-on-write updates).
        self._gene_slot: dict[str, int] = {}
        self._slot_gene: list[str] = []
        self._slot_gene_arr: np.ndarray | None = None  # cache, rebuilt on growth
        self._global_rows: list[np.ndarray] = []  # parallel to _entries
        # dataset name -> position in _entries (the filter lookup)
        self._position = {e.name: i for i, e in enumerate(self._entries)}
        # Bulk slot assignment: one np.unique over every shard's gene list
        # instead of a per-gene Python dict probe — the cold-start path
        # (store load) spends its time here, and slot *numbering* is
        # irrelevant to results (each gene aggregates in its own slot and
        # the final ranking sorts by score/id).
        id_arrays = [np.asarray(e.gene_ids, dtype=str) for e in self._entries]
        uniq, inv = np.unique(np.concatenate(id_arrays), return_inverse=True)
        self._slot_gene = uniq.tolist()
        self._gene_slot = {g: i for i, g in enumerate(self._slot_gene)}
        # Stacked inverse map, one row per shard: _row_table[i, slot] is
        # the local row of that slot's gene in shard i, -1 = absent.  One
        # column gather answers "where is each query gene, in every
        # shard" for the whole query; a column of -1s is a gene whose
        # only datasets were removed (slots are never retired).
        self._row_table = np.full((len(self._entries), len(uniq)), -1, dtype=np.intp)
        inv = np.asarray(inv, dtype=np.intp)
        offset = 0
        for i, arr in enumerate(id_arrays):
            rows = inv[offset : offset + arr.shape[0]]
            offset += arr.shape[0]
            self._row_table[i, rows] = np.arange(rows.shape[0], dtype=np.intp)
            self._global_rows.append(rows)
        # Fused arena: freshly-normalized shards' rows land in one
        # contiguous buffer and the entries are repointed
        # (value-preserving) at the views, so the per-shard allocations
        # are released and the scoring loop walks windows of a single
        # array.  Shards that are already arena views (copy-on-write
        # updated()) are reused without re-copying — an incremental sync
        # costs O(changed shards), not O(index bytes) — and
        # memory-mapped shards are left alone: fusing would fault in
        # every page and destroy the store's zero-copy cold start.
        self._arena = ShardArena([e.normalized for e in self._entries])
        if self._arena.fused:
            for entry, view in zip(self._entries, self._arena.views):
                entry.normalized = view
        self._scratch = ScratchPool()

    def _register(self, entry: _DatasetIndex) -> None:
        rows = np.empty(len(entry.gene_ids), dtype=np.intp)
        for i, g in enumerate(entry.gene_ids):
            slot = self._gene_slot.get(g)
            if slot is None:
                slot = len(self._slot_gene)
                self._gene_slot[g] = slot
                self._slot_gene.append(g)
            rows[i] = slot
        # one more table row, widened to the grown universe (a copy of
        # the table: in-place maintenance is the offline path)
        n_shards, n_slots = self._row_table.shape
        table = np.full((n_shards + 1, len(self._slot_gene)), -1, dtype=np.intp)
        table[:n_shards, :n_slots] = self._row_table
        table[n_shards, rows] = np.arange(rows.shape[0], dtype=np.intp)
        self._row_table = table
        self._global_rows.append(rows)
        self._position[entry.name] = n_shards
        self._arena.append(entry.normalized)

    def _slot_ids(self) -> np.ndarray:
        """Universe slot -> gene id, as an array (cached; universe only grows)."""
        if self._slot_gene_arr is None or len(self._slot_gene_arr) != len(
            self._slot_gene
        ):
            self._slot_gene_arr = np.asarray(self._slot_gene)
        return self._slot_gene_arr

    @classmethod
    def build(
        cls, compendium: Compendium, *, n_workers: int = 1, dtype=np.float64
    ) -> "SpellIndex":
        """Index every dataset; ``n_workers > 1`` shards the normalization."""
        entries = parallel_map(
            partial(_index_dataset, dtype=dtype),
            list(compendium),
            n_workers=max(1, int(n_workers)),
        )
        return cls(entries)

    # ------------------------------------------------------------ maintenance
    def add_dataset(self, dataset: Dataset) -> None:
        """Index one new dataset in place — no rebuild of existing shards.

        In-place maintenance is not safe under concurrent ``search``
        calls; concurrent callers use :meth:`updated` instead.  A late
        shard stays outside the fused arena buffer (extending it would
        copy every live view); a fresh build or ``updated()`` re-fuses.
        """
        if dataset.name in self._position:
            raise ValidationError(f"dataset {dataset.name!r} already indexed")
        entry = _index_dataset(dataset, dtype=self.dtype)
        self._register(entry)
        self._entries.append(entry)

    def remove_dataset(self, name: str) -> None:
        """Drop one dataset's shard; other shards are untouched."""
        i = self._position.get(name)
        if i is None:
            raise ValidationError(f"dataset {name!r} not in index")
        del self._entries[i]
        del self._global_rows[i]
        self._row_table = np.delete(self._row_table, i, axis=0)
        self._arena.remove(i)
        self._position = {e.name: k for k, e in enumerate(self._entries)}

    def updated(self, compendium: Compendium) -> "SpellIndex":
        """Copy-on-write sync: a new index matching ``compendium``.

        Shards are reused *by dataset identity* — a dataset re-added
        under the same name with different values gets re-normalized,
        which a name diff would miss.  Shards whose source identity is
        gone (e.g. an index reopened from the persistent store) are
        matched by content fingerprint instead, which is equivalent and
        survives process restarts.  The receiver is left untouched, so
        threads searching it mid-swap stay consistent; only genuinely
        new datasets pay normalization cost.
        """
        by_identity = {id(e.source): e for e in self._entries if e.source is not None}
        by_fingerprint = {
            (e.name, e.fingerprint): e
            for e in self._entries
            if e.fingerprint is not None
        }

        def match(ds: Dataset) -> _DatasetIndex:
            entry = by_identity.get(id(ds))
            if entry is None:
                entry = by_fingerprint.get((ds.name, ds.fingerprint))
            if entry is None:
                entry = _index_dataset(ds, dtype=self.dtype)
            elif entry.source is None:
                # bind the live dataset so future syncs match by identity
                entry.source = ds
            return entry

        return SpellIndex([match(ds) for ds in compendium])

    @property
    def dataset_names(self) -> list[str]:
        return [e.name for e in self._entries]

    @property
    def n_datasets(self) -> int:
        return len(self._entries)

    def nbytes(self) -> int:
        return self._arena.nbytes()

    def fingerprints(self) -> list[tuple[str, str | None]]:
        """Ordered ``(name, fingerprint)`` identity of every shard.

        This is the durable version token the multi-process serving pool
        compares against its own reopened store, so a stale worker index
        is detected (and resynced) rather than silently served.
        """
        return [(e.name, e.fingerprint) for e in self._entries]

    # -------------------------------------------------------- query resolution
    def _select(self, datasets: Sequence[str] | None) -> list[int]:
        """Shard indices a ``datasets`` filter admits (all, when ``None``)."""
        if datasets is None:
            return list(range(len(self._entries)))
        allowed = {str(d) for d in datasets}
        unknown = sorted(allowed - self._position.keys())
        if unknown:
            raise SearchError(f"unknown dataset(s) in filter: {unknown}")
        return sorted(self._position[d] for d in allowed)

    @staticmethod
    def _validate_query(query) -> list[str]:
        query = [str(g) for g in query]
        if not query:
            raise SearchError("query must contain at least one gene")
        if len(set(query)) != len(query):
            raise SearchError("query contains duplicate genes")
        return query

    def _locate(
        self, query: list[str], datasets: Sequence[str] | None
    ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """``(selected, slots, local)`` for a validated query.

        ``slots[k]`` is the universe slot of ``query[k]`` (-1 = never
        seen) and ``local[s, k]`` its row in the s-th selected shard
        (-1 = absent there): the one stacked table gather that replaces
        a bounds-checked probe per shard.
        """
        selected = self._select(datasets)
        slots = np.fromiter(
            (self._gene_slot.get(g, -1) for g in query),
            dtype=np.intp,
            count=len(query),
        )
        # an unknown gene's -1 reads some real column; mask it back out
        local = np.where(slots >= 0, self._row_table[:, slots], -1)
        if datasets is not None:
            local = local[selected]
        return selected, slots, local

    def _resolve(self, query, datasets: Sequence[str] | None):
        """Validate one search request down to what the kernel consumes:
        ``(query, query_used, query_missing, q_slots, selected, local)``,
        with membership judged against the selected shards only (a gene
        whose every dataset was removed or filtered out is missing)."""
        query = self._validate_query(query)
        selected, slots, local = self._locate(query, datasets)
        alive = (local >= 0).any(axis=0)
        query_used = tuple(g for g, a in zip(query, alive) if a)
        if not query_used:
            raise SearchError(f"no query gene exists in any dataset: {query}")
        query_missing = tuple(g for g, a in zip(query, alive) if not a)
        return query, query_used, query_missing, slots[alive], selected, local[:, alive]

    # ----------------------------------------------------------------- kernel
    def _score(
        self, selected: list[int], local: np.ndarray, scratch: ScoreScratch
    ) -> tuple[list[int], list[float], np.ndarray]:
        """The scoring kernel: the only code that multiplies shard values.

        ``local`` is :meth:`_locate`'s row table for the selected shards.
        Returns, parallel to ``selected``, the number of query genes
        present in and the coherence weight of each shard, plus the
        float64 score vectors of the positive-weight shards concatenated
        in ``selected`` order — exactly what :func:`rank_scores` (or a
        partials reply) consumes.  Per shard the Python work is a row
        gather and ``Q @ Q.T`` in the weight pass and ``Xn @ Q.T`` in the
        score pass; everything else runs once per query.
        """
        views = self._arena.views
        present = local >= 0
        n_present = present.sum(axis=1)
        weights = [0.0] * len(selected)
        q_rows: list = [None] * len(selected)  # each shard's Q, kept for the score pass

        # weight pass: shards with the same number of query genes present
        # (all of them, bar ragged compendia) share one (shards, p, p) Gram
        # buffer whose i<j pairs are Fisher-z'd and averaged in one go.
        # The reduce is a C-contiguous axis-1 mean, i.e. per row the same
        # pairwise sum np.mean takes over that shard's 1-D pair vector.
        for p in np.unique(n_present[n_present >= MIN_QUERY_PRESENT]).tolist():
            members = np.flatnonzero(n_present == p).tolist()
            grams = scratch.grams(len(members) * p * p, self.dtype).reshape(-1, p, p)
            for gram, s in zip(grams, members):
                rows = local[s] if p == local.shape[1] else local[s][present[s]]
                q_rows[s] = Q = views[selected[s]][rows]  # (p, cond) unit rows
                np.matmul(Q, Q.T, out=gram)
            pairs = np.take(grams.reshape(-1, p * p), _pair_index(p), axis=1)
            mean_r = np.tanh(fisher_z(pairs).mean(axis=1))
            for s, r in zip(members, mean_r.tolist()):
                weights[s] = max(0.0, r) ** 2

        # score pass: every positive-weight shard's all-gene correlations
        # land as a (genes, p) block in one pooled flat buffer, which is
        # clipped once and row-averaged once per run of equal p (one run,
        # bar ragged compendia).  The average adds the p columns left to
        # right and divides once: below 8 columns that is bit for bit
        # numpy's own mean(axis=1) (whose pairwise sum is a plain loop
        # there) at a fifth of its cost; from 8 query genes up numpy would
        # sum in 8 lanes, so this fixed order is the canonical one.
        scoring = [(views[i], Q) for i, Q, w in zip(selected, q_rows, weights) if w > 0.0]
        flat = scratch.flat(sum(v.shape[0] * Q.shape[0] for v, Q in scoring), self.dtype)
        pos = 0
        for view, Q in scoring:
            block = flat[pos : pos + view.shape[0] * Q.shape[0]].reshape(-1, Q.shape[0])
            np.matmul(view, Q.T, out=block)
            pos += block.size
        np.clip(flat, -1.0, 1.0, out=flat)
        scores = np.empty(sum(v.shape[0] for v, _ in scoring))
        pos = row = 0
        for p, run in groupby(scoring, key=lambda vq: vq[1].shape[0]):
            n_rows = sum(v.shape[0] for v, _ in run)
            block = flat[pos : pos + n_rows * p].reshape(n_rows, p)
            mean = scores[row : row + n_rows]
            np.add(block[:, 0], block[:, 1], out=mean, dtype=np.float64)
            for j in range(2, p):
                np.add(mean, block[:, j], out=mean)
            mean /= p
            pos += block.size
            row += n_rows
        return n_present.tolist(), weights, scores

    def _answer(
        self,
        resolved,
        scratch: ScoreScratch,
        *,
        exclude_query_from_genes: bool,
        top_k: int | None,
    ) -> SpellResult:
        """Score one :meth:`_resolve`d request and rank it."""
        query, query_used, query_missing, q_slots, selected, local = resolved
        n_present, weights, scores = self._score(selected, local, scratch)
        return rank_scores(
            self._slot_ids(),
            [self._global_rows[i] for i, w in zip(selected, weights) if w > 0.0],
            [w for w in weights if w > 0.0],
            scores,
            q_slots,
            [
                DatasetScore(self._entries[i].name, w, n)
                for i, w, n in zip(selected, weights, n_present)
            ],
            query=query,
            query_used=query_used,
            query_missing=query_missing,
            exclude_query_from_genes=exclude_query_from_genes,
            top_k=top_k,
        )

    # ----------------------------------------------------------------- search
    def search(
        self,
        query: list[str] | tuple[str, ...],
        *,
        exclude_query_from_genes: bool = True,
        top_k: int | None = None,
        datasets: list[str] | tuple[str, ...] | None = None,
    ) -> SpellResult:
        """SPELL search against the index; same output contract as the engine.

        ``top_k`` returns only the first ``k`` ranked genes (selected
        with ``argpartition``, bit-identical to the head of the full
        ranking) — the page-serving path, which skips sorting the whole
        gene universe.  ``result.total_genes`` still reports the full
        candidate count.  ``datasets`` restricts the search to the named
        shards: only they are weighted, only their genes aggregate, and
        query presence is judged against the filtered subset.
        """
        return self.search_batch(
            [BatchQuery(genes=tuple(query), top_k=top_k, datasets=datasets)],
            exclude_query_from_genes=exclude_query_from_genes,
        )[0]

    def search_batch(
        self,
        queries: Sequence[Sequence[str] | BatchQuery],
        *,
        exclude_query_from_genes: bool = True,
    ) -> list[SpellResult]:
        """Answer a batch: every member resolved first, then scored in turn.

        Each member may be a plain gene sequence or a :class:`BatchQuery`
        carrying its own ``top_k`` / ``datasets`` filter.  All-or-nothing:
        any invalid member raises, answering none of them.  Members run
        through the same kernel as :meth:`search` (which *is* a batch of
        one) on one pooled scratch, so results are bit-identical to
        per-member :meth:`search` by construction.
        """
        if not self._entries:
            raise SearchError("index is empty")
        specs = [
            q if isinstance(q, BatchQuery) else BatchQuery(genes=tuple(q))
            for q in queries
        ]
        resolved = [self._resolve(spec.genes, spec.datasets) for spec in specs]
        # try/finally: a failure mid-scoring (e.g. a bad top_k surfacing
        # in the ranking tail) must not strand the scratch and silently
        # regrow the pool query after failed query
        scratch = self._scratch.acquire()
        try:
            return [
                self._answer(
                    member,
                    scratch,
                    exclude_query_from_genes=exclude_query_from_genes,
                    top_k=spec.top_k,
                )
                for spec, member in zip(specs, resolved)
            ]
        finally:
            self._scratch.release(scratch)

    # --------------------------------------------------------------- partials
    def search_partials(
        self,
        query: list[str] | tuple[str, ...],
        *,
        datasets: Sequence[str] | None = None,
    ) -> list[DatasetPartial]:
        """Per-dataset contributions for the scatter-gather serving tier.

        Returns one :class:`~repro.spell.partials.DatasetPartial` per
        selected shard, in this index's shard order, *without* any
        cross-dataset aggregation: the coordinator replays the canonical
        accumulation itself (see :mod:`repro.spell.partials`), which is
        what keeps sharded rankings bit-identical to single-node search.
        Each partial's score vector is the kernel's own output for that
        dataset — a window of the very array :meth:`search` would
        accumulate.

        Unlike :meth:`search`, a query with *no* gene in this shard is
        legal (the genes may live on other shards); it simply yields
        zero-weight partials.
        """
        if not self._entries:
            raise SearchError("index is empty")
        selected, _, local = self._locate(self._validate_query(query), datasets)
        scratch = self._scratch.acquire()
        try:
            n_present, weights, scores = self._score(selected, local, scratch)
        finally:
            self._scratch.release(scratch)
        partials = []
        pos = 0
        for i, w, n in zip(selected, weights, n_present):
            entry, own = self._entries[i], None
            if w > 0.0:
                own = scores[pos : pos + len(entry.gene_ids)]
                pos += len(entry.gene_ids)
            partials.append(DatasetPartial(entry.name, entry.fingerprint, n, w, own))
        return partials

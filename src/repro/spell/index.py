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
arrays, cut into *runs* of adjacent equal-shape windows, each handed
out as one zero-copy ``(shards, genes, conditions)`` array.  Shards
reopened from the persistent store stay memory-mapped (fusing would
fault in every page and destroy the zero-copy cold start), each its own
mapping and so a run of one: one code path over ``ShardArena.span``.

One kernel, :meth:`SpellIndex._score`, is the only place shard values
are multiplied; ``search``, ``search_batch`` and ``search_partials`` all
end in it.  It scores a *block*: members of a batch that select the same
shards and hold the same number of query genes in each, stacked
(``search`` and ``search_partials`` are the block of one).  The work
splits three ways.

**Per run** — the BLAS calls and nothing else.  A run of the block is a
maximal span of selected datasets, consecutive in one arena run, holding
the same number of query genes: one gather of the members' query rows
``Q``, one stacked ``Q @ Q.T`` and one stacked ``Xn @ Q_all.T`` over the
members it weighs positively anywhere (unused columns are dropped).  A
lone FIG4 query is one run of 40 datasets, two ``np.matmul`` calls and so
two GIL hand-offs; on an mmap store every run is one dataset.

**Per block** — everything between the BLAS calls, across all selected
datasets at once: the ``i < j`` Gram entries are Fisher-z'd, averaged
and squared into weights as one ``(datasets * members, pairs)`` array;
the flat buffer is clipped and row-averaged in L2-sized pieces.  None
of it sits in the run loop, which is what keeps the block of one as
cheap as a kernel written for one query.

**Per member** — what has no shared structure: one gather from the
stacked slot->row table says where every query gene sits in every shard
(:meth:`repro.spell.partials.GeneUniverse.resolve`), and the rank tail
(:func:`repro.spell.partials.rank_scores`: three ``np.bincount``
accumulators, the sort) runs on the member's own score vector, sliced
out of the block's.  That tail is now the largest stage of a batch.

Dispatch matters twice on a serving thread: each NumPy call is overhead
larger than the arithmetic it wraps, and each is a GIL hand-off point
for the next handler thread to convoy on.

Stacking changes no bit.  numpy's matmul calls the same BLAS routine
(``syrk`` for a Gram, ``gemm`` for scores) for each 2-D slice, with that
slice's shapes and strides, and every element of ``Xn @ Q_all.T`` is
the same dot product over the same conditions as in ``Xn @ Q.T`` — BLAS
blocks over rows and columns, never differently along the reduction for
a wider right-hand side (asserted, not assumed: ``tests/test_spell_kernel.py``
holds every member of batches of 1 to 70 to :meth:`search` and to the
textbook loop on fused, mmap and appended indexes, with BLAS threading
on and off).  Three reductions fix the float order,
and each is the one a textbook per-dataset loop performs (the executable
spec in that file holds the kernel to the loop bit for bit): the pair
mean is a C-contiguous axis-1 ``mean`` — per row the very sum
``np.mean`` takes over one member's 1-D pair vector in one dataset; the
score mean adds a gene's ``q`` correlations left to right and divides
once — what ``mean(axis=1)`` does below 8 query genes, and the
canonical order from 8 up, where numpy would sum in 8 lanes (the spec
bounds that difference); and ``bincount`` walks the concatenated
contributions front to back, so each gene's slot receives its datasets'
terms in compendium order starting from ``0.0``, exactly like a
per-dataset ``totals[slots] += weight * scores``.

:meth:`search_batch` resolves (and so validates) every member, groups
them into blocks (:meth:`SpellIndex._blocks`) and sends each block
through the kernel on one pooled scratch; ragged compendia and
per-member ``datasets`` filters make blocks narrower, never a second
code path, and :meth:`search` *is* a batch of one — so batch rankings
are bit-identical to per-query rankings by construction, not by
parallel maintenance of two loops.  A block holds at most
``BLOCK_COLUMNS`` query-gene columns, so the pooled scratch — the pair
buffer and the flat matmul buffer, ``Σ genes × columns`` elements — is
sized by the index and the block, never by how long a batch is; results
never alias it (the accumulators are fresh ``bincount`` outputs).

An index is a value: :meth:`build`, :meth:`updated` and the store load
are the only ways to get one, and nothing mutates it afterwards.  Each
dataset's shard is independent, so :meth:`build` fans normalization over
``parallel_map`` and :meth:`updated` — the maintenance path — returns a
new index that shares every unchanged shard and normalizes only what the
compendium gained, while threads still searching the old one stay
consistent.  The gene universe under it
(:class:`~repro.spell.partials.GeneUniverse`, which also judges every
query) is derived afresh for each index, so it holds exactly the live
genes.  Shards carry their source dataset's content fingerprint, which
is what the persistent store (:mod:`repro.spell.store`) uses to rewrite
only stale shards and what :meth:`updated` falls back on to reuse shards
across processes (where object identity is useless).

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
from repro.spell.partials import (
    DatasetPartial,
    GeneUniverse,
    Resolved,
    checked_query,
    rank_scores,
)
from repro.stats.correlation import fisher_z
from repro.util.errors import SearchError, ValidationError

__all__ = ["SpellIndex", "BatchQuery"]

#: Shard dtypes the index (and its on-disk store) supports.
SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

#: Query-gene columns one kernel block may hold: a batch's members go
#: through :meth:`SpellIndex._score` this many columns at a time, so the
#: kernel's workspace is bounded by the index, not by the batch length.
#: Wide enough that dispatch is amortised (per-member cost is flat from
#: eight four-gene members up) and, on the FIG4 shape, narrow enough that
#: a block's ``(600, 20) @ (20, columns)`` stays single-threaded in
#: OpenBLAS: from ~44 columns it takes a second thread, and on two cores
#: the hand-off makes a 30 us product (and whatever runs next to the
#: spinning thread) three to four times slower.
BLOCK_COLUMNS = 32

#: Score-buffer elements one clip-and-mean pass covers (1 MiB of float64).
MEAN_ELEMENTS = 1 << 17


@lru_cache(maxsize=64)
def _pair_index(p: int) -> np.ndarray:
    """Flat positions of the ``i < j`` pairs of a ``(p, p)`` Gram matrix,
    in ``np.triu_indices`` (row-major) order."""
    i, j = np.triu_indices(p, k=1)
    index = i * p + j
    index.setflags(write=False)  # one cached array serves every query
    return index


@lru_cache(maxsize=64)
def _ladder(r: int) -> np.ndarray:
    """``(r, 1, 1)`` shard positions, to gather a run's ``(r, members, p)`` rows."""
    ladder = np.arange(r).reshape(r, 1, 1)
    ladder.setflags(write=False)  # one cached array serves every query
    return ladder


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
    """Search index over a compendium snapshot: immutable, shard by shard.

    Build with :meth:`build` (optionally parallel across datasets);
    ``search`` answers queries without touching the raw datasets again.
    The index does not *watch* the compendium — callers keep current
    through :meth:`updated`, which returns a new index sharing unchanged
    shards, safe to swap in while other threads keep searching the old
    one (the discipline ``SpellService`` uses).
    """

    def __init__(self, entries: list[_DatasetIndex]) -> None:
        if not entries:
            raise SearchError("index is empty")
        self._entries = list(entries)
        self.dtype = np.dtype(self._entries[0].normalized.dtype)
        if self.dtype not in SUPPORTED_DTYPES:
            raise ValidationError(f"unsupported shard dtype {self.dtype}")
        #: the gene universe of these shards and the judge of every query:
        #: aggregation runs over dense arrays indexed by universe slot, and
        #: the slot tables are index-local so shards can be shared between
        #: indexes (copy-on-write updates)
        self.universe = GeneUniverse([(e.name, e.gene_ids) for e in self._entries])
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

    # ----------------------------------------------------------------- kernel
    def _score(
        self,
        selected: list[int],
        local: np.ndarray,
        n_present: list[int],
        scratch: ScoreScratch,
    ) -> tuple[list[list[float]], list[np.ndarray]]:
        """The scoring kernel: the only code that multiplies shard values.

        ``local`` stacks the ``GeneUniverse.locate`` row tables of a *block* of
        members, shard-major: ``local[s, m, k]`` is the row of member
        ``m``'s k-th query gene in the s-th selected shard.  Every member
        holds ``n_present[s]`` of its query genes in that shard (what
        :meth:`_blocks` groups by), so per shard their rows stack.
        Returns, per member, the coherence weight of every shard
        (parallel to ``selected``) and the float64 score vectors of that
        member's positive-weight shards concatenated in ``selected``
        order — exactly what :func:`rank_scores` (or a partials reply)
        consumes.  Per run of the block (see the module docstring) the Python
        work is one row gather and one stacked ``Q @ Q.T`` in the weight pass
        and one stacked ``Xn @ Q_all.T`` in the score pass; the rest is per block.
        """
        arena = self._arena
        n_shards, n_members, q = local.shape
        weights = [[0.0] * n_shards for _ in range(n_members)]
        runs: list[list] = []  # [first, end, p, span, stacked Q] over positions in selected
        last = [-1, -1, -1]
        for s, (i, p) in enumerate(zip(selected, n_present)):
            if p < MIN_QUERY_PRESENT:
                continue
            # s extends the last run: its next view in the arena and in selected, same p
            if not (arena.continues[i] and selected[s - 1] == i - 1 and last[1:] == [s, p]):
                runs.append(last := [s, s, p])
            last[1] = s + 1

        # weight pass: runs holding the same number of query genes (all of
        # them, bar ragged compendia) share one (shards, members, p, p)
        # Gram buffer whose i<j pairs are Fisher-z'd and averaged in one
        # go.  The reduce is a C-contiguous axis-1 mean, i.e. per row the
        # same pairwise sum np.mean takes over one member's 1-D pair
        # vector in one shard.
        for p in sorted({run[2] for run in runs}):
            of_p = [run for run in runs if run[2] == p]
            shards = [s for first, end, _ in of_p for s in range(first, end)]
            grams = scratch.grams(len(shards) * n_members * p * p, self.dtype)
            grams = grams.reshape(-1, n_members, p, p)
            done = 0
            for run in of_p:
                first, end, _ = run
                rows = local[first:end]
                if p < q:
                    rows = rows[rows >= 0].reshape(end - first, n_members, p)
                X = arena.span(selected[first], end - first)
                Q = X[_ladder(end - first), rows]  # (shards, members, p, cond) unit rows
                np.matmul(Q, Q.swapaxes(2, 3), out=grams[done : done + end - first])
                done += end - first
                run += (X, Q)
            pairs = grams.reshape(-1, p * p).take(_pair_index(p), axis=1)
            mean_r = np.tanh(fisher_z(pairs).mean(axis=1)).reshape(-1, n_members)
            for member_weights, column in zip(weights, mean_r.T.tolist()):
                for s, r in zip(shards, column):
                    member_weights[s] = max(0.0, r) ** 2

        # score pass: per run, the all-gene correlations of the members it
        # weighs positively anywhere land as one (shards, genes, members * p)
        # block in the pooled flat buffer, clipped and row-averaged per
        # stretch of equal p (one, bar ragged compendia) as (rows, p).
        # The average adds the p columns left to right and divides once:
        # below 8 columns that is bit for bit numpy's own mean(axis=1) (whose
        # pairwise sum is a plain loop there) at a fifth of its cost; from 8
        # query genes up numpy would sum in 8 lanes, so this fixed order is
        # the canonical one.
        by_shard = list(zip(*weights))
        n_weighed = [n_members - column.count(0.0) for column in by_shard]
        everyone = list(range(n_members))
        scoring = []  # (first, span, stacked Q of the members weighed positively, those members)
        for first, end, p, X, Q in runs:
            members = everyone
            if max(n_weighed[first:end]) < n_members:
                members = [m for m, ws in enumerate(zip(*by_shard[first:end])) if any(ws)]
                if 0 < len(members) < n_members:
                    Q = Q[:, members]
            if members:
                scoring.append((first, X, Q, members))
        n_rows = [X.shape[0] * X.shape[1] * len(members) for _, X, _, members in scoring]
        flat = scratch.flat(sum(n * e[2].shape[2] for n, e in zip(n_rows, scoring)), self.dtype)
        pos = 0
        for (_, X, Q, _), n in zip(scoring, n_rows):
            columns = Q.shape[1] * Q.shape[2]
            block = flat[pos : pos + n * Q.shape[2]].reshape(X.shape[0], -1, columns)
            np.matmul(X, Q.reshape(X.shape[0], columns, -1).swapaxes(1, 2), out=block)
            pos += block.size
        means = np.empty(sum(n_rows))
        pos = row = 0
        for p, stretch in groupby(zip(n_rows, scoring), key=lambda entry: entry[1][2].shape[2]):
            end, step = row + sum(n for n, _ in stretch), MEAN_ELEMENTS // p
            for row in range(row, end, step):  # pieces that stay in L2 from clip to mean
                mean = means[row : min(row + step, end)]
                block = flat[pos : pos + mean.size * p]
                pos += block.size
                np.clip(block, -1.0, 1.0, out=block)
                block = block.reshape(-1, p)
                np.add(block[:, 0], block[:, 1], out=mean, dtype=np.float64)
                for j in range(2, p):
                    np.add(mean, block[:, j], out=mean)
                mean /= p
            row = end

        # a scored shard's means sit gene-major, (genes, members), shard after
        # shard: a member's windows over consecutive scored shards of the same
        # width join into one strided window, and several windows concatenate
        windows: list[list[list[int]]] = [[] for _ in range(n_members)]  # [start, stop, step]
        row = 0
        for first, X, _, members in scoring:
            size = X.shape[1] * len(members)
            for column in by_shard[first : first + X.shape[0]]:
                for j, m in enumerate(members):
                    own = windows[m]
                    if column[m] > 0.0 and own and own[-1][1:] == [row + j, len(members)]:
                        own[-1][1] += size
                    elif column[m] > 0.0:
                        own.append([row + j, row + j + size, len(members)])
                row += size
        slices = [[means[a:b:c] for a, b, c in own] for own in windows]
        return weights, [
            own[0] if len(own) == 1 else np.concatenate(own or [means[:0]]) for own in slices
        ]

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

    @staticmethod
    def _blocks(resolved: list[Resolved]) -> list[list[int]]:
        """Batch positions grouped into kernel blocks.

        Members stack when they select the same shards and hold the same
        number of query genes in each of them — all members of one query
        size, on a compendium whose datasets share their genes; a ragged
        compendium or per-member ``datasets`` filters make the groups
        narrower, down to one member, never different.  A group is cut
        into runs of at most ``BLOCK_COLUMNS`` query-gene columns, which
        is what bounds the kernel's workspace whatever the batch length.
        """
        groups: dict[tuple, list[int]] = {}
        for position, member in enumerate(resolved):
            key = (member.local.shape[1], tuple(member.selected), tuple(member.n_present))
            groups.setdefault(key, []).append(position)
        blocks = []
        for (q, _, _), positions in groups.items():
            width = max(1, BLOCK_COLUMNS // q)
            blocks += [positions[i : i + width] for i in range(0, len(positions), width)]
        return blocks

    def search_batch(
        self,
        queries: Sequence[Sequence[str] | BatchQuery],
        *,
        exclude_query_from_genes: bool = True,
    ) -> list[SpellResult]:
        """Answer a batch: every member resolved first, then scored in blocks.

        Each member may be a plain gene sequence or a :class:`BatchQuery`
        carrying its own ``top_k`` / ``datasets`` filter.  All-or-nothing:
        any invalid member raises, answering none of them.  Members that
        stack (:meth:`_blocks`) go through the kernel together — one pass
        over the shards per block, on one pooled scratch — and are then
        ranked one by one.  :meth:`search` *is* a batch of one through the
        same kernel, and every member's result is bit-identical to its
        :meth:`search`, whatever it was stacked with.
        """
        specs = [
            q if isinstance(q, BatchQuery) else BatchQuery(genes=tuple(q))
            for q in queries
        ]
        universe = self.universe
        resolved = [universe.resolve(spec.genes, spec.datasets) for spec in specs]
        slot_gene, rows = universe.slot_gene, universe.rows
        results: list = [None] * len(specs)
        # try/finally: a failure mid-scoring (e.g. a bad top_k surfacing
        # in the ranking tail) must not strand the scratch and silently
        # regrow the pool query after failed query
        scratch = self._scratch.acquire()
        try:
            for block in self._blocks(resolved):
                first = resolved[block[0]]
                selected, n_present = first.selected, first.n_present
                local = np.array([resolved[m].local for m in block]).transpose(1, 0, 2)
                weights, scores = self._score(selected, local, n_present, scratch)
                for m, member_weights, member_scores in zip(block, weights, scores):
                    member = resolved[m]
                    results[m] = rank_scores(
                        slot_gene,
                        [rows[i] for i, w in zip(selected, member_weights) if w > 0.0],
                        [w for w in member_weights if w > 0.0],
                        member_scores,
                        member.q_slots,
                        [
                            DatasetScore(self._entries[i].name, w, n)
                            for i, w, n in zip(selected, member_weights, n_present)
                        ],
                        query=member.query,
                        query_used=member.query_used,
                        query_missing=member.query_missing,
                        exclude_query_from_genes=exclude_query_from_genes,
                        top_k=specs[m].top_k,
                    )
        finally:
            self._scratch.release(scratch)
        return results

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
        selected, _, local = self.universe.locate(checked_query(query), datasets)
        n_present = (local >= 0).sum(axis=1).tolist()
        scratch = self._scratch.acquire()
        try:
            (weights,), (scores,) = self._score(
                selected, local[:, np.newaxis], n_present, scratch
            )
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

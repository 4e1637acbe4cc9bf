"""The SPELL search engine (Serial Patterns of Expression Levels Locator).

Paper §3: "take a small query of related genes from a user, examine all
of the available data to identify datasets where these genes are most
related, then within those datasets identify additional genes that
relate back to the query set."

Algorithm (following Hibbs et al. 2007):

1. **Dataset weighting** — for each dataset, the weight is the mean
   pairwise Pearson correlation among the query genes present there
   (Fisher-z averaged, floored at zero, squared to sharpen the
   contrast between informative and uninformative datasets).
2. **Per-dataset gene scoring** — each gene's score in a dataset is its
   mean correlation to the query genes present.
3. **Aggregation** — a gene's final score is the weight-normalized sum
   of its per-dataset scores over the datasets containing it.

Output is the pair of rankings the paper shows in Figure 4: datasets by
weight, genes by aggregate score.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.data.compendium import Compendium
from repro.stats.correlation import fisher_z, pearson_matrix, pearson_to_vector
from repro.util.errors import SearchError
from repro.parallel.pmap import parallel_map

__all__ = [
    "DatasetScore",
    "GeneScore",
    "GeneTable",
    "ranked_gene_table",
    "SpellResult",
    "SpellEngine",
]

#: A dataset needs this many query genes present to receive a weight.
MIN_QUERY_PRESENT = 2

#: The page memo of a :class:`GeneTable` that has served no cache hit.
NO_PAGES: Mapping = MappingProxyType({})


@dataclass(frozen=True)
class DatasetScore:
    name: str
    weight: float
    n_query_present: int


@dataclass(frozen=True)
class GeneScore:
    gene_id: str
    score: float
    n_datasets: int  # datasets (with positive weight) that scored this gene


class GeneTable(SequenceABC):
    """Array-backed ranked gene list (the hot-path result representation).

    Aggregation produces parallel NumPy arrays; this container keeps them
    that way instead of materializing one :class:`GeneScore` per gene.
    It still *behaves* like a sequence of ``GeneScore`` — ``len``,
    iteration, integer indexing and slicing all work — so every existing
    consumer of ``SpellResult.genes`` keeps working, but ranking and
    pagination never touch per-gene Python objects.

    ``total`` is the number of candidate genes in the full ranking:
    equal to ``len(self)`` for complete results, larger when the table
    was truncated by a top-k query.

    ``encoded`` is the export memo: ``None``, or ``(chunk_size,
    exportable, lines, checksum, trailers)`` — the ranking cut at one
    ``chunk_size`` as ready NDJSON chunk lines, the ``sha256:`` checksum
    of all of them, and the trailer lines warm exports of it were
    answered with: at most
    :data:`~repro.spell.backend.PAGES_PER_RANKING`, keyed ``(query as
    sent, top_datasets)`` and cut around ``elapsed_seconds``
    (:class:`~repro.spell.backend.ExportCursor` builds and reads it).
    The arrays never change, so the bytes are derived once and live
    exactly as long as the table: in the result cache, until the entry
    is evicted or the compendium version moves on.  It is never pickled
    — a worker's reply and a loaded copy carry the arrays only.

    ``pages`` is the page memo beside it, with the same lifetime: the
    :class:`~repro.api.protocol.SearchResponse` bodies cache hits on
    this ranking were answered with, keyed ``(query as sent, page,
    page_size, top_datasets)`` and cut around ``elapsed_seconds`` by the
    same rule (:func:`~repro.api.protocol.elapsed_parts`;
    :meth:`~repro.spell.backend.SearchBackend.respond_cached` fills and
    reads it).  Both memos are replaced, never mutated, so a reader on
    another thread or on an event loop needs no lock.
    """

    __slots__ = ("ids", "scores", "n_datasets", "total", "encoded", "pages")

    def __init__(self, ids, scores, n_datasets, *, total: int | None = None) -> None:
        ids = np.asarray(ids)
        if ids.size == 0 and ids.dtype.kind not in ("U", "S", "O"):
            ids = ids.astype("U1")
        scores = np.asarray(scores, dtype=np.float64)
        n_ds = np.asarray(n_datasets, dtype=np.int64)
        if not (ids.shape == scores.shape == n_ds.shape) or ids.ndim != 1:
            raise SearchError(
                f"gene table arrays must be parallel 1-D, got shapes "
                f"{ids.shape}/{scores.shape}/{n_ds.shape}"
            )
        self.ids = ids
        self.scores = scores
        self.n_datasets = n_ds
        self.total = len(ids) if total is None else int(total)
        self.encoded = None
        self.pages = NO_PAGES

    def __getstate__(self):
        # the arrays only, in the form a slotted object pickles by default
        return None, {
            "ids": self.ids, "scores": self.scores,
            "n_datasets": self.n_datasets, "total": self.total,
        }

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self.encoded = None
        self.pages = NO_PAGES

    def encoded_bytes(self) -> int:
        """Bytes held by the export and page memos (0 when there are none)."""
        held = sum(len(head) + len(tail) for head, tail in self.pages.values())
        if self.encoded is not None:
            _, _, lines, _, trailers = self.encoded
            held += sum(map(len, lines))
            held += sum(len(head) + len(tail) for head, tail in trailers.values())
        return held

    @classmethod
    def from_scores(
        cls, scores: Iterable[GeneScore], *, total: int | None = None
    ) -> "GeneTable":
        """Build from materialized :class:`GeneScore` objects (slow path)."""
        scores = list(scores)
        return cls(
            np.asarray([g.gene_id for g in scores]),
            np.asarray([g.score for g in scores], dtype=np.float64),
            np.asarray([g.n_datasets for g in scores], dtype=np.int64),
            total=total,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return GeneTable(
                self.ids[key], self.scores[key], self.n_datasets[key], total=self.total
            )
        i = int(key)
        return GeneScore(
            gene_id=str(self.ids[i]),
            score=float(self.scores[i]),
            n_datasets=int(self.n_datasets[i]),
        )

    def __iter__(self):
        for gid, score, n in zip(self.ids, self.scores, self.n_datasets):
            yield GeneScore(gene_id=str(gid), score=float(score), n_datasets=int(n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneTable):
            return NotImplemented
        return (
            self.total == other.total
            and len(self) == len(other)
            and bool(np.array_equal(self.ids, other.ids))
            and bool(np.array_equal(self.scores, other.scores))
            and bool(np.array_equal(self.n_datasets, other.n_datasets))
        )

    def __hash__(self):
        return hash((self.total, len(self)))  # equal tables hash equal; cheap

    def ranking(self) -> list[str]:
        return [str(g) for g in self.ids]

    def rows(self, start: int, stop: int) -> list[tuple[int, str, float]]:
        """``(rank, gene_id, score)`` rows for the half-open slice
        ``[start, stop)``, with 1-based *global* ranks.

        Array-native: two ``tolist()`` calls instead of materializing a
        :class:`GeneScore` per row — the streaming-export hot path,
        where a deep result walks the whole table.  Values are
        bit-identical to iterating ``self[start:stop]`` (``tolist`` and
        ``float()``/``str()`` produce the same Python scalars).
        """
        start = max(0, int(start))
        ids = self.ids[start:stop].tolist()
        scores = self.scores[start:stop].tolist()
        return [
            (start + i + 1, str(gid), float(score))
            for i, (gid, score) in enumerate(zip(ids, scores))
        ]

    def __repr__(self) -> str:
        return f"GeneTable({len(self)} of {self.total} genes)"


def ranked_gene_table(
    ids: np.ndarray,
    scores: np.ndarray,
    n_datasets: np.ndarray,
    *,
    top_k: int | None = None,
) -> GeneTable:
    """Rank candidate genes by ``(-score, gene_id)`` entirely in NumPy.

    ``top_k=None`` sorts everything (one ``lexsort``); otherwise only the
    top ``k`` rows are selected with :func:`np.argpartition` and just
    those are sorted.  Candidates tied with the k-th score are all kept
    through the final sort, so the truncated table is bit-identical to
    the head of the full ranking regardless of partition order.
    """
    ids = np.asarray(ids)
    scores = np.asarray(scores, dtype=np.float64)
    n_datasets = np.asarray(n_datasets)
    n = scores.shape[0]
    if top_k is not None:
        top_k = int(top_k)
        if top_k < 0:
            raise SearchError(f"top_k must be >= 0, got {top_k}")
        if top_k == 0:
            return GeneTable(ids[:0], scores[:0], n_datasets[:0], total=n)
    if top_k is None or top_k >= n:
        order = np.lexsort((ids, -scores))
    else:
        neg = -scores
        kth = np.partition(neg, top_k - 1)[top_k - 1]
        cand = np.flatnonzero(neg <= kth)
        order = cand[np.lexsort((ids[cand], neg[cand]))][:top_k]
    return GeneTable(ids[order], scores[order], n_datasets[order], total=n)


@dataclass(frozen=True)
class SpellResult:
    """Ordered datasets + ordered genes for one query (Figure 4's output)."""

    query: tuple[str, ...]
    query_used: tuple[str, ...]  # query genes found in >= 1 dataset
    query_missing: tuple[str, ...]
    datasets: tuple[DatasetScore, ...]  # sorted by weight, descending
    genes: GeneTable  # by score desc; query excluded

    def top_genes(self, n: int) -> list[str]:
        return [g.gene_id for g in self.genes[:n]]

    def top_datasets(self, n: int) -> list[str]:
        return [d.name for d in self.datasets[:n]]

    def gene_ranking(self) -> list[str]:
        return self.genes.ranking()

    def dataset_ranking(self) -> list[str]:
        return [d.name for d in self.datasets]

    @property
    def total_genes(self) -> int:
        """Candidate genes in the full ranking (>= ``len(genes)`` for top-k)."""
        return self.genes.total


class SpellEngine:
    """Query-driven search over a :class:`Compendium`.

    ``n_workers > 1`` scores datasets concurrently (NumPy releases the
    GIL in the correlation matmuls, so threads give real parallelism).
    """

    def __init__(self, compendium: Compendium, *, n_workers: int = 1) -> None:
        if len(compendium) == 0:
            raise SearchError("cannot search an empty compendium")
        self.compendium = compendium
        self.n_workers = max(1, int(n_workers))

    # ------------------------------------------------------------------ query
    def search(
        self,
        query: Sequence[str],
        *,
        exclude_query_from_genes: bool = True,
        min_weight: float = 0.0,
        top_k: int | None = None,
        datasets: Sequence[str] | None = None,
    ) -> SpellResult:
        """Run one SPELL search; see module docstring for the algorithm.

        ``top_k`` truncates the gene ranking to its first ``k`` rows
        (selected with ``argpartition``, bit-identical to the head of the
        full ranking); the full candidate count stays available as
        ``result.total_genes``.  ``datasets`` restricts the search to the
        named datasets (in compendium order) — only they are weighted and
        only their genes are scored.
        """
        query = [str(g) for g in query]
        if not query:
            raise SearchError("query must contain at least one gene")
        if len(set(query)) != len(query):
            raise SearchError("query contains duplicate genes")
        targets = list(self.compendium)
        if datasets is not None:
            allowed = {str(d) for d in datasets}
            unknown = sorted(allowed - {ds.name for ds in targets})
            if unknown:
                raise SearchError(f"unknown dataset(s) in filter: {unknown}")
            targets = [ds for ds in targets if ds.name in allowed]
        present_anywhere = {
            g for g in query if any(g in ds.matrix for ds in targets)
        }
        query_used = tuple(g for g in query if g in present_anywhere)
        query_missing = tuple(g for g in query if g not in present_anywhere)
        if not query_used:
            raise SearchError(f"no query gene exists in any dataset: {query}")

        per_dataset = parallel_map(
            lambda ds: self._score_dataset(ds, query_used),
            targets,
            n_workers=self.n_workers,
        )

        dataset_scores = tuple(
            sorted(
                (entry[0] for entry in per_dataset),
                key=lambda d: (-d.weight, d.name),
            )
        )

        # aggregate gene scores across positively-weighted datasets: dense
        # scatter-add over a query-local gene universe (the same discipline
        # the index uses) instead of a per-gene Python dict loop, which
        # dominated engine query time on large universes
        contributing = [
            (ds_score.weight, gene_ids, scores)
            for ds_score, gene_ids, scores in per_dataset
            if ds_score.weight > min_weight and gene_ids is not None
        ]
        if contributing:
            id_arrays = [np.asarray(gene_ids, dtype=str) for _, gene_ids, _ in contributing]
            uniq, inv = np.unique(np.concatenate(id_arrays), return_inverse=True)
            inv = np.asarray(inv, dtype=np.intp)
            n_slots = uniq.shape[0]
            totals = np.zeros(n_slots)
            weight_mass = np.zeros(n_slots)
            counts = np.zeros(n_slots, dtype=np.int64)
            offset = 0
            for (w, _, scores), ids_arr in zip(contributing, id_arrays):
                slots = inv[offset : offset + ids_arr.shape[0]]
                offset += ids_arr.shape[0]
                scores = np.asarray(scores, dtype=np.float64)
                valid = ~np.isnan(scores)
                hit = slots[valid]  # gene ids are unique per dataset: += is safe
                totals[hit] += w * scores[valid]
                weight_mass[hit] += w
                counts[hit] += 1
            scored = np.flatnonzero(counts)
            if exclude_query_from_genes:
                scored = scored[~np.isin(uniq[scored], tuple(query_used))]
            ids = uniq[scored]
            with np.errstate(invalid="ignore", divide="ignore"):
                raw_scores = totals[scored] / weight_mass[scored]
            n_ds = counts[scored]
        else:
            ids = np.asarray([], dtype=str)
            raw_scores = np.asarray([], dtype=np.float64)
            n_ds = np.asarray([], dtype=np.int64)
        return SpellResult(
            query=tuple(query),
            query_used=query_used,
            query_missing=query_missing,
            datasets=dataset_scores,
            genes=ranked_gene_table(ids, raw_scores, n_ds, top_k=top_k),
        )

    def search_iterative(
        self, query: Sequence[str], *, rounds: int = 2, grow_by: int = 1
    ) -> SpellResult:
        """Directed search: grow the query with its own top hits and re-search.

        Each round appends the ``grow_by`` highest-scoring non-query genes
        and repeats; the final result is reported against the *original*
        query (the paper's "iteratively adjust the viewed gene subsets in
        tandem with statistical analysis").
        """
        if rounds < 1:
            raise SearchError(f"rounds must be >= 1, got {rounds}")
        current = list(dict.fromkeys(str(g) for g in query))
        result = self.search(current)
        for _ in range(rounds - 1):
            additions = [g.gene_id for g in result.genes[:grow_by]]
            if not additions:
                break
            current.extend(a for a in additions if a not in current)
            result = self.search(current)
        # re-attribute to the original query for reporting
        genes = result.genes
        keep = ~np.isin(genes.ids, np.asarray([str(g) for g in query]))
        return SpellResult(
            query=tuple(str(g) for g in query),
            query_used=result.query_used,
            query_missing=result.query_missing,
            datasets=result.datasets,
            genes=GeneTable(genes.ids[keep], genes.scores[keep], genes.n_datasets[keep]),
        )

    # -------------------------------------------------------------- internals
    def _score_dataset(
        self, dataset, query_used: tuple[str, ...]
    ) -> tuple[DatasetScore, list[str] | None, np.ndarray | None]:
        """Weight one dataset and score all its genes against the query."""
        matrix = dataset.matrix
        present = [g for g in query_used if g in matrix]
        if len(present) < MIN_QUERY_PRESENT:
            return DatasetScore(dataset.name, 0.0, len(present)), None, None
        rows = matrix.indices_of(present)
        qdata = matrix.values[np.asarray(rows, dtype=np.intp)]

        # (1) coherence weight: mean pairwise query correlation, z-averaged
        qcorr = pearson_matrix(qdata)
        iu = np.triu_indices(len(present), k=1)
        pair_corrs = qcorr[iu]
        pair_corrs = pair_corrs[~np.isnan(pair_corrs)]
        if pair_corrs.size == 0:
            return DatasetScore(dataset.name, 0.0, len(present)), None, None
        mean_r = float(np.tanh(np.mean(fisher_z(pair_corrs))))
        weight = max(0.0, mean_r) ** 2

        # (2) per-gene mean correlation to the query genes
        corr_sum = np.zeros(matrix.n_genes)
        corr_n = np.zeros(matrix.n_genes)
        for r in rows:
            c = pearson_to_vector(matrix.values, matrix.values[r])
            valid = ~np.isnan(c)
            corr_sum[valid] += c[valid]
            corr_n[valid] += 1
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = corr_sum / corr_n
        scores[corr_n == 0] = np.nan
        return DatasetScore(dataset.name, weight, len(present)), matrix.gene_ids, scores

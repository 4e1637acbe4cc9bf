"""Per-dataset score partials and their exact scatter-gather merge.

The SPELL aggregate is a per-dataset weighted mean: each dataset
contributes an independent ``(weight, score vector)`` pair, and the
final gene score is ``Σ w_d · s_d / Σ w_d`` over the datasets containing
the gene.  That makes dataset-sharded serving *exact* — but bit-exact
only if the float additions happen in the same order as the single-node
loop.  Pre-summed per-shard accumulators would regroup the additions
(``(a + c) + b ≠ (a + b) + c`` in floats), so shards instead return the
**per-dataset** contributions (:class:`DatasetPartial`) and the
coordinator replays the canonical accumulation: concatenate the
contributions in compendium order and hand them to :func:`rank_scores`
— the one accumulate/rank tail, which
:meth:`repro.spell.index.SpellIndex.search` ends in too.  The
per-dataset score vector itself is deterministic for given shard values
(one matmul, one fixed-order mean), so *where* it is computed cannot
change it.

:class:`GeneUniverse` is the judge of a query — the one place that
decides which datasets a ``datasets`` filter admits and which query genes
exist in them.  It is built from dataset gene lists alone, no matrices:
the slot table (one ``np.unique``), each dataset's slot rows and the
stacked slot -> row table.  :class:`~repro.spell.index.SpellIndex` holds
one under its shards and the sharded router holds one over its catalog,
so a query gets the same verdict — and the same typed error — wherever
it is asked.  The merge is a pure function of (universe, contributions),
which is what makes determinism under shard reply reordering testable
without any transport in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.spell.engine import DatasetScore, SpellResult, ranked_gene_table
from repro.util.errors import SearchError, UnknownDatasetError, UnknownGeneError

__all__ = ["DatasetPartial", "GeneUniverse", "Resolved", "checked_query", "rank_scores"]


@dataclass(frozen=True)
class DatasetPartial:
    """One dataset's contribution to one query.

    ``scores`` aligns with the dataset's gene-id order (the coordinator
    knows that order from its catalog) and is ``None`` exactly when the
    dataset does not contribute (``weight == 0``) — too few query genes
    present, or non-positive query coherence.  ``fingerprint`` is the
    content hash of the dataset the shard actually scored, which the
    coordinator verifies against its catalog before merging: a partial
    from stale data is refused, never folded in.
    """

    name: str
    fingerprint: str | None
    n_query_present: int
    weight: float
    scores: np.ndarray | None  # float64, len == len(dataset gene_ids), or None


def rank_scores(
    slot_ids: np.ndarray,
    rows: Sequence[np.ndarray],
    weights: Sequence[float],
    scores: np.ndarray,
    q_slots: np.ndarray,
    dataset_scores: list[DatasetScore],
    *,
    query: Sequence[str],
    query_used: tuple[str, ...],
    query_missing: tuple[str, ...],
    exclude_query_from_genes: bool,
    top_k: int | None,
) -> SpellResult:
    """Accumulate per-dataset score vectors and rank the gene universe.

    ``rows[k]`` / ``weights[k]`` are the universe slots and the
    (positive) weight of the k-th contributing dataset in canonical
    (compendium) order, and ``scores`` is their float64 score vectors
    concatenated in that order.  ``np.bincount`` walks its input front
    to back adding each weight to its bin, so every slot receives its
    datasets' terms in canonical order starting from ``0.0`` — the same
    float additions, in the same order, as a per-dataset
    ``totals[slots] += weight * scores`` loop, which is what keeps every
    path through this function bit-identical to every other.
    """
    n_slots = slot_ids.shape[0]
    slots = np.concatenate(rows) if rows else np.empty(0, dtype=np.intp)
    mass = np.repeat(np.asarray(weights, dtype=np.float64), [r.shape[0] for r in rows])
    totals = np.bincount(slots, weights=scores * mass, minlength=n_slots)
    weight_mass = np.bincount(slots, weights=mass, minlength=n_slots)
    counts = np.bincount(slots, minlength=n_slots)

    dataset_scores.sort(key=lambda d: (-d.weight, d.name))
    candidate = counts > 0
    if exclude_query_from_genes:
        candidate[q_slots] = False
    scored = np.flatnonzero(candidate)
    with np.errstate(invalid="ignore", divide="ignore"):
        final = totals[scored] / weight_mass[scored]
    genes = ranked_gene_table(slot_ids[scored], final, counts[scored], top_k=top_k)
    return SpellResult(
        query=tuple(query),
        query_used=query_used,
        query_missing=query_missing,
        datasets=tuple(dataset_scores),
        genes=genes,
    )


def checked_query(genes: Iterable[str]) -> tuple[str, ...]:
    """``genes`` as a tuple of strings; an empty or repeating query is
    refused."""
    query = tuple(map(str, genes))
    if not query:
        raise SearchError("query must contain at least one gene")
    if len(set(query)) != len(query):
        raise SearchError("query contains duplicate genes")
    return query


class Resolved(NamedTuple):
    """One judged search request (:meth:`GeneUniverse.resolve`), down to
    what the scoring kernel and the merge consume."""

    query: tuple[str, ...]
    query_used: tuple[str, ...]
    query_missing: tuple[str, ...]
    q_slots: np.ndarray  # universe slots of ``query_used``
    selected: list[int]  # dataset positions the ``datasets`` filter admits
    local: np.ndarray  # (selected datasets, used genes) dataset rows, -1 = absent
    n_present: list[int]  # query genes each selected dataset holds


class GeneUniverse:
    """The genes of an ordered set of datasets, and the judge of a query.

    Built from ordered ``(name, gene_ids)`` pairs.  Slot numbering is
    ``np.unique``'s (sorted), so equal inputs give equal slots on every
    node; it is irrelevant to results — each gene aggregates in its own
    slot and the final ranking sorts by score and id.  A universe is a
    value: a changed compendium gets a new one, so every slot is a live
    gene.
    """

    def __init__(self, datasets: Sequence[tuple[str, Sequence[str]]]) -> None:
        if not datasets:
            raise SearchError("gene universe needs at least one dataset")
        self.dataset_names: list[str] = [name for name, _ in datasets]
        #: dataset name -> position in ``dataset_names`` (the filter lookup)
        self._position: dict[str, int] = {n: i for i, n in enumerate(self.dataset_names)}
        if len(self._position) != len(self.dataset_names):
            raise SearchError("duplicate dataset names in universe")
        # one np.unique over every dataset's gene list instead of a
        # per-gene dict probe: the store's cold start spends its time here
        id_arrays = [np.asarray(ids, dtype=str) for _, ids in datasets]
        uniq, inv = np.unique(np.concatenate(id_arrays), return_inverse=True)
        #: universe slot -> gene id
        self.slot_gene: np.ndarray = uniq
        self._gene_slot: dict[str, int] = {g: i for i, g in enumerate(uniq.tolist())}
        #: each dataset's universe slots, in its own gene order
        self.rows: list[np.ndarray] = []
        # stacked inverse map, one row per dataset: _row_table[i, slot] is
        # the row of that slot's gene in dataset i, -1 = absent.  One
        # column gather answers "where is each query gene, in every
        # dataset" for the whole query.
        self._row_table = np.full((len(id_arrays), uniq.shape[0]), -1, dtype=np.intp)
        inv = np.asarray(inv, dtype=np.intp)
        offset = 0
        for i, arr in enumerate(id_arrays):
            rows = inv[offset : offset + arr.shape[0]]
            offset += arr.shape[0]
            self._row_table[i, rows] = np.arange(rows.shape[0], dtype=np.intp)
            self.rows.append(rows)

    def gene_count(self) -> int:
        return int(self.slot_gene.shape[0])

    # ------------------------------------------------------------- resolution
    def select(self, datasets: Sequence[str] | None) -> list[int]:
        """Dataset positions a ``datasets`` filter admits, in compendium
        order (all of them, when ``None``)."""
        if datasets is None:
            return list(range(len(self.dataset_names)))
        allowed = {str(d) for d in datasets}
        unknown = sorted(allowed - self._position.keys())
        if unknown:
            raise UnknownDatasetError(
                f"unknown dataset(s) in filter: {', '.join(unknown)}",
                datasets=unknown,
                known_count=len(self.dataset_names),
            )
        return sorted(self._position[d] for d in allowed)

    def locate(
        self, query: Sequence[str], datasets: Sequence[str] | None
    ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """``(selected, slots, local)`` for a :func:`checked_query`.

        ``slots[k]`` is the universe slot of ``query[k]`` (-1 = no
        dataset holds it) and ``local[s, k]`` its row in the s-th
        selected dataset (-1 = absent there): one stacked table gather
        instead of a bounds-checked probe per dataset.
        """
        selected = self.select(datasets)
        slots = np.fromiter(
            (self._gene_slot.get(g, -1) for g in query), dtype=np.intp, count=len(query)
        )
        # an unknown gene's -1 reads some real column; mask it back out
        local = np.where(slots >= 0, self._row_table[:, slots], -1)
        if datasets is not None:
            local = local[selected]
        return selected, slots, local

    def resolve(self, query: Sequence[str], datasets: Sequence[str] | None) -> Resolved:
        """Judge one search request: which datasets it searches, which of
        its genes exist in them (a gene held only by datasets the filter
        leaves out is missing), and where.  A filter naming an unknown
        dataset, or a query none of whose genes exists in the searched
        scope, is refused with its typed error."""
        query = checked_query(query)
        selected, slots, local = self.locate(query, datasets)
        present = local >= 0
        alive = present.any(axis=0)
        query_used = tuple(g for g, a in zip(query, alive) if a)
        if not query_used:
            scope = "the compendium" if datasets is None else "the filtered datasets"
            raise UnknownGeneError(
                f"no query gene exists in {scope}: {', '.join(query)}", genes=query
            )
        return Resolved(
            query,
            query_used,
            tuple(g for g, a in zip(query, alive) if not a),
            slots[alive],
            selected,
            local[:, alive],
            present.sum(axis=1).tolist(),
        )

    def resolve_query(
        self, query: Sequence[str], selected: Sequence[str], *, filtered: bool
    ) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
        """``(query_used, query_missing, q_slots)`` of :meth:`resolve`, for
        a coordinator that already holds the ``selected`` dataset names
        (``filtered`` says whether they came from a ``datasets`` filter)."""
        resolved = self.resolve(query, selected if filtered else None)
        return resolved.query_used, resolved.query_missing, resolved.q_slots

    # ------------------------------------------------------------------ merge
    def merge(
        self,
        query: Sequence[str],
        query_used: tuple[str, ...],
        query_missing: tuple[str, ...],
        q_slots: np.ndarray,
        selected: Sequence[str],
        contributions: Mapping[str, DatasetPartial],
        *,
        exclude_query_from_genes: bool = True,
        top_k: int | None = None,
        skipped: Iterable[str] = (),
    ) -> SpellResult:
        """Replay the canonical accumulation over gathered partials.

        ``selected`` is the dataset walk order — the compendium order of
        the selected datasets, exactly the order the single-node search
        loop accumulates in.  ``contributions`` may arrive keyed in any
        order (shard replies race); only the walk order touches floats,
        so reply reordering cannot perturb the result.  Datasets in
        ``skipped`` (unreachable shards) are left out entirely — the
        caller is responsible for surfacing that partiality; this
        function never hides it.
        """
        skipped = set(skipped)
        dataset_scores: list[DatasetScore] = []
        rows: list[np.ndarray] = []
        weights: list[float] = []
        scores: list[np.ndarray] = []
        for name in selected:
            if name in skipped:
                continue
            part = contributions.get(name)
            if part is None:
                raise SearchError(f"missing partial for dataset {name!r}")
            dataset_scores.append(
                DatasetScore(part.name, part.weight, part.n_query_present)
            )
            if part.weight <= 0.0 or part.scores is None:
                continue
            slots = self.rows[self._position[name]]
            if part.scores.shape[0] != slots.shape[0]:
                raise SearchError(
                    f"partial for {name!r} has {part.scores.shape[0]} scores, "
                    f"expected {slots.shape[0]}"
                )
            rows.append(slots)
            weights.append(part.weight)
            scores.append(part.scores)
        return rank_scores(
            self.slot_gene,
            rows,
            weights,
            np.concatenate(scores) if scores else np.empty(0, dtype=np.float64),
            q_slots,
            dataset_scores,
            query=query,
            query_used=query_used,
            query_missing=query_missing,
            exclude_query_from_genes=exclude_query_from_genes,
            top_k=top_k,
        )

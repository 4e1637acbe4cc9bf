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

:class:`GeneUniverse` is the coordinator's metadata-only replica of the
index's slot bookkeeping — gene universe, per-dataset row slots, query
membership — built from dataset gene lists alone, no matrices.  The
merge is a pure function of (universe, contributions), which is what
makes determinism under shard reply reordering testable without any
transport in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.spell.engine import DatasetScore, SpellResult, ranked_gene_table
from repro.util.errors import SearchError

__all__ = ["DatasetPartial", "GeneUniverse", "rank_scores"]


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


class GeneUniverse:
    """Metadata-only replica of the index's gene-slot bookkeeping.

    Built from ordered ``(name, gene_ids)`` pairs — the same inputs
    :class:`~repro.spell.index.SpellIndex` derives its universe from, so
    slot numbering and membership semantics match the single-node index
    exactly (``np.unique`` sorts, hence equal inputs give equal slots).
    """

    def __init__(self, datasets: Sequence[tuple[str, Sequence[str]]]) -> None:
        if not datasets:
            raise SearchError("gene universe needs at least one dataset")
        self.dataset_names: list[str] = [name for name, _ in datasets]
        if len(set(self.dataset_names)) != len(self.dataset_names):
            raise SearchError("duplicate dataset names in universe")
        id_arrays = [np.asarray(list(ids), dtype=str) for _, ids in datasets]
        uniq, inv = np.unique(np.concatenate(id_arrays), return_inverse=True)
        self._slot_gene: np.ndarray = uniq
        self._gene_slot: dict[str, int] = {g: i for i, g in enumerate(uniq.tolist())}
        self._slot_live = np.zeros(uniq.shape[0], dtype=np.int64)
        self.rows: dict[str, np.ndarray] = {}
        inv = np.asarray(inv, dtype=np.intp)
        offset = 0
        for (name, _), arr in zip(datasets, id_arrays):
            rows = inv[offset : offset + arr.shape[0]]
            offset += arr.shape[0]
            self.rows[name] = rows
            self._slot_live[rows] += 1

    @property
    def n_slots(self) -> int:
        return int(self._slot_gene.shape[0])

    def gene_count(self) -> int:
        """Number of live genes (every slot is live in a static universe)."""
        return int((self._slot_live > 0).sum())

    # ------------------------------------------------------------- resolution
    def resolve_query(
        self, query: Sequence[str], selected: Sequence[str], *, filtered: bool
    ) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
        """Mirror of ``SpellIndex._resolve`` over catalog metadata.

        Returns ``(query_used, query_missing, q_slots)`` with membership
        judged against the selected datasets when ``filtered`` (else the
        whole universe), preserving query order.
        """
        slot_arr = np.fromiter(
            (self._gene_slot.get(g, -1) for g in query),
            dtype=np.intp,
            count=len(query),
        )
        known = slot_arr >= 0
        alive = np.zeros(len(query), dtype=bool)
        if filtered:
            mask = np.zeros(self.n_slots, dtype=bool)
            for name in selected:
                mask[self.rows[name]] = True
            alive[known] = mask[slot_arr[known]]
        else:
            alive[known] = self._slot_live[slot_arr[known]] > 0
        query_used = tuple(g for g, a in zip(query, alive) if a)
        query_missing = tuple(g for g, a in zip(query, alive) if not a)
        return query_used, query_missing, slot_arr[alive]

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
            slots = self.rows[name]
            if part.scores.shape[0] != slots.shape[0]:
                raise SearchError(
                    f"partial for {name!r} has {part.scores.shape[0]} scores, "
                    f"expected {slots.shape[0]}"
                )
            rows.append(slots)
            weights.append(part.weight)
            scores.append(part.scores)
        return rank_scores(
            self._slot_gene,
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

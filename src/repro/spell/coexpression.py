"""Coexpression networks from SPELL's correlation machinery.

An "Other Analysis" plug-in (Figure 1): build a gene-gene coexpression
graph from one dataset or a weighted compendium consensus, with edges
above a correlation threshold.  Output is a :mod:`networkx` graph plus
module extraction via connected components — a common downstream of the
paper's export workflow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.data.compendium import Compendium
from repro.data.dataset import Dataset
from repro.stats.correlation import pearson_matrix
from repro.util.errors import ValidationError

if TYPE_CHECKING:  # networkx loads inside the functions: no serving route reaches them
    import networkx as nx

__all__ = ["coexpression_graph", "consensus_graph", "extract_modules"]


def coexpression_graph(
    dataset: Dataset,
    *,
    threshold: float = 0.7,
    genes: list[str] | None = None,
) -> nx.Graph:
    """Gene-gene graph with edges where |pearson| >= ``threshold``.

    Edge attributes: ``weight`` (the correlation, signed).  Restricting
    ``genes`` keeps the O(n^2) correlation tractable for big datasets.
    """
    import networkx as nx

    if not (0.0 < threshold <= 1.0):
        raise ValidationError(f"threshold must be in (0, 1], got {threshold}")
    matrix = dataset.matrix if genes is None else dataset.matrix.subset_genes(genes, missing="skip")
    if matrix.n_genes < 2:
        raise ValidationError("need at least 2 genes for a coexpression graph")
    corr = pearson_matrix(matrix.values)
    graph = nx.Graph()
    graph.add_nodes_from(matrix.gene_ids)
    iu, ju = np.triu_indices(matrix.n_genes, k=1)
    values = corr[iu, ju]
    keep = ~np.isnan(values) & (np.abs(values) >= threshold)
    for i, j, r in zip(iu[keep], ju[keep], values[keep]):
        graph.add_edge(matrix.gene_ids[i], matrix.gene_ids[j], weight=float(r))
    return graph


def consensus_graph(
    compendium: Compendium,
    *,
    threshold: float = 0.6,
    min_support: int = 2,
    genes: list[str] | None = None,
) -> nx.Graph:
    """Edges supported by >= ``min_support`` datasets at ``threshold``.

    Edge attributes: ``support`` (dataset count) and ``weight`` (mean
    correlation over supporting datasets).  This is the §4 analysis in
    graph form: structure that persists across studies.
    """
    import networkx as nx

    if len(compendium) == 0:
        raise ValidationError("compendium is empty")
    if min_support < 1:
        raise ValidationError(f"min_support must be >= 1, got {min_support}")
    votes: dict[tuple[str, str], list[float]] = {}
    for dataset in compendium:
        try:
            g = coexpression_graph(dataset, threshold=threshold, genes=genes)
        except ValidationError:
            continue  # dataset lacks the requested genes
        for u, v, data in g.edges(data=True):
            key = (u, v) if u < v else (v, u)
            votes.setdefault(key, []).append(data["weight"])
    out = nx.Graph()
    for (u, v), weights in votes.items():
        if len(weights) >= min_support:
            out.add_edge(u, v, support=len(weights), weight=float(np.mean(weights)))
    return out


def extract_modules(graph: nx.Graph, *, min_size: int = 3) -> list[list[str]]:
    """Connected components of size >= ``min_size``, largest first.

    Deterministic: members sorted within a module, modules sorted by
    (-size, first member).
    """
    import networkx as nx

    if min_size < 1:
        raise ValidationError(f"min_size must be >= 1, got {min_size}")
    modules = [sorted(c) for c in nx.connected_components(graph) if len(c) >= min_size]
    modules.sort(key=lambda m: (-len(m), m[0]))
    return modules

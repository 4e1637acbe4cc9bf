"""SPELL: query-driven search over a microarray compendium (paper §3, Fig 4).

Given a small set of related genes, SPELL weights every dataset by how
coherently the query co-expresses in it, ranks all other genes by
weighted correlation to the query, and returns both orderings —
exactly the output ForestView's integration displays.
"""

from repro.spell.engine import (
    SpellEngine,
    SpellResult,
    DatasetScore,
    GeneScore,
    GeneTable,
    ranked_gene_table,
    MIN_QUERY_PRESENT,
)
from repro.spell.cache import (
    QueryCache,
    canonical_query,
    query_key,
    rebind_result,
)
from repro.spell.arena import ScoreScratch, ScratchPool, ShardArena
from repro.spell.index import BatchQuery, SpellIndex
from repro.spell.procpool import IndexWorkerPool, WorkerPoolError
from repro.spell.store import IndexStore, SyncReport
from repro.spell.backend import SearchBackend
from repro.spell.service import SpellService
from repro.spell.baseline import TextSearchBaseline
from repro.spell.coexpression import coexpression_graph, consensus_graph, extract_modules

__all__ = [
    "SpellEngine",
    "SpellResult",
    "DatasetScore",
    "GeneScore",
    "GeneTable",
    "ranked_gene_table",
    "MIN_QUERY_PRESENT",
    "SpellIndex",
    "BatchQuery",
    "ShardArena",
    "ScoreScratch",
    "ScratchPool",
    "IndexWorkerPool",
    "WorkerPoolError",
    "IndexStore",
    "SyncReport",
    "SearchBackend",
    "SpellService",
    "QueryCache",
    "canonical_query",
    "query_key",
    "rebind_result",
    "TextSearchBaseline",
    "coexpression_graph",
    "consensus_graph",
    "extract_modules",
]

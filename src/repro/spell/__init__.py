"""SPELL: query-driven search over a microarray compendium (paper §3, Fig 4).

Given a small set of related genes, SPELL weights every dataset by how
coherently the query co-expresses in it, ranks all other genes by
weighted correlation to the query, and returns both orderings —
exactly the output ForestView's integration displays.

The store, the worker pool and the service load lazily via module
``__getattr__``: the package must not import :mod:`repro.spell.store`,
or ``python -m repro.spell.store`` would run a second copy of it as
``__main__``.
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
from repro.spell.backend import SearchBackend
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

_LAZY = {
    "IndexWorkerPool": "repro.spell.procpool",
    "WorkerPoolError": "repro.spell.procpool",
    "IndexStore": "repro.spell.store",
    "SyncReport": "repro.spell.store",
    "SpellService": "repro.spell.service",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)

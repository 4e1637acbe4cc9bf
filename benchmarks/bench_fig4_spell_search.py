"""FIG4 — the SPELL web interface "displaying the results of a search
through a very large compendia of microarray data" (Figure 4).

Reproduces the search workload on a 40-dataset compendium with a planted
co-expression module: query latency (interactive web-service contract),
the dataset/gene orderings the page displays, and the retrieval-quality
contrast against the text-match strawman that motivates SPELL (§3).
"""

import pytest

from repro.api.protocol import SearchRequest
from repro.spell import SpellEngine, SpellIndex, SpellService, TextSearchBaseline
from repro.stats import average_precision, precision_at_k

from benchmarks.conftest import write_report


@pytest.fixture(scope="module")
def setup(spell_bench):
    comp, truth = spell_bench
    return comp, truth, SpellIndex.build(comp)


def test_fig4_indexed_query_latency(benchmark, setup):
    """Time: one interactive query against the prebuilt index."""
    comp, truth, index = setup
    result = benchmark(index.search, list(truth.query_genes))
    assert len(result.datasets) == len(comp)


def test_fig4_cold_query_latency(benchmark, setup):
    """Time: the same query recomputing correlations from raw data."""
    comp, truth, _ = setup
    engine = SpellEngine(comp)
    result = benchmark.pedantic(
        engine.search, args=(list(truth.query_genes),), rounds=3, iterations=1
    )
    assert len(result.datasets) == len(comp)


def test_fig4_index_build(benchmark, setup):
    """Time: building the index (the web service's startup cost)."""
    comp, _, _ = setup
    index = benchmark.pedantic(SpellIndex.build, args=(comp,), rounds=3, iterations=1)
    assert index.n_datasets == len(comp)


def test_fig4_result_page_and_quality(setup):
    """The Figure 4 page content plus retrieval quality vs the baseline."""
    comp, truth, index = setup
    service = SpellService(comp)
    page = service.respond(
        SearchRequest(genes=tuple(truth.query_genes), page=0, page_size=10)
    )

    hidden = set(truth.module_genes) - set(truth.query_genes)
    k = len(hidden)
    spell_result = index.search(list(truth.query_genes))
    baseline_result = TextSearchBaseline(comp).search(list(truth.query_genes))

    spell_p = precision_at_k(spell_result.gene_ranking(), hidden, k)
    base_p = precision_at_k(baseline_result.gene_ranking(), hidden, k)
    spell_ap = average_precision(spell_result.gene_ranking(), hidden)
    base_ap = average_precision(baseline_result.gene_ranking(), hidden)

    relevant = set(truth.relevant_datasets)
    ds_p = precision_at_k(spell_result.dataset_ranking(), relevant, len(relevant))

    rows = [
        ["SPELL (indexed)", f"{page.elapsed_seconds * 1000:.1f} ms",
         f"{spell_p:.2f}", f"{spell_ap:.2f}", f"{ds_p:.2f}"],
        ["text-match baseline", "-", f"{base_p:.2f}", f"{base_ap:.2f}", "-"],
    ]
    write_report(
        "FIG4",
        "SPELL search over a 40-dataset compendium (Figure 4)",
        ["method", "query latency", f"gene P@{k}", "gene AP", "dataset P@R"],
        rows,
        notes=(
            f"Query: {len(truth.query_genes)} genes; planted module of "
            f"{len(truth.module_genes)} genes coexpressed in "
            f"{len(relevant)}/{len(comp)} datasets. SPELL returns both the "
            "ordered dataset list and ordered gene list the web page shows."
        ),
    )
    # the paper's motivating contrast must hold decisively
    assert spell_p >= base_p + 0.4
    assert ds_p >= 0.8
    assert page.gene_rows[0][0] == 1


def test_fig4_iterative_refinement(setup):
    """§3's directed-search loop: growing the query keeps quality high."""
    comp, truth, _ = setup
    engine = SpellEngine(comp)
    hidden = set(truth.module_genes) - set(truth.query_genes)
    result = engine.search_iterative(list(truth.query_genes), rounds=2, grow_by=3)
    assert precision_at_k(result.gene_ranking(), hidden, len(hidden)) >= 0.8

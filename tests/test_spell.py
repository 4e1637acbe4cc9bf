"""Tests for SPELL: engine, index, service, baseline."""

import numpy as np
import pytest

from repro.api.errors import ApiError
from repro.api.protocol import SearchRequest
from repro.data import Compendium, Dataset, ExpressionMatrix
from repro.spell import (
    SpellEngine,
    SpellIndex,
    SpellService,
    TextSearchBaseline,
)
from repro.stats import average_precision, precision_at_k
from repro.synth import make_spell_compendium
from repro.util.errors import SearchError


@pytest.fixture(scope="module")
def searched(spell_setup_module):
    comp, truth = spell_setup_module
    engine = SpellEngine(comp)
    return comp, truth, engine, engine.search(list(truth.query_genes))


@pytest.fixture(scope="module")
def spell_setup_module():
    return make_spell_compendium(
        n_datasets=8,
        n_relevant=3,
        n_genes=150,
        n_conditions=12,
        module_size=15,
        query_size=4,
        seed=7,
    )


class TestEngine:
    def test_relevant_datasets_ranked_first(self, searched):
        comp, truth, _, result = searched
        top = result.top_datasets(len(truth.relevant_datasets))
        assert set(top) == set(truth.relevant_datasets)

    def test_relevant_weights_dominate(self, searched):
        _, truth, _, result = searched
        weights = {d.name: d.weight for d in result.datasets}
        min_rel = min(weights[d] for d in truth.relevant_datasets)
        max_irr = max(weights[d] for d in truth.irrelevant_datasets)
        assert min_rel > max_irr
        assert min_rel > 0.2

    def test_module_genes_retrieved(self, searched):
        _, truth, _, result = searched
        hidden = set(truth.module_genes) - set(truth.query_genes)
        ranking = result.gene_ranking()
        assert precision_at_k(ranking, hidden, len(hidden)) >= 0.9
        assert average_precision(ranking, hidden) >= 0.9

    def test_query_excluded_from_gene_ranking(self, searched):
        _, truth, _, result = searched
        assert not set(result.gene_ranking()) & set(truth.query_genes)

    def test_query_can_be_included(self, searched):
        comp, truth, engine, _ = searched
        result = engine.search(list(truth.query_genes), exclude_query_from_genes=False)
        ranking = result.gene_ranking()
        # query genes rank near the very top of their own search
        for q in truth.query_genes:
            assert ranking.index(q) < len(truth.module_genes) + 5

    def test_missing_query_gene_reported(self, searched):
        comp, truth, engine, _ = searched
        result = engine.search(list(truth.query_genes) + ["YZZ999W"])
        assert "YZZ999W" in result.query_missing
        assert set(result.query_used) == set(truth.query_genes)

    def test_all_unknown_query_raises(self, searched):
        _, _, engine, _ = searched
        with pytest.raises(SearchError):
            engine.search(["YZZ999W"])

    def test_empty_and_duplicate_query_raise(self, searched):
        _, truth, engine, _ = searched
        with pytest.raises(SearchError):
            engine.search([])
        with pytest.raises(SearchError):
            engine.search([truth.query_genes[0], truth.query_genes[0]])

    def test_single_gene_query_gets_no_weights(self):
        """One query gene => no pairwise coherence => all weights zero."""
        comp, truth = make_spell_compendium(
            n_datasets=4, n_relevant=2, n_genes=60, module_size=8, query_size=2, seed=3
        )
        engine = SpellEngine(comp)
        result = engine.search([truth.query_genes[0]])
        assert all(d.weight == 0.0 for d in result.datasets)
        assert len(result.genes) == 0

    def test_empty_compendium_rejected(self):
        with pytest.raises(SearchError):
            SpellEngine(Compendium())

    def test_parallel_workers_same_result(self, searched):
        comp, truth, _, serial = searched
        parallel = SpellEngine(comp, n_workers=4).search(list(truth.query_genes))
        assert parallel.dataset_ranking() == serial.dataset_ranking()
        assert parallel.gene_ranking() == serial.gene_ranking()

    def test_iterative_search_still_finds_module(self, searched):
        comp, truth, engine, _ = searched
        result = engine.search_iterative(list(truth.query_genes), rounds=2, grow_by=2)
        hidden = set(truth.module_genes) - set(truth.query_genes)
        assert precision_at_k(result.gene_ranking(), hidden, len(hidden)) >= 0.8
        assert result.query == tuple(truth.query_genes)

    def test_partial_gene_membership(self):
        """Genes present in only some datasets still get scores."""
        rng = np.random.default_rng(5)
        m1 = ExpressionMatrix(rng.normal(size=(6, 8)), [f"G{i}" for i in range(6)],
                              [f"c{i}" for i in range(8)])
        m2 = ExpressionMatrix(rng.normal(size=(4, 8)), ["G0", "G1", "G2", "EXTRA"],
                              [f"d{i}" for i in range(8)])
        comp = Compendium([Dataset(name="a", matrix=m1), Dataset(name="b", matrix=m2)])
        result = SpellEngine(comp).search(["G0", "G1"])
        # EXTRA only exists in dataset b; it appears iff b got positive weight
        names = set(result.gene_ranking())
        assert names <= {"G2", "G3", "G4", "G5", "EXTRA"}


class TestIndex:
    def test_index_matches_engine_on_complete_data(self):
        comp, truth = make_spell_compendium(
            n_datasets=6, n_relevant=2, n_genes=100, module_size=12, query_size=4,
            missing_fraction=0.0, seed=11,
        )
        engine_result = SpellEngine(comp).search(list(truth.query_genes))
        index_result = SpellIndex.build(comp).search(list(truth.query_genes))
        # identical data => identical weights and near-identical rankings
        ew = {d.name: d.weight for d in engine_result.datasets}
        iw = {d.name: d.weight for d in index_result.datasets}
        for name in ew:
            assert iw[name] == pytest.approx(ew[name], abs=1e-9)
        assert engine_result.dataset_ranking() == index_result.dataset_ranking()
        es = {g.gene_id: g.score for g in engine_result.genes}
        for g in index_result.genes:
            assert g.score == pytest.approx(es[g.gene_id], abs=1e-9)

    def test_index_close_to_engine_with_missing(self, spell_setup_module):
        comp, truth = spell_setup_module
        hidden = set(truth.module_genes) - set(truth.query_genes)
        result = SpellIndex.build(comp).search(list(truth.query_genes))
        assert precision_at_k(result.gene_ranking(), hidden, len(hidden)) >= 0.8
        assert set(result.top_datasets(3)) == set(truth.relevant_datasets)

    def test_index_nbytes_positive(self, spell_setup_module):
        comp, _ = spell_setup_module
        assert SpellIndex.build(comp).nbytes() > 0

    def test_index_query_validation(self, spell_setup_module):
        comp, _ = spell_setup_module
        idx = SpellIndex.build(comp)
        with pytest.raises(SearchError):
            idx.search([])
        with pytest.raises(SearchError):
            idx.search(["NOPE"])


class TestService:
    def test_search_page_shape(self, spell_setup_module):
        comp, truth = spell_setup_module
        service = SpellService(comp)
        page = service.respond(
            SearchRequest(genes=tuple(truth.query_genes), page=0, page_size=10)
        )
        assert len(page.gene_rows) == 10
        assert page.gene_rows[0][0] == 1  # ranks start at 1
        assert page.dataset_rows[0][2] >= page.dataset_rows[1][2]  # sorted by weight
        assert page.elapsed_seconds >= 0.0

    def test_pagination_continues_ranks(self, spell_setup_module):
        comp, truth = spell_setup_module
        service = SpellService(comp)
        p0 = service.respond(
            SearchRequest(genes=tuple(truth.query_genes), page=0, page_size=5)
        )
        p1 = service.respond(
            SearchRequest(genes=tuple(truth.query_genes), page=1, page_size=5)
        )
        assert p1.gene_rows[0][0] == 6
        assert {r[1] for r in p0.gene_rows}.isdisjoint({r[1] for r in p1.gene_rows})

    def test_latency_history(self, spell_setup_module):
        comp, truth = spell_setup_module
        service = SpellService(comp)
        service.search(list(truth.query_genes))
        service.search(list(truth.query_genes))
        assert service.query_count == 2

    def test_page_validation(self, spell_setup_module):
        # bad paging never reaches the service: the request type refuses it
        _comp, truth = spell_setup_module
        for bad in ({"page": -1}, {"page_size": 0}):
            with pytest.raises(ApiError) as exc:
                SearchRequest(genes=tuple(truth.query_genes), **bad)
            assert exc.value.code == "INVALID_REQUEST"


class TestBaseline:
    def test_baseline_much_worse_than_spell(self, spell_setup_module):
        """The paper's motivation: text match misses co-expression structure."""
        comp, truth = spell_setup_module
        hidden = set(truth.module_genes) - set(truth.query_genes)
        spell_rank = SpellEngine(comp).search(list(truth.query_genes)).gene_ranking()
        text_rank = TextSearchBaseline(comp).search(list(truth.query_genes)).gene_ranking()
        k = len(hidden)
        assert precision_at_k(spell_rank, hidden, k) >= precision_at_k(text_rank, hidden, k) + 0.4

    def test_baseline_dataset_weight_is_presence_count(self, spell_setup_module):
        comp, truth = spell_setup_module
        result = TextSearchBaseline(comp).search(list(truth.query_genes))
        # every dataset contains all genes in this synthetic setup
        assert all(d.weight == len(truth.query_genes) for d in result.datasets)

    def test_baseline_validation(self, spell_setup_module):
        comp, _ = spell_setup_module
        baseline = TextSearchBaseline(comp)
        with pytest.raises(SearchError):
            baseline.search([])
        with pytest.raises(SearchError):
            TextSearchBaseline(Compendium())

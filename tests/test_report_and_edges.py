"""Tests for session reports plus edge cases across the stack."""

import numpy as np
import pytest

from repro.core import ForestView, GolemAdapter, SpellAdapter, session_report
from repro.data import Compendium, Dataset, ExpressionMatrix
from repro.ontology import Golem
from repro.synth import make_annotated_ontology, make_case_study
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def reporting_setup():
    comp, truth = make_case_study(n_genes=120, n_conditions=10, n_knockouts=8, seed=71)
    app = ForestView.from_compendium(comp)
    genes = comp.gene_universe()
    onto, store, otruth = make_annotated_ontology(
        genes, n_terms=80, planted={"stress response": list(truth.esr_induced)}, seed=72
    )
    return app, truth, Golem(onto, store)


class TestSessionReport:
    def test_report_without_selection(self, reporting_setup):
        app, truth, _ = reporting_setup
        app.clear_selection()
        text = session_report(app)
        assert "FORESTVIEW SESSION REPORT" in text
        assert "(none)" in text
        for name in app.compendium.names:
            assert name in text

    def test_report_with_full_pipeline(self, reporting_setup):
        app, truth, golem = reporting_setup
        spell = SpellAdapter(app)
        result = spell.query(list(truth.esr_induced[:4]), top_n=10)
        golem_adapter = GolemAdapter(app, golem)
        app.select_genes(list(truth.esr_induced), source="refined")
        report = golem_adapter.enrich_selection()
        text = session_report(
            app, spell_result=result, enrichment=report, coherence_permutations=50
        )
        assert "SPELL SEARCH" in text
        assert "GO ENRICHMENT" in text
        assert "SELECTION ACROSS DATASETS" in text
        # coherence column shows permutation p-values
        assert "(p=" in text
        # deterministic given the seed
        again = session_report(
            app, spell_result=result, enrichment=report, coherence_permutations=50
        )
        assert text == again

    def test_gene_list_truncation(self, reporting_setup):
        app, truth, _ = reporting_setup
        app.select_genes(app.compendium[0].gene_ids[:30], source="many")
        text = session_report(app, coherence_permutations=0, max_genes_listed=10)
        assert "(+20 more)" in text

    def test_validation(self, reporting_setup):
        app, _, _ = reporting_setup
        with pytest.raises(ValidationError):
            session_report(app, coherence_permutations=-1)


class TestAssortedEdgeCases:
    def test_single_dataset_single_gene_selection(self):
        m = ExpressionMatrix(np.array([[1.0, 2.0, 3.0]]), ["G1"], ["a", "b", "c"])
        app = ForestView.from_compendium(Compendium([Dataset(name="one", matrix=m)]))
        app.select_genes(["G1"], source="t")
        views = app.zoom_views()
        assert views[0].n_rows == 1
        px = app.render(400, 200)
        assert px.shape == (200, 400, 3)

    def test_selection_of_gene_absent_everywhere_renders(self, reporting_setup):
        app, truth, _ = reporting_setup
        app.select_genes([app.compendium[0].gene_ids[0], "ZZZ999"], source="t")
        views = app.zoom_views()
        # absent row present in aligned views, all-NaN
        for view in views:
            assert view.gene_ids[-1] == "ZZZ999"
            assert not view.present[-1]

    def test_export_whole_universe_merged(self, reporting_setup):
        app, truth, _ = reporting_setup
        app.select_genes(list(truth.esr_induced[:3]), source="t")
        text = app.export_merged_text(selection_only=False)
        from repro.data import parse_pcl

        matrix = parse_pcl(text)
        assert matrix.n_genes == len(app.compendium.gene_universe())

    def test_golem_map_zero_radius(self, reporting_setup):
        app, truth, golem = reporting_setup
        focus = golem.ontology.term_ids()[0]
        lm = golem.local_map(focus, up=0, down=0)
        assert lm.term_ids() == [focus]

    def test_viewport_column_scrolling(self):
        from repro.core import Viewport

        vp = Viewport(10, 100, visible_cols=20)
        vp.scroll_to(0, 95)
        assert vp.scroll_col == 80
        assert list(vp.col_range) == list(range(80, 100))

    def test_wall_single_tile_single_node(self):
        from repro.viz import DisplayList, RectCmd
        from repro.wall import DisplayWall, WallGeometry

        geo = WallGeometry(rows=1, cols=1, tile_width=50, tile_height=40)
        dl = DisplayList(50, 40)
        dl.add(RectCmd(10, 10, 20, 20, (200, 100, 50)))
        wall = DisplayWall(geo, n_nodes=1, schedule="static")
        frame = wall.render(dl)
        assert np.array_equal(frame.pixels, dl.render_full())

    def test_compendium_dataset_added_after_app_creation(self, reporting_setup):
        app, truth, _ = reporting_setup
        from repro.synth import make_simple_dataset

        before = len(app.panes)
        app.add_dataset(
            make_simple_dataset(name=f"late_{before}", n_genes=20, n_conditions=5,
                                n_module_genes=5, seed=99)
        )
        assert len(app.panes) == before + 1
        # new pane participates in synchronized views immediately
        app.select_genes(list(truth.esr_induced[:3]), source="t")
        assert len(app.zoom_views()) == before + 1

"""Analysis-tool integration adapters (Figure 1's "Data Search (e.g. SPELL)"
and "Other Analysis (e.g. GOLEM)" boxes; §3 describes both integrations).

Adapters close the loop the paper's architecture draws: analysis output
feeds selection/ordering back into the visualization ("the most adaptive
method is to provide selection information from an analysis
application"), and the current selection feeds analysis input.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.ontology.enrichment import EnrichmentReport
from repro.ontology.golem import Golem, LocalMap
from repro.spell.engine import SpellResult
from repro.spell.service import SpellService
from repro.util.errors import SearchError, ValidationError

if TYPE_CHECKING:  # avoid a runtime cycle with app.py
    from repro.core.app import ForestView

__all__ = ["SpellAdapter", "GolemAdapter"]


class SpellAdapter:
    """Drive SPELL from ForestView and push results back into the display.

    §3: "The datasets returned can be displayed in decreasing order of
    relevance to the query, and the top n genes can be selected and
    highlighted within each dataset."
    """

    def __init__(self, app: "ForestView", *, n_workers: int = 1) -> None:
        self.app = app
        self.service = SpellService(app.compendium, n_workers=n_workers)
        self.last_result: SpellResult | None = None

    def query_from_selection(self, *, top_n: int = 20, reorder: bool = True) -> SpellResult:
        """Use the current selection as the SPELL query."""
        selection = self.app.selection
        if selection is None:
            raise SearchError("no selection to use as a SPELL query")
        return self.query(selection.genes, top_n=top_n, reorder=reorder)

    def query(
        self, genes: Sequence[str], *, top_n: int = 20, reorder: bool = True
    ) -> SpellResult:
        """Run a query; reorder panes by relevance and select query+top genes."""
        result = self.service.search(list(genes))
        self.last_result = result
        if reorder:
            self.app.order_datasets(result.dataset_ranking())
        top = result.top_genes(top_n)
        self.app.select_genes(
            list(result.query_used) + top, source=f"spell:{','.join(result.query_used)}"
        )
        return result


class GolemAdapter:
    """Run GOLEM enrichment on the current selection and navigate its maps."""

    def __init__(self, app: "ForestView", golem: Golem) -> None:
        self.app = app
        self.golem = golem
        self.last_report: EnrichmentReport | None = None

    def enrich_selection(
        self, *, alpha: float = 0.05, correction: str = "benjamini-hochberg"
    ) -> EnrichmentReport:
        """Score the current selection against GO; remembers the report."""
        selection = self.app.selection
        if selection is None:
            raise ValidationError("no selection to enrich")
        report = self.golem.enrich_selection(
            selection.genes,
            universe=self.app.compendium.gene_universe(),
            alpha=alpha,
            correction=correction,
        )
        self.last_report = report
        return report

    def map_for_top_term(self, *, up: int = 2, down: int = 1) -> LocalMap:
        """GOLEM local map focused on the most enriched term of the last run."""
        if self.last_report is None or not len(self.last_report):
            raise ValidationError("run enrich_selection first")
        return self.golem.local_map(self.last_report.results[0].term_id, up=up, down=down)

    def select_term_genes(self, term_id: str) -> None:
        """Select the genes behind an enriched term (map -> heatmap round trip)."""
        genes = self.golem.annotations.propagated().genes_for(term_id)
        measured = [g for g in sorted(genes) if self.app.merged_interface.__contains__(g)]
        if not measured:
            raise ValidationError(f"no measured genes annotated to {term_id}")
        self.app.select_genes(measured, source=f"golem:{term_id}")

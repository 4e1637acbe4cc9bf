"""repro — a reproduction of Wallace et al., *Scalable, Dynamic Analysis and
Visualization for Genomic Datasets* (IPPS 2007).

The package implements the paper's three systems and every substrate they
depend on:

* :mod:`repro.core` — **ForestView**, the multi-dataset visualization and
  analysis application (merged dataset interface, synchronized views,
  selection, search, export, display-wall rendering).
* :mod:`repro.spell` — **SPELL**, query-driven search over a microarray
  compendium returning ordered datasets and ordered genes.
* :mod:`repro.ontology` — **GOLEM**, Gene Ontology local exploration and
  statistical enrichment.

Substrates: :mod:`repro.data` (matrices, PCL/CDT/GTR/ATR formats,
compendium, merged 3-D interface), :mod:`repro.cluster` (hierarchical
clustering and dendrograms), :mod:`repro.stats` (hypergeometric tests,
FDR, missing-data correlation), :mod:`repro.viz` (software framebuffer
renderer), :mod:`repro.wall` (simulated tiled display wall: render
nodes as threads of one process, or as servers across sockets),
:mod:`repro.parallel` (partitioning, parallel map and the wall's task
pool), :mod:`repro.synth` (synthetic
compendia with planted biology standing in for the paper's proprietary
datasets).

Quickstart
----------
>>> from repro.synth import make_stress_compendium
>>> from repro.core import ForestView
>>> compendium = make_stress_compendium(n_genes=300, seed=7)
>>> app = ForestView.from_compendium(compendium)
>>> app.select_genes(compendium[0].gene_ids[:20], source="quickstart")
>>> len(app.panes) == len(compendium)
True
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

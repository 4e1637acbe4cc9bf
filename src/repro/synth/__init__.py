"""Synthetic data substitutes for the paper's proprietary inputs.

The paper evaluates on real yeast compendia (Gasch 2000 stress,
Brauer/Saldanha 2004 nutrient limitation, Hughes 2000 knockouts) and the
real Gene Ontology.  Those inputs are not redistributable, so this
package generates structurally equivalent data with *known planted
ground truth*: a test can check that each analysis recovers what was
planted.
"""

from repro.synth.names import systematic_names, make_annotations
from repro.synth.expression import GeneModule, synthesize_matrix, profile
from repro.synth.compendia import (
    CaseStudyTruth,
    SpellTruth,
    make_simple_dataset,
    make_stress_compendium,
    make_case_study,
    make_spell_compendium,
)
from repro.synth.ontology_gen import OntologyTruth, make_ontology, make_annotated_ontology

__all__ = [
    "systematic_names",
    "make_annotations",
    "GeneModule",
    "synthesize_matrix",
    "profile",
    "CaseStudyTruth",
    "SpellTruth",
    "make_simple_dataset",
    "make_stress_compendium",
    "make_case_study",
    "make_spell_compendium",
    "OntologyTruth",
    "make_ontology",
    "make_annotated_ontology",
]

"""Shared benchmark fixtures and the paper-style report writer.

Every bench regenerates the rows/series for one paper artifact (named in
its module docstring) and records them via :func:`write_report`, which both
prints the table and persists it under ``benchmarks/results/`` so the
numbers survive pytest's output capture.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import pytest

from repro.synth import (
    make_annotated_ontology,
    make_case_study,
    make_spell_compendium,
)
from repro.util.formatting import format_table

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def update_json_report(exp_id: str, fragment: dict) -> dict:
    """Merge ``fragment`` into ``results/<exp_id>.json`` (machine-readable).

    Benchmarks that contribute to one experiment run as separate pytest
    tests (possibly in separate files), so the JSON artifact accumulates
    via read-merge-write; top-level keys are owned by one contributor
    each.  Returns the merged document.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{exp_id}.json"
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        document = {}
    if not isinstance(document, dict):
        document = {}
    document.setdefault("bench", exp_id)
    document.update(fragment)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def write_report(
    exp_id: str, title: str, headers: Sequence[str], rows: Sequence[Sequence[object]],
    notes: str = "",
) -> str:
    """Persist one experiment's paper-style table and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    table = format_table(headers, rows)
    body = f"# {exp_id}: {title}\n\n{table}\n"
    if notes:
        body += f"\n{notes}\n"
    (RESULTS_DIR / f"{exp_id}.txt").write_text(body)
    print(f"\n{body}")
    return table


@pytest.fixture(scope="session")
def case_study_bench():
    """§4 collection at benchmark scale."""
    return make_case_study(n_genes=400, n_conditions=16, n_knockouts=24, seed=2007)


@pytest.fixture(scope="session")
def spell_bench():
    """FIG4 compendium: 40 datasets, planted module in 8 of them."""
    return make_spell_compendium(
        n_datasets=40,
        n_relevant=8,
        n_genes=600,
        n_conditions=20,
        module_size=30,
        query_size=5,
        seed=424,
    )


@pytest.fixture(scope="session")
def golem_bench():
    """FIG5 ontology: ~1500 terms with one planted enriched term."""
    from repro.synth import systematic_names

    genes = systematic_names(1200)
    onto, store, truth = make_annotated_ontology(
        genes,
        n_terms=1500,
        annotations_per_gene=4.0,
        planted={"planted stress response": genes[:40]},
        seed=555,
    )
    return onto, store, truth, genes

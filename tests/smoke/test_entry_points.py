"""Every ``python -m`` entry point runs its module once.

A package ``__init__`` that imports the module ``python -m`` is about
to run leaves two copies of every class in it, and runpy says so with a
``RuntimeWarning`` on stderr — the line a banner-parsing harness trips
on.  Under ``-W error::RuntimeWarning`` that warning is a failed exit.
"""

from __future__ import annotations

import pytest

from tests.smoke.conftest import run_python

ENTRY_POINTS = [
    "repro.api.http",
    "repro.api.aio",
    "repro.api.docs",
    "repro.cluster_serving",
    "repro.cluster_serving.shard",
    "repro.spell.store",
]


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_runs_its_module_once(module):
    done = run_python("-W", "error::RuntimeWarning", "-m", module, "--help")
    assert done.returncode == 0, done.stderr

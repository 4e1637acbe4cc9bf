"""Structure lock: CI is a job list.  A process-level scenario lands as a
pytest under ``tests/smoke/`` (so tier-1 runs it), never as a script
inside the workflow."""

from __future__ import annotations

import re

from tests.smoke.conftest import REPO

CI = REPO / ".github" / "workflows" / "ci.yml"


def test_ci_runs_commands_and_carries_no_scripts():
    text = CI.read_text(encoding="utf-8")
    assert len(text.splitlines()) <= 150
    jobs = text.split("\njobs:\n", 1)[1]
    assert re.findall(r"^  ([\w-]+):$", jobs, re.M) == ["lint", "test", "bench-smoke"]
    for banned in ("curl", "<<", "python -c"):
        assert banned not in text, banned
    assert not re.search(r"python3? -(\s|$)", text), "a stdin script"

"""Self-tests of the perf harness (outside tier-1: ``pytest benchmarks/perf``).

They pin what later perf PRs rely on: seeded traffic is reproducible, the
estimator arithmetic is what the README says, one smoke pass emits every
metric ``BENCHMARK.json`` names with nothing failing, and nothing the
harness starts outlives it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import estimators  # noqa: E402
import workloads  # noqa: E402

UNIVERSE = [f"G{i:04d}" for i in range(600)]


# ------------------------------------------------------------------ traffic
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_bytes(name):
    workload = workloads.WORKLOADS[name]
    first = [r.raw for r in workloads.build_requests(workload, 7, UNIVERSE)]
    again = [r.raw for r in workloads.build_requests(workload, 7, UNIVERSE)]
    other = [r.raw for r in workloads.build_requests(workload, 8, UNIVERSE)]
    assert first == again
    assert first != other
    assert len(first) == workload.n_requests


def test_query_sets_are_distinct_as_sets():
    cold = workloads.WORKLOADS["cold_search"]
    requests = workloads.build_requests(cold, 1, UNIVERSE)
    keys = {tuple(sorted(r.payload["genes"])) for r in requests}
    assert len(keys) == workloads.COLD_QUERIES  # a permutation would be a cache hit


def test_ingest_payloads_are_seeded():
    first = [r.raw for r in workloads.build_ingests(7, UNIVERSE, 3)]
    assert first == [r.raw for r in workloads.build_ingests(7, UNIVERSE, 3)]
    assert first != [r.raw for r in workloads.build_ingests(8, UNIVERSE, 3)]
    names = [r.payload["name"] for r in workloads.build_ingests(7, UNIVERSE, 3)]
    assert len(set(names)) == 3
    assert 60_000 < len(first[0]) < 120_000  # ~80 KB: 600 genes x 6 conditions


# --------------------------------------------------------------- estimators
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert estimators.percentile(values, 95) == 95
    assert estimators.percentile(values, 50) == 50
    assert estimators.percentile([3.0], 95) == 3.0


def test_undisturbed_side():
    windows = [10.0, 12.0, 11.0, 30.0, 9.0]  # one window hit by a burst
    low = estimators.undisturbed(windows, "lower")
    high = estimators.undisturbed(windows, "higher")
    assert low["value"] == pytest.approx(9.5)  # Q1: the burst cannot reach it
    assert low["median"] == 11.0
    assert low["opposite"] == pytest.approx(21.0)
    assert high["value"] == pytest.approx(21.0)
    assert estimators.undisturbed([4.0], "lower")["value"] == 4.0


def test_relative_spread():
    assert estimators.relative_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert estimators.relative_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_self_time_arithmetic():
    def span(sid, name, start, end, parent=None, rid=0):
        return {"id": sid, "name": name, "request_id": rid, "parent": parent,
                "start": start, "end": end, "stack": "t"}

    spans = [
        span(0, "top", 0.0, 10.0),
        span(1, "a", 20.0, 23.0, parent=0),  # replayed later: only durations count
        span(2, "b", 30.0, 34.0, parent=0),
        span(3, "call", 40.0, 42.0, parent=0),
        span(4, "call", 50.0, 55.0, parent=0),
        span(5, "top", 0.0, 8.0, rid=1),  # no children: all self
    ]
    assert estimators.self_times(spans, "top") == [10.0 - 3 - 4 - 2 - 5, 8.0]
    # side-by-side children cover only the longest of them
    assert estimators.self_times(spans, "top", ("call",)) == [10.0 - 3 - 4 - 5, 8.0]


# ----------------------------------------------------------------- launcher
def test_launcher_import_has_no_side_effects():
    """``spell.procpool`` spawns workers, and spawn re-imports ``__main__``:
    importing the launcher must start nothing."""
    before = threading.active_count()
    import launcher

    assert threading.active_count() == before
    assert callable(launcher.main)
    probe = subprocess.run(
        [sys.executable, "-c", "import launcher"],
        cwd=HERE, capture_output=True, timeout=60,
    )
    assert probe.returncode == 0 and probe.stdout == b""


# -------------------------------------------------------------------- smoke
def _user_processes() -> dict[int, str]:
    """pid -> state and command line of every process that is not a kernel
    thread.  Zombies count: an orphan nobody waited for is a process the
    run left behind."""
    found = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()
                cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
            except OSError:
                continue
            if fields[1] not in ("0", "2"):  # ppid 2 = kthreadd
                found[int(entry)] = f"{fields[0]} {cmdline.replace(bytes(1), b' ').decode(errors='replace')}"
    return found


def test_smoke_emits_every_metric_and_leaves_nothing_behind():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = _user_processes()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "31"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    report = json.loads((HERE / "out" / "results-31.json").read_text())
    (first_set,) = report["sets"]
    assert list(first_set) == [w["name"] for w in spec["workloads"]]
    for name, parts in first_set.items():
        for section in ("end_to_end", "per_layer"):
            assert parts[section]["failed"] == 0, (name, section)
            assert parts[section]["correct"] is True
            assert set(parts[section]["metrics"]) == {m["name"] for m in spec[section]}
            for metric in spec[section]:
                assert parts[section]["metrics"][metric["name"]]["unit"] == metric["unit"]
    # hygiene: no process (server child, pool worker, multiprocessing's
    # resource tracker), scratch store or catalog outlives run.py
    after = _user_processes()
    assert {pid: cmd for pid, cmd in after.items() if pid not in before} == {}
    leftovers = [p.name for p in (HERE / "out").iterdir() if p.is_dir()]
    assert leftovers == []

"""Percentiles, the windowed-quartile estimator, and span self-time.

Interference on a shared box only ever *adds* time, so each timing
metric is computed per measurement window and reported as the quartile
of windows on the undisturbed side: Q3 for throughput, Q1 for latency
and CPU cost.  The window median and the opposite quartile ride along as
the spread.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(Q1, median, Q3)`` as ``statistics.quantiles(n=4)`` gives them;
    a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def undisturbed(values: list[float], better: str) -> dict[str, float]:
    """The reported value (undisturbed-side quartile) plus its spread."""
    q1, q2, q3 = quartiles(values)
    value, opposite = (q3, q1) if better == "higher" else (q1, q3)
    return {"value": value, "median": q2, "opposite": opposite, "windows": len(values)}


def relative_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median — the repeatability
    figure the benchmark contract bounds."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def self_times(spans: list[dict], parent_name: str,
               concurrent: tuple[str, ...] = ()) -> list[float]:
    """Per-request self time of every ``parent_name`` span: its duration
    minus the part its children cover.  Children replay one after another,
    so they cover the sum of their durations — except children named in
    ``concurrent``, which run side by side inside the parent and cover
    only the longest of them."""
    by_parent: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            by_parent[span["parent"]].append(span)
    out = []
    for span in spans:
        if span["name"] != parent_name:
            continue
        covered = 0.0
        side_by_side = 0.0
        for child in by_parent.get(span["id"], ()):
            duration = child["end"] - child["start"]
            if child["name"] in concurrent:
                side_by_side = max(side_by_side, duration)
            else:
                covered += duration
        out.append((span["end"] - span["start"]) - covered - side_by_side)
    return out

"""ABL — ablations of the implementation's own design choices.

Not figures from the paper; these quantify why the implementation is
built the way it is:

  * synchronization layer on vs off (what alignment costs);
  * SPELL precomputed index vs exact on-the-fly engine (speed/accuracy);
  * wall scheduling policies on content-skewed frames;
  * vectorized hypergeometric vs per-term scipy loop (also in FIG5).
"""

import time

import numpy as np
import pytest

from repro.core import ForestView
from repro.spell import SpellEngine, SpellIndex
from repro.util.timing import Stopwatch
from repro.stats import enrichment_pvalues, precision_at_k
from repro.viz import DisplayList, HeatmapCmd, RectCmd, get_colormap
from repro.wall import DisplayWall, WallGeometry

from benchmarks.conftest import write_report


# ---------------------------------------------------------------------------
# ablation 1: synchronization layer
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def sync_app(case_study_bench):
    comp, truth = case_study_bench
    app = ForestView.from_compendium(comp)
    return app, truth


@pytest.mark.parametrize("synchronized", [True, False])
def test_abl_sync_mode_cost(benchmark, sync_app, synchronized):
    """Time: zoom-view computation with the sync layer on vs off."""
    app, truth = sync_app
    app.select_genes(list(truth.esr_all), source="abl")
    app.set_synchronized(synchronized)
    views = benchmark(app.zoom_views)
    assert len(views) == len(app.compendium)
    app.set_synchronized(True)


# ---------------------------------------------------------------------------
# ablation 2: SPELL index vs exact engine
# ---------------------------------------------------------------------------
def test_abl_spell_index_vs_exact(spell_bench):
    comp, truth = spell_bench
    hidden = set(truth.module_genes) - set(truth.query_genes)
    k = len(hidden)
    query = list(truth.query_genes)

    t0 = time.perf_counter()
    index = SpellIndex.build(comp)
    t_build = time.perf_counter() - t0

    t0 = time.perf_counter()
    indexed = index.search(query)
    t_indexed = time.perf_counter() - t0

    engine = SpellEngine(comp)
    t0 = time.perf_counter()
    exact = engine.search(query)
    t_exact = time.perf_counter() - t0

    p_indexed = precision_at_k(indexed.gene_ranking(), hidden, k)
    p_exact = precision_at_k(exact.gene_ranking(), hidden, k)
    # rank agreement on the top 50 genes
    top_exact = exact.gene_ranking()[:50]
    agreement = len(set(top_exact) & set(indexed.gene_ranking()[:50])) / 50

    rows = [
        ["exact engine query", f"{t_exact * 1000:.0f} ms", f"P@{k} {p_exact:.2f}"],
        ["indexed query", f"{t_indexed * 1000:.1f} ms",
         f"P@{k} {p_indexed:.2f}, {t_exact / max(t_indexed, 1e-9):.0f}x faster"],
        ["index build (once)", f"{t_build * 1000:.0f} ms",
         f"{index.nbytes() / 1024:.0f} KiB resident"],
        ["top-50 rank agreement", f"{agreement:.2f}", "index approximates exact"],
    ]
    write_report(
        "ABL-spell-index",
        "SPELL: precomputed index vs exact on-the-fly correlation",
        ["variant", "time", "quality"],
        rows,
        notes=(
            "The index trades exact pairwise-complete correlation for a single "
            "matmul per query; retrieval quality is preserved on realistic "
            "missingness (2%)."
        ),
    )
    assert t_indexed < t_exact
    assert p_indexed >= p_exact - 0.1
    assert agreement >= 0.7


# ---------------------------------------------------------------------------
# ablation 2b: float32 vs float64 index shards
# ---------------------------------------------------------------------------
def test_abl_spell_index_float32(spell_bench):
    """The optional float32 compute path: memory/speed vs rank agreement.

    Shards stored in float32 halve index memory and speed the scoring
    matmuls; scores drift in the last digits, so this quantifies how
    well the float32 ranking agrees with the float64 reference.
    """
    comp, truth = spell_bench
    query = list(truth.query_genes)
    f64 = SpellIndex.build(comp)
    f32 = SpellIndex.build(comp, dtype=np.float32)

    def mean_query_seconds(index, repeats=10):
        with Stopwatch() as sw:
            for _ in range(repeats):
                index.search(query)
        return sw.elapsed / repeats

    t64 = mean_query_seconds(f64)
    t32 = mean_query_seconds(f32)
    rank64 = f64.search(query).gene_ranking()
    rank32 = f32.search(query).gene_ranking()
    agreement = len(set(rank64[:50]) & set(rank32[:50])) / 50

    write_report(
        "ABL-spell-f32",
        "SPELL index: float32 vs float64 shard precision",
        ["variant", "index size", "query time", "quality"],
        [
            ["float64 (reference)", f"{f64.nbytes() / 1024:.0f} KiB",
             f"{t64 * 1e3:.2f} ms", "exact aggregation dtype"],
            ["float32 shards", f"{f32.nbytes() / 1024:.0f} KiB",
             f"{t32 * 1e3:.2f} ms",
             f"top-50 rank agreement {agreement:.2f}"],
        ],
        notes=(
            "Normalization and aggregation stay float64 in both variants; "
            "only the stored shards (and therefore the scoring matmuls) "
            "drop precision. The persistent store records the dtype in its "
            "manifest, so a reopened index keeps the policy it was built "
            "with."
        ),
    )
    assert f32.nbytes() * 2 == f64.nbytes()
    assert agreement >= 0.9, f"float32 top-50 agreement only {agreement:.2f}"


# ---------------------------------------------------------------------------
# ablation 3: wall scheduling under content skew
# ---------------------------------------------------------------------------
def _skewed_scene(geo: WallGeometry) -> DisplayList:
    """All heatmap content piled onto the left third of the canvas."""
    rng = np.random.default_rng(3)
    dl = DisplayList(geo.canvas_width, geo.canvas_height, background=(4, 4, 4))
    cm = get_colormap("red-green")
    third = geo.canvas_width // 3
    for i in range(12):
        dl.add(
            HeatmapCmd(
                4, 4 + i * (geo.canvas_height // 13),
                third, geo.canvas_height // 14,
                rng.normal(size=(300, 150)), cm,
            )
        )
    dl.add(RectCmd(third, 0, geo.canvas_width - third, geo.canvas_height, (10, 10, 10)))
    return dl


def test_abl_wall_scheduling(spell_bench):
    geo = WallGeometry(rows=2, cols=6, tile_width=250, tile_height=200)
    dl = _skewed_scene(geo)
    reference = dl.render_full()
    rows = []
    frame_times = {}
    for schedule in ("static", "balanced", "dynamic", "workstealing"):
        wall = DisplayWall(geo, n_nodes=4, schedule=schedule)
        best = np.inf
        imbalance = 1.0
        for _ in range(3):
            frame = wall.render(dl)
            assert np.array_equal(frame.pixels, reference)
            if frame.metrics.frame_seconds < best:
                best = frame.metrics.frame_seconds
                imbalance = frame.metrics.load_imbalance()
        frame_times[schedule] = best
        rows.append([schedule, f"{best * 1000:.0f} ms", f"{imbalance:.2f}"])
    write_report(
        "ABL-wall-schedule",
        "tile scheduling on a content-skewed frame (12 tiles, 4 nodes)",
        ["schedule", "best frame time", "load imbalance"],
        rows,
        notes=(
            "Static block assignment concentrates the expensive left-column tiles "
            "on few nodes; cost-balanced/dynamic/work-stealing spread them.  All "
            "schedules produce byte-identical frames."
        ),
    )
    # at least one adaptive schedule should beat plain static on skewed content
    adaptive_best = min(frame_times["balanced"], frame_times["dynamic"],
                        frame_times["workstealing"])
    assert adaptive_best <= frame_times["static"] * 1.5


# ---------------------------------------------------------------------------
# ablation 4: dendrogram leaf ordering
# ---------------------------------------------------------------------------
def test_abl_leaf_ordering(case_study_bench):
    """Does weight-oriented subtree flipping improve heatmap readability?

    Metric: mean correlation-distance between adjacent leaves in display
    order (smaller = smoother heatmap).  Compares merge-order leaves vs
    the Cluster 3.0-style oriented tree.
    """
    from repro.cluster import hierarchical_cluster, order_leaves_by_weight
    from repro.cluster.distance import correlation_distance

    comp, _ = case_study_bench
    rows = []
    improvements = []
    for ds in list(comp)[:3]:
        data = ds.matrix.values
        tree = hierarchical_cluster(data)
        ordered = order_leaves_by_weight(tree, data)
        dist = correlation_distance(data)

        def adjacency_cost(order: list[int]) -> float:
            return float(
                np.mean([dist[a, b] for a, b in zip(order, order[1:])])
            )

        before = adjacency_cost(tree.leaf_order())
        after = adjacency_cost(ordered.leaf_order())
        improvements.append(before - after)
        rows.append([ds.name, f"{before:.3f}", f"{after:.3f}",
                     f"{(before - after) / before * 100:+.1f}%"])
    write_report(
        "ABL-leaf-order",
        "dendrogram leaf ordering: adjacent-leaf distance in display order",
        ["dataset", "merge order", "weight-oriented", "improvement"],
        rows,
        notes=(
            "Subtree flipping by mean expression never changes the clustering, "
            "only its drawn orientation; lower adjacent-leaf distance means a "
            "smoother global-view heatmap."
        ),
    )
    # orientation must never make adjacency dramatically worse
    assert all(impr > -0.05 for impr in improvements)


# ---------------------------------------------------------------------------
# ablation 5: vectorized hypergeometric
# ---------------------------------------------------------------------------
def test_abl_hypergeom_vectorization(benchmark):
    """Time: scoring 2000 terms in one vectorized call."""
    rng = np.random.default_rng(9)
    N, n = 6000, 120
    K = rng.integers(2, 400, size=2000)
    k = np.minimum(K, rng.integers(0, 40, size=2000))
    pvals = benchmark(enrichment_pvalues, k, N, K, n)
    assert pvals.shape == (2000,)
    assert ((pvals >= 0) & (pvals <= 1)).all()

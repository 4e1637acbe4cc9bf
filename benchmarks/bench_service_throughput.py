"""SERVICE — throughput of the serving layer under repeated, batched and
mutating workloads (the ROADMAP's "heavy traffic" scenario).

Four contracts the production service must honour, each measured here:

1. **Result cache** — a warm-cache query (LRU hit on the canonicalized
   query) must be at least an order of magnitude faster than the cold
   indexed path.
2. **Batched kernel** — ``SpellIndex.search_batch`` sends its members
   through the kernel ``search`` ends in, stacked in blocks (one gather,
   one stacked Gram, one wide matmul per dataset per block); it must
   cost at most 0.75x of B separate ``search`` calls and must stay
   bit-identical to them.
3. **Multi-process serving** — ``SpellService(n_procs>=2)`` scatters a
   batch's misses across worker processes sharing the mmap store; on a
   >= 2 core host it must beat the in-process path (the same kernel,
   one miss after another), and every ranking must be bit-identical to
   the direct ``SpellIndex.search`` oracle.
4. **Incremental index maintenance** — ``SpellIndex.updated`` over a
   compendium that gained one dataset must beat a full rebuild while
   producing *bit-identical* rankings.

Machine-readable numbers (cold/warm latency, single- vs multi-proc batch
QPS) land in ``benchmarks/results/BENCH_4.json`` for CI trending.
"""

from __future__ import annotations

import os

import pytest

from repro.api.protocol import BatchSearchRequest, SearchRequest
from repro.data.compendium import Compendium
from repro.spell import SpellIndex, SpellService
from repro.synth import make_spell_compendium
from repro.util.rng import default_rng
from repro.util.timing import Stopwatch

from benchmarks.conftest import update_json_report, write_report

N_QUERIES = 32
QUERY_SIZE = 4


@pytest.fixture(scope="module")
def workload(spell_bench):
    """The FIG4 compendium plus a deterministic mixed query batch."""
    comp, truth = spell_bench
    universe = comp.gene_universe()
    rng = default_rng(20260729)
    queries = [list(truth.query_genes)]
    while len(queries) < N_QUERIES:
        picks = rng.choice(len(universe), size=QUERY_SIZE, replace=False)
        queries.append([universe[int(p)] for p in picks])
    return comp, truth, queries


def _mean_query_seconds(service, queries, *, use_cache):
    with Stopwatch() as sw:
        for q in queries:
            service.search(q, use_cache=use_cache)
    return sw.elapsed / len(queries)


def test_service_cold_vs_warm_cache(workload):
    """Cache hits must be >= 10x faster than cold indexed queries."""
    comp, _, queries = workload
    service = SpellService(comp)
    cold = _mean_query_seconds(service, queries, use_cache=False)
    for q in queries:  # prime
        service.search(q)
    warm = _mean_query_seconds(service, queries, use_cache=True)
    stats = service.cache_stats()
    speedup = cold / warm if warm > 0 else float("inf")

    write_report(
        "SERVICE_CACHE",
        "SPELL service: cold vs warm-cache query latency",
        ["path", "mean latency", "queries/sec"],
        [
            ["cold (indexed, no cache)", f"{cold * 1e3:.3f} ms", f"{1.0 / cold:.0f}"],
            ["warm (LRU hit)", f"{warm * 1e6:.1f} us", f"{1.0 / warm:.0f}"],
        ],
        notes=(
            f"{len(queries)} distinct queries over the 40-dataset FIG4 "
            f"compendium; speedup {speedup:.0f}x; cache stats {stats}."
        ),
    )
    update_json_report(
        "BENCH_4",
        {
            "service_latency": {
                "cold_seconds": cold,
                "warm_seconds": warm,
                "speedup": speedup,
                "n_queries": len(queries),
            }
        },
    )
    assert stats["hits"] >= len(queries)
    assert speedup >= 10.0, f"warm cache only {speedup:.1f}x faster than cold"


def _batch_request(queries):
    return BatchSearchRequest(
        searches=tuple(SearchRequest(genes=tuple(q), page_size=20) for q in queries)
    )


def test_batched_kernel_beats_per_query_passes(workload):
    """search_batch must cost at most three quarters of B per-query
    ``search`` calls, and every ranking stays bit-identical to
    SpellIndex.search."""
    comp, _, queries = workload
    index = SpellIndex.build(comp)
    for q in queries[:3]:  # warm the BLAS/scratch paths out of the timing
        index.search(q)

    t_single = float("inf")
    t_batch = float("inf")
    for _ in range(3):
        with Stopwatch() as sw:
            solo = [index.search(q) for q in queries]
        t_single = min(t_single, sw.elapsed)
        with Stopwatch() as sw:
            batch = index.search_batch(queries)
        t_batch = min(t_batch, sw.elapsed)

    for a, b in zip(solo, batch):  # the oracle gate: bit-identical rankings
        assert [(g.gene_id, g.score, g.n_datasets) for g in a.genes] == [
            (g.gene_id, g.score, g.n_datasets) for g in b.genes
        ]
        assert [(d.name, d.weight) for d in a.datasets] == [
            (d.name, d.weight) for d in b.datasets
        ]

    speedup = t_single / t_batch if t_batch > 0 else float("inf")
    write_report(
        "SERVICE_KERNEL",
        "SPELL index: batched arena kernel vs per-query passes",
        ["path", "batch wall time", "queries/sec"],
        [
            ["per-query search x32", f"{t_single * 1e3:.1f} ms",
             f"{len(queries) / t_single:.0f}"],
            ["search_batch (stacked blocks, same kernel)", f"{t_batch * 1e3:.1f} ms",
             f"{len(queries) / t_batch:.0f}"],
        ],
        notes=(
            f"{len(queries)} queries over the FIG4 compendium; both paths end "
            f"in the one kernel — per query as a block of one, the batch as "
            f"blocks of stacked members (one gather, one stacked Gram and one "
            f"wide matmul per dataset per block); {speedup:.2f}x, rankings "
            f"bit-identical (asserted)."
        ),
    )
    update_json_report(
        "BENCH_4",
        {
            "batch_kernel": {
                "per_query_seconds": t_single,
                "batched_seconds": t_batch,
                "speedup": speedup,
                "n_queries": len(queries),
            }
        },
    )
    # a batch must be cheaper than its members: what stacking saves is
    # NumPy dispatch, which no host's BLAS changes (measured 0.56-0.65x on
    # this shape; both sides are a min of three, so the ratio is stable)
    assert t_batch <= 0.75 * t_single, (
        f"batched kernel not ahead of per-query: {t_batch:.4f}s vs {t_single:.4f}s"
    )


def test_multiproc_batch_beats_single_proc(workload, tmp_path_factory):
    """n_procs=2 batch serving must beat the in-process path on a
    multi-core host, with every ranking bit-identical to the direct
    SpellIndex.search oracle."""
    comp, _, queries = workload
    cores = os.cpu_count() or 1
    request = BatchSearchRequest(
        searches=tuple(
            SearchRequest(genes=tuple(q), page_size=20, use_cache=False)
            for q in queries
        )
    )
    store = tmp_path_factory.mktemp("spell-proc-store")

    single = SpellService(comp, cache_size=0)
    multi = SpellService(comp, n_procs=2, cache_size=0, store_dir=store)
    try:
        single.respond_batch(request)  # warm the scratch pool
        warm = multi.respond_batch(request)  # spawn + first-touch, untimed
        assert multi._procpool is not None and not multi._procpool.broken

        t_single = float("inf")
        t_multi = float("inf")
        for _ in range(3):
            with Stopwatch() as sw:
                single_batch = single.respond_batch(request)
            t_single = min(t_single, sw.elapsed)
            with Stopwatch() as sw:
                multi_batch = multi.respond_batch(request)
            t_multi = min(t_multi, sw.elapsed)
        assert multi._procpool.batches >= 4  # proc path actually served

        # oracle gate: every served ranking bit-identical to the direct index
        oracle = SpellIndex.build(comp)
        for q, s_resp, m_resp, w_resp in zip(
            queries, single_batch.results, multi_batch.results, warm.results
        ):
            expect = tuple(
                (i + 1, g.gene_id, g.score)
                for i, g in enumerate(oracle.search(q).genes[:20])
            )
            assert s_resp.gene_rows == expect
            assert m_resp.gene_rows == expect
            assert w_resp.gene_rows == expect

        single_qps = len(queries) / t_single
        multi_qps = len(queries) / t_multi
        write_report(
            "SERVICE_PROCS",
            "SPELL service: in-process kernel vs process pool (batch)",
            ["path", "batch wall time", "queries/sec"],
            [
                ["1 process (in-process kernel)", f"{t_single * 1e3:.1f} ms",
                 f"{single_qps:.0f}"],
                ["2 processes (mmap store)", f"{t_multi * 1e3:.1f} ms",
                 f"{multi_qps:.0f}"],
            ],
            notes=(
                f"{len(queries)} cold queries per batch on a {cores}-core "
                f"host; workers share shard pages via the OS page cache. "
                f"Rankings bit-identical to the direct SpellIndex.search "
                f"oracle (asserted). The multi-proc-beats-single-proc gate "
                f"is enforced on >= 2 cores."
            ),
        )
        update_json_report(
            "BENCH_4",
            {
                "proc_serving": {
                    "cores": cores,
                    "n_procs": 2,
                    "single_proc_qps": single_qps,
                    "multi_proc_qps": multi_qps,
                    "speedup": multi_qps / single_qps if single_qps else None,
                    "gate_enforced": cores >= 2,
                }
            },
        )
        if cores >= 2:
            assert multi_qps > single_qps, (
                f"multi-process batch serving failed to beat single-process: "
                f"{multi_qps:.0f} vs {single_qps:.0f} qps on {cores} cores"
            )
    finally:
        single.close()
        multi.close()


def test_service_warm_batch_beats_cold_batch(workload):
    """The combined path: a warm cache accelerates whole batches too."""
    comp, _, queries = workload
    service = SpellService(comp, n_workers=2)
    cold_batch = service.respond_batch(_batch_request(queries))
    warm_batch = service.respond_batch(_batch_request(queries))
    assert warm_batch.cache_hits == len(queries)
    assert warm_batch.total_seconds < cold_batch.total_seconds
    for cold_page, warm_page in zip(cold_batch.results, warm_batch.results):
        assert cold_page.gene_rows == warm_page.gene_rows


def test_incremental_add_matches_fresh_build():
    """``updated()`` must beat a full rebuild and match it exactly."""
    comp, truth = make_spell_compendium(
        n_datasets=24,
        n_relevant=6,
        n_genes=400,
        n_conditions=16,
        module_size=20,
        query_size=4,
        seed=31,
    )
    datasets = list(comp)
    base = Compendium(datasets[:-1])

    index = SpellIndex.build(base)
    with Stopwatch() as sw_incr:
        index = index.updated(comp)
    with Stopwatch() as sw_full:
        fresh = SpellIndex.build(comp)

    query = list(truth.query_genes)
    incr_result = index.search(query)
    fresh_result = fresh.search(query)
    assert incr_result.dataset_ranking() == fresh_result.dataset_ranking()
    assert [(g.gene_id, g.score) for g in incr_result.genes] == [
        (g.gene_id, g.score) for g in fresh_result.genes
    ]

    write_report(
        "SERVICE_INCR",
        "SPELL index: incremental add_dataset vs full rebuild",
        ["operation", "wall time"],
        [
            ["updated() (1 of 24 shards new)", f"{sw_incr.elapsed * 1e3:.2f} ms"],
            ["full rebuild (24 shards)", f"{sw_full.elapsed * 1e3:.2f} ms"],
        ],
        notes=(
            "Incremental maintenance indexes only the new shard; rankings "
            "and scores are bit-identical to a fresh build."
        ),
    )
    assert sw_incr.elapsed < sw_full.elapsed


def test_parallel_build_matches_serial(workload):
    """Sharded parallel build must equal the serial build's answers."""
    comp, truth, _ = workload
    serial = SpellIndex.build(comp, n_workers=1)
    parallel = SpellIndex.build(comp, n_workers=4)
    query = list(truth.query_genes)
    a, b = serial.search(query), parallel.search(query)
    assert a.dataset_ranking() == b.dataset_ranking()
    assert [(g.gene_id, g.score) for g in a.genes] == [
        (g.gene_id, g.score) for g in b.genes
    ]

"""API_HTTP — round-trip latency and concurrent throughput of the HTTP facade.

The v1 API is the seam every frontend plugs into (ROADMAP "Versioned
query API"); this bench prices the facade itself:

1. **Round-trip latency** — cold (index matmuls) vs warm (LRU hit)
   ``POST /v1/search`` over a real socket, so the number includes JSON
   encode/decode and HTTP framing.  The warm path must stay under a
   couple of milliseconds — the transport must not squander what the
   result cache saves.
2. **Concurrent clients** — N threads hammering one
   ``ThreadingHTTPServer`` sharing the memory-mapped index; aggregate
   throughput must not collapse as clients are added, and every answer
   must be identical (the consistency contract of the shared index).
3. **Multi-core batches** — ``POST /v1/search/batch`` against a
   ``n_procs=2`` facade (worker processes mmap-sharing the index store)
   vs the single-process facade: identical answers, and the multi-core
   numbers land in ``benchmarks/results/BENCH_4.json``.
4. **Deep export vs paging** — pulling the *whole* ranking through
   ``POST /v1/search/export`` (one NDJSON body) vs paging
   ``/v1/search`` to exhaustion with the same slice size: identical
   rows asserted, export must be at least 2x faster (it pays one HTTP
   round trip, one cache lookup, and one metadata serialization for
   the entire ranking), numbers in ``benchmarks/results/BENCH_5.json``.
5. **Sharded scatter-gather vs one node** — the same cold queries
   through a 3-shard ``RouterService`` topology vs a single-node
   facade, sequential client (the shape the sharded tier accelerates:
   each query's scoring fans out across shard nodes concurrently).
   Rankings asserted identical; on a multi-core host sharded
   throughput must not fall below single-node; numbers in
   ``benchmarks/results/BENCH_6.json``.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import threading
import time
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.api.aio import LoopGroup
from repro.api.app import ApiApp
from repro.api.http import serve
from repro.cluster_serving import build_local_topology
from repro.spell import SpellService
from repro.util.rng import default_rng
from repro.util.timing import Stopwatch

from benchmarks.conftest import update_json_report, write_report

N_LATENCY_QUERIES = 24
QUERY_SIZE = 4
CLIENT_COUNTS = (1, 2, 4, 8)
REQUESTS_PER_CLIENT = 12
AIO_CLIENTS = 8
AIO_REQUESTS_PER_CLIENT = 25
# deep pages tilt per-request cost toward server-side JSON encode, so the
# facade under test — not the GIL-bound measuring client — is the bottleneck
AIO_PAGE_SIZE = 100


def _latency_percentiles(ordered: list[float]) -> dict[str, float]:
    """Nearest-rank p50/p95/p99 over an already-sorted latency list."""

    def pick(q: float) -> float:
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    return {"p50": pick(50), "p95": pick(95), "p99": pick(99)}


def _run_keepalive_clients(
    host: str,
    port: int,
    genes: list[str],
    n_clients: int,
    n_requests: int,
    expected_rows: list | None = None,
    page_size: int = 20,
) -> tuple[float, float, list[float]]:
    """N threads, one persistent HTTP connection each, timing every request.

    Keep-alive is the point: per-request connections would price TCP
    setup instead of the serving tier, and could never exercise the
    async facade's connection reuse.  Returns ``(qps, wall_seconds,
    sorted per-request latencies)``.  With ``expected_rows`` every
    response is parsed and checked; without it only the status is
    checked, keeping the GIL-bound client process cheap enough that the
    *server* stays the measured bottleneck.
    """
    payload = json.dumps({"genes": genes, "page_size": page_size}).encode()
    latencies: list[float] = []
    errors: list[Exception] = []
    mismatches: list[int] = []
    lock = threading.Lock()

    def client(idx: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            for _ in range(n_requests):
                start = time.perf_counter()
                conn.request(
                    "POST",
                    "/v1/search",
                    body=payload,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                data = resp.read()
                elapsed = time.perf_counter() - start
                with lock:
                    latencies.append(elapsed)
                    if resp.status != 200:
                        errors.append(
                            RuntimeError(f"HTTP {resp.status}: {data[:200]!r}")
                        )
                    elif (
                        expected_rows is not None
                        and json.loads(data)["gene_rows"] != expected_rows
                    ):
                        mismatches.append(idx)
        except Exception as exc:  # pragma: no cover - diagnostic
            with lock:
                errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
    with Stopwatch() as sw:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors, f"{n_clients} keep-alive clients: {errors[0]!r}"
    assert not mismatches, f"inconsistent answers from clients {mismatches}"
    assert len(latencies) == n_clients * n_requests
    qps = len(latencies) / sw.elapsed if sw.elapsed > 0 else float("inf")
    return qps, sw.elapsed, sorted(latencies)


@pytest.fixture(scope="module")
def live_facade(spell_bench):
    """A live threaded server over the FIG4 compendium + a query batch."""
    comp, truth = spell_bench
    service = SpellService(comp, n_workers=4)
    app = ApiApp(service)
    server = serve(app, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"

    universe = comp.gene_universe()
    rng = default_rng(20260729)
    queries = [list(truth.query_genes)]
    while len(queries) < N_LATENCY_QUERIES:
        picks = rng.choice(len(universe), size=QUERY_SIZE, replace=False)
        queries.append([universe[int(p)] for p in picks])

    yield base, queries
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _post_search(base: str, genes: list[str], page_size: int = 20) -> dict:
    request = urllib.request.Request(
        base + "/v1/search",
        data=json.dumps({"genes": genes, "page_size": page_size}).encode(),
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as resp:
        return json.loads(resp.read())


def test_http_roundtrip_latency(live_facade):
    """Cold vs warm-cache POST /v1/search over a real socket."""
    base, queries = live_facade
    with Stopwatch() as sw_cold:
        for genes in queries:
            _post_search(base, genes)
    cold = sw_cold.elapsed / len(queries)
    with Stopwatch() as sw_warm:  # every query now hits the LRU
        for genes in queries:
            _post_search(base, genes)
    warm = sw_warm.elapsed / len(queries)
    speedup = cold / warm if warm > 0 else float("inf")

    write_report(
        "API_HTTP_LATENCY",
        "HTTP facade: cold vs warm-cache search round-trip",
        ["path", "mean round-trip", "requests/sec"],
        [
            ["cold (index search)", f"{cold * 1e3:.3f} ms", f"{1.0 / cold:.0f}"],
            ["warm (cache hit)", f"{warm * 1e3:.3f} ms", f"{1.0 / warm:.0f}"],
        ],
        notes=(
            f"{len(queries)} distinct queries over the 40-dataset FIG4 "
            f"compendium; warm/cold speedup {speedup:.1f}x.  Round-trips "
            "include JSON + HTTP framing, so the transport overhead bounds "
            "the warm path."
        ),
    )
    update_json_report(
        "BENCH_4",
        {
            "http_latency": {
                "cold_seconds": cold,
                "warm_seconds": warm,
                "speedup": speedup,
                "n_queries": len(queries),
            }
        },
    )
    assert warm < cold  # the cache must still be visible through the socket
    assert warm < 0.25, f"warm HTTP round-trip is {warm * 1e3:.1f} ms"


def test_http_concurrent_throughput(live_facade):
    """Aggregate throughput and tail latency as keep-alive clients are added."""
    base, queries = live_facade
    genes = queries[0]
    expected = _post_search(base, genes)["gene_rows"]
    parts = urlsplit(base)

    rows = []
    qps_by_clients = {}
    latency_by_clients = {}
    for n_clients in CLIENT_COUNTS:
        qps, wall, latencies = _run_keepalive_clients(
            parts.hostname,
            parts.port,
            genes,
            n_clients,
            REQUESTS_PER_CLIENT,
            expected_rows=expected,
        )
        pct = _latency_percentiles(latencies)
        qps_by_clients[n_clients] = qps
        latency_by_clients[n_clients] = pct
        rows.append(
            [
                n_clients,
                len(latencies),
                f"{wall * 1e3:.1f} ms",
                f"{qps:.0f}",
                f"{pct['p50'] * 1e3:.2f} ms",
                f"{pct['p95'] * 1e3:.2f} ms",
                f"{pct['p99'] * 1e3:.2f} ms",
            ]
        )

    write_report(
        "API_HTTP_THROUGHPUT",
        "HTTP facade: concurrent keep-alive client throughput (warm cache)",
        ["clients", "requests", "wall time", "requests/sec", "p50", "p95", "p99"],
        rows,
        notes=(
            "All clients reuse one keep-alive connection each and issue the "
            "same warm-cache query against one ThreadingHTTPServer sharing "
            "the index; answers are checked identical.  Throughput must not "
            "collapse as clients are added; percentiles are nearest-rank "
            "over every request."
        ),
    )
    update_json_report(
        "BENCH_4",
        {
            "http_concurrent": {
                "requests_per_client": REQUESTS_PER_CLIENT,
                "qps_by_clients": {str(k): v for k, v in qps_by_clients.items()},
                "latency_ms_by_clients": {
                    str(k): {name: v * 1e3 for name, v in pct.items()}
                    for k, pct in latency_by_clients.items()
                },
            }
        },
    )
    # concurrency must never cost more than ~40% of single-client throughput
    assert qps_by_clients[max(CLIENT_COUNTS)] > 0.6 * qps_by_clients[1], (
        f"throughput collapsed under concurrency: {qps_by_clients}"
    )


def test_http_export_vs_paged_deep_result(live_facade):
    """Full-universe export: one NDJSON body vs paging to exhaustion.

    The SPELL-style downstream consumer (enrichment pipelines) wants the
    *entire* ranking; before ``/v1/search/export`` it had to page
    ``/v1/search`` call-by-call, re-hitting the cache and re-serializing
    overlapping metadata every round trip.  Both paths are timed warm
    (the result itself is cached) so the comparison prices the
    transport, which is exactly what the export endpoint exists to
    collapse.  Rows must be bit-identical; export must be >= 2x faster.
    """
    base, queries = live_facade
    genes = queries[0]
    slice_size = 20  # a realistic web-page size; the deep client's handicap

    def fetch_paged() -> list:
        rows: list = []
        page = 0
        while True:
            request = urllib.request.Request(
                base + "/v1/search",
                data=json.dumps(
                    {"genes": genes, "page": page, "page_size": slice_size}
                ).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=60) as resp:
                body = json.loads(resp.read())
            rows.extend(body["gene_rows"])
            page += 1
            if page >= body["total_pages"]:
                return rows

    def fetch_export() -> tuple[list, dict]:
        request = urllib.request.Request(
            base + "/v1/search/export",
            data=json.dumps({"genes": genes, "chunk_size": slice_size}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=60) as resp:
            lines = [line for line in resp.read().split(b"\n") if line]
        parsed = [json.loads(line) for line in lines]
        trailer = parsed[-1]
        assert trailer["kind"] == "trailer" and trailer["status"] == "ok"
        return [row for c in parsed[:-1] for row in c["gene_rows"]], trailer

    paged_rows = fetch_paged()  # warm the result cache for both paths
    paged_time = float("inf")
    export_time = float("inf")
    for _ in range(3):
        with Stopwatch() as sw:
            paged_rows = fetch_paged()
        paged_time = min(paged_time, sw.elapsed)
        with Stopwatch() as sw:
            export_rows, trailer = fetch_export()
        export_time = min(export_time, sw.elapsed)

    assert export_rows == paged_rows, "export stream diverged from paged rows"
    assert trailer["total_rows"] == len(export_rows)
    speedup = paged_time / export_time if export_time > 0 else float("inf")
    n_pages = -(-len(paged_rows) // slice_size)

    write_report(
        "API_HTTP_EXPORT",
        "HTTP facade: deep result via /v1/search/export vs paged /v1/search",
        ["path", "requests", "rows", "wall time", "rows/sec"],
        [
            ["paged /v1/search", n_pages, len(paged_rows),
             f"{paged_time * 1e3:.1f} ms", f"{len(paged_rows) / paged_time:.0f}"],
            ["/v1/search/export", 1, len(export_rows),
             f"{export_time * 1e3:.1f} ms", f"{len(export_rows) / export_time:.0f}"],
        ],
        notes=(
            f"Full-universe ranking ({len(export_rows)} rows) in slices of "
            f"{slice_size}, warm cache; export sent {trailer['n_chunks']} "
            f"chunk lines in one response and came back {speedup:.1f}x "
            "faster.  Rows are asserted bit-identical, and the trailer "
            "checksum covers the streamed bytes."
        ),
    )
    update_json_report(
        "BENCH_5",
        {
            "export_vs_paged": {
                "rows": len(export_rows),
                "slice_size": slice_size,
                "paged_requests": n_pages,
                "paged_seconds": paged_time,
                "export_seconds": export_time,
                "speedup": speedup,
                "export_chunks": trailer["n_chunks"],
            }
        },
    )
    assert speedup >= 2.0, (
        f"deep export only {speedup:.2f}x faster than paging "
        f"({export_time * 1e3:.1f} ms vs {paged_time * 1e3:.1f} ms)"
    )


def test_http_batch_multiproc_consistent_and_reported(
    spell_bench, tmp_path_factory
):
    """POST /v1/search/batch against a single-process and an n_procs=2
    facade: answers must be identical; throughput of both is recorded
    (the hard multi-proc-beats-single-proc gate lives in
    bench_service_throughput, away from HTTP framing noise)."""
    comp, truth = spell_bench
    universe = comp.gene_universe()
    rng = default_rng(20260730)
    queries = [list(truth.query_genes)]
    while len(queries) < 16:
        picks = rng.choice(len(universe), size=QUERY_SIZE, replace=False)
        queries.append([universe[int(p)] for p in picks])
    payload = {
        "searches": [
            {"genes": q, "page_size": 20, "use_cache": False} for q in queries
        ]
    }
    body = json.dumps(payload).encode()

    def boot(**service_kw):
        service = SpellService(comp, cache_size=0, **service_kw)
        app = ApiApp(service)
        server = serve(app, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        return service, server, thread, f"http://{host}:{port}"

    def post_batch(base: str) -> dict:
        request = urllib.request.Request(
            base + "/v1/search/batch", data=body, method="POST"
        )
        with urllib.request.urlopen(request, timeout=120) as resp:
            return json.loads(resp.read())

    store = tmp_path_factory.mktemp("spell-http-proc-store")
    facades = {
        "1 process (in-process kernel)": boot(),
        "2 processes (mmap store)": boot(n_procs=2, store_dir=store),
    }
    rows = []
    qps = {}
    answers = {}
    try:
        for label, (service, _, _, base) in facades.items():
            post_batch(base)  # warm up (spawns the pool on the proc facade)
            best = float("inf")
            for _ in range(3):
                with Stopwatch() as sw:
                    response = post_batch(base)
                best = min(best, sw.elapsed)
            answers[label] = [r["gene_rows"] for r in response["results"]]
            qps[label] = len(queries) / best
            rows.append([label, f"{best * 1e3:.1f} ms", f"{qps[label]:.0f}"])
    finally:
        for service, server, thread, _ in facades.values():
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()

    first, second = answers.values()
    assert first == second, "multi-proc facade served different rankings"
    cores = os.cpu_count() or 1
    write_report(
        "API_HTTP_BATCH",
        "HTTP facade: /v1/search/batch single-process vs process pool",
        ["facade", "batch wall time", "queries/sec"],
        rows,
        notes=(
            f"{len(queries)} cold queries per batch over HTTP on a "
            f"{cores}-core host; both facades returned identical rankings "
            "(asserted)."
        ),
    )
    update_json_report(
        "BENCH_4",
        {
            "http_batch": {
                "cores": cores,
                "single_proc_qps": qps["1 process (in-process kernel)"],
                "multi_proc_qps": qps["2 processes (mmap store)"],
            }
        },
    )


def test_http_sharded_vs_single_node(spell_bench):
    """Scatter-gather sharded serving vs one node, same queries over HTTP.

    A sequential client issues cold queries (``use_cache=False``) so every
    request prices real scoring.  The single-node facade scores all 40
    datasets in one process; the sharded facade routes each query through
    ``RouterService`` to three in-process shard nodes over real sockets
    and merges the partials.  Rankings must be identical (the oracle
    property, asserted through the full HTTP stack); on a multi-core host
    the per-query shard parallelism must at least pay for the RPC hop —
    sharded throughput >= single-node.  On one core only the overhead is
    visible, so the gate is informational there.
    """
    comp, _truth = spell_bench
    universe = comp.gene_universe()
    rng = default_rng(20260807)
    queries = []
    while len(queries) < 12:
        # 12-gene queries: enough matmul per request that the scoring the
        # shards parallelize dominates the fixed per-query RPC cost
        picks = rng.choice(len(universe), size=12, replace=False)
        queries.append([universe[int(p)] for p in picks])

    def boot(app):
        server = serve(app, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        return server, thread, f"http://{host}:{port}"

    def post_cold(base: str, genes: list[str]) -> dict:
        request = urllib.request.Request(
            base + "/v1/search",
            data=json.dumps(
                {"genes": genes, "page_size": 20, "use_cache": False}
            ).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=60) as resp:
            return json.loads(resp.read())

    service = SpellService(comp, cache_size=0)
    single_server, single_thread, single_base = boot(ApiApp(service))
    topology = build_local_topology(
        comp, n_shards=3, replication=1, cache_size=0
    )
    shard_server, shard_thread, shard_base = boot(ApiApp(topology.router))

    rows = []
    qps = {}
    try:
        # the oracle property survives the full stack: router + RPC + HTTP
        for genes in queries:
            single_body = post_cold(single_base, genes)
            sharded_body = post_cold(shard_base, genes)
            assert sharded_body["gene_rows"] == single_body["gene_rows"]
            assert sharded_body["dataset_rows"] == single_body["dataset_rows"]
            assert sharded_body["partial"] is False

        for label, base in (
            ("single node", single_base),
            ("3-shard router", shard_base),
        ):
            best = float("inf")
            for _ in range(3):
                with Stopwatch() as sw:
                    for genes in queries:
                        post_cold(base, genes)
                best = min(best, sw.elapsed)
            qps[label] = len(queries) / best
            rows.append(
                [label, f"{best * 1e3:.1f} ms",
                 f"{best / len(queries) * 1e3:.2f} ms", f"{qps[label]:.0f}"]
            )
    finally:
        for server, thread in (
            (single_server, single_thread), (shard_server, shard_thread)
        ):
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        topology.close()
        service.close()

    cores = os.cpu_count() or 1
    ratio = qps["3-shard router"] / qps["single node"]
    write_report(
        "API_HTTP_SHARDED",
        "HTTP facade: 3-shard scatter-gather router vs single node",
        ["serving tier", "batch wall time", "per query", "queries/sec"],
        rows,
        notes=(
            f"{len(queries)} cold queries, sequential client, {cores}-core "
            f"host; sharded/single throughput ratio {ratio:.2f}.  Rankings "
            "asserted bit-identical through the full router + RPC + HTTP "
            "stack before timing."
        ),
    )
    update_json_report(
        "BENCH_6",
        {
            "sharded_vs_single_node": {
                "cores": cores,
                "n_shards": 3,
                "n_queries": len(queries),
                "single_node_qps": qps["single node"],
                "sharded_qps": qps["3-shard router"],
                "ratio": ratio,
            }
        },
    )
    if cores >= 2:
        assert ratio >= 1.0, (
            f"sharded serving slower than single node on {cores} cores: "
            f"{qps['3-shard router']:.0f} vs {qps['single node']:.0f} qps"
        )


def test_async_vs_threaded_concurrent(spell_bench):
    """BENCH_8 gate: asyncio loop group vs the threaded facade, keep-alive.

    The threaded facade is one ``ThreadingHTTPServer`` process — every
    request thread contends on one GIL.  The async tier runs one loop
    worker *process* per core (capped at 4) on one ``SO_REUSEPORT``
    port, so warm-cache request handling (JSON + dict work, exactly
    what the GIL serializes) spreads across cores.  Both facades serve
    the same seed-424 FIG4 compendium; the oracle property (identical
    rankings through either facade) is asserted before any timing.  On
    >= 2 cores the loop group must deliver >= 2x the threaded facade's
    concurrent keep-alive QPS with no worse p99; on one core the
    numbers are informational (both tiers time-slice one CPU).
    """
    comp, truth = spell_bench
    genes = list(truth.query_genes)
    cores = os.cpu_count() or 1
    n_loops = max(2, min(4, cores))

    service = SpellService(comp, n_workers=4)
    threaded_server = serve(ApiApp(service), host="127.0.0.1", port=0)
    threaded_thread = threading.Thread(
        target=threaded_server.serve_forever, daemon=True
    )
    threaded_thread.start()
    t_host, t_port = threaded_server.server_address[:2]

    # each spawned worker rebuilds the exact spell_bench compendium
    # (same params, same seed) so the facades answer from identical data
    group = LoopGroup(
        n_loops=n_loops,
        factory_kwargs={
            "synth_datasets": 40,
            "n_relevant": 8,
            "synth_genes": 600,
            "synth_conditions": 20,
            "module_size": 30,
            "query_size": 5,
            "seed": 424,
            "n_workers": 4,
        },
    )
    qps = {}
    pct = {}
    try:
        group.start()
        expected = _post_search(
            f"http://{t_host}:{t_port}", genes, page_size=AIO_PAGE_SIZE
        )["gene_rows"]
        aio_rows = _post_search(
            f"http://{group.host}:{group.port}", genes, page_size=AIO_PAGE_SIZE
        )["gene_rows"]
        assert aio_rows == expected, "async facade diverged from threaded facade"

        for label, host, port in (
            ("threaded", t_host, t_port),
            ("async", group.host, group.port),
        ):
            # warm-up round checks every answer and, because the kernel
            # balances connections across loops, touches every worker's
            # cache; the measured round then skips client-side parsing so
            # the client cannot become the bottleneck
            _run_keepalive_clients(
                host,
                port,
                genes,
                AIO_CLIENTS,
                3,
                expected_rows=expected,
                page_size=AIO_PAGE_SIZE,
            )
            measured, _, latencies = _run_keepalive_clients(
                host,
                port,
                genes,
                AIO_CLIENTS,
                AIO_REQUESTS_PER_CLIENT,
                page_size=AIO_PAGE_SIZE,
            )
            qps[label] = measured
            pct[label] = _latency_percentiles(latencies)
    finally:
        group.stop()
        threaded_server.close()
        threaded_thread.join(timeout=5)
        service.close()

    ratio = qps["async"] / qps["threaded"] if qps["threaded"] > 0 else float("inf")
    rows = [
        [
            label,
            f"{qps[label]:.0f}",
            f"{pct[label]['p50'] * 1e3:.2f} ms",
            f"{pct[label]['p95'] * 1e3:.2f} ms",
            f"{pct[label]['p99'] * 1e3:.2f} ms",
        ]
        for label in ("threaded", "async")
    ]
    write_report(
        "API_AIO_THROUGHPUT",
        "Async loop group vs threaded facade: concurrent keep-alive clients",
        ["facade", "requests/sec", "p50", "p95", "p99"],
        rows,
        notes=(
            f"{AIO_CLIENTS} keep-alive clients x {AIO_REQUESTS_PER_CLIENT} "
            f"warm-cache searches on a {cores}-core host; async tier ran "
            f"{n_loops} SO_REUSEPORT loop processes, threaded tier one "
            f"ThreadingHTTPServer process.  QPS ratio {ratio:.2f}x.  "
            "Rankings asserted identical across facades before timing."
        ),
    )
    update_json_report(
        "BENCH_8",
        {
            "async_vs_threaded": {
                "cores": cores,
                "loops": n_loops,
                "clients": AIO_CLIENTS,
                "requests_per_client": AIO_REQUESTS_PER_CLIENT,
                "page_size": AIO_PAGE_SIZE,
                "threaded_qps": qps["threaded"],
                "async_qps": qps["async"],
                "qps_ratio": ratio,
                "threaded_latency_ms": {
                    name: v * 1e3 for name, v in pct["threaded"].items()
                },
                "async_latency_ms": {
                    name: v * 1e3 for name, v in pct["async"].items()
                },
            }
        },
    )
    if cores >= 2:
        assert ratio >= 2.0, (
            f"async facade only {ratio:.2f}x threaded QPS on {cores} cores "
            f"({qps['async']:.0f} vs {qps['threaded']:.0f})"
        )
        assert pct["async"]["p99"] <= pct["threaded"]["p99"], (
            f"async p99 regressed: {pct['async']['p99'] * 1e3:.2f} ms vs "
            f"threaded {pct['threaded']['p99'] * 1e3:.2f} ms"
        )

#!/usr/bin/env python
"""SPELL search walkthrough over the v1 API (the paper's Figure 4, headless).

Builds a compendium with a planted co-expression module, boots the real
HTTP facade (`repro.api.http`) on an ephemeral port, and drives the full
v1 surface over the wire: `/v1/search`, `/v1/search/export` (NDJSON
deep export, checksum-verified), `/v1/datasets`, `/v1/cluster`,
`/v1/render/heatmap`, `/v1/health` — then verifies the wire answers are
bit-identical to direct `SpellService` results and scores SPELL against
the text-search baseline.
"""

import base64
import hashlib
import json
import tempfile
import urllib.error
import urllib.request

from repro.api.app import ApiApp
from repro.api.http import serve_background
from repro.spell import SpellService, TextSearchBaseline
from repro.stats import average_precision, precision_at_k
from repro.synth import make_spell_compendium
from repro.util.formatting import format_table
from repro.util.timing import Stopwatch
from repro.viz.ppm import decode_ppm


def call(base: str, path: str, payload: dict | None = None) -> dict:
    """One wire round-trip (GET when payload is None, else POST JSON)."""
    if payload is None:
        request = urllib.request.Request(base + path)
    else:
        request = urllib.request.Request(
            base + path, data=json.dumps(payload).encode(), method="POST"
        )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return json.loads(resp.read())


def main() -> None:
    compendium, truth = make_spell_compendium(
        n_datasets=16,
        n_relevant=5,
        n_genes=500,
        n_conditions=18,
        module_size=25,
        query_size=5,
        seed=42,
    )
    print(f"compendium: {compendium}")
    print(f"query genes: {', '.join(truth.query_genes)}")
    print(f"(planted module: {len(truth.module_genes)} genes, "
          f"coexpressed in {len(truth.relevant_datasets)} datasets)\n")

    # --- boot the real serving stack: SpellService -> ApiApp -> HTTP -------
    service = SpellService(compendium, n_workers=4)
    server, _ = serve_background(ApiApp(service))
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"v1 API serving on {base}/v1/ "
          f"({len(call(base, '/v1/datasets')['datasets'])} datasets listed)\n")

    # --- POST /v1/search: the Figure 4 web table, over the wire ------------
    page = call(base, "/v1/search",
                {"genes": list(truth.query_genes), "page_size": 15})
    print(f"--- /v1/search ({page['elapsed_seconds'] * 1000:.1f} ms, "
          f"page 1 of {page['total_pages']}) ---")
    print("\ndatasets by relevance:")
    relevant = set(truth.relevant_datasets)
    rows = [
        [rank, name + ("*" if name in relevant else ""), f"{weight:.3f}"]
        for rank, name, weight in page["dataset_rows"]
    ]
    print(format_table(["rank", "dataset (*=planted)", "weight"], rows))

    print("\ngenes by weighted correlation:")
    module = set(truth.module_genes)
    rows = [
        [rank, gene + ("*" if gene in module else ""), f"{score:.3f}"]
        for rank, gene, score in page["gene_rows"]
    ]
    print(format_table(["rank", "gene (*=planted)", "score"], rows))

    # --- wire parity: HTTP answers == direct SpellService ------------------
    direct = service.search(list(truth.query_genes))
    wire_genes = [(g, s) for _, g, s in page["gene_rows"]]
    direct_genes = [(g.gene_id, g.score) for g in direct.genes[:15]]
    print(f"\nwire parity vs direct SpellService.search(): "
          f"{'bit-identical' if wire_genes == direct_genes else 'MISMATCH'}")

    # --- scoring vs ground truth and vs the text baseline ------------------
    hidden = set(truth.module_genes) - set(truth.query_genes)
    ranking = [row[1] for row in call(
        base, "/v1/search",
        {"genes": list(truth.query_genes), "page_size": len(hidden)},
    )["gene_rows"]]
    baseline = TextSearchBaseline(compendium).search(list(truth.query_genes))
    k = len(hidden)
    rows = [
        [
            "SPELL (/v1/search)",
            f"{precision_at_k(ranking, hidden, k):.2f}",
            f"{average_precision(direct.gene_ranking(), hidden):.2f}",
        ],
        [
            "text-match baseline",
            f"{precision_at_k(baseline.gene_ranking(), hidden, k):.2f}",
            f"{average_precision(baseline.gene_ranking(), hidden):.2f}",
        ],
    ]
    print(f"\nretrieval of the {k} hidden module genes:")
    print(format_table(["method", f"precision@{k}", "avg precision"], rows))

    # --- POST /v1/cluster + /v1/render/heatmap: analysis over the wire -----
    cluster = call(base, "/v1/cluster", {
        "search": {"genes": list(truth.query_genes)},
        "top_genes": 12,
    })
    in_module = sum(g in module for g in cluster["genes"])
    print(f"\n/v1/cluster: {len(cluster['genes'])} top genes clustered in "
          f"dataset {cluster['dataset']} "
          f"({in_module} from the planted module); "
          f"{len(cluster['merges'])} merges")

    heatmap = call(base, "/v1/render/heatmap", {
        "search": {"genes": list(truth.query_genes)},
        "top_genes": 12,
        "cluster": True,
    })
    pixels = decode_ppm(base64.b64decode(heatmap["ppm_base64"]))
    assert pixels.shape == (heatmap["height"], heatmap["width"], 3)
    print(f"/v1/render/heatmap: {heatmap['width']}x{heatmap['height']} PPM "
          f"({len(heatmap['genes'])} gene rows, dataset {heatmap['dataset']}, "
          f"clustered row order)")

    # --- POST /v1/search/batch: the multi-user path ------------------------
    universe = compendium.gene_universe()
    searches = [{"genes": list(truth.query_genes), "page_size": 5}] + [
        {"genes": [universe[i], universe[i + 1], universe[i + 2]], "page_size": 5}
        for i in range(0, 24, 3)
    ]
    cold = call(base, "/v1/search/batch", {"searches": searches})
    warm = call(base, "/v1/search/batch", {"searches": searches})
    print(f"\n/v1/search/batch: {len(searches)} queries over one shared index "
          f"(misses scored at width {cold['n_workers']})")
    print(format_table(
        ["pass", "wall time", "cache hits"],
        [
            ["cold", f"{cold['total_seconds'] * 1e3:.1f} ms", cold["cache_hits"]],
            ["warm", f"{warm['total_seconds'] * 1e3:.1f} ms", warm["cache_hits"]],
        ],
    ))

    # --- POST /v1/search/export: the whole ranking as one NDJSON stream ----
    request = urllib.request.Request(
        base + "/v1/search/export",
        data=json.dumps(
            {"genes": list(truth.query_genes), "chunk_size": 50}
        ).encode(),
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        stream_lines = [line for line in resp.read().split(b"\n") if line]
    parsed = [json.loads(line) for line in stream_lines]
    chunks, trailer = parsed[:-1], parsed[-1]
    export_rows = [row for c in chunks for row in c["gene_rows"]]
    assert trailer["status"] == "ok" and trailer["total_rows"] == len(export_rows)
    digest = hashlib.sha256()
    for line in stream_lines[:-1]:
        digest.update(line + b"\n")
    assert trailer["checksum"] == f"sha256:{digest.hexdigest()}"
    assert [r[1] for r in export_rows] == direct.gene_ranking()
    print(f"\n/v1/search/export: {trailer['total_rows']} rows in "
          f"{trailer['n_chunks']} chunks, checksum verified, "
          "ranking identical to the in-process search")

    # --- structured errors: codes, not stack traces ------------------------
    try:
        call(base, "/v1/search", {"genes": ["NOT_A_GENE"]})
    except urllib.error.HTTPError as err:
        body = json.loads(err.read())
        print(f"\nunknown gene -> HTTP {err.code}, "
              f"code={body['error']['code']} (structured, no 500)")

    # --- GET /v1/health: serving counters ----------------------------------
    health = call(base, "/v1/health")
    rows = [
        [endpoint, stats["count"], stats["errors"],
         f"{stats['mean_seconds'] * 1e3:.2f} ms"]
        for endpoint, stats in sorted(health["endpoints"].items())
    ]
    print("\n/v1/health endpoint counters:")
    print(format_table(["endpoint", "count", "errors", "mean latency"], rows))
    server.shutdown()

    # --- persist the index, then cold-start a "new process" from disk ------
    with tempfile.TemporaryDirectory() as store_dir:
        with Stopwatch() as sw_build:
            SpellService(compendium, store_dir=store_dir, cache_size=0)
        # a fresh service over the same data finds the store current and
        # memory-maps the saved shards instead of re-normalizing
        with Stopwatch() as sw_reload:
            reloaded = SpellService(compendium, store_dir=store_dir, cache_size=0)
        replayed = reloaded.search(list(truth.query_genes))
        identical = replayed.gene_ranking() == direct.gene_ranking()
        print("\npersistent index (IndexStore):")
        print(format_table(
            ["cold start path", "wall time", "same rankings"],
            [
                ["build + save", f"{sw_build.elapsed * 1e3:.1f} ms", "-"],
                ["mmap reload", f"{sw_reload.elapsed * 1e3:.1f} ms",
                 "yes" if identical else "NO"],
            ],
        ))

    # --- multi-core batch serving: worker processes share the mmap store ---
    from repro.api.protocol import BatchSearchRequest, SearchRequest

    batch = BatchSearchRequest(
        searches=tuple(
            SearchRequest(genes=(universe[i], universe[i + 1]), page_size=5,
                          use_cache=False)
            for i in range(0, 12, 2)
        )
    )
    with SpellService(compendium, n_procs=2, cache_size=0) as procs:
        served = procs.respond_batch(batch)
        pool = procs.serving_stats()["procpool"]
        baseline = SpellService(compendium, cache_size=0).respond_batch(batch)
        same = all(
            a.gene_rows == b.gene_rows
            for a, b in zip(served.results, baseline.results)
        )
    topology = (
        f"{pool['n_procs']} workers sharing the mmap index store "
        f"({pool['batches']} batch dispatched)"
        if pool is not None
        else "in-process fallback (worker pool unavailable here)"
    )
    print(f"\nmulti-process batch: {len(batch.searches)} queries over "
          f"{topology}; rankings identical to "
          f"in-process serving: {'yes' if same else 'NO'}")

    print("\nSPELL finds co-expressed genes the text search cannot see —")
    print("'SPELL uses the information within the data' (paper §3).")


if __name__ == "__main__":
    main()

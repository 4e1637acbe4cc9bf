"""The seven serving workloads and their seeded traffic.

Everything here is data: which server topology a workload boots, what
its requests look like, and why it exists.  Traffic depends only on
``--seed`` and the (fixed) gene universe, never on the serving code, so
the same seed yields byte-identical request streams on every commit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: The FIG4 compendium every recorded number in ROADMAP uses; ``--seed``
#: drives the traffic only.
COMPENDIUM_KW = dict(
    n_datasets=40,
    n_relevant=8,
    n_genes=600,
    n_conditions=20,
    module_size=30,
    query_size=5,
    seed=424,
)



def compendium():
    """A fresh copy of the benchmark compendium (imports ``repro`` lazily:
    this module is otherwise pure data)."""
    from repro.synth import make_spell_compendium

    return make_spell_compendium(**COMPENDIUM_KW)[0]


QUERY_GENES = 4
WARM_QUERIES = 64  # fits the 256-entry result cache
COLD_QUERIES = 2048  # 8x the cache: every lookup misses, one eviction each
PAGE_SIZE = 20
EXPORT_CHUNK = 100
BATCHES = 32
BATCH_QUERIES = 16
INGEST_CONDITIONS = 6
INGEST_PERIOD_S = 2.0  # one write per measurement window


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str  # what launcher.py boots: http | aio | sharded | procpool | ingest
    kind: str  # request shape: page | export | batch
    regime: str  # warm (cache hits) | cold (cache misses)
    n_requests: int  # distinct requests cycled by each connection
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "warm_page", "http", "page", "warm", WARM_QUERIES,
            "cache-hit /v1/search page over the threaded facade: socket, HTTP "
            "framing, api.protocol and JSON are the whole cost, the index idles",
        ),
        Workload(
            "cold_search", "http", "page", "cold", COLD_QUERIES,
            "2048 distinct queries against a 256-entry cache, so every request "
            "runs spell.index.search; facade work must not move it",
        ),
        Workload(
            "deep_export", "http", "export", "warm", WARM_QUERIES,
            "full 600-row ranking streamed as chunked NDJSON: the same encode "
            "layer as pages, used per chunk instead of per page",
        ),
        Workload(
            "aio_warm_page", "aio", "page", "warm", WARM_QUERIES,
            "warm_page traffic against one asyncio loop: isolates api.aio "
            "against api.http with everything below identical",
        ),
        Workload(
            "sharded_cold", "sharded", "page", "cold", COLD_QUERIES,
            "cold_search traffic through a 2-shard router: rpc framing, "
            "scatter/gather and partial merging are about half of each request",
        ),
        Workload(
            "batch_procpool", "procpool", "batch", "cold", BATCHES,
            "16 uncached queries per /v1/search/batch on a 2-process pool: "
            "dispatch, reply pickling and mmap store sharing are under test",
        ),
        Workload(
            "ingest_mixed", "ingest", "page", "warm", WARM_QUERIES,
            "warm_page reads beside one /v1/ingest every 2 s: each publish "
            "invalidates the cache, pricing the write path against reads",
        ),
    )
}


@dataclass(frozen=True)
class Request:
    """One pre-encoded HTTP request plus the wire payload it carries."""

    endpoint: str  # e.g. "search", "search/export"
    payload: dict
    raw: bytes


def encode_request(endpoint: str, payload: dict | None) -> bytes:
    """HTTP/1.1 keep-alive request bytes (GET when ``payload`` is None)."""
    if payload is None:
        return f"GET /v1/{endpoint} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST /v1/{endpoint} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def _request(endpoint: str, payload: dict) -> Request:
    return Request(endpoint, payload, encode_request(endpoint, payload))


def query_sets(rng: random.Random, universe: list[str], count: int) -> list[list[str]]:
    """``count`` distinct gene sets (distinct as *sets*: the result cache
    canonicalises gene order, so a permutation would be a hit)."""
    seen: set[tuple[str, ...]] = set()
    out: list[list[str]] = []
    while len(out) < count:
        genes = rng.sample(universe, QUERY_GENES)
        key = tuple(sorted(genes))
        if key not in seen:
            seen.add(key)
            out.append(genes)
    return out


def build_requests(workload: Workload, seed: int, universe: list[str]) -> list[Request]:
    """The workload's request cycle for ``seed``."""
    # one query stream per cache regime: warm_page, deep_export, aio_warm_page
    # and ingest_mixed share a warm set; the cold workloads share a cold one
    rng = random.Random(f"{workload.regime}:{seed}")
    if workload.kind == "batch":
        queries = query_sets(rng, universe, BATCHES * BATCH_QUERIES)
        return [
            _request(
                "search/batch",
                {
                    "searches": [
                        {"genes": genes, "page_size": PAGE_SIZE, "use_cache": False}
                        for genes in queries[b * BATCH_QUERIES : (b + 1) * BATCH_QUERIES]
                    ]
                },
            )
            for b in range(BATCHES)
        ]
    queries = query_sets(rng, universe, workload.n_requests)
    if workload.kind == "export":
        return [
            _request("search/export", {"genes": genes, "chunk_size": EXPORT_CHUNK})
            for genes in queries
        ]
    return [_request("search", {"genes": genes, "page_size": PAGE_SIZE}) for genes in queries]


def build_ingests(seed: int, universe: list[str], count: int) -> list[Request]:
    """Seeded PCL submissions: every universe gene x 6 conditions (~80 KB)."""
    rng = random.Random(f"ingest:{seed}")
    header = "\t".join(
        ["YORF", "NAME", "GWEIGHT"] + [f"c{j}" for j in range(INGEST_CONDITIONS)]
    )
    eweight = "EWEIGHT\t\t\t" + "\t".join("1" for _ in range(INGEST_CONDITIONS))
    out = []
    for i in range(count):
        lines = [header, eweight]
        for gene in universe:
            cells = "\t".join(repr(rng.gauss(0.0, 1.0)) for _ in range(INGEST_CONDITIONS))
            lines.append(f"{gene}\t{gene}\t1\t{cells}")
        out.append(
            _request(
                "ingest",
                {
                    "name": f"bench-{seed}-{i:03d}",
                    "format": "pcl",
                    "content": "\n".join(lines) + "\n",
                },
            )
        )
    return out

"""The traced run: per-layer cost, measured from outside.

``src/`` carries no spans yet, so every layer is timed by calling its
public functions from here.  A *stack replay* takes requests through
each level of the call stack in turn — through the socket, then through
``ApiApp.handle_wire``, then ``SpellService.respond``, and so on down —
recording one span per call.  A span's parent is the same request's
span one level up, so ``self time = duration - children`` attributes
every microsecond of the top-level round trip to exactly one layer.

Requests go through the levels a chunk at a time.  A chunk is longer
than the replay cache of a cold stack, so by the time a level replays a
request the level above has long evicted it — every level sees the same
cache state, as under real traffic — and it is short enough that a
parent and its children are timed within a fraction of a second of each
other, under the same machine weather.

Each traced run replays the workload's own stack on a large sample and
every other stack on a small one, so the full layer table is measured
every time and no layer metric is ever a placeholder.
"""

from __future__ import annotations

import json
import pickle
import random
import shutil
import statistics
import time
from pathlib import Path

import estimators
import harness
import launcher
import loadgen
import workloads
from workloads import WORKLOADS

#: stack -> (workload whose traffic it replays, requests when it is the
#: traced workload's own stack, requests otherwise)
STACKS = {
    "page_warm": ("warm_page", 512, 64),
    "page_cold": ("cold_search", 96, 32),
    "export": ("deep_export", 128, 16),
    "aio": ("aio_warm_page", 512, 64),
    "sharded": ("sharded_cold", 96, 32),
    "batch": ("batch_procpool", 12, 3),
    "ingest": ("ingest_mixed", 8, 3),
}
OWN_STACK = {source: stack for stack, (source, _, _) in STACKS.items()}
CHUNK = 16
COLD_CACHE = 8  # replay cache of a cold stack: shorter than a chunk, so it always misses
CALIBRATION_S = 0.5

#: ``<metric> = self time of <span>``; the tuple names children that run
#: side by side inside the parent (they cover only the longest of them).
SELF_TIMES = {
    "api.http.self_us": ("api.http.roundtrip", ()),
    "api.http.export_self_us": ("api.http.export_roundtrip", ()),
    "api.aio.self_us": ("api.aio.roundtrip", ()),
    "api.app.self_us": ("api.app.handle_wire", ()),
    "spell.service.self_us": ("spell.service.respond", ()),
    "cluster_serving.router.self_us": ("cluster_serving.router.respond", ("rpc.client.call",)),
}


class Tracer:
    """In-memory span list; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack = ""
        self.rid_base = 0
        self._origin = time.perf_counter()

    def span(self, name: str, fn, item, rid: int, parent: int | None = None):
        """Time ``fn(item)`` as request ``rid``'s span under ``parent``;
        returns ``(result, span id)``."""
        start = time.perf_counter()
        result = fn(item)
        end = time.perf_counter()
        sid = len(self.spans)
        self.spans.append(
            {
                "id": sid,
                "name": name,
                "stack": self.stack,
                "request_id": rid,
                "parent": parent,
                "start": start - self._origin,
                "end": end - self._origin,
            }
        )
        return result, sid

    def level(self, name: str, fn, items, parents=None):
        """One span per item, the whole chunk through one level.  Returns
        ``(results, span ids)``; ``parents[i]`` is item ``i``'s span one
        level up."""
        pairs = [
            self.span(name, fn, item, self.rid_base + i, None if parents is None else parents[i])
            for i, item in enumerate(items)
        ]
        return [result for result, _ in pairs], [sid for _, sid in pairs]

    def in_chunks(self, levels, items) -> None:
        """Run ``levels(chunk)`` over ``items``, ``CHUNK`` at a time."""
        for base in range(0, len(items), CHUNK):
            self.rid_base = base
            levels(items[base : base + CHUNK])
        self.rid_base = 0

    def metrics(self, stack: str) -> dict[str, float]:
        """Median microseconds per span name, plus the self times."""
        spans = [s for s in self.spans if s["stack"] == stack]
        by_name: dict[str, list[float]] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span["end"] - span["start"])
        out = {f"{name}_us": statistics.median(v) * 1e6 for name, v in by_name.items()}
        for metric, (parent, concurrent) in SELF_TIMES.items():
            if parent in by_name:
                selfs = estimators.self_times(spans, parent, concurrent)
                out[metric] = statistics.median(selfs) * 1e6
        return out


class Env:
    """What the replays share: the seed, a scratch dir, and cleanup."""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.closers: list = []
        self.extras: dict[str, list[float]] = {}

    def requests(self, stack: str, count: int, universe: list[str]):
        cycle = workloads.build_requests(WORKLOADS[STACKS[stack][0]], self.seed, universe)
        return [cycle[i % len(cycle)] for i in range(count)]

    def note(self, metric: str, values) -> None:
        """Sizes and one-off timings that are not spans (mean is reported)."""
        self.extras.setdefault(metric, []).extend(values)

    def close(self) -> None:
        for close in reversed(self.closers):
            close()
        self.closers.clear()


def _serve(env: Env, app, facade: str) -> loadgen.Connection:
    """Serve ``app`` on a thread of this process; returns a connection.
    The server shares this interpreter with the replay, so top-level
    round trips here are upper bounds on the child-process ones."""
    server = launcher.start_facade(app, aio=facade == "aio")
    conn = loadgen.Connection(server.server_address[1])
    env.closers += [server.close, conn.close]
    return conn


def _roundtrip(conn: loadgen.Connection):
    def call(request):
        status, body = conn.roundtrip(request.raw)
        if status != 200:
            raise RuntimeError(f"traced replay got HTTP {status}: {body[:160]!r}")
        return body

    return call


def _body(request) -> bytes:
    return request.raw.split(b"\r\n\r\n", 1)[1]


def _warm(conn, index, cache, version, reqs) -> None:
    """Fill the served cache and the replay cache: every request a hit."""
    for request in {id(r): r for r in reqs}.values():
        conn.roundtrip(request.raw)
        genes = request.payload["genes"]
        result = index.search(genes)
        cache.store(version, genes, result, cost=result.total_genes)


def replay_page(tr: Tracer, env: Env, count: int, regime: str, facade: str) -> None:
    """``POST /v1/search`` down to the ranking kernel."""
    from repro.api.aio.http11 import RequestParser, encode_json_response
    from repro.api.app import ApiApp
    from repro.api.limits import RequestContext, RequestGate
    from repro.api.protocol import SearchRequest, SearchResponse
    from repro.spell import QueryCache, SpellIndex, SpellService, ranked_gene_table

    compendium = workloads.compendium()
    cold = regime == "cold"
    cache_size = COLD_CACHE if cold else 256
    service = SpellService(compendium, cache_size=cache_size)
    env.closers.append(service.close)
    app = ApiApp(service)
    conn = _serve(env, app, facade)
    reqs = env.requests(tr.stack, count, compendium.gene_universe())
    index = SpellIndex.build(compendium)
    cache = QueryCache(cache_size)
    gate = RequestGate()
    version = compendium.version
    admitted = RequestContext(client="127.0.0.1", admitted=True)
    rng = random.Random(env.seed)
    if not cold:
        _warm(conn, index, cache, version, reqs)

    def parse_http(request):
        parser = RequestParser()
        parser.feed(request.raw)
        return parser.poll_body(parser.poll_head())

    def unsorted(result):
        """The ranking kernel's inputs arrive unsorted: undo the sort."""
        order = list(range(len(result.genes)))
        rng.shuffle(order)
        table = result.genes
        return table.ids[order], table.scores[order], table.n_datasets[order]

    def levels(reqs):
        bodies, roots = tr.level(f"api.{facade}.roundtrip", _roundtrip(conn), reqs)
        env.note("json.response_bytes", [len(b) for b in bodies])
        if facade == "aio":
            tr.level("api.aio.http11.parse", parse_http, reqs, roots)
        raw_bodies = [_body(r) for r in reqs]
        tr.level("json.decode", json.loads, raw_bodies, roots)
        tr.level(
            "api.limits.admit",
            lambda b: gate.admit("search", RequestContext(client="127.0.0.1", body_bytes=len(b))),
            raw_bodies, roots,
        )
        wires, handled = tr.level(
            "api.app.handle_wire",
            lambda r: app.handle_wire("search", dict(r.payload), context=admitted)[1],
            reqs, roots,
        )
        encoders = roots
        if facade == "aio":
            _, encoders = tr.level(
                "api.aio.http11.encode", lambda w: encode_json_response(200, w), wires, roots
            )
        tr.level("json.encode", lambda w: json.dumps(w).encode("utf-8"), wires, encoders)

        parsed, _ = tr.level(
            "api.protocol.from_wire", lambda r: SearchRequest.from_wire(r.payload), reqs, handled
        )
        responses, responded = tr.level("spell.service.respond", service.respond, parsed, handled)
        tr.level("api.protocol.to_wire", lambda response: response.to_wire(), responses, handled)

        results, _ = tr.level(
            "spell.cache.lookup", lambda q: cache.lookup(version, list(q.genes)), parsed, responded
        )
        if cold:
            results, searched = tr.level(
                "spell.index.search", lambda q: index.search(q.genes), parsed, responded
            )
            tr.level(
                "spell.cache.store",
                lambda pair: cache.store(
                    version, list(pair[0].genes), pair[1], cost=pair[1].total_genes
                ),
                list(zip(parsed, results)), responded,
            )
            tr.level(
                "spell.engine.ranked_gene_table",
                lambda t: ranked_gene_table(*t),
                [unsorted(result) for result in results], searched,
            )
        tr.level(
            "api.protocol.from_result",
            lambda pair: SearchResponse.from_result(pair[0], pair[1], elapsed_seconds=0.0),
            list(zip(results, parsed)), responded,
        )

    tr.in_chunks(levels, reqs)


def replay_export(tr: Tracer, env: Env, count: int) -> None:
    """``POST /v1/search/export``: the chunked NDJSON stream."""
    from repro.api.app import ApiApp
    from repro.api.limits import RequestContext
    from repro.api.protocol import ExportRequest
    from repro.spell import QueryCache, SpellIndex, SpellService

    compendium = workloads.compendium()
    service = SpellService(compendium)
    env.closers.append(service.close)
    app = ApiApp(service)
    conn = _serve(env, app, "http")
    reqs = env.requests(tr.stack, count, compendium.gene_universe())
    index = SpellIndex.build(compendium)
    cache = QueryCache()
    version = compendium.version
    admitted = RequestContext(client="127.0.0.1", admitted=True)
    _warm(conn, index, cache, version, reqs)

    def levels(reqs):
        _, roots = tr.level("api.http.export_roundtrip", _roundtrip(conn), reqs)
        tr.level("json.decode", json.loads, [_body(r) for r in reqs], roots)
        _, exported = tr.level(
            "api.app.export",
            lambda r: list(app.export(dict(r.payload), context=admitted)),
            reqs, roots,
        )
        parsed, _ = tr.level(
            "api.protocol.from_wire", lambda r: ExportRequest.from_wire(r.payload), reqs, exported
        )
        streams, iterated = tr.level(
            "spell.service.iter_result", lambda q: list(service.iter_result(q)), parsed, exported
        )
        wires, _ = tr.level(
            "api.protocol.export_chunk",
            lambda items: [item.to_wire() for item in items],
            streams, exported,
        )
        tr.level(
            "json.encode",
            lambda lines: [json.dumps(w).encode("utf-8") for w in lines],
            wires, exported,
        )
        results, _ = tr.level(
            "spell.cache.lookup", lambda q: cache.lookup(version, list(q.genes)), parsed, iterated
        )
        tr.level(
            "spell.engine.rows",
            lambda result: [
                result.genes.rows(offset, offset + workloads.EXPORT_CHUNK)
                for offset in range(0, len(result.genes), workloads.EXPORT_CHUNK)
            ],
            results, iterated,
        )

    tr.in_chunks(levels, reqs)


def replay_sharded(tr: Tracer, env: Env, count: int) -> None:
    """``RouterService.respond``: scatter over rpc, gather, merge."""
    from repro.api.protocol import SearchRequest
    from repro.cluster_serving import build_local_topology, shard_compendium
    from repro.rpc import RpcClient, decode_message, encode_message
    from repro.spell import SpellIndex
    from repro.spell.partials import DatasetPartial, GeneUniverse

    compendium = workloads.compendium()
    fleet = build_local_topology(compendium, n_shards=2, cache_size=COLD_CACHE)
    env.closers.append(fleet.close)
    reqs = env.requests(tr.stack, count, compendium.gene_universe())
    node_ids = [node.node_id for node in fleet.shards]
    universe = GeneUniverse([(ds.name, ds.gene_ids) for ds in compendium])
    selected = universe.dataset_names
    header = len(encode_message(None)) - len(pickle.dumps(None, pickle.HIGHEST_PROTOCOL))
    shards = []  # (client, shard-local index, owned (name, fingerprint) pairs)
    for node_id in node_ids:
        subset = shard_compendium(compendium, node_ids, node_id)
        client = RpcClient(*fleet.addresses[node_id])
        env.closers.append(client.close)
        shards.append(
            (client, SpellIndex.build(subset), [(ds.name, ds.fingerprint) for ds in subset])
        )

    def levels(reqs):
        parsed = [SearchRequest.from_wire(r.payload) for r in reqs]
        _, roots = tr.level("cluster_serving.router.respond", fleet.router.respond, parsed)
        replies = []
        for client, shard_index, owned in shards:
            names = [name for name, _ in owned]
            got, calls = tr.level(
                "rpc.client.call",
                lambda q: client.call("partials", {"genes": list(q.genes), "datasets": owned}),
                parsed, roots,
            )
            replies.append(got)
            tr.level(
                "cluster_serving.shard.partials",
                lambda q: shard_index.search_partials(list(q.genes), datasets=names),
                parsed, calls,
            )
            frames, _ = tr.level(
                "rpc.framing.encode", lambda reply: encode_message((0, "ok", reply)), got, calls
            )
            tr.level("rpc.framing.decode", lambda f: decode_message(f[header:]), frames, calls)
            env.note("rpc.framing.reply_bytes", [len(f) for f in frames])

        def merge(i):
            genes = list(parsed[i].genes)
            used, missing, slots = universe.resolve_query(genes, selected, filtered=False)
            contributions = {
                name: DatasetPartial(**wire)
                for got in replies
                for name, wire in got[i]["partials"].items()
            }
            return universe.merge(genes, used, missing, slots, selected, contributions)

        tr.level("spell.partials.merge", merge, range(len(parsed)), roots)

    tr.in_chunks(levels, reqs)


def replay_batch(tr: Tracer, env: Env, count: int) -> None:
    """``SpellService.respond_batch`` over the process pool."""
    from repro.api.protocol import BatchSearchRequest
    from repro.spell import BatchQuery, IndexStore, IndexWorkerPool, SpellService

    compendium = workloads.compendium()
    store = env.scratch / "batch-store"
    service = SpellService(compendium, n_procs=2, store_dir=store)
    env.closers.append(service.close)
    pool = IndexWorkerPool(store, n_procs=2)
    env.closers.append(pool.close)
    for _ in range(3):
        start = time.perf_counter()
        index = IndexStore.load(store, mmap=True)
        env.note("spell.store.load_mmap_s", [time.perf_counter() - start])
    reqs = env.requests(tr.stack, count, compendium.gene_universe())
    fingerprints = index.fingerprints()

    def specs(batch):
        return [
            BatchQuery(genes=s.genes, top_k=(s.page + 1) * s.page_size, datasets=s.datasets)
            for s in batch.searches
        ]

    def pickle_reply(results):
        data = pickle.dumps(("ok", results, 0.0, False))
        pickle.loads(data)
        return len(data)

    warm = BatchSearchRequest.from_wire(reqs[0].payload)
    service.respond_batch(warm)  # spawns the service's pool, untimed
    pool.run_batch(fingerprints, specs(warm))

    def levels(reqs):
        batches, _ = tr.level(
            "api.protocol.batch_from_wire", lambda r: BatchSearchRequest.from_wire(r.payload), reqs
        )
        _, roots = tr.level("spell.service.respond_batch", service.respond_batch, batches)
        _, ran = tr.level(
            "spell.procpool.run_batch",
            lambda b: pool.run_batch(fingerprints, specs(b)),
            batches, roots,
        )
        # each of the two workers scores half the batch, side by side
        halves, _ = tr.level(
            "spell.index.search_batch",
            lambda b: index.search_batch(specs(b)[: len(b.searches) // 2]),
            batches, ran,
        )
        sizes, _ = tr.level("spell.procpool.reply_pickle", pickle_reply, halves, ran)
        env.note("spell.procpool.reply_pickle_bytes", sizes)

    tr.in_chunks(levels, reqs)


def replay_ingest(tr: Tracer, env: Env, count: int) -> None:
    """``CompendiumCatalog.ingest`` down to the index splice and fsync."""
    from repro.data.loader import parse_dataset
    from repro.spell import IndexStore, SpellIndex, SpellService
    from repro.spell.catalog import CompendiumCatalog

    served = workloads.compendium()
    default = SpellService(served, store_dir=env.scratch / "ingest-default")
    catalog = CompendiumCatalog(env.scratch / "ingest-catalog", default_service=default)
    direct = SpellService(workloads.compendium(), store_dir=env.scratch / "ingest-direct")
    env.closers += [default.close, catalog.close, direct.close]
    spliced = workloads.compendium()
    for _ in range(3):
        start = time.perf_counter()
        index = SpellIndex.build(spliced)
        env.note("spell.index.build_s", [time.perf_counter() - start])
    env.note("spell.index.bytes", [float(index.nbytes())])
    store = env.scratch / "ingest-splice"
    IndexStore.sync(index, store)
    payloads = [r.payload for r in workloads.build_ingests(env.seed, served.gene_universe(), count)]

    _, roots = tr.level(
        "spell.catalog.ingest",
        lambda p: catalog.ingest(None, p["name"], p["format"], p["content"]),
        payloads,
    )
    datasets, _ = tr.level(
        "data.loader.parse_dataset",
        lambda p: parse_dataset(p["content"], p["format"], name=p["name"]),
        payloads, roots,
    )
    _, ingested = tr.level("spell.service.ingest_dataset", direct.ingest_dataset, datasets, roots)
    # the splice and the store publish advance shared state, so these two
    # levels run write by write: add, splice, sync
    for rid, dataset in enumerate(datasets):
        spliced.add(dataset)
        index, _ = tr.span(
            "spell.index.updated", lambda _d: index.updated(spliced), dataset, rid, ingested[rid]
        )
        tr.span(
            "spell.store.sync", lambda _d: IndexStore.sync(index, store), dataset, rid,
            ingested[rid],
        )
    tr.level("spell.catalog.resolve", lambda _i: catalog.resolve(None), range(200))


REPLAYS = {
    "page_warm": lambda tr, env, n: replay_page(tr, env, n, "warm", "http"),
    "page_cold": lambda tr, env, n: replay_page(tr, env, n, "cold", "http"),
    "export": replay_export,
    "aio": lambda tr, env, n: replay_page(tr, env, n, "warm", "aio"),
    "sharded": replay_sharded,
    "batch": replay_batch,
    "ingest": replay_ingest,
}


# ------------------------------------------------------------- the traced run
def health_counts(before: dict, after: dict, wall: float) -> dict[str, float]:
    """Layer counters from two ``GET /v1/health`` snapshots around the load."""

    def delta(*path) -> float:
        def dig(doc):
            for key in path:
                doc = doc.get(key) if isinstance(doc, dict) else None
            return doc or 0

        return float(dig(after) - dig(before))

    def endpoints(field: str) -> float:
        return float(
            sum(row[field] for row in after["endpoints"].values())
            - sum(row[field] for row in before["endpoints"].values())
        )

    transports = list((after.get("serving", {}).get("transport") or {}).keys())
    rejected = sum(
        delta("limits", key)
        for key in ("unauthorized", "rate_limited", "token_limited", "tenant_limited", "body_rejected")
    )
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    batches = delta("serving", "procpool", "batches")
    nodes = (after.get("shards") or {}).get("nodes") or {}
    return {
        "api.transport.connections": sum(
            delta("serving", "transport", label, "total_connections") for label in transports
        ),
        "api.transport.requests": sum(
            delta("serving", "transport", label, "requests_total") for label in transports
        ),
        "api.limits.rejected": rejected,
        "api.app.requests": endpoints("count"),
        "api.app.errors": endpoints("errors"),
        "api.app.busy_share": endpoints("total_seconds") / wall,
        "spell.cache.hits": hits,
        "spell.cache.misses": misses,
        "spell.cache.evictions": delta("cache", "evictions"),
        "spell.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "spell.procpool.batches": batches,
        "spell.procpool.resyncs": delta("serving", "procpool", "resyncs"),
        # every uncached batch request is one pool dispatch unless it fell back in-process
        "spell.procpool.fallbacks": (
            max(0.0, delta("endpoints", "search/batch", "count") - batches)
            if after.get("serving", {}).get("procpool") else 0.0
        ),
        "spell.store.verified": delta("storage", "verified"),
        "spell.store.publish_errors": delta("storage", "publish_errors"),
        "cluster_serving.hedges_fired": delta("shards", "hedging", "fired"),
        "cluster_serving.shard_errors": float(
            sum(node["consecutive_failures"] + node["breaker"]["opens"] for node in nodes.values())
        ),
    }


def calibrate() -> float:
    """Median round trip against the canned-response null server, in us:
    the generator's own cost plus loopback, with no application behind it."""
    server = harness.Server("null")
    try:
        client = loadgen.Client(
            server.port, [workloads.encode_request("search", {"genes": ["G"] * 4, "page_size": 20})]
        )
        log = loadgen.ClientLog()
        client.run_for(CALIBRATION_S, log)
        client.close()
    finally:
        server.stop()
    if log.failed or not log.latencies:
        raise RuntimeError(f"null server calibration failed: {log.errors[:1]}")
    return statistics.median(log.latencies) * 1e6


def replay_stacks(workload: str, seed: int) -> tuple[Tracer, dict[str, float]]:
    """Replay every stack (the workload's own first and largest); returns
    the tracer and the cost metrics, own-stack values taking precedence."""
    own = OWN_STACK[workload]
    order = [own] + sorted(
        (s for s in STACKS if s != own),
        # stacks in this workload's cache regime fill shared names first
        key=lambda s: WORKLOADS[STACKS[s][0]].regime != WORKLOADS[workload].regime,
    )
    tracer = Tracer()
    costs: dict[str, float] = {}
    scratch = harness.OUT / f"trace-{workload}-{time.monotonic_ns()}"
    scratch.mkdir(parents=True)
    env = Env(seed, scratch)
    try:
        for stack in order:
            tracer.stack = stack
            _, own_count, other_count = STACKS[stack]
            try:
                REPLAYS[stack](tracer, env, own_count if stack == own else other_count)
            finally:
                env.close()
            for name, value in tracer.metrics(stack).items():
                costs.setdefault(name, value)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, values in env.extras.items():
        costs.setdefault(name, statistics.mean(values))

    # the kernel's arithmetic, computed from the shapes (not measured)
    kw = workloads.COMPENDIUM_KW
    costs["spell.index.flops_per_query"] = float(
        2 * kw["n_datasets"] * kw["n_genes"] * kw["n_conditions"] * workloads.QUERY_GENES
    )
    costs["spell.index.search_batch_us_per_query"] = costs.pop("spell.index.search_batch_us") / (
        workloads.BATCH_QUERIES // 2
    )
    # recording a span happens outside every timed interval; what it costs
    # the run is the recording itself, priced against the own stack's root
    probe = Tracer()
    started = time.perf_counter()
    probe.level("noop", lambda _i: None, range(2000))
    per_span = (time.perf_counter() - started) / 2000
    own_roots = [s for s in tracer.spans if s["stack"] == own and s["parent"] is None]
    durations = [s["end"] - s["start"] for s in own_roots if s["name"] == own_roots[0]["name"]]
    costs["client.trace_overhead_share"] = per_span / statistics.median(durations)
    return tracer, costs


def traced_run(workload: str, seed: int, seconds: float, window_s: float) -> dict:
    """Per-layer metrics for ``workload``: counters from a short load
    against the real server child, costs from the stack replays."""
    run = harness.Run(workload, seed)
    server, _setup = run.boot_verified()
    try:
        run.preverify(server)
        before = harness.get_json(server.port, "health")
        started = time.perf_counter()
        windows = max(1, harness.window_plan(seconds, window_s) // 2)
        _rows, pooled, _writes = run.load(server, windows, window_s)
        after = harness.get_json(server.port, "health")
        wall = time.perf_counter() - started
        phases = server.phases
    finally:
        server.stop()

    metrics = health_counts(before, after, wall)
    metrics["client.latency_p95_ms"] = estimators.percentile(pooled, 95) * 1e3 if pooled else 0.0
    metrics["client.overhead_us"] = calibrate()
    metrics.update({f"setup.{name}": value for name, value in phases.items()})

    tracer, costs = replay_stacks(workload, seed)
    for name, value in costs.items():
        metrics.setdefault(name, value)
    if pooled and metrics["client.overhead_us"] > 0.15 * estimators.percentile(pooled, 50) * 1e6:
        print(f"WARNING: load generator overhead {metrics['client.overhead_us']:.0f} us exceeds "
              f"15% of the {workload} round trip; a server-side gain may hide behind the harness")

    trace_path = harness.OUT / f"trace-{workload}.json"
    trace_path.write_text(
        json.dumps(
            {"workload": workload, "seed": seed, "own_stack": OWN_STACK[workload],
             "spans": tracer.spans}
        )
    )
    units = {m["name"]: m["unit"] for m in harness.SPEC["per_layer"]}
    result = run.result(
        {name: {"value": value, "unit": units.get(name, "?")} for name, value in metrics.items()}
    )
    result["detail"] = {"problems": run.problems, "trace_file": str(trace_path)}
    return result

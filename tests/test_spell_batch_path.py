"""One batch path: probe -> score the misses -> store, on every backend.

``respond_batch`` is the same function whichever backend answers — the
in-process single node, the process pool, the pool's in-process fallback
and the sharded router differ only in ``_compute_many`` — so one oracle
table covers them all: every member page bit-equal to a per-member
``respond`` on a fresh single-node service, every counter moved once per
answered member, an invalid member failing the batch as itself.
"""

from __future__ import annotations

import ast
import pickle
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api.app import ApiApp
from repro.api.cli import build_app
from repro.api.errors import as_api_error, error_payload
from repro.api.protocol import BatchSearchRequest, ExportRequest, SearchRequest
from repro.cluster_serving import build_local_topology
from repro.data import Compendium, ExpressionMatrix
from repro.data.pcl import format_pcl
from repro.spell import SearchBackend, SpellService, WorkerPoolError
from repro.synth import make_spell_compendium

VOLATILE = ("elapsed_seconds", "total_seconds")


@pytest.fixture(scope="module")
def setup():
    return make_spell_compendium(
        n_datasets=8,
        n_relevant=3,
        n_genes=150,
        n_conditions=10,
        module_size=14,
        query_size=3,
        seed=43,
    )


def _in_process(comp):
    service = SpellService(comp, n_workers=2)
    return service, lambda misses: 1, service.close


def _pool(comp):
    service = SpellService(comp, n_procs=2)
    # a lone miss has nothing to scatter: it stays in-process
    return service, lambda misses: 2 if misses > 1 else 1, service.close


def _fallback(comp):
    """A pool that cannot serve: every dispatch takes the except branch."""
    service = SpellService(comp, n_procs=2)

    def down():
        raise WorkerPoolError("pool is down")

    service._ensure_procpool = down
    return service, lambda misses: 1, service.close


def _router(comp):
    topology = build_local_topology(comp, n_shards=2, n_workers=3)
    return topology.router, lambda misses: max(1, min(3, misses)), topology.close


@pytest.fixture(scope="module", params=[_in_process, _pool, _fallback, _router],
                ids=["in-process", "n_procs=2", "pool-fallback", "router"])
def backend(request, setup):
    """``(backend, misses -> expected width)``: one backend per topology
    for the whole table (spawning is slow); every case empties the cache."""
    service, width, close = request.param(setup[0])
    yield service, width
    close()


def _queries(comp, truth, n):
    universe = comp.gene_universe()
    picks = [[universe[(7 * i) % len(universe)], universe[(7 * i + 3) % len(universe)]]
             for i in range(n - 1)]
    return [tuple(truth.query_genes)] + [tuple(q) for q in picks]


def _cases(comp, truth):
    """name -> (members, members to answer first, hits, misses)."""
    q = _queries(comp, truth, 4)
    plain = [SearchRequest(genes=g, page_size=6) for g in q]
    return {
        "all-miss": (plain, [], 0, 4),
        "all-hit": (plain, plain, 4, 0),
        "mixed": (plain, plain[1:3], 2, 2),
        "one-miss": (plain, plain[1:], 3, 1),
        # every member is probed before any is scored: both copies miss
        "same-query-twice": ([plain[0], plain[0], plain[1]], [], 0, 3),
        "use_cache=false": (
            [plain[0], SearchRequest(genes=q[0], page_size=6, use_cache=False), plain[1]],
            [plain[0]], 1, 1,
        ),
        "datasets-filter": (
            [plain[0], SearchRequest(genes=q[1], page_size=6, datasets=tuple(comp.names[:3]))],
            [], 0, 2,
        ),
        "top_k": (
            [SearchRequest(genes=q[0], page=1, page_size=4, top_k=7), plain[2]], [], 0, 2,
        ),
    }


CASES = ["all-miss", "all-hit", "mixed", "one-miss", "same-query-twice",
         "use_cache=false", "datasets-filter", "top_k"]


def _stable(response) -> dict:
    return {k: v for k, v in response.to_wire().items() if k not in VOLATILE}


@pytest.mark.parametrize("case", CASES)
def test_batch_oracle(backend, setup, case):
    comp, truth = setup
    service, width = backend
    members, first, hits, misses = _cases(comp, truth)[case]
    service._cache.clear()
    for request in first:
        service.respond(request)
    cache0, served0 = service.cache_stats(), service.query_count

    batch = service.respond_batch(BatchSearchRequest(searches=tuple(members)))

    oracle = SpellService(comp, cache_size=0)
    assert [_stable(page) for page in batch.results] == [
        _stable(oracle.respond(request)) for request in members
    ]
    # the batch reports its own members, and the shared counters moved
    # exactly that much: once per answered member
    assert (batch.cache_hits, batch.cache_misses) == (hits, misses)
    cache1 = service.cache_stats()
    assert cache1["hits"] - cache0["hits"] == hits
    assert cache1["misses"] - cache0["misses"] == misses
    assert service.query_count - served0 == len(members)
    assert batch.n_workers == width(len(members) - hits)
    # what was scored is now resident (one entry per distinct cached query)
    again = service.respond_batch(BatchSearchRequest(searches=tuple(members)))
    assert again.cache_hits == sum(1 for request in members if request.use_cache)


@pytest.mark.parametrize("code", [
    pytest.param("UNKNOWN_GENE", id="gene"),
    pytest.param("UNKNOWN_DATASET", id="dataset"),
    "PAGE_OUT_OF_RANGE",
])
def test_invalid_member_fails_the_whole_batch_as_itself(backend, setup, code):
    """... with the code and ``details`` every other entry gives it: the
    universe verdicts are typed where they are raised (behind the pool's
    pipe too), not added by the API layer."""
    comp, truth = setup
    service, _ = backend
    bad, details = {
        "UNKNOWN_GENE": (
            SearchRequest(genes=("no-such-gene", "nor-this-one")),
            {"unknown_genes": ["no-such-gene", "nor-this-one"]},
        ),
        "UNKNOWN_DATASET": (
            SearchRequest(genes=tuple(truth.query_genes), datasets=("nope", comp.names[0], "nada")),
            {"unknown_datasets": ["nada", "nope"], "known_count": len(comp)},
        ),
        "PAGE_OUT_OF_RANGE": (SearchRequest(genes=tuple(truth.query_genes), page=10_000), None),
    }[code]
    q = _queries(comp, truth, 3)
    good = SearchRequest(genes=q[1], page_size=6)
    other = SearchRequest(genes=q[2], page_size=6)
    service._cache.clear()  # two misses beside the bad one: the pool is used
    with pytest.raises(Exception) as err:
        service.respond_batch(BatchSearchRequest(searches=(good, bad, other)))
    error = as_api_error(err.value)
    assert error.code == code
    if details is not None:
        assert error.details == details
        with pytest.raises(Exception) as lone:
            service.respond(bad)
        assert error_payload(as_api_error(lone.value)) == error_payload(error)
        # what a pool worker's reply goes through
        piped = pickle.loads(pickle.dumps(err.value))
        assert error_payload(as_api_error(piped)) == error_payload(error)
    # ... and the backend is none the worse for it
    assert _stable(service.respond(good)) == _stable(
        SpellService(comp, cache_size=0).respond(good)
    )


def test_member_deadline_tightens_the_whole_batch(backend, setup):
    """The misses are scored together under one budget: the tightest of
    the admission deadline, the batch's ``deadline_ms`` and every
    member's — so a member's short deadline binds its siblings too."""
    comp, truth = setup
    service, _ = backend
    q = _queries(comp, truth, 3)
    seen = []
    compute_many = service._compute_many

    def spy(misses, deadline, require_complete):
        seen.append((len(misses), deadline.remaining()))
        return compute_many(misses, deadline, require_complete)

    service._compute_many = spy
    try:
        for member_ms, batch_ms in [((None, 5_000, 60_000), 30_000), ((None,) * 3, None)]:
            service._cache.clear()
            service.respond_batch(BatchSearchRequest(
                searches=tuple(
                    SearchRequest(genes=g, page_size=6, deadline_ms=ms)
                    for g, ms in zip(q, member_ms)
                ),
                deadline_ms=batch_ms,
            ))
    finally:
        del service._compute_many
    (tight_n, tight_left), (free_n, free_left) = seen
    assert tight_n == free_n == 3
    assert tight_left is not None and tight_left <= 5.0
    assert free_left is None


def test_router_gathers_every_member_under_the_batch_budget(setup):
    """Behind a router each miss is its own gather, and all of them get
    the one batch budget — a member's ``deadline_ms`` included."""
    comp, truth = setup
    topology = build_local_topology(comp, n_shards=2, n_workers=2)
    try:
        router = topology.router
        budgets = []
        gather = router._gather

        def spy(query, top_k, datasets, *, require_complete, deadline):
            budgets.append(deadline)
            return gather(query, top_k, datasets,
                          require_complete=require_complete, deadline=deadline)

        router._gather = spy
        q = _queries(comp, truth, 3)
        batch = router.respond_batch(BatchSearchRequest(searches=(
            SearchRequest(genes=q[0], page_size=6),
            SearchRequest(genes=q[1], page_size=6, deadline_ms=5_000),
            SearchRequest(genes=q[2], page_size=6),
        )))
    finally:
        topology.close()
    assert not any(page.partial for page in batch.results)
    assert len(budgets) == 3 and all(b is budgets[0] for b in budgets)
    assert budgets[0].remaining() is not None


def test_a_single_search_never_touches_the_pool(setup):
    """On ``n_procs=2`` a lone miss — ``/v1/search``, ``search``, an
    export — is scored in-process: no spawn on the first one, and a
    ``deadline_ms`` that runs out cannot break the pool (a broken pool is
    respawned a bounded number of times, then multi-process serving is
    off for good)."""
    comp, truth = setup
    q = _queries(comp, truth, 8)
    service = SpellService(comp, n_procs=2)
    try:
        app = ApiApp(service)
        status, _ = app.handle_wire("search", {"genes": list(q[0])})
        assert status == 200
        service.search(q[1])
        list(service.iter_result(ExportRequest(genes=q[2])))
        assert service.serving_stats()["procpool"] is None  # nothing spawned

        batch = BatchSearchRequest(
            searches=tuple(SearchRequest(genes=g, use_cache=False) for g in q[:4])
        )
        assert service.respond_batch(batch).n_workers == 2
        pool = service._procpool
        for genes in q[3:]:  # cold single searches on a 1 ms budget
            status, body = app.handle_wire(
                "search", {"genes": list(genes), "deadline_ms": 1}
            )
            assert status == 200 or body["error"]["code"] == "DEADLINE_EXCEEDED"
        assert service._procpool is pool and not pool.broken
        assert service._pool_respawns == 0
        assert service.respond_batch(batch).n_workers == 2
        assert service.serving_stats()["procpool"]["batches"] == 2  # only the batches
    finally:
        service.close()


class _Parking(SpellService):
    """``_compute_many`` parks once on an event."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.parked, self.release = threading.Event(), threading.Event()

    def _compute_many(self, *args):
        self.parked.set()
        assert self.release.wait(20)
        return super()._compute_many(*args)


def test_batch_counts_its_own_members_under_concurrent_hits(setup):
    """``cache_hits``/``cache_misses`` are the batch's own split, not a
    delta of the shared counters: requests answered meanwhile are not
    billed to it."""
    comp, truth = setup
    warm, cold = (SearchRequest(genes=g) for g in _queries(comp, truth, 2))
    service = _Parking(comp)
    service.release.set()
    service.respond(warm)
    service.release.clear()
    service.parked.clear()

    batches = []
    client = threading.Thread(target=lambda: batches.append(
        service.respond_batch(BatchSearchRequest(searches=(warm, cold)))
    ))
    client.start()
    try:
        assert service.parked.wait(10)  # ``cold`` is inside _compute_many
        for _ in range(3):
            assert service.respond_cached(warm) is not None
    finally:
        service.release.set()
        client.join(timeout=20)
    assert not client.is_alive()
    (batch,) = batches
    assert (batch.cache_hits, batch.cache_misses) == (1, 1)
    assert service.cache_stats()["hits"] == 4  # the shared counter saw them all


def test_scheduler_selects_nothing(setup):
    """``"map"`` and ``"steal"`` still parse, and answer the same batch
    the same way: one ``_compute_many`` call over all sixteen misses,
    equal bodies modulo the timing fields."""
    app, truth = build_app(n_workers=4, synth_datasets=6, synth_genes=120, seed=5)
    service = app.service
    universe = service.compendium.gene_universe()
    searches = [
        {"genes": [universe[3 * i], universe[3 * i + 1]], "page_size": 5, "use_cache": False}
        for i in range(16)
    ]
    seen = []
    compute_many = service._compute_many

    def spy(misses, *args):
        seen.append((len(misses), threading.current_thread()))
        return compute_many(misses, *args)

    service._compute_many = spy
    bodies = {}
    for scheduler in ("map", "steal"):
        status, body = app.handle_wire(
            "search/batch", {"searches": searches, "scheduler": scheduler}
        )
        assert status == 200
        for page in body["results"]:
            page.pop("elapsed_seconds")
        body.pop("total_seconds")
        bodies[scheduler] = body
    assert bodies["map"] == bodies["steal"]
    assert bodies["map"]["n_workers"] == 1
    assert seen == [(16, threading.current_thread())] * 2


# ------------------------------------------------------------ structure locks
SRC = Path(repro.__file__).parent


def test_serving_does_not_import_the_work_stealing_pool():
    """The one thread fan-out left in serving is the router's
    ``parallel_map``; ``repro.parallel.workqueue`` belongs to the display
    wall's schedules."""
    offenders = []
    for package in ("spell", "api", "cluster_serving"):
        for path in sorted((SRC / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = []
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                if any("workqueue" in name or "WorkStealingPool" in name for name in names):
                    offenders.append(str(path.relative_to(SRC)))
    assert offenders == []


def test_backends_supply_the_compute_step_and_nothing_above_it():
    """Structure lock: the entry points are the base class's, once; a
    backend differs in ``_compute_many``."""
    import repro.cluster_serving  # noqa: F401 — registers RouterService

    backends = [cls for cls in SearchBackend.__subclasses__()
                if cls.__module__.startswith("repro.")]
    assert {cls.__name__ for cls in backends} == {"SpellService", "RouterService"}
    for cls in backends:
        assert "_compute_many" in vars(cls), cls
        for entry in ("respond", "respond_cached", "respond_batch", "iter_result",
                      "search", "_answer", "_respond"):
            assert entry not in vars(cls), f"{cls.__name__} redefines {entry}"


# ------------------------------------------------------ one judge of a query
def test_health_genes_is_read_from_the_backends_universe(setup, monkeypatch):
    """``/v1/health`` ``genes`` tracks an ingest and reads the same behind
    a 2-shard router — from the universe the backend already holds, never
    by walking the compendium on the request's thread."""
    comp = Compendium(list(setup[0]))  # private: the ingest grows it
    expected = len(comp.gene_universe())
    late = ExpressionMatrix(
        np.random.default_rng(3).normal(size=(12, 6)),
        list(comp[0].gene_ids[:10]) + ["LATE0", "LATE1"],
        [f"c{i}" for i in range(6)],
    )
    walks = []
    monkeypatch.setattr(Compendium, "gene_universe", lambda self: walks.append(self))
    topology = build_local_topology(comp, n_shards=2)
    try:
        with SpellService(comp) as service:
            app = ApiApp(service)
            # the app holds no gene set, no universe lock, no rule of its own
            assert not {"_check", "_gene_universe", "_universe", "_universe_lock"} & set(dir(app))
            assert app.handle_wire("health", None)[1]["genes"] == expected
            assert ApiApp(topology.router).handle_wire("health", None)[1]["genes"] == expected
            status, _ = app.handle_wire(
                "ingest", {"name": "late", "format": "pcl", "content": format_pcl(late)}
            )
            assert status == 200
            assert app.handle_wire("health", None)[1]["genes"] == expected + 2
    finally:
        topology.close()
    assert walks == []


def _calls_and_raises(path: Path):
    """``(keyword names passed to any call, names of raised classes)``;
    an ``ApiError`` raised with a literal code also counts as
    ``"ApiError:<code>"``."""
    keywords, raised = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            keywords |= {kw.arg for kw in node.keywords}
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            name = getattr(node.exc.func, "id", getattr(node.exc.func, "attr", None))
            raised.add(name)
            code = node.exc.args[0] if node.exc.args else None
            if name == "ApiError" and isinstance(code, ast.Constant):
                raised.add(f"ApiError:{code.value}")
    return keywords, raised


def test_only_the_gene_universe_judges_a_query():
    """Structure lock: in serving, one module derives a slot table and
    raises the two universe verdicts (``engine.py`` is the reference the
    oracles compare against), and an index is never edited in place.
    An ``ApiError`` raised with a verdict's code is a judge too."""
    import inspect

    from repro.spell import ShardArena, SpellIndex

    verdicts = {"UnknownGeneError", "UnknownDatasetError",
                "ApiError:UNKNOWN_GENE", "ApiError:UNKNOWN_DATASET"}
    judges = []
    for package in ("spell", "api", "cluster_serving"):
        for path in sorted((SRC / package).rglob("*.py")):
            keywords, raised = _calls_and_raises(path)
            if "return_inverse" in keywords or raised & verdicts:
                judges.append(str(path.relative_to(SRC)))
    assert judges == ["spell/engine.py", "spell/partials.py"]
    _, raised = _calls_and_raises(SRC / "spell" / "engine.py")
    assert not raised & {"UnknownGeneError", "UnknownDatasetError"}

    for cls, gone in [(SpellIndex, ("add_dataset", "remove_dataset", "_select", "_resolve")),
                      (ShardArena, ("append", "remove"))]:
        for name in gone:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    assert "use_index" not in inspect.signature(SpellService.__init__).parameters

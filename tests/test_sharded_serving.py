"""Tests for the sharded serving tier: ring, shards, router, degradation.

The acceptance bar is the oracle property: a query through the sharded
scatter-gather path returns rankings **bit-identical** to a single-node
:class:`SpellService` over the same compendium — including dataset
filters, ``top_k`` caps, float32 shards, pagination, and replica
failover.  The degradation bar: losing a shard yields a structured
partial (``partial=True`` + ``shards`` detail) or a structured
``SHARD_UNAVAILABLE`` — never a hang, a raw 500, or a silent cut.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.api.app import ApiApp
from repro.api.errors import as_api_error
from repro.api.protocol import (
    BatchSearchRequest,
    ExportRequest,
    SearchRequest,
    SearchResponse,
)
from repro.cluster_serving import (
    HashRing,
    build_local_topology,
    plan_assignment,
    shard_compendium,
)
from repro.spell import SpellIndex, SpellService
from repro.spell.partials import GeneUniverse
from repro.synth import make_spell_compendium
from repro.util.errors import RpcError, SearchError, ValidationError

N_SHARDS = 3


@pytest.fixture(scope="module")
def setup():
    """(compendium, truth) shared read-only by the whole module."""
    return make_spell_compendium(
        n_datasets=9,
        n_relevant=3,
        n_genes=150,
        n_conditions=10,
        module_size=12,
        query_size=3,
        seed=7,
    )


@pytest.fixture(scope="module")
def oracle(setup):
    """The single-node reference answers (cache off: every query real)."""
    comp, _ = setup
    with SpellService(comp, cache_size=0) as service:
        yield service


@pytest.fixture(scope="module")
def topo(setup):
    """Healthy 3-shard topology with replication=2 — read-only tests only."""
    comp, _ = setup
    with build_local_topology(
        comp, n_shards=N_SHARDS, replication=2, cache_size=0
    ) as topology:
        yield topology


def fresh_topology(comp, **kwargs):
    """A throwaway topology for tests that kill or corrupt shards."""
    kwargs.setdefault("n_shards", N_SHARDS)
    kwargs.setdefault("cache_size", 0)
    kwargs.setdefault("rpc_timeout", 10.0)
    return build_local_topology(comp, **kwargs)


def assert_bit_identical(sharded, single):
    """Two SpellResults agree to the last bit (scores compared as bytes)."""
    assert sharded.query == single.query
    assert sharded.query_used == single.query_used
    assert sharded.query_missing == single.query_missing
    assert sharded.datasets == single.datasets
    assert sharded.genes.ids.tolist() == single.genes.ids.tolist()
    assert sharded.genes.scores.tobytes() == single.genes.scores.tobytes()
    assert sharded.genes.n_datasets.tolist() == single.genes.n_datasets.tolist()
    assert sharded.genes.total == single.genes.total


class TestHashRing:
    def test_owners_distinct_and_deterministic(self):
        ring = HashRing([f"n{i}" for i in range(5)])
        again = HashRing([f"n{i}" for i in range(5)])
        for key in ("a", "b", "deadbeef", "fingerprint-x"):
            owners = ring.owners(key, 3)
            assert len(owners) == len(set(owners)) == 3
            assert owners == again.owners(key, 3)  # pure function of inputs

    def test_replication_clamped_to_node_count(self):
        ring = HashRing(["a", "b"])
        assert len(ring.owners("k", 5)) == 2
        assert len(ring.owners("k", 0)) == 1  # at least the primary

    def test_validation(self):
        with pytest.raises(ValidationError, match="at least one node"):
            HashRing([])
        with pytest.raises(ValidationError, match="duplicate node ids"):
            HashRing(["a", "a"])
        with pytest.raises(ValidationError, match="vnodes"):
            HashRing(["a"], vnodes=0)

    def test_plan_keys_on_fingerprint_not_name(self):
        """Renaming a dataset must not move its data."""
        nodes = [f"n{i}" for i in range(4)]
        plan = plan_assignment(
            [("old_name", "fp-123"), ("new_name", "fp-123")], nodes, replication=2
        )
        assert plan["old_name"] == plan["new_name"]

    def test_rebalance_moves_only_a_minority(self):
        """Consistent hashing: adding one node reassigns a minority of
        keys (vs. ~all for modulo placement)."""
        keys = [f"fp-{i}" for i in range(200)]
        before = HashRing([f"n{i}" for i in range(4)])
        after = HashRing([f"n{i}" for i in range(5)])
        moved = sum(
            before.owners(k, 1) != after.owners(k, 1) for k in keys
        )
        assert 0 < moved < len(keys) / 2


class TestShardCompendium:
    def test_subsets_cover_compendium(self, setup):
        comp, _ = setup
        node_ids = [f"shard-{i}" for i in range(N_SHARDS)]
        held: dict[str, int] = {ds.name: 0 for ds in comp}
        for nid in node_ids:
            for ds in shard_compendium(comp, node_ids, nid):
                held[ds.name] += 1
        # replication=1: every dataset on exactly one shard
        assert all(count == 1 for count in held.values())

    def test_replication_duplicates_ownership(self, setup):
        comp, _ = setup
        node_ids = [f"shard-{i}" for i in range(N_SHARDS)]
        held = {ds.name: 0 for ds in comp}
        for nid in node_ids:
            for ds in shard_compendium(comp, node_ids, nid, replication=2):
                held[ds.name] += 1
        assert all(count == 2 for count in held.values())

    def test_unknown_node_rejected(self, setup):
        comp, _ = setup
        with pytest.raises(ValidationError, match="not in the node set"):
            shard_compendium(comp, ["shard-0"], "ghost")


class TestOracleBitIdentity:
    """Sharded answers == single-node answers, to the last bit."""

    def test_plain_query(self, setup, topo, oracle):
        _, truth = setup
        query = list(truth.query_genes)
        assert_bit_identical(topo.router.search(query), oracle.search(query))

    def test_top_k(self, setup, topo, oracle):
        _, truth = setup
        query = list(truth.query_genes)
        assert_bit_identical(
            topo.router.search(query, top_k=11), oracle.search(query, top_k=11)
        )

    def test_dataset_filter(self, setup, topo, oracle):
        comp, truth = setup
        query = list(truth.query_genes)
        picked = [comp[i].name for i in (0, 3, 7)]
        assert_bit_identical(
            topo.router.search(query, datasets=picked),
            oracle.search(query, datasets=picked),
        )

    def test_missing_query_genes_partition(self, setup, topo, oracle):
        _, truth = setup
        query = list(truth.query_genes) + ["NOSUCHGENE"]
        assert_bit_identical(topo.router.search(query), oracle.search(query))

    def test_respond_pagination_parity(self, setup, topo, oracle):
        _, truth = setup
        for page in (0, 2):
            request = SearchRequest(
                genes=tuple(truth.query_genes), page=page, page_size=7
            )
            sharded = topo.router.respond(request)
            single = oracle.respond(request)
            assert sharded.gene_rows == single.gene_rows
            assert sharded.dataset_rows == single.dataset_rows
            assert sharded.total_genes == single.total_genes
            assert sharded.total_pages == single.total_pages
            # healthy topology: the v1 partiality fields stay quiet
            assert sharded.partial is False
            assert sharded.shards == {}

    def test_batch_parity(self, setup, topo, oracle):
        comp, truth = setup
        queries = [
            tuple(truth.query_genes),
            (comp[0].gene_ids[0], comp[0].gene_ids[1]),
            (comp[4].gene_ids[5],),
        ]
        request = BatchSearchRequest(
            searches=tuple(SearchRequest(genes=q, page_size=15) for q in queries)
        )
        sharded = topo.router.respond_batch(request)
        single = oracle.respond_batch(request)
        assert len(sharded.results) == len(queries)
        for a, b in zip(sharded.results, single.results):
            assert a.gene_rows == b.gene_rows
            assert a.dataset_rows == b.dataset_rows

    def test_export_stream_parity(self, setup, topo, oracle):
        _, truth = setup
        request = ExportRequest(genes=tuple(truth.query_genes), chunk_size=40)
        strip = ("elapsed_seconds",)
        sharded = [
            {k: v for k, v in chunk.to_wire().items() if k not in strip}
            for chunk in topo.router.iter_result(request)
        ]
        single = [
            {k: v for k, v in chunk.to_wire().items() if k not in strip}
            for chunk in oracle.iter_result(request)
        ]
        assert sharded == single  # same chunks, same trailer checksum

    def test_float32_shards_match_float32_single_node(self, setup):
        comp, truth = setup
        query = list(truth.query_genes)
        with SpellService(comp, cache_size=0, dtype=np.float32) as single:
            with fresh_topology(comp, replication=1, dtype=np.float32) as topology:
                assert_bit_identical(
                    topology.router.search(query), single.search(query)
                )


class TestReplicaFailover:
    def test_replicated_dataset_survives_shard_death_bit_identically(
        self, setup, oracle
    ):
        comp, truth = setup
        query = list(truth.query_genes)
        with fresh_topology(comp, replication=2) as topology:
            topology.kill("shard-1")
            result = topology.router.search(query)
            assert_bit_identical(result, oracle.search(query))
            response = topology.router.respond(
                SearchRequest(genes=tuple(query))
            )
            assert response.partial is False
            assert response.shards == {}

    def test_unreplicated_shard_death_yields_structured_partial(self, setup):
        comp, truth = setup
        with fresh_topology(comp, replication=1) as topology:
            lost = sorted(ds.name for ds in topology.shard("shard-1").compendium)
            assert lost  # the plan gave shard-1 something to lose
            topology.kill("shard-1")
            response = topology.router.respond(
                SearchRequest(genes=tuple(truth.query_genes))
            )
            assert response.partial is True
            assert response.shards["missing_datasets"] == lost
            for name in lost:
                assert response.shards["failures"][name]  # per-dataset reasons
            assert "error" in response.shards["nodes"]["shard-1"]
            # surviving datasets still ranked — degraded, not empty
            assert response.gene_rows

    def test_partial_survives_the_wire(self, setup):
        comp, truth = setup
        with fresh_topology(comp, replication=1) as topology:
            topology.kill("shard-0")
            response = topology.router.respond(
                SearchRequest(genes=tuple(truth.query_genes))
            )
            again = SearchResponse.from_wire(response.to_wire())
            assert again.partial is True
            assert again.shards == response.shards

    def test_partial_results_never_cached(self, setup):
        comp, truth = setup
        query = tuple(truth.query_genes)
        with fresh_topology(comp, replication=1, cache_size=8) as topology:
            surviving = sorted(
                ds.name
                for nid in ("shard-0", "shard-2")
                for ds in topology.shard(nid).compendium
            )
            topology.kill("shard-1")
            assert topology.router.respond(SearchRequest(genes=query)).partial
            # the gap was not admitted: an identical query must re-gather
            assert topology.router.cache_stats()["entries"] == 0
            # a complete answer (filtered to reachable datasets) is cached
            complete = SearchRequest(genes=query, datasets=tuple(surviving))
            assert topology.router.respond(complete).partial is False
            assert topology.router.cache_stats()["entries"] == 1

    def test_allow_partial_false_turns_loss_into_hard_error(self, setup):
        comp, truth = setup
        with fresh_topology(comp, replication=1, allow_partial=False) as topology:
            victim = next(
                node.node_id for node in topology.shards if len(node.compendium)
            )
            topology.kill(victim)
            with pytest.raises(RpcError, match="shard\\(s\\) unavailable"):
                topology.router.search(list(truth.query_genes))

    def test_export_refuses_to_truncate(self, setup):
        """The checksummed export stream must never silently omit a lost
        shard's genes: shard loss is SHARD_UNAVAILABLE, not a short file."""
        comp, truth = setup
        with fresh_topology(comp, replication=1) as topology:
            topology.kill("shard-1")
            with pytest.raises(RpcError) as excinfo:
                list(
                    topology.router.iter_result(
                        ExportRequest(genes=tuple(truth.query_genes))
                    )
                )
            assert as_api_error(excinfo.value).code == "SHARD_UNAVAILABLE"

    def test_total_outage_is_shard_unavailable(self, setup):
        comp, truth = setup
        with fresh_topology(comp, replication=1) as topology:
            for i in range(N_SHARDS):
                topology.kill(f"shard-{i}")
            with pytest.raises(RpcError, match="no shard reachable") as excinfo:
                topology.router.search(list(truth.query_genes))
            err = as_api_error(excinfo.value)
            assert err.code == "SHARD_UNAVAILABLE"
            assert err.http_status == 503


class TestStalenessRefusal:
    def test_stale_replica_refused_and_failed_over(self, setup, oracle):
        """A shard holding yesterday's bytes refuses (fingerprint check)
        and the router silently fails over to the fresh replica —
        stale data is never folded into a ranking."""
        comp, truth = setup
        query = list(truth.query_genes)
        with fresh_topology(comp, replication=2) as topology:
            victim_name = comp[0].name
            primary = topology.router._plan[victim_name][0]
            node = topology.shard(primary)
            node._fingerprints[victim_name] = "0" * 40  # simulate stale content
            result = topology.router.search(query)
            assert_bit_identical(result, oracle.search(query))
            assert node._refused >= 1  # the stale copy was asked and said no

    def test_stale_sole_owner_is_skipped_not_served(self, setup):
        comp, truth = setup
        with fresh_topology(comp, replication=1) as topology:
            victim_name = comp[0].name
            owner = topology.router._plan[victim_name][0]
            topology.shard(owner)._fingerprints[victim_name] = "f" * 40
            response = topology.router.respond(
                SearchRequest(genes=tuple(truth.query_genes))
            )
            assert response.partial is True
            assert victim_name in response.shards["missing_datasets"]
            reasons = " ".join(response.shards["failures"][victim_name])
            assert "stale content" in reasons

    @staticmethod
    def _doctor(node, victim_name):
        """Make ``node`` answer for ``victim_name`` as if it had scored
        other content than it was asked for (and not noticed)."""
        partials = node._server._handlers["partials"]

        def doctored(payload):
            reply = partials(payload)
            if victim_name in reply["partials"]:
                reply["partials"][victim_name]["fingerprint"] = "e" * 40
            return reply

        node._server._handlers["partials"] = doctored

    def test_router_verifies_what_a_shard_says_it_scored(self, setup, oracle):
        """The coordinator checks each partial's fingerprint against its
        catalog before merging: a mismatch is a refusal — failover to the
        replica, or a flagged partial naming the shard's claim."""
        comp, truth = setup
        query = list(truth.query_genes)
        victim_name = comp[0].name
        with fresh_topology(comp, replication=2) as topology:
            self._doctor(topology.shard(topology.router._plan[victim_name][0]), victim_name)
            assert_bit_identical(topology.router.search(query), oracle.search(query))
        with fresh_topology(comp, replication=1) as topology:
            owner = topology.router._plan[victim_name][0]
            self._doctor(topology.shard(owner), victim_name)
            response = topology.router.respond(SearchRequest(genes=tuple(query)))
            assert response.partial is True
            assert response.shards["missing_datasets"] == [victim_name]
            (reason,) = response.shards["failures"][victim_name]
            assert "shard scored eeeeeeeeeeee" in reason
            assert victim_name in response.shards["nodes"][owner]["refused"]
            assert victim_name not in response.shards["nodes"][owner]["served"]

    def test_a_reply_counts_only_for_the_names_it_was_asked(self, setup, oracle):
        """A shard that also answers for a catalog dataset nobody asked it
        about cannot end the gather early: the extra name is ignored, and
        the router still waits for the slower shard owning the rest."""
        comp, truth = setup
        query = list(truth.query_genes)
        with fresh_topology(comp, n_shards=2, replication=1) as topology:
            router = topology.router
            owned = {
                nid: sorted(n for n, owners in router._plan.items() if owners == [nid])
                for nid in ("shard-0", "shard-1")
            }
            (asked, extra, *_), (slow, *_) = owned["shard-0"], owned["shard-1"]
            chatty, late = topology.shard("shard-0"), topology.shard("shard-1")
            partials = chatty._server._handlers["partials"]
            lagging = late._server._handlers["partials"]

            def also_extra(payload):
                more = [(extra, router._fingerprints[extra])]
                return partials(dict(payload, datasets=list(payload["datasets"]) + more))

            def after_a_while(payload):
                time.sleep(0.3)
                return lagging(payload)

            chatty._server._handlers["partials"] = also_extra
            late._server._handlers["partials"] = after_a_while
            datasets = (asked, slow)
            response = router.respond(SearchRequest(genes=tuple(query), datasets=datasets))
            assert response.partial is False
            assert response.shards == {}
            assert_bit_identical(
                router.search(query, datasets=datasets),
                oracle.search(query, datasets=datasets),
            )

    def test_duplicate_ownership_never_double_counts(self, setup, topo, oracle):
        """replication=2 puts every dataset on two shards; the router asks
        exactly one owner per dataset, so nothing is counted twice."""
        _, truth = setup
        result = topo.router.search(list(truth.query_genes))
        names = [score.name for score in result.datasets]
        assert len(names) == len(set(names))
        single = oracle.search(list(truth.query_genes))
        assert result.genes.n_datasets.tolist() == single.genes.n_datasets.tolist()


class TestMergeDeterminism:
    def test_merge_invariant_under_reply_reordering(self, setup):
        """The merge is a pure function: contribution dicts built in any
        insertion order (shard replies race) give bit-identical results,
        because only the canonical walk order touches floats."""
        comp, truth = setup
        universe = GeneUniverse([(ds.name, ds.gene_ids) for ds in comp])
        selected = universe.dataset_names
        query = list(truth.query_genes)
        query_used, query_missing, q_slots = universe.resolve_query(
            query, selected, filtered=False
        )
        parts = list(SpellIndex.build(comp).search_partials(query))

        def merged(order):
            return universe.merge(
                query,
                query_used,
                query_missing,
                q_slots,
                selected,
                {p.name: p for p in order},
            )

        baseline = merged(parts)
        shuffled = list(parts)
        for seed in (1, 2, 3):
            random.Random(seed).shuffle(shuffled)
            result = merged(shuffled)
            assert result.genes.ids.tolist() == baseline.genes.ids.tolist()
            assert (
                result.genes.scores.tobytes() == baseline.genes.scores.tobytes()
            )
            assert result.datasets == baseline.datasets

    def test_merge_refuses_missing_contribution(self, setup):
        comp, _ = setup
        universe = GeneUniverse([(ds.name, ds.gene_ids) for ds in comp])
        selected = universe.dataset_names
        query = [comp[0].gene_ids[0]]
        query_used, query_missing, q_slots = universe.resolve_query(
            query, selected, filtered=False
        )
        with pytest.raises(SearchError, match="missing partial"):
            universe.merge(
                query, query_used, query_missing, q_slots, selected, {}
            )


class TestErrorParity:
    """Validation errors are transport-independent: the router raises the
    same message a single-node service would."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"query": []},
            {"query": ["G1", "G1"]},
            {"query": ["NOSUCHGENE"]},
            {"query": ["ignored"], "datasets": ["nope"]},
        ],
    )
    def test_same_search_error(self, setup, topo, oracle, kwargs):
        query = kwargs["query"]
        datasets = kwargs.get("datasets")
        with pytest.raises(SearchError) as sharded_err:
            topo.router.search(query, datasets=datasets)
        with pytest.raises(SearchError) as single_err:
            oracle.search(query, datasets=datasets)
        assert str(sharded_err.value) == str(single_err.value)


class TestRouterFacade:
    def test_health_carries_shard_map(self, setup, topo):
        comp, _ = setup
        app = ApiApp(topo.router)
        status, body = app.handle_wire("health", None)
        assert status == 200
        assert body["status"] == "ok"
        assert body["datasets"] == len(comp)
        nodes = body["shards"]["nodes"]
        assert set(nodes) == {f"shard-{i}" for i in range(N_SHARDS)}
        for snapshot in nodes.values():
            assert snapshot["alive"] is True
        assert body["shards"]["replication"] == 2

    def test_wire_search_and_structured_degradation(self, setup, oracle):
        """The router behind the unmodified ApiApp: wire parity while
        healthy, structured partial after a kill, 503 after total loss."""
        comp, truth = setup
        query = list(truth.query_genes)
        with fresh_topology(comp, replication=1) as topology:
            app = ApiApp(topology.router)
            status, body = app.handle_wire(
                "search", {"genes": query, "page_size": 25}
            )
            assert status == 200
            _, single_body = ApiApp(oracle).handle_wire(
                "search", {"genes": query, "page_size": 25}
            )
            assert body["gene_rows"] == single_body["gene_rows"]
            assert body["partial"] is False

            topology.kill("shard-0")
            status, body = app.handle_wire("search", {"genes": query})
            assert status == 200
            assert body["partial"] is True
            assert body["shards"]["missing_datasets"]

            topology.kill("shard-1")
            topology.kill("shard-2")
            status, body = app.handle_wire("search", {"genes": query})
            assert status == 503
            assert body["error"]["code"] == "SHARD_UNAVAILABLE"

    def test_router_serving_stats_shape(self, topo):
        stats = topo.router.serving_stats()
        assert stats["router"]["n_shards"] == N_SHARDS
        assert stats["router"]["replication"] == 2
        assert topo.router.shard_stats()["replication"] == 2
        assert topo.router.index_bytes() > 0

"""Chaos suite: seeded fault schedules against the full sharded stack.

Every test drives the real stack — ``ApiApp`` over a ``RouterService``
over real-socket shard RPC — while a seeded :class:`FaultPlan` breaks
the transport on schedule.  The acceptance contract:

* every response is a success, a *flagged* partial, or a structured
  ``DEADLINE_EXCEEDED`` / ``SHARD_UNAVAILABLE`` — never a hang past the
  budget and never a silently truncated ranking;
* a killed-then-restarted shard returns to full (non-partial) service
  after a heartbeat, with **no router restart**;
* anything served non-partial — through retries, failover, or hedging —
  is bit-identical to the single-node oracle.
"""

from __future__ import annotations

import time

import pytest

from repro.api.app import ApiApp
from repro.api.protocol import SearchRequest
from repro.cluster_serving import build_local_topology
from repro.cluster_serving.hedging import HedgePolicy
from repro.rpc.faults import FaultPlan
from repro.rpc.policy import BREAKER_CLOSED, RetryPolicy
from repro.spell import SpellService
from repro.synth import make_spell_compendium

N_SHARDS = 3
SHARD_IDS = [f"shard-{i}" for i in range(N_SHARDS)]

#: Three distinct seeded storm schedules (the >= 3 fault plans the
#: acceptance bar asks for).  Each maps node id -> FaultPlan kwargs;
#: ``max_faults`` bounds every storm so the cluster provably heals.
STORMS = {
    "resets": {
        "shard-0": dict(seed=11, reset_mid_frame=0.6, max_faults=6),
        "shard-1": dict(seed=12, reset_mid_frame=0.4, max_faults=4),
    },
    "garbage-and-refused": {
        "shard-0": dict(seed=21, garbage=0.5, max_faults=5),
        "shard-2": dict(seed=22, connect_refused=0.5, max_faults=5),
    },
    "mixed": {
        "shard-0": dict(seed=31, reset_mid_frame=0.3, garbage=0.3, max_faults=4),
        "shard-1": dict(seed=32, connect_refused=0.4, max_faults=4),
        "shard-2": dict(seed=33, garbage=0.3, max_faults=3),
    },
}


@pytest.fixture(scope="module")
def setup():
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
    comp, _ = setup
    with SpellService(comp, cache_size=0) as service:
        yield service


def make_topology(comp, *, fault_specs=None, **kwargs):
    """Chaos topology: replication=2, fast breaker/retry, cache off.

    The fault plans target only the ``partials`` method by default so
    heartbeats stay honest probes (``connect_refused`` has no method
    filter — it breaks any dial, including pings, which is the point).
    """
    plans = None
    if fault_specs:
        plans = {
            nid: FaultPlan(methods=("partials",), **spec)
            for nid, spec in fault_specs.items()
        }
    kwargs.setdefault("n_shards", N_SHARDS)
    kwargs.setdefault("replication", 2)
    kwargs.setdefault("cache_size", 0)
    kwargs.setdefault("rpc_timeout", 10.0)
    kwargs.setdefault("retry", RetryPolicy(max_tries=2, base_delay=0.01, max_delay=0.05))
    kwargs.setdefault("breaker_reset_timeout", 0.5)
    return build_local_topology(comp, fault_plans=plans, **kwargs)


def assert_rows_identical(body: dict, oracle_body: dict) -> None:
    """A served (non-partial) wire response matches the oracle's exactly."""
    assert body["gene_rows"] == oracle_body["gene_rows"]
    assert body["dataset_rows"] == oracle_body["dataset_rows"]
    assert body["total_genes"] == oracle_body["total_genes"]


class TestSeededStorms:
    @pytest.mark.parametrize("storm", sorted(STORMS), ids=sorted(STORMS))
    def test_every_response_structured_and_cluster_heals(
        self, setup, oracle, storm
    ):
        comp, truth = setup
        payload = {
            "genes": list(truth.query_genes),
            "page_size": 25,
            "deadline_ms": 10_000,
        }
        _, oracle_body = ApiApp(oracle).handle_wire("search", dict(payload))

        with make_topology(comp, fault_specs=STORMS[storm]) as topo:
            app = ApiApp(topo.router)
            outcomes = {"ok": 0, "partial": 0, "unavailable": 0, "deadline": 0}
            for _ in range(12):
                t0 = time.monotonic()
                status, body = app.handle_wire("search", dict(payload))
                elapsed = time.monotonic() - t0
                # bounded latency: never a hang past the request budget
                assert elapsed < 10.0, f"query hung {elapsed:.1f}s under {storm}"
                if status == 200:
                    if body["partial"]:
                        outcomes["partial"] += 1
                        # flagged, never silent: the gap is itemized
                        assert body["shards"]["missing_datasets"]
                        assert body["shards"]["failures"]
                    else:
                        outcomes["ok"] += 1
                        assert_rows_identical(body, oracle_body)
                elif status == 503:
                    outcomes["unavailable"] += 1
                    assert body["error"]["code"] == "SHARD_UNAVAILABLE"
                elif status == 504:
                    outcomes["deadline"] += 1
                    assert body["error"]["code"] == "DEADLINE_EXCEEDED"
                else:  # any other status is a contract violation
                    raise AssertionError(f"unstructured failure: {status} {body}")

            # the storm budget (max_faults) is finite: heartbeats + queries
            # must converge back to full, bit-identical service
            recovered = False
            for _ in range(20):
                topo.router.heartbeat()
                status, body = app.handle_wire("search", dict(payload))
                if status == 200 and not body["partial"]:
                    recovered = True
                    break
            assert recovered, f"cluster never healed after storm {storm}: {outcomes}"
            assert_rows_identical(body, oracle_body)
            # the plans really injected something (the storm was real)
            injected = sum(
                node.fault_plan.stats()["total_injected"]
                for node in topo.shards
                if node.fault_plan is not None
            )
            assert injected > 0


class TestKillRestartRejoin:
    def test_restarted_shard_returns_to_full_service_without_router_restart(
        self, setup, oracle
    ):
        comp, truth = setup
        request = {"genes": list(truth.query_genes), "page_size": 25}
        _, oracle_body = ApiApp(oracle).handle_wire("search", dict(request))

        # replication=1: losing a shard MUST show as partial (no replica
        # can mask it), which makes full recovery unambiguous
        with make_topology(comp, replication=1) as topo:
            app = ApiApp(topo.router)
            status, body = app.handle_wire("search", dict(request))
            assert status == 200 and not body["partial"]

            victim = "shard-1"
            topo.kill(victim)
            status, body = app.handle_wire("search", dict(request))
            assert status == 200 and body["partial"]
            assert body["shards"]["missing_datasets"]

            # enough traffic to trip the victim's breaker open
            for _ in range(3):
                app.handle_wire("search", dict(request))
            snap = topo.router.shard_stats()["nodes"][victim]
            assert not snap["alive"]
            assert snap["breaker"]["state"] != BREAKER_CLOSED

            topo.restart(victim)
            topo.router.heartbeat()  # the rejoin sweep — no router rebuild

            status, body = app.handle_wire("search", dict(request))
            assert status == 200 and not body["partial"]
            assert_rows_identical(body, oracle_body)
            snap = topo.router.shard_stats()["nodes"][victim]
            assert snap["alive"]
            assert snap["breaker"]["state"] == BREAKER_CLOSED
            # the resync check: the reborn node's advertised catalog
            # covers exactly what the plan says it owns
            assert snap["catalog_synced"] is True

    def test_restart_with_different_content_is_refused_per_dataset(self, setup):
        comp, truth = setup
        other, _ = make_spell_compendium(
            n_datasets=9,
            n_relevant=3,
            n_genes=150,
            n_conditions=10,
            module_size=12,
            query_size=3,
            seed=99,  # different content, same dataset names
        )
        request = {"genes": list(truth.query_genes), "page_size": 25}
        with make_topology(comp, replication=1) as topo:
            app = ApiApp(topo.router)
            victim = "shard-1"
            topo.kill(victim)
            topo.restart(victim, compendium=other)
            # first sweep may spend on redialling the stale pooled
            # connection; converge before judging the reported catalog
            for _ in range(3):
                topo.router.heartbeat()
                snap = topo.router.shard_stats()["nodes"][victim]
                if snap["alive"]:
                    break
            assert snap["alive"]
            status, body = app.handle_wire("search", dict(request))
            # stale fingerprints are refused, never merged: the answer is
            # a flagged partial, not silently mixed content
            assert status == 200 and body["partial"]
            assert snap["catalog_synced"] is False


class TestDeadlineBudget:
    def test_universal_stall_yields_structured_504_within_budget(self, setup):
        comp, truth = setup
        stall = {
            nid: dict(seed=5, stall=1.0, stall_seconds=8.0)
            for nid in SHARD_IDS
        }
        with make_topology(
            comp,
            fault_specs=stall,
            retry=RetryPolicy.none(),
            hedge=HedgePolicy.disabled(),
        ) as topo:
            app = ApiApp(topo.router)
            payload = {
                "genes": list(truth.query_genes),
                "page_size": 25,
                "deadline_ms": 400,
            }
            t0 = time.monotonic()
            status, body = app.handle_wire("search", dict(payload))
            elapsed = time.monotonic() - t0
            assert status == 504
            assert body["error"]["code"] == "DEADLINE_EXCEEDED"
            # the budget bounds the response, not the 8s stall
            assert elapsed < 4.0
            assert topo.router.shard_stats()["deadline_exceeded"] >= 1

    def test_deadline_ms_validation(self, setup):
        comp, truth = setup
        with make_topology(comp) as topo:
            app = ApiApp(topo.router)
            status, body = app.handle_wire(
                "search", {"genes": list(truth.query_genes), "deadline_ms": 0}
            )
            assert status == 400
            status, _body = app.handle_wire(
                "search",
                {"genes": list(truth.query_genes), "deadline_ms": 60_000},
            )
            assert status == 200

    def test_unbounded_requests_keep_working(self, setup, oracle):
        comp, truth = setup
        request = {"genes": list(truth.query_genes), "page_size": 25}
        _, oracle_body = ApiApp(oracle).handle_wire("search", dict(request))
        with make_topology(comp) as topo:
            status, body = ApiApp(topo.router).handle_wire("search", dict(request))
            assert status == 200 and not body["partial"]
            assert_rows_identical(body, oracle_body)


class TestHedgedReplicas:
    def test_hedge_beats_a_stalled_shard_bit_identically(self, setup, oracle):
        comp, truth = setup
        # shard-0 stalls every partials reply for 5s; its datasets'
        # second replicas answer instantly once the hedge fires
        stall = {"shard-0": dict(seed=3, stall=1.0, stall_seconds=5.0)}
        hedge = HedgePolicy(initial_delay=0.05, min_delay=0.01, max_delay=0.2)
        request = SearchRequest(genes=truth.query_genes, page_size=25)
        oracle_response = oracle.respond(request)

        with make_topology(comp, fault_specs=stall, hedge=hedge) as topo:
            t0 = time.monotonic()
            response = topo.router.respond(request)
            elapsed = time.monotonic() - t0
            assert not response.partial  # hedging, not degradation
            assert elapsed < 3.0  # far below the 5s stall
            assert response.gene_rows == oracle_response.gene_rows
            assert response.dataset_rows == oracle_response.dataset_rows
            stats = topo.router.shard_stats()["hedging"]
            assert stats["enabled"]
            assert stats["fired"] >= 1
            assert stats["wins"] >= 1
            assert stats["wins"] <= stats["fired"]

    def test_hedging_disabled_still_completes_via_failover(self, setup, oracle):
        comp, truth = setup
        # the stalled owner exhausts its one try (clamped by rpc_timeout),
        # then ring failover reaches the healthy replica — slower than a
        # hedge but still complete and correct
        stall = {"shard-0": dict(seed=3, stall=1.0, stall_seconds=1.0)}
        request = SearchRequest(genes=truth.query_genes, page_size=25)
        oracle_response = oracle.respond(request)
        with make_topology(
            comp,
            fault_specs=stall,
            hedge=HedgePolicy.disabled(),
            retry=RetryPolicy.none(),
            rpc_timeout=0.4,
        ) as topo:
            response = topo.router.respond(request)
            assert not response.partial
            assert response.gene_rows == oracle_response.gene_rows
            stats = topo.router.shard_stats()["hedging"]
            assert not stats["enabled"]
            assert stats["fired"] == 0


class TestBreakerInTheLoop:
    def test_dead_shard_trips_breaker_and_heartbeat_heals_it(self, setup):
        comp, truth = setup
        request = {"genes": list(truth.query_genes), "page_size": 25}
        with make_topology(comp, replication=1) as topo:
            app = ApiApp(topo.router)
            # pick a shard that is actually a primary owner (consistent
            # hashing can leave a node with zero datasets at replication=1
            # — killing that one would never dial, never trip anything)
            victim = sorted(nids[0] for nids in topo.router._plan.values())[0]
            topo.kill(victim)
            # each query retries (2 tries) against the dead node; two
            # queries cross the threshold of 3 and open the breaker
            for _ in range(3):
                app.handle_wire("search", dict(request))
            breaker = topo.router._membership.breaker(victim)
            assert breaker.snapshot()["state"] != BREAKER_CLOSED
            assert breaker.opens >= 1

            # while open, shard calls fail fast — the query stays partial
            # but never burns a connect timeout on the dead node
            t0 = time.monotonic()
            status, body = app.handle_wire("search", dict(request))
            assert status == 200 and body["partial"]
            assert time.monotonic() - t0 < 2.0

            topo.restart(victim)
            topo.router.heartbeat()  # ping bypasses the open breaker
            assert breaker.snapshot()["state"] == BREAKER_CLOSED
            status, body = app.handle_wire("search", dict(request))
            assert status == 200 and not body["partial"]

    def test_health_endpoint_surfaces_breakers_and_hedging(self, setup):
        comp, truth = setup
        with make_topology(comp) as topo:
            app = ApiApp(topo.router)
            status, body = app.handle_wire("health", None)
            assert status == 200
            shards = body["shards"]
            assert set(shards["nodes"]) == set(SHARD_IDS)
            for snap in shards["nodes"].values():
                assert snap["breaker"]["state"] == BREAKER_CLOSED
                assert "opens" in snap["breaker"]
            assert "fired" in shards["hedging"]
            assert shards["deadline_exceeded"] == 0

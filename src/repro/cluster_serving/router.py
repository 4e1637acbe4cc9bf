"""Scatter-gather query router: the coordinator of the sharded tier.

:class:`RouterService` is the sharded
:class:`~repro.spell.backend.SearchBackend`: the base class owns query
validation, the result cache, ``respond`` / ``respond_batch`` /
``iter_result`` and the serving stats, so :class:`~repro.api.app.ApiApp`
(and hence every facade, auth, rate limits, and body caps) serves from a
router exactly as it serves from a single node.  What lives here is
*where cache misses are scored* (:meth:`RouterService._compute_many`) and
the state that takes: the router holds only the
compendium catalog (names, gene lists, fingerprints) and never builds an
index; each query is judged by the catalog's
:class:`~repro.spell.partials.GeneUniverse` — the same ``resolve``, and
the same typed refusals, as a single node's index — then fans out to the
shard nodes owning the selected datasets,
and the returned per-dataset partials are merged by replaying the exact
single-node accumulation order.  Rankings are therefore **bit-identical**
to a one-node :class:`~repro.spell.index.SpellIndex` over the same
compendium — the oracle property the tests pin down.

Degradation is structured, never silent:

* A dead or stale shard triggers failover to the dataset's next replica
  owner (replica preference comes from the consistent-hash ring,
  reordered so heartbeat-alive nodes are tried first).
* Datasets with *no* reachable owner are skipped from the merge and
  surfaced as ``SearchResponse.partial=True`` plus a ``shards`` map
  naming every skipped dataset and each node's failure; partial results
  are never cached.
* When nothing is reachable (or the caller demands completeness — the
  export path does) the query fails with ``SHARD_UNAVAILABLE`` via
  :class:`~repro.util.errors.RpcError`.
* A request-scoped :class:`~repro.util.deadline.Deadline` bounds the
  whole gather: per-call timeouts and hedge waits are clamped to the
  remaining budget, and a spent budget raises
  :class:`~repro.util.deadline.DeadlineExceeded` (a structured 504)
  instead of blocking past what the client asked for.
* Tail latency is fought with **hedged replica requests**
  (:mod:`repro.cluster_serving.hedging`): once a shard call outlives the
  recent latency percentile, the same datasets are requested from their
  next replica and the first answer wins — merge order is canonical and
  partials are fingerprint-verified, so hedging can never change a
  ranking bit.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Sequence

from repro.cluster_serving.hedging import HedgePolicy, LatencyTracker
from repro.cluster_serving.ring import DEFAULT_VNODES, plan_assignment
from repro.data.compendium import Compendium
from repro.parallel.pmap import parallel_map
from repro.rpc.membership import Membership
from repro.spell.backend import SearchBackend
from repro.spell.cache import DEFAULT_CACHE_SIZE
from repro.spell.engine import SpellResult
from repro.spell.index import BatchQuery
from repro.spell.partials import DatasetPartial, GeneUniverse
from repro.util.deadline import Deadline, DeadlineExceeded
from repro.util.errors import RpcError, SearchError

__all__ = ["RouterService"]


class RouterService(SearchBackend):
    """The :class:`~repro.spell.backend.SearchBackend` that scores on remote shards.

    ``replication`` must match what the shards were loaded with (both
    sides compute the same consistent-hash plan); it is clamped to the
    node count.  ``allow_partial=False`` turns shard loss into a hard
    ``SHARD_UNAVAILABLE`` instead of a flagged partial ranking.
    """

    def __init__(
        self,
        compendium: Compendium,
        membership: Membership,
        *,
        replication: int = 1,
        vnodes: int = DEFAULT_VNODES,
        n_workers: int = 4,
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_min_cost: int = 0,
        allow_partial: bool = True,
        rpc_timeout: float | None = None,
        hedge: HedgePolicy | None = None,
    ) -> None:
        if len(compendium) == 0:
            raise SearchError("router needs a non-empty compendium catalog")
        super().__init__(
            compendium,
            n_workers=n_workers,
            cache_size=cache_size,
            cache_min_cost=cache_min_cost,
        )
        self.allow_partial = bool(allow_partial)
        self._membership = membership
        self._replication = max(1, min(int(replication), len(membership.node_ids)))
        self._vnodes = int(vnodes)
        self._rpc_timeout = rpc_timeout
        self._hedge = HedgePolicy() if hedge is None else hedge
        self._latency = LatencyTracker()
        self._hedges_fired = 0
        self._hedge_wins = 0
        self._deadline_exceeded = 0
        self._catalog_version: int | None = None
        self._rebuild_catalog()
        # seed liveness + per-shard info so routing can prefer known-alive
        # replicas from the first query; a dead node here is not an error
        # (it will simply be failed over until a heartbeat revives it)
        membership.heartbeat()

    # ---------------------------------------------------------------- catalog
    def _rebuild_catalog(self) -> None:
        """(Re)derive universe + placement from the compendium catalog."""
        self._universe = GeneUniverse(
            [(ds.name, ds.gene_ids) for ds in self.compendium]
        )
        self._fingerprints = {ds.name: ds.fingerprint for ds in self.compendium}
        self._plan = plan_assignment(
            [(ds.name, ds.fingerprint) for ds in self.compendium],
            self._membership.node_ids,
            replication=self._replication,
            vnodes=self._vnodes,
        )
        self._catalog_version = self.compendium.version

    def _sync_catalog(self) -> None:
        with self._lock:
            if self.compendium.version != self._catalog_version:
                self._rebuild_catalog()

    # ----------------------------------------------------------- fan-out core
    def _owner_order(self, name: str) -> list[str]:
        """Replica preference for one dataset: ring order, alive-first.

        Heartbeat/liveness state only *reorders* the replicas — a node
        marked dead is still tried last rather than written off, so a
        stale liveness table can cost latency but never correctness.
        """
        owners = self._plan[name]
        alive = [n for n in owners if self._membership.state(n).alive]
        return alive + [n for n in owners if n not in alive]

    def _launch(
        self,
        nid: str,
        names: list[str],
        query: list[str],
        deadline: Deadline,
        results: "queue.Queue",
        is_hedge: bool,
    ) -> None:
        """Fire one shard call on its own thread; the outcome lands on
        ``results`` as ``(is_hedge, nid, names, reply|None, error|None,
        elapsed)`` — every launch posts exactly one item."""
        payload = {
            "genes": query,
            "datasets": [(n, self._fingerprints[n]) for n in names],
        }

        def run() -> None:
            t0 = time.monotonic()
            try:
                reply = self._membership.call(
                    nid, "partials", payload,
                    timeout=self._rpc_timeout, deadline=deadline,
                )
            except (RpcError, DeadlineExceeded) as exc:
                results.put(
                    (is_hedge, nid, names, None, str(exc), time.monotonic() - t0)
                )
                return
            results.put((is_hedge, nid, names, reply, None, time.monotonic() - t0))

        threading.Thread(target=run, name=f"gather-{nid}", daemon=True).start()

    def _gather(
        self,
        query: list[str],
        top_k: int | None,
        datasets: Sequence[str] | None,
        *,
        require_complete: bool,
        deadline: Deadline,
    ) -> tuple[SpellResult, dict]:
        """One scatter-gather search.  Returns ``(result, report)`` where
        ``report`` carries the partiality verdict and per-shard detail.

        Event-driven rather than round-synchronized: every dataset
        independently walks its replica preference list.  A failed call
        triggers immediate failover; a call that merely outlives the
        hedge delay triggers a *hedge* to the next replica while the
        original stays in flight — first answer wins.  The whole loop is
        bounded by ``deadline``; expiry raises
        :class:`~repro.util.deadline.DeadlineExceeded`.
        """
        universe = self._universe
        resolved = universe.resolve(query, datasets)
        selected = [universe.dataset_names[i] for i in resolved.selected]

        expected = self._fingerprints  # the catalog this gather merges over
        contributions: dict[str, DatasetPartial] = {}
        node_report: dict[str, dict] = {}
        failures: dict[str, list[str]] = {name: [] for name in selected}
        owners_left = {name: self._owner_order(name) for name in selected}
        inflight = {name: 0 for name in selected}
        oldest_launch: dict[str, float] = {}
        hedges_used = {name: 0 for name in selected}
        done: set[str] = set()
        results: queue.Queue = queue.Queue()
        hedging = self._hedge.enabled

        def assign_next(names: list[str], *, is_hedge: bool) -> None:
            group: dict[str, list[str]] = {}
            for name in names:
                if owners_left[name]:
                    group.setdefault(owners_left[name].pop(0), []).append(name)
            now = time.monotonic()
            for nid, batch in group.items():
                for name in batch:
                    inflight[name] += 1
                    oldest_launch.setdefault(name, now)
                    if is_hedge:
                        hedges_used[name] += 1
                self._launch(nid, batch, query, deadline, results, is_hedge)
            if is_hedge and group:
                with self._lock:
                    self._hedges_fired += len(group)

        assign_next(list(selected), is_hedge=False)
        while len(done) < len(selected):
            # failed datasets with replicas left and nothing in flight
            # fail over immediately
            stalled = [
                n for n in selected
                if n not in done and inflight[n] == 0 and owners_left[n]
            ]
            if stalled:
                assign_next(stalled, is_hedge=False)
            if all(
                n in done or (inflight[n] == 0 and not owners_left[n])
                for n in selected
            ):
                break  # every unanswered dataset exhausted its replicas
            deadline.check("sharded gather")

            hedge_delay = self._hedge.delay(self._latency) if hedging else None
            wait: float | None = None
            if hedge_delay is not None:
                now = time.monotonic()
                fuses = [
                    hedge_delay - (now - oldest_launch[n])
                    for n in selected
                    if n not in done and inflight[n] > 0 and owners_left[n]
                    and hedges_used[n] < self._hedge.max_hedges
                ]
                if fuses:
                    wait = max(0.0, min(fuses))
            wait = deadline.clamp(wait)
            try:
                item = results.get(timeout=wait) if wait is not None else results.get()
            except queue.Empty:
                if hedge_delay is not None:
                    now = time.monotonic()
                    mature = [
                        n for n in selected
                        if n not in done and inflight[n] > 0 and owners_left[n]
                        and hedges_used[n] < self._hedge.max_hedges
                        and now - oldest_launch[n] >= hedge_delay
                    ]
                    if mature:
                        assign_next(mature, is_hedge=True)
                continue

            is_hedge, nid, names, reply, error, elapsed = item
            for name in names:
                inflight[name] -= 1
                if inflight[name] <= 0:
                    oldest_launch.pop(name, None)
            report = node_report.setdefault(nid, {"served": [], "refused": {}})
            if error is not None:
                report["error"] = error
                for name in names:
                    if name not in done:
                        failures[name].append(f"{nid}: {error}")
                continue
            self._latency.add(elapsed)
            refused = dict(reply["refused"])
            for name, wire in reply["partials"].items():
                if name in done:
                    continue  # a faster replica already answered
                if wire["fingerprint"] != expected.get(name):
                    # scored, but not over the content the catalog names:
                    # the refusal the shard should have made
                    refused[name] = (
                        f"stale content: shard scored {str(wire['fingerprint'])[:12]}, "
                        f"router expects {str(expected.get(name))[:12]}"
                    )
                    continue
                contributions[name] = DatasetPartial(
                    name=wire["name"],
                    fingerprint=wire["fingerprint"],
                    n_query_present=wire["n_query_present"],
                    weight=wire["weight"],
                    scores=wire["scores"],
                )
                report["served"].append(name)
                done.add(name)
                if is_hedge:
                    with self._lock:
                        self._hedge_wins += 1
            for name, reason in refused.items():
                report["refused"][name] = reason
                if name not in done:
                    failures[name].append(f"{nid}: {reason}")

        skipped = [n for n in selected if n not in contributions]
        if len(skipped) == len(selected):
            raise RpcError(
                f"no shard reachable for any of the {len(selected)} selected "
                f"dataset(s): {dict((n, failures[n]) for n in skipped)}"
            )
        if skipped and (require_complete or not self.allow_partial):
            raise RpcError(
                f"shard(s) unavailable for dataset(s) {skipped}: "
                f"{dict((n, failures[n]) for n in skipped)}"
            )
        merged = universe.merge(
            query,
            resolved.query_used,
            resolved.query_missing,
            resolved.q_slots,
            selected,
            contributions,
            top_k=top_k,
            skipped=skipped,
        )
        report = {
            "partial": bool(skipped),
            "shards": (
                {
                    "missing_datasets": sorted(skipped),
                    "failures": {n: failures[n] for n in skipped},
                    "nodes": node_report,
                }
                if skipped
                else {}
            ),
        }
        return merged, report

    # ----------------------------------------------------------------- search
    def _compute_many(
        self,
        misses: list[BatchQuery],
        deadline: Deadline,
        require_complete: bool,
    ) -> tuple[list[tuple[SpellResult, dict]], int]:
        """One scatter-gather per miss over the current catalog, up to
        ``n_workers`` of them in flight at once, all bounded by
        ``deadline``.

        The one thread fan-out in serving, and here because of what a
        router *is*: a gather spends its time waiting on shard sockets,
        so members overlap — where a node that scores in-process would
        only convoy on the GIL.
        """
        self._sync_catalog()

        def gather(miss: BatchQuery) -> tuple[SpellResult, dict]:
            try:
                return self._gather(
                    list(miss.genes), miss.top_k, miss.datasets,
                    require_complete=require_complete, deadline=deadline,
                )
            except DeadlineExceeded:
                with self._lock:
                    self._deadline_exceeded += 1
                raise

        width = min(self.n_workers, len(misses))
        return parallel_map(gather, misses, n_workers=width), width

    # ------------------------------------------------------------------ stats
    def index_bytes(self) -> int:
        """Summed shard index footprint (from the latest heartbeat info)."""
        return sum(
            int(self._membership.state(nid).info.get("index_bytes", 0))
            for nid in self._membership.node_ids
        )

    def universe(self) -> GeneUniverse:
        self._sync_catalog()
        return self._universe

    def _topology_stats(self) -> dict:
        return {
            "router": {
                "n_shards": len(self._membership.node_ids),
                "replication": self._replication,
                "datasets": len(self.compendium),
            }
        }

    def shard_stats(self) -> dict:
        """Per-shard routing state for ``/v1/health`` (``shards`` field).

        Each node snapshot carries its circuit-breaker state plus
        ``catalog_synced`` — whether the fingerprints the node reported
        on its last heartbeat cover everything the placement plan says
        it owns (the rejoin resync check).
        """
        self._sync_catalog()
        nodes = self._membership.stats()
        for nid, snap in nodes.items():
            snap["catalog_synced"] = self._catalog_synced(nid, snap.get("info") or {})
        with self._lock:
            hedging = {
                "enabled": self._hedge.enabled,
                "fired": self._hedges_fired,
                "wins": self._hedge_wins,
                "observed_p95_seconds": self._latency.percentile(95.0),
            }
            deadline_exceeded = self._deadline_exceeded
        return {
            "replication": self._replication,
            "nodes": nodes,
            "hedging": hedging,
            "deadline_exceeded": deadline_exceeded,
        }

    def _catalog_synced(self, node_id: str, info: dict) -> bool | None:
        """Does the node's last-reported catalog match its planned subset?

        ``None`` when the node has never reported fingerprints (no
        heartbeat landed yet) — unknown, not out of sync.
        """
        reported = info.get("fingerprints")
        if not isinstance(reported, dict):
            return None
        owned = {
            name: fp
            for name, fp in self._fingerprints.items()
            if node_id in self._plan[name]
        }
        return all(reported.get(name) == fp for name, fp in owned.items())

    def heartbeat(self) -> None:
        """Refresh shard liveness and heal breakers (the rejoin path).

        Pings bypass open breakers, so a sweep after a shard restart
        immediately re-registers the node: its breaker closes, its
        reported catalog is refreshed for the resync check, and replica
        ordering prefers it again on the next query — no router restart.
        """
        self._membership.heartbeat()

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._membership.close()

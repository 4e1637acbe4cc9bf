"""Scatter-gather query router: the coordinator of the sharded tier.

:class:`RouterService` is the sharded
:class:`~repro.spell.backend.SearchBackend`: the base class owns query
validation, the result cache, the protocol entry points and the serving
stats, so every facade serves a router exactly as it serves a single
node.  What lives here is *where cache misses are scored*
(:meth:`RouterService._compute_many`): the router holds only the
compendium catalog (names, gene lists, fingerprints), judges each query
by the catalog's :class:`~repro.spell.partials.GeneUniverse`, fans it out
to the shards owning the selected datasets and merges their per-dataset
partials in the single-node accumulation order.  Rankings are therefore
**bit-identical** to a one-node :class:`~repro.spell.index.SpellIndex`
over the same compendium — the oracle property the tests pin down.

Degradation is structured, never silent (failover, hedging and the
deadline are :mod:`repro.cluster_serving.gather`'s): a dataset no owner
answers is skipped and named, with its failures, in a flagged partial
(never cached); with nothing reachable, or completeness demanded, the
query fails with ``SHARD_UNAVAILABLE`` (:class:`~repro.util.errors.RpcError`).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Sequence

from repro.cluster_serving.gather import GatherState, Launch
from repro.cluster_serving.hedging import HedgePolicy, LatencyTracker
from repro.cluster_serving.ring import DEFAULT_VNODES, plan_assignment
from repro.data.compendium import Compendium
from repro.parallel.pmap import parallel_map
from repro.rpc.membership import Membership
from repro.spell.backend import SearchBackend
from repro.spell.cache import DEFAULT_CACHE_SIZE
from repro.spell.engine import SpellResult
from repro.spell.index import BatchQuery
from repro.spell.partials import GeneUniverse
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
        self._hedges_fired = self._hedge_wins = self._deadline_exceeded = 0
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
        Liveness only *reorders* the replicas — a node marked dead is
        tried last, never written off — so it costs latency, not answers."""
        owners = self._plan[name]
        alive = [n for n in owners if self._membership.state(n).alive]
        return alive + [n for n in owners if n not in alive]

    def _launch(self, launch: Launch, query: list[str], deadline: Deadline, results) -> None:
        """Fire one shard call on its own thread, which posts exactly one
        ``(launch, reply | None, error | None, elapsed)`` to ``results``."""
        payload = {"genes": query, "datasets": [(n, self._fingerprints[n]) for n in launch.names]}

        def run() -> None:
            t0 = time.monotonic()
            reply = error = None
            try:
                reply = self._membership.call(
                    launch.nid, "partials", payload, timeout=self._rpc_timeout, deadline=deadline
                )
            except (RpcError, DeadlineExceeded) as exc:
                error = str(exc)
            results.put((launch, reply, error, time.monotonic() - t0))

        threading.Thread(target=run, name=f"gather-{launch.nid}", daemon=True).start()

    def _gather(
        self, query: list[str], top_k: int | None, datasets: Sequence[str] | None,
        *, require_complete: bool, deadline: Deadline,
    ) -> tuple[SpellResult, dict]:
        """One scatter-gather search: ``(result, report)``, the report
        carrying the partiality verdict and per-shard detail.

        :class:`~repro.cluster_serving.gather.GatherState` makes every
        decision; this is its thread driver (one ``_launch`` thread per
        launch, one queue, the monotonic clock).  An expired ``deadline``
        raises :class:`~repro.util.deadline.DeadlineExceeded`.
        """
        universe = self._universe
        resolved = universe.resolve(query, datasets)
        selected = [universe.dataset_names[i] for i in resolved.selected]
        left, now = deadline.remaining(), time.monotonic()
        state = GatherState(
            selected, {name: self._owner_order(name) for name in selected}, self._fingerprints,
            max_hedges=self._hedge.max_hedges, hedge_delay=self._hedge.delay(self._latency),
            deadline_at=None if left is None else now + left,
        )
        results: queue.Queue = queue.Queue()
        actions = state.start(now)
        while True:
            for launch in actions:
                self._launch(launch, query, deadline, results)
            if state.finished:
                break
            wake = state.next_wakeup()
            try:
                launch, reply, error, elapsed = results.get(
                    timeout=None if wake is None else max(0.0, wake - time.monotonic())
                )
            except queue.Empty:
                actions = state.on_timer(time.monotonic())
                continue
            if error is not None:
                actions = state.on_failure(launch, error, time.monotonic())
            else:
                self._latency.add(elapsed)
                actions = state.on_reply(launch, reply, time.monotonic())
        contributions, skipped, failures, node_report, fired, wins = state.result()
        with self._lock:
            self._hedges_fired += fired
            self._hedge_wins += wins
            self._deadline_exceeded += int(state.expired)
        if state.expired:
            raise DeadlineExceeded("deadline exceeded before sharded gather completed")
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
        ``n_workers`` in flight, all bounded by ``deadline``.  The one
        thread fan-out in serving: a gather waits on shard sockets, so
        members overlap, where a node scoring in-process would only
        convoy on the GIL."""
        self._sync_catalog()

        def gather(miss: BatchQuery) -> tuple[SpellResult, dict]:
            return self._gather(
                list(miss.genes), miss.top_k, miss.datasets,
                require_complete=require_complete, deadline=deadline,
            )

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
        """Per-shard routing state for ``/v1/health`` (``shards`` field):
        each node's breaker state plus ``catalog_synced``, the rejoin
        resync check (:meth:`_catalog_synced`)."""
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
        """Do the fingerprints the node reported on its last heartbeat
        cover its planned subset?  ``None``: it never reported (unknown)."""
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
        """Refresh shard liveness and heal breakers (the rejoin path):
        pings bypass open breakers, so after a shard restart one sweep
        closes its breaker, refreshes its catalog and routes to it again."""
        self._membership.heartbeat()

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._membership.close()

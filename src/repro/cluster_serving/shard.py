"""One store node of the sharded serving tier.

A :class:`ShardNode` owns a *subset* of the compendium (chosen by the
consistent-hash plan in :mod:`repro.cluster_serving.ring`), builds a
normal :class:`~repro.spell.index.SpellIndex` over just that subset, and
serves per-dataset score partials over the generic RPC layer.  The node
never ranks anything — ranking happens once, at the router, by replaying
the canonical accumulation (:mod:`repro.spell.partials`), which is what
keeps sharded answers bit-identical to a single-node index.

Staleness is refused, never served: every ``partials`` request names the
``(name, fingerprint)`` it expects per dataset, and a dataset this node
does not hold *at that exact content version* comes back in the reply's
``refused`` map (the router fails over to a replica).  A fingerprint is
a content hash, so "refused" is a structural guarantee, not a heuristic.

CLI (one process per shard; all shards and the router must share the
same ``--seed``/``--shards``/``--replication`` so placement agrees)::

    python -m repro.cluster_serving.shard --port 8201 --shards 3 --shard-index 0
"""

from __future__ import annotations

import argparse
import threading

import numpy as np

from repro.cluster_serving.ring import DEFAULT_VNODES, plan_assignment
from repro.data.compendium import Compendium
from repro.rpc.faults import FaultPlan
from repro.rpc.server import RpcServer
from repro.spell.index import SpellIndex
from repro.util.errors import ValidationError

__all__ = ["ShardNode", "shard_compendium", "main"]


def shard_compendium(
    compendium: Compendium,
    node_ids: list[str],
    node_id: str,
    *,
    replication: int = 1,
    vnodes: int = DEFAULT_VNODES,
) -> Compendium:
    """The sub-compendium ``node_id`` owns under the consistent-hash plan.

    With ``replication > 1`` a dataset appears in every replica's
    subset; the router still asks exactly one owner per query, so
    duplicated ownership never double-counts.
    """
    if node_id not in node_ids:
        raise ValidationError(f"node {node_id!r} is not in the node set {node_ids}")
    plan = plan_assignment(
        [(ds.name, ds.fingerprint) for ds in compendium],
        node_ids,
        replication=replication,
        vnodes=vnodes,
    )
    return Compendium(ds for ds in compendium if node_id in plan[ds.name])


class ShardNode:
    """RPC server over one shard's index; answers ``partials`` requests.

    An *empty* shard (the plan assigned it nothing) is legal: it serves,
    heartbeats, and refuses every dataset — so topology bring-up never
    depends on the data distribution.
    """

    def __init__(
        self,
        compendium: Compendium,
        *,
        node_id: str,
        host: str = "127.0.0.1",
        port: int = 0,
        n_workers: int = 1,
        dtype=np.float64,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.node_id = str(node_id)
        self.compendium = compendium
        self.fault_plan = fault_plan
        if len(compendium) > 0:
            self._index: SpellIndex | None = SpellIndex.build(
                compendium, n_workers=n_workers, dtype=dtype
            )
            self._fingerprints = dict(self._index.fingerprints())
        else:
            self._index = None
            self._fingerprints = {}
        self._served = 0
        self._refused = 0
        self._lock = threading.Lock()
        self._server = RpcServer(
            {"partials": self._rpc_partials, "info": lambda payload: self._info()},
            node_id=self.node_id,
            host=host,
            port=port,
            info=self._info,
            fault_plan=fault_plan,
        )

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple[str, int]:
        return self._server.address

    def serve_background(self) -> tuple[str, int]:
        self._server.serve_background()
        return self.address

    def close(self) -> None:
        self._server.close()

    def __enter__(self) -> "ShardNode":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------- info
    def _info(self) -> dict:
        with self._lock:
            served, refused = self._served, self._refused
        return {
            "fingerprints": dict(self._fingerprints),
            "n_datasets": len(self._fingerprints),
            # durable roll-up of this shard's subset — what a rejoining
            # node advertises so the router can resync its catalog view
            "compendium_fingerprint": (
                self.compendium.fingerprint if len(self.compendium) > 0 else None
            ),
            "index_bytes": self._index.nbytes() if self._index is not None else 0,
            "served": served,
            "refused": refused,
        }

    # --------------------------------------------------------------- handlers
    def _rpc_partials(self, payload: dict) -> dict:
        """Score one query against the requested (and owned) datasets.

        Payload: ``{"genes": [...], "datasets": [(name, fingerprint), ...]}``.
        Reply: ``{"partials": {name: partial-dict}, "refused": {name: reason}}``.
        Every requested dataset lands in exactly one of the two maps.
        """
        genes = [str(g) for g in payload["genes"]]
        wanted = [(str(n), str(fp)) for n, fp in payload["datasets"]]
        owned: list[str] = []
        refused: dict[str, str] = {}
        for name, fingerprint in wanted:
            have = self._fingerprints.get(name)
            if have is None:
                refused[name] = "dataset not owned by this shard"
            elif have != fingerprint:
                refused[name] = (
                    f"stale content: shard holds {have[:12]}, "
                    f"router expects {fingerprint[:12]}"
                )
            else:
                owned.append(name)
        partials: dict[str, dict] = {}
        if owned:
            assert self._index is not None  # owned names imply an index
            for part in self._index.search_partials(genes, datasets=owned):
                partials[part.name] = dict(vars(part))  # DatasetPartial's fields
        with self._lock:
            self._served += len(partials)
            self._refused += len(refused)
        return {"partials": partials, "refused": refused}


# --------------------------------------------------------------------------
# CLI: python -m repro.cluster_serving.shard
# --------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    from repro.api.cli import add_flags, demo_compendium, stop_signal

    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster_serving.shard",
        description=(
            "Serve one shard of the demo compendium over RPC.  Placement "
            "is deterministic: every shard (and the router) rebuilds the "
            "same synthetic compendium from --seed and computes the same "
            "consistent-hash plan, so they agree on ownership without "
            "any coordination service."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="listening port (0 = ephemeral, printed on boot)")
    parser.add_argument("--shards", type=int, required=True,
                        help="total shard count in the topology")
    parser.add_argument("--shard-index", type=int, required=True,
                        help="this node's index in [0, --shards)")
    parser.add_argument("--replication", type=int, default=1,
                        help="replica owners per dataset")
    parser.add_argument("--dtype", choices=("float64", "float32"), default="float64")
    parser.add_argument("--n-workers", type=int, default=1)
    parser.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help=(
            "inject seeded transport faults, e.g. "
            "'seed=7,reset_mid_frame=0.3,stall=0.1,stall_seconds=2' "
            "(kinds: connect_refused, reset_mid_frame, stall, slow_drip, "
            "garbage; rates in [0,1])"
        ),
    )
    add_flags(parser, "synth")
    args = parser.parse_args(argv)

    if not 0 <= args.shard_index < args.shards:
        parser.error(f"--shard-index must be in [0, {args.shards})")

    compendium, _truth = demo_compendium(
        synth_datasets=args.synth_datasets,
        synth_genes=args.synth_genes,
        synth_conditions=args.synth_conditions,
        seed=args.seed,
    )
    node_ids = [f"shard-{i}" for i in range(args.shards)]
    node_id = node_ids[args.shard_index]
    subset = shard_compendium(
        compendium, node_ids, node_id, replication=args.replication
    )
    fault_plan = FaultPlan.parse(args.fault_plan) if args.fault_plan else None
    node = ShardNode(
        subset,
        node_id=node_id,
        host=args.host,
        port=args.port,
        n_workers=args.n_workers,
        dtype=np.float32 if args.dtype == "float32" else np.float64,
        fault_plan=fault_plan,
    )
    stop = stop_signal()
    host, port = node.serve_background()
    names = ", ".join(sorted(ds.name for ds in subset)) or "(none)"
    faults = f" [faults: {fault_plan.describe()}]" if fault_plan is not None else ""
    print(
        f"shard {node_id} serving {len(subset)}/{len(compendium)} datasets "
        f"on {host}:{port}: {names}{faults}",
        flush=True,
    )
    try:
        stop.wait()
    finally:
        node.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Scatter-gather sharded serving: shard nodes + query router.

The serving tier that lets the SPELL backend outgrow one machine's
memory: datasets are partitioned across independent store nodes by
consistent hashing on their content fingerprints
(:mod:`~repro.cluster_serving.ring`), each node indexes only its subset
(:mod:`~repro.cluster_serving.shard`), and a coordinator fans every
query out and merges the per-dataset partials bit-identically to a
single-node index (:mod:`~repro.cluster_serving.router`).  The router
is a :class:`~repro.spell.backend.SearchBackend` like the single-node
service (same cache, counters and protocol entry points; its own way of
scoring misses), so the whole v1 API surface — auth, rate limits, body
caps, streaming export — serves a sharded backend unchanged.

Run a demo topology (shared ``--seed`` keeps placement in agreement)::

    python -m repro.cluster_serving.shard --port 8201 --shards 3 --shard-index 0 &
    python -m repro.cluster_serving.shard --port 8202 --shards 3 --shard-index 1 &
    python -m repro.cluster_serving.shard --port 8203 --shards 3 --shard-index 2 &
    python -m repro.cluster_serving --port 8200 \\
        --shard-addresses 127.0.0.1:8201,127.0.0.1:8202,127.0.0.1:8203

The shard node and the in-process topology load lazily via module
``__getattr__``: the package must not import
:mod:`repro.cluster_serving.shard`, or ``python -m
repro.cluster_serving.shard`` would run a second copy of it as
``__main__``.
"""

from repro.cluster_serving.ring import DEFAULT_VNODES, HashRing, plan_assignment
from repro.cluster_serving.router import RouterService

__all__ = [
    "DEFAULT_VNODES",
    "HashRing",
    "LocalTopology",
    "RouterService",
    "ShardNode",
    "build_local_topology",
    "plan_assignment",
    "shard_compendium",
]

_LAZY = {
    "ShardNode": "repro.cluster_serving.shard",
    "shard_compendium": "repro.cluster_serving.shard",
    "LocalTopology": "repro.cluster_serving.topology",
    "build_local_topology": "repro.cluster_serving.topology",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)

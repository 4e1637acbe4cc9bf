"""Tile-to-node scheduling policies.

Static assignment splits the tile list up front (cheap, but load follows
content); cost-balanced assignment weighs tiles by how many display-list
commands intersect them (the LPT heuristic).  The four in-process modes
all run on :class:`repro.parallel.WorkStealingPool`, one thread per node:
``static`` and ``balanced`` hand it these plans without stealing,
``dynamic`` one shared first-come first-served FIFO, and
``workstealing`` round-robin lists that idle nodes steal from.  The
``rpc`` mode runs the dynamic policy over real sockets — render
nodes are :class:`repro.rpc.server.RpcServer` instances and the master
fans tiles out through :meth:`repro.rpc.membership.Membership.scatter`,
the same layer the sharded query router uses.
"""

from __future__ import annotations

from repro.parallel.partition import balanced_partition, block_partition
from repro.util.errors import ValidationError
from repro.viz.scene import DisplayList
from repro.wall.geometry import TileSpec

__all__ = ["static_assignment", "cost_balanced_assignment", "SCHEDULE_MODES"]

SCHEDULE_MODES = ("static", "balanced", "dynamic", "workstealing", "rpc")


def static_assignment(tiles: list[TileSpec], n_nodes: int) -> dict[int, list[TileSpec]]:
    """Contiguous block split of the row-major tile list across nodes."""
    if n_nodes < 1:
        raise ValidationError(f"n_nodes must be >= 1, got {n_nodes}")
    parts = block_partition(len(tiles), n_nodes)
    return {node: [tiles[i] for i in rng] for node, rng in enumerate(parts)}


def cost_balanced_assignment(
    tiles: list[TileSpec], n_nodes: int, display_list: DisplayList
) -> dict[int, list[TileSpec]]:
    """LPT assignment using intersecting-command counts as tile weights."""
    if n_nodes < 1:
        raise ValidationError(f"n_nodes must be >= 1, got {n_nodes}")
    weights = [
        float(
            display_list.command_cost(t.region.x, t.region.y, t.region.w, t.region.h) + 1
        )
        for t in tiles
    ]
    parts = balanced_partition(weights, n_nodes)
    return {node: [tiles[i] for i in idxs] for node, idxs in enumerate(parts)}

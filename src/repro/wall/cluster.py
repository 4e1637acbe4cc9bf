"""The simulated display wall cluster.

A frame's tiles go to N render nodes, the returned pixels are
composited, and the frame is complete only when every node has finished
its part — the swap-lock, so a frame is whole everywhere before it is
"displayed".  The in-process schedules run each node as a thread of a
:class:`~repro.parallel.workqueue.WorkStealingPool` and differ only in
where the tiles start: block lists (``static``), cost-balanced lists
(``balanced``), one shared FIFO (``dynamic``), or round-robin lists
that idle nodes steal from (``workstealing``).  ``rpc`` runs the dynamic
policy across sockets.  ``dynamic``, ``workstealing`` and ``rpc``
support fault injection (dead nodes whose tiles survivors must pick up).

This is the substrate for the paper's Figure 3 deployment and the FIG3
scalability bench; the byte-identical-composite property is what makes
tiled rendering trustworthy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.parallel.workqueue import SHARED, WorkStealingPool
from repro.util.errors import RenderError, ValidationError
from repro.viz.scene import DisplayList
from repro.wall.compositor import compose_tiles
from repro.wall.geometry import TileSpec, WallGeometry
from repro.wall.metrics import FrameMetrics
from repro.wall.scheduler import SCHEDULE_MODES, cost_balanced_assignment, static_assignment

__all__ = ["WallFrame", "DisplayWall"]


@dataclass
class WallFrame:
    """A fully composited frame plus its performance metrics."""

    pixels: np.ndarray  # (canvas_h, canvas_w, 3) uint8
    metrics: FrameMetrics
    tile_pixels: dict[int, np.ndarray] = field(default_factory=dict, repr=False)


class DisplayWall:
    """Render display lists across a simulated tiled wall.

    Parameters
    ----------
    geometry:
        Tile grid and resolutions.
    n_nodes:
        Render nodes in the cluster.
    schedule:
        One of :data:`SCHEDULE_MODES`.
    """

    def __init__(
        self, geometry: WallGeometry, *, n_nodes: int = 4, schedule: str = "dynamic"
    ) -> None:
        if schedule not in SCHEDULE_MODES:
            raise ValidationError(f"unknown schedule {schedule!r}; choose from {SCHEDULE_MODES}")
        if n_nodes < 1:
            raise ValidationError(f"n_nodes must be >= 1, got {n_nodes}")
        self.geometry = geometry
        self.n_nodes = n_nodes
        self.schedule = schedule
        self._frame_counter = 0

    # ------------------------------------------------------------- public API
    def render(
        self, display_list: DisplayList, *, fail_nodes: set[int] | frozenset[int] = frozenset()
    ) -> WallFrame:
        """Render one frame.  ``fail_nodes`` simulates dead render nodes.

        Fault injection requires a reassigning scheduler (``dynamic``,
        ``workstealing`` or ``rpc``); static modes raise, matching
        reality — a static wall loses its dead projector's tiles.
        """
        self._check_canvas(display_list)
        for n in fail_nodes:
            if not (0 <= n < self.n_nodes):
                raise ValidationError(f"fail_node {n} out of range [0, {self.n_nodes})")
        if len(fail_nodes) >= self.n_nodes:
            raise ValidationError("cannot fail every node")
        if fail_nodes and self.schedule in ("static", "balanced"):
            raise ValidationError(
                f"schedule {self.schedule!r} cannot survive node failure; "
                "use 'dynamic', 'workstealing' or 'rpc'"
            )
        self._frame_counter += 1
        frame_id = self._frame_counter
        tiles = self.geometry.tiles()
        start = time.perf_counter()
        if self.schedule == "rpc":
            done, busy, tiles_per_node = self._render_rpc(
                display_list, tiles, frame_id, fail_nodes
            )
        else:
            done, busy, tiles_per_node = self._render_threads(display_list, tiles, fail_nodes)
        elapsed = time.perf_counter() - start
        composite = compose_tiles(
            self.geometry.canvas_width,
            self.geometry.canvas_height,
            [(tiles[tid].region, px) for tid, px in sorted(done.items())],
            background=display_list.background,
        )
        metrics = FrameMetrics(
            frame_id=frame_id,
            n_tiles=len(tiles),
            n_nodes=self.n_nodes,
            frame_seconds=max(elapsed, 1e-9),
            busy_seconds=busy,
            tiles_per_node=tiles_per_node,
            failed_nodes=tuple(sorted(fail_nodes)),
        )
        return WallFrame(pixels=composite, metrics=metrics, tile_pixels=done)

    def render_serial(self, display_list: DisplayList) -> WallFrame:
        """Single-node reference render (the correctness baseline)."""
        self._check_canvas(display_list)
        self._frame_counter += 1
        start = time.perf_counter()
        pixels = display_list.render_full()
        elapsed = time.perf_counter() - start
        metrics = FrameMetrics(
            frame_id=self._frame_counter,
            n_tiles=self.geometry.n_tiles,
            n_nodes=1,
            frame_seconds=max(elapsed, 1e-9),
            busy_seconds={0: elapsed},
            tiles_per_node={0: self.geometry.n_tiles},
        )
        return WallFrame(pixels=pixels, metrics=metrics)

    # --------------------------------------------------------- thread backend
    def _render_threads(self, display_list, tiles: list[TileSpec], fail_nodes):
        """The in-process schedules: one pool thread per node; the pool's
        join of every node thread is the frame's swap-lock."""

        def render_tile(tile: TileSpec) -> np.ndarray:
            box = tile.region
            return display_list.render_region(box.x, box.y, box.w, box.h)

        placement: list[list[int]] | str | None = None  # workstealing: round-robin
        if self.schedule == "dynamic":
            placement = SHARED
        elif self.schedule in ("static", "balanced"):
            plan = (
                static_assignment(tiles, self.n_nodes)
                if self.schedule == "static"
                else cost_balanced_assignment(tiles, self.n_nodes, display_list)
            )
            placement = [[t.tile_id for t in plan[n]] for n in range(self.n_nodes)]
        pixels, stats = WorkStealingPool(self.n_nodes).run(
            [(render_tile, (tile,)) for tile in tiles],
            placement=placement,
            steal=self.schedule == "workstealing",
            fail_workers=set(fail_nodes),
        )
        done = {tile.tile_id: px for tile, px in zip(tiles, pixels)}
        return done, dict(enumerate(stats.busy_seconds)), dict(enumerate(stats.tasks_run))

    # ------------------------------------------------------------ rpc backend
    def _render_rpc(self, display_list, tiles: list[TileSpec], frame_id: int, fail_nodes):
        """Dynamic scheduling over the generic RPC layer (real sockets).

        Each render node is an :class:`~repro.rpc.server.RpcServer`; the
        master feeds tiles in waves through
        :meth:`~repro.rpc.membership.Membership.scatter` — one tile per
        alive node per wave — and requeues the tiles of any node whose
        transport fails, exactly the degradation contract the sharded
        query router relies on.  ``fail_nodes`` die before their first
        tile (their server closes), so survivors pick up the whole wall.
        """
        from repro.rpc.membership import Membership
        from repro.rpc.server import RpcServer

        def make_handler(dl):
            def render_tile(payload: dict) -> dict:
                t0 = time.perf_counter()
                x, y, w, h = payload["region"]
                pixels = dl.render_region(x, y, w, h)
                return {
                    "tile_id": payload["tile_id"],
                    "pixels": pixels,
                    "render_seconds": time.perf_counter() - t0,
                }
            return render_tile

        servers: list = []
        addresses: dict[str, tuple[str, int]] = {}
        node_ids = [f"wall-{n}" for n in range(self.n_nodes)]
        try:
            for nid in node_ids:
                server = RpcServer(
                    {"render_tile": make_handler(display_list)}, node_id=nid
                )
                server.serve_background()
                addresses[nid] = server.address
                servers.append(server)
            for n in fail_nodes:
                servers[n].close()  # dead before the first tile arrives

            done: dict[int, np.ndarray] = {}
            busy = {n: 0.0 for n in range(self.n_nodes)}
            tiles_per_node = {n: 0 for n in range(self.n_nodes)}
            with Membership(addresses, timeout=30.0) as membership:
                alive = list(node_ids)
                pending = list(tiles)
                while pending:
                    if not alive:
                        raise RenderError("all render nodes failed")
                    wave = {nid: pending.pop(0) for nid in list(alive) if pending}
                    result = membership.scatter(
                        {
                            nid: (
                                "render_tile",
                                {
                                    "frame_id": frame_id,
                                    "tile_id": tile.tile_id,
                                    "region": (
                                        tile.region.x, tile.region.y,
                                        tile.region.w, tile.region.h,
                                    ),
                                },
                            )
                            for nid, tile in wave.items()
                        }
                    )
                    for nid, reply in result.ok.items():
                        node = node_ids.index(nid)
                        done[reply["tile_id"]] = reply["pixels"]
                        busy[node] += reply["render_seconds"]
                        tiles_per_node[node] += 1
                    for nid in result.failed:
                        alive.remove(nid)
                        pending.insert(0, wave[nid])  # requeue, never drop
        finally:
            for server in servers:
                server.close()
        return done, busy, tiles_per_node

    # ---------------------------------------------------------------- helpers
    def _check_canvas(self, display_list: DisplayList) -> None:
        if (display_list.width, display_list.height) != (
            self.geometry.canvas_width,
            self.geometry.canvas_height,
        ):
            raise RenderError(
                f"display list canvas {display_list.width}x{display_list.height} does not "
                f"match wall canvas {self.geometry.canvas_width}x{self.geometry.canvas_height}"
            )

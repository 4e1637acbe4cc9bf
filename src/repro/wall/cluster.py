"""The simulated display wall cluster.

One master rank orchestrates N render-node ranks over the MPI-style
communicator: broadcast the frame's display list, hand out tiles
(statically, cost-balanced, or dynamically), collect pixels, composite,
and hold the swap-lock barrier so a frame is complete everywhere before
it is "displayed".  A work-stealing mode runs the same tile workload on
the :class:`~repro.parallel.workqueue.WorkStealingPool` and supports
fault injection (dead nodes whose tiles survivors must pick up).

This is the substrate for the paper's Figure 3 deployment and the FIG3
scalability bench; the byte-identical-composite property is what makes
tiled rendering trustworthy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.parallel.comm import ANY_SOURCE, Communicator, run_ranks
from repro.parallel.workqueue import WorkStealingPool
from repro.util.errors import RenderError, ValidationError
from repro.viz.scene import DisplayList
from repro.wall.compositor import compose_tiles
from repro.wall.geometry import TileSpec, WallGeometry
from repro.wall.metrics import FrameMetrics
from repro.wall.protocol import (
    TAG_RESULT,
    TAG_TASK,
    NodeFailed,
    RenderTile,
    Shutdown,
    TileDone,
)
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
        Render nodes in the cluster (excludes the master).
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

        Fault injection requires a reassigning scheduler (``dynamic`` or
        ``workstealing``); static modes raise, matching reality — a
        static wall loses its dead projector's tiles.
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
        if self.schedule == "workstealing":
            return self._render_workstealing(display_list, frame_id, fail_nodes)
        if self.schedule == "rpc":
            return self._render_rpc(display_list, frame_id, fail_nodes)
        return self._render_comm(display_list, frame_id, fail_nodes)

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

    # ---------------------------------------------------------- comm backends
    def _render_comm(
        self, display_list: DisplayList, frame_id: int, fail_nodes
    ) -> WallFrame:
        tiles = self.geometry.tiles()
        start = time.perf_counter()
        results = run_ranks(
            self._rank_main,
            self.n_nodes + 1,
            display_list,
            frame_id,
            tiles,
            frozenset(fail_nodes),
        )
        elapsed = time.perf_counter() - start
        done_tiles, busy, tiles_per_node = results[0]
        composite = compose_tiles(
            self.geometry.canvas_width,
            self.geometry.canvas_height,
            [(tiles[tid].region, px) for tid, px in sorted(done_tiles.items())],
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
        return WallFrame(pixels=composite, metrics=metrics, tile_pixels=done_tiles)

    def _rank_main(self, comm: Communicator, display_list, frame_id, tiles, fail_nodes):
        """SPMD entry: rank 0 is the master, ranks 1..N are render nodes."""
        # the display list travels by bcast, mirroring data distribution on a
        # real cluster (in-process it is a zero-copy reference)
        display_list = comm.bcast(display_list, root=0)
        if comm.rank == 0:
            result = self._master_loop(comm, display_list, frame_id, tiles, fail_nodes)
        else:
            self._node_loop(comm, display_list, comm.rank - 1 in fail_nodes)
            result = None
        comm.barrier()  # swap-lock: no rank proceeds until the frame is whole
        return result

    def _master_loop(self, comm, display_list, frame_id, tiles, fail_nodes):
        n_nodes = comm.size - 1
        pending: list[TileSpec] = []
        assigned: dict[int, list[TileSpec]] = {}
        if self.schedule == "static":
            assignment = static_assignment(tiles, n_nodes)
        elif self.schedule == "balanced":
            assignment = cost_balanced_assignment(tiles, n_nodes, display_list)
        else:  # dynamic: seed one tile per node, queue the rest
            assignment = {node: [] for node in range(n_nodes)}
            pending = list(tiles)

        inflight: dict[int, list[TileSpec]] = {node: [] for node in range(n_nodes)}
        alive = set(range(n_nodes))
        done: dict[int, np.ndarray] = {}
        busy: dict[int, float] = {node: 0.0 for node in range(n_nodes)}
        tiles_per_node: dict[int, int] = {node: 0 for node in range(n_nodes)}

        def dispatch(node: int, tile: TileSpec) -> None:
            comm.send(RenderTile(frame_id, tile.tile_id, tile.region), node + 1, TAG_TASK)
            inflight[node].append(tile)

        if self.schedule == "dynamic":
            for node in range(n_nodes):
                if pending:
                    dispatch(node, pending.pop(0))
        else:
            for node, node_tiles in assignment.items():
                for tile in node_tiles:
                    dispatch(node, tile)

        while len(done) < len(tiles):
            src, msg = comm.recv_with_source(ANY_SOURCE, TAG_RESULT)
            node = src - 1
            if isinstance(msg, NodeFailed):
                alive.discard(node)
                # requeue everything that node had not finished
                requeue = inflight.pop(node, [])
                inflight[node] = []
                if self.schedule != "dynamic":
                    raise RenderError("node failure under a static schedule")
                pending = requeue + pending
                # keep survivors fed
                for other in sorted(alive):
                    if pending and not inflight[other]:
                        dispatch(other, pending.pop(0))
                if not alive:
                    raise RenderError("all render nodes failed")
                continue
            assert isinstance(msg, TileDone)
            done[msg.tile_id] = msg.pixels
            busy[node] += msg.render_seconds
            tiles_per_node[node] += 1
            inflight[node] = [t for t in inflight[node] if t.tile_id != msg.tile_id]
            if self.schedule == "dynamic" and pending and node in alive:
                dispatch(node, pending.pop(0))
        for node in range(n_nodes):
            comm.send(Shutdown(), node + 1, TAG_TASK)
        return done, busy, tiles_per_node

    @staticmethod
    def _node_loop(comm, display_list, simulate_failure: bool) -> None:
        if simulate_failure:
            comm.send(NodeFailed(node_rank=comm.rank), 0, TAG_RESULT)
            # a dead node still reaches the barrier in _rank_main: the real
            # machine's swap hardware does not wait for a crashed PC, and the
            # in-process barrier must not deadlock.
            # take the one message already on its way to us (a RenderTile,
            # dropped silently: we are "dead" — or the Shutdown) so the
            # mailbox does not leak
            comm.recv(0, TAG_TASK)
            return
        while True:
            msg = comm.recv(0, TAG_TASK)
            if isinstance(msg, Shutdown):
                return
            assert isinstance(msg, RenderTile)
            t0 = time.perf_counter()
            box = msg.region
            pixels = display_list.render_region(box.x, box.y, box.w, box.h)
            dt = time.perf_counter() - t0
            comm.send(
                TileDone(msg.frame_id, msg.tile_id, pixels, comm.rank, dt), 0, TAG_RESULT
            )

    # ------------------------------------------------------------ rpc backend
    def _render_rpc(self, display_list, frame_id: int, fail_nodes) -> WallFrame:
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

        tiles = self.geometry.tiles()
        start = time.perf_counter()

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

    # ------------------------------------------------------- stealing backend
    def _render_workstealing(self, display_list, frame_id, fail_nodes) -> WallFrame:
        tiles = self.geometry.tiles()
        busy: dict[int, float] = {n: 0.0 for n in range(self.n_nodes)}

        def render_tile(tile: TileSpec, worker_slot: list[float]):
            t0 = time.perf_counter()
            box = tile.region
            pixels = display_list.render_region(box.x, box.y, box.w, box.h)
            worker_slot.append(time.perf_counter() - t0)
            return tile.tile_id, pixels

        slots: list[list[float]] = [[] for _ in tiles]
        tasks = [(render_tile, (tile, slots[i])) for i, tile in enumerate(tiles)]
        pool = WorkStealingPool(self.n_nodes)
        start = time.perf_counter()
        results, stats = pool.run(tasks, fail_workers=set(fail_nodes))
        elapsed = time.perf_counter() - start
        done = {tid: px for tid, px in results}
        # attribute busy time to workers via run counts (per-tile times summed)
        total_tile_time = sum(s[0] for s in slots if s)
        for w in range(self.n_nodes):
            share = stats.tasks_run[w] / max(1, len(tiles))
            busy[w] = total_tile_time * share
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
            tiles_per_node={w: stats.tasks_run[w] for w in range(self.n_nodes)},
            failed_nodes=tuple(sorted(fail_nodes)),
        )
        return WallFrame(pixels=composite, metrics=metrics, tile_pixels=done)

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

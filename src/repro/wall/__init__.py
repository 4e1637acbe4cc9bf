"""Simulated scalable display wall (paper Figure 3).

The paper's wall is driven by a cluster; here each render node is a
thread of one process, and ``schedule="rpc"`` runs the nodes as servers
across sockets.  Display-list tiles go to the nodes, the returned pixels
are composited, and a frame is complete only when every node has
finished (the swap-lock).  Schedulers: static blocks, cost-balanced LPT,
dynamic first-come first-served, and work stealing with fault injection.
"""

from repro.wall.geometry import WallGeometry, TileSpec, DESKTOP_2MPIXEL
from repro.wall.scheduler import static_assignment, cost_balanced_assignment, SCHEDULE_MODES
from repro.wall.compositor import compose_tiles
from repro.wall.metrics import FrameMetrics
from repro.wall.cluster import DisplayWall, WallFrame
from repro.wall.input import PointerEvent, HitResult, WallInputRouter
from repro.wall.frames import SequenceStats, FrameSequenceDriver
from repro.wall.bandwidth import rle_encode, rle_decode, FrameTraffic, estimate_traffic

__all__ = [
    "WallGeometry",
    "TileSpec",
    "DESKTOP_2MPIXEL",
    "static_assignment",
    "cost_balanced_assignment",
    "SCHEDULE_MODES",
    "compose_tiles",
    "FrameMetrics",
    "DisplayWall",
    "WallFrame",
    "PointerEvent",
    "HitResult",
    "WallInputRouter",
    "SequenceStats",
    "FrameSequenceDriver",
    "rle_encode",
    "rle_decode",
    "FrameTraffic",
    "estimate_traffic",
]

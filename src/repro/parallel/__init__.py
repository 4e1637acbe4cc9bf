"""Parallel-execution substrate: partitioning, parallel map and the
task pool behind the wall's in-process tile schedules.

The paper's display wall is driven by a cluster; this reproduction runs
each render node as a thread of one process, and ``schedule="rpc"``
runs them as servers across sockets.
"""

from repro.parallel.partition import (
    block_partition,
    cyclic_partition,
    balanced_partition,
    chunk_ranges,
)
from repro.parallel.pmap import parallel_map
from repro.parallel.workqueue import SHARED, WorkStealingPool, StealStats

__all__ = [
    "block_partition",
    "cyclic_partition",
    "balanced_partition",
    "chunk_ranges",
    "parallel_map",
    "SHARED",
    "WorkStealingPool",
    "StealStats",
]

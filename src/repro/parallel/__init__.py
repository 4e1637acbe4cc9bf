"""Parallel-execution substrate: MPI-style message passing, partitioning,
parallel map and work stealing.

The display wall in the paper is a cluster-driven system; this package
provides the in-process equivalent (see DESIGN.md §2 for the mpi4py
substitution rationale).
"""

from repro.parallel.comm import ANY_SOURCE, ANY_TAG, Communicator, run_ranks
from repro.parallel.partition import (
    block_partition,
    cyclic_partition,
    balanced_partition,
    chunk_ranges,
)
from repro.parallel.pmap import parallel_map
from repro.parallel.workqueue import WorkStealingPool, StealStats

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "run_ranks",
    "block_partition",
    "cyclic_partition",
    "balanced_partition",
    "chunk_ranges",
    "parallel_map",
    "WorkStealingPool",
    "StealStats",
]

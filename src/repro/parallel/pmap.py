"""Order-preserving parallel map over a thread pool.

NumPy kernels release the GIL, so thread-level parallelism gives real
speedups for the vectorized workloads in this library (per-dataset SPELL
scoring, per-tile rendering).  Results always come back in input order
and exceptions propagate to the caller.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

from repro.util.errors import ValidationError

__all__ = ["parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    n_workers: int = 4,
    serial_threshold: int = 2,
) -> list[R]:
    """Map ``fn`` over ``items`` with ``n_workers`` threads, preserving order.

    Falls back to a plain loop when there are fewer than
    ``serial_threshold`` items or one worker — thread startup is not free
    and the benches compare both paths.
    """
    if n_workers < 1:
        raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
    items = list(items)
    if n_workers == 1 or len(items) < serial_threshold:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))

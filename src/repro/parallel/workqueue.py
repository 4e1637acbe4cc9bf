"""Task pool for the wall's tile schedules: per-worker lists or one FIFO,
with or without stealing.

Static tile assignment wastes nodes when content is uneven across the
wall (dense heatmap tiles cost more than empty bezels).  The pool keeps
one deque per worker; a worker pops from its own deque's front and, when
stealing is on, steals from the *back* of the busiest victim when empty
— the standard Cilk-style discipline, here with a single lock per deque
since tasks are coarse (whole tiles).  With :data:`SHARED` placement
every worker's deque is the same FIFO, which is first-come first-served
master/worker scheduling without a master.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Sequence

from repro.parallel.partition import cyclic_partition
from repro.util.errors import ValidationError

__all__ = ["WorkStealingPool", "StealStats", "SHARED"]

#: ``placement`` value: one FIFO that every worker takes from the front of.
SHARED = "shared"


class StealStats:
    """Counters the scheduler bench reports: tasks run, steals and busy
    seconds per worker."""

    def __init__(self, n_workers: int) -> None:
        self.tasks_run = [0] * n_workers
        self.steals = [0] * n_workers
        self.busy_seconds = [0.0] * n_workers

    @property
    def total_steals(self) -> int:
        return sum(self.steals)

    def imbalance(self) -> float:
        """max/mean tasks-per-worker ratio (1.0 = perfectly even)."""
        total = sum(self.tasks_run)
        if total == 0:
            return 1.0
        mean = total / len(self.tasks_run)
        return max(self.tasks_run) / mean if mean else 1.0


class WorkStealingPool:
    """Execute ``tasks[i] = (fn, args)`` across worker threads.

    ``placement`` says where the tasks start: one list of task indices
    per worker (default: round-robin), or :data:`SHARED`.  ``steal`` lets
    a worker whose own deque is empty take from the back of another's.
    Nothing is queued after ``run`` starts, so a worker with nothing to
    pop or steal returns, and the run is over when every worker thread
    has joined.  Results come back indexed by task position.  A
    ``fail_workers`` set simulates node death: those workers stop before
    running anything, and their tasks must be reachable by a survivor
    (stolen, or taken from the shared FIFO) or ``run`` refuses up front.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers

    def run(
        self,
        tasks: Sequence[tuple[Callable[..., Any], tuple]],
        *,
        placement: Sequence[Sequence[int]] | str | None = None,
        steal: bool = True,
        fail_workers: set[int] | frozenset[int] = frozenset(),
    ) -> tuple[list[Any], StealStats]:
        for w in fail_workers:
            if not (0 <= w < self.n_workers):
                raise ValidationError(f"fail_worker {w} out of range")
        if len(fail_workers) >= self.n_workers:
            raise ValidationError("cannot fail every worker")
        n_tasks = len(tasks)
        if placement == SHARED:
            shared = deque(range(n_tasks))
            deques = [shared] * self.n_workers
            locks = [threading.Lock()] * self.n_workers
        else:
            lists = cyclic_partition(n_tasks, self.n_workers) if placement is None else placement
            if len(lists) != self.n_workers:
                raise ValidationError(f"placement needs {self.n_workers} lists, got {len(lists)}")
            if sorted(i for lst in lists for i in lst) != list(range(n_tasks)):
                raise ValidationError("placement must list every task index exactly once")
            if not steal and any(lists[w] for w in fail_workers):
                raise ValidationError("tasks placed on a failed worker, and no worker steals")
            deques = [deque(lst) for lst in lists]
            locks = [threading.Lock() for _ in range(self.n_workers)]
        results: list[Any] = [None] * n_tasks
        errors: list[BaseException] = []
        stats = StealStats(self.n_workers)

        def try_pop(worker: int) -> int | None:
            with locks[worker]:
                if deques[worker]:
                    return deques[worker].popleft()
            return None

        def try_steal(worker: int) -> int | None:
            # steal from the currently longest victim deque (back end)
            victims = sorted(
                (v for v in range(self.n_workers) if v != worker),
                key=lambda v: -len(deques[v]),
            )
            for victim in victims:
                with locks[victim]:
                    if deques[victim]:
                        stats.steals[worker] += 1
                        return deques[victim].pop()
            return None

        def worker_loop(worker: int) -> None:
            if worker in fail_workers:
                return  # simulated dead node: its deque is left for thieves
            while not errors:
                task_idx = try_pop(worker)
                if task_idx is None and steal:
                    task_idx = try_steal(worker)
                if task_idx is None:
                    return  # nothing left this worker may take, and nothing more is queued
                fn, args = tasks[task_idx]
                t0 = time.perf_counter()
                try:
                    results[task_idx] = fn(*args)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                stats.busy_seconds[worker] += time.perf_counter() - t0
                stats.tasks_run[worker] += 1

        threads = [
            threading.Thread(target=worker_loop, args=(w,), name=f"steal-{w}", daemon=True)
            for w in range(self.n_workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        if errors:
            raise errors[0]
        never_run = n_tasks - sum(stats.tasks_run)
        if never_run:
            raise ValidationError(f"{never_run} tasks never completed")
        return results, stats

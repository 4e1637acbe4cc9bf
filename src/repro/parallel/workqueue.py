"""Work-stealing task pool for irregular workloads (dynamic tile scheduling).

Static tile assignment wastes nodes when content is uneven across the
wall (dense heatmap tiles cost more than empty bezels).  The
work-stealing pool keeps one deque per worker; a worker pops from its own
deque's front and steals from the *back* of the busiest victim when
empty — the standard Cilk-style discipline, here with a single lock per
deque since tasks are coarse (whole tiles).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Sequence

from repro.util.errors import ValidationError

__all__ = ["WorkStealingPool", "StealStats"]


class StealStats:
    """Counters the scheduler bench reports: tasks run and steals per worker."""

    def __init__(self, n_workers: int) -> None:
        self.tasks_run = [0] * n_workers
        self.steals = [0] * n_workers

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
    """Execute ``tasks[i] = (fn, args)`` across workers with stealing.

    ``run`` partitions the task list round-robin as each worker's initial
    deque, then lets idle workers steal.  Results come back indexed by
    task position.  A ``fail_worker`` set simulates node death: those
    workers stop before running anything, and their tasks must be stolen
    by survivors (the failure-injection tests assert completion).
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers

    def run(
        self,
        tasks: Sequence[tuple[Callable[..., Any], tuple]],
        *,
        fail_workers: set[int] | frozenset[int] = frozenset(),
    ) -> tuple[list[Any], StealStats]:
        for w in fail_workers:
            if not (0 <= w < self.n_workers):
                raise ValidationError(f"fail_worker {w} out of range")
        if len(fail_workers) >= self.n_workers:
            raise ValidationError("cannot fail every worker")
        n_tasks = len(tasks)
        results: list[Any] = [None] * n_tasks
        errors: list[BaseException] = []
        stats = StealStats(self.n_workers)

        deques: list[deque[int]] = [deque() for _ in range(self.n_workers)]
        locks = [threading.Lock() for _ in range(self.n_workers)]
        for i in range(n_tasks):
            deques[i % self.n_workers].append(i)
        outstanding = [n_tasks]
        outstanding_lock = threading.Lock()

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
            while True:
                with outstanding_lock:
                    if outstanding[0] == 0 or errors:
                        return
                task_idx = try_pop(worker)
                if task_idx is None:
                    task_idx = try_steal(worker)
                if task_idx is None:
                    with outstanding_lock:
                        if outstanding[0] == 0:
                            return
                    continue  # spin: tasks may still appear via other deques
                fn, args = tasks[task_idx]
                try:
                    results[task_idx] = fn(*args)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                stats.tasks_run[worker] += 1
                with outstanding_lock:
                    outstanding[0] -= 1

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
        with outstanding_lock:
            if outstanding[0] != 0:
                raise ValidationError(f"{outstanding[0]} tasks never completed")
        return results, stats

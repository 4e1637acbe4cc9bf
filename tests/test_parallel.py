"""Tests for the parallel substrate: partitioning, pmap, the task pool."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    SHARED,
    WorkStealingPool,
    balanced_partition,
    block_partition,
    chunk_ranges,
    cyclic_partition,
    parallel_map,
)
from repro.util.errors import ValidationError


class TestPartition:
    @given(n_items=st.integers(0, 200), n_parts=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_block_partition_properties(self, n_items, n_parts):
        parts = block_partition(n_items, n_parts)
        assert len(parts) == n_parts
        flat = [i for rng in parts for i in rng]
        assert flat == list(range(n_items))  # disjoint, complete, ordered
        sizes = [len(rng) for rng in parts]
        assert max(sizes) - min(sizes) <= 1  # balanced

    def test_cyclic_partition(self):
        parts = cyclic_partition(7, 3)
        assert parts == [[0, 3, 6], [1, 4], [2, 5]]

    @given(
        weights=st.lists(st.floats(0.0, 100.0), min_size=0, max_size=40),
        n_parts=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_balanced_partition_properties(self, weights, n_parts):
        parts = balanced_partition(weights, n_parts)
        assert len(parts) == n_parts
        flat = sorted(i for p in parts for i in p)
        assert flat == list(range(len(weights)))
        # LPT guarantee: makespan <= mean load + largest item
        if weights and sum(weights) > 0:
            loads = [sum(weights[i] for i in p) for p in parts]
            assert max(loads) <= sum(weights) / n_parts + max(weights) + 1e-9

    def test_balanced_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            balanced_partition([1.0, -1.0], 2)

    def test_chunk_ranges(self):
        assert [list(r) for r in chunk_ranges(7, 3)] == [[0, 1, 2], [3, 4, 5], [6]]
        with pytest.raises(ValidationError):
            chunk_ranges(5, 0)

    def test_partition_validation(self):
        with pytest.raises(ValidationError):
            block_partition(5, 0)
        with pytest.raises(ValidationError):
            block_partition(-1, 2)
        with pytest.raises(ValidationError):
            cyclic_partition(5, 0)


class TestParallelMap:
    def test_preserves_order(self):
        out = parallel_map(lambda x: x * x, range(50), n_workers=4)
        assert out == [x * x for x in range(50)]

    def test_serial_fallback(self):
        assert parallel_map(lambda x: x + 1, [1], n_workers=4) == [2]
        assert parallel_map(lambda x: x + 1, [1, 2, 3], n_workers=1) == [2, 3, 4]

    def test_exception_propagates(self):
        def bad(x):
            if x == 3:
                raise RuntimeError("nope")
            return x

        with pytest.raises(RuntimeError):
            parallel_map(bad, range(6), n_workers=3)

    def test_worker_validation(self):
        with pytest.raises(ValidationError):
            parallel_map(lambda x: x, [1], n_workers=0)


class TestWorkStealing:
    def test_all_tasks_complete_in_order(self):
        pool = WorkStealingPool(4)
        tasks = [(lambda i=i: i * 3, ()) for i in range(30)]
        results, stats = pool.run(tasks)
        assert results == [i * 3 for i in range(30)]
        assert sum(stats.tasks_run) == 30

    def test_uneven_tasks_get_stolen(self):
        """Workers with cheap tasks steal from the worker with expensive ones."""
        pool = WorkStealingPool(4)

        def slow():
            time.sleep(0.02)
            return "slow"

        def fast():
            return "fast"

        # round-robin initial split puts all slow tasks on worker 0
        tasks = []
        for i in range(16):
            tasks.append((slow if i % 4 == 0 else fast, ()))
        _, stats = pool.run(tasks)
        assert stats.total_steals > 0

    def test_failed_workers_tasks_are_rescued(self):
        pool = WorkStealingPool(4)
        tasks = [(lambda i=i: i, ()) for i in range(20)]
        results, stats = pool.run(tasks, fail_workers={0, 3})
        assert results == list(range(20))
        assert stats.tasks_run[0] == 0 and stats.tasks_run[3] == 0

    def test_cannot_fail_all_workers(self):
        pool = WorkStealingPool(2)
        with pytest.raises(ValidationError):
            pool.run([(lambda: 1, ())], fail_workers={0, 1})

    def test_task_exception_propagates(self):
        pool = WorkStealingPool(2)

        def boom():
            raise KeyError("bad task")

        with pytest.raises(KeyError):
            pool.run([(boom, ())])

    def test_stats_imbalance(self):
        from repro.parallel import StealStats

        stats = StealStats(2)
        stats.tasks_run = [10, 0]
        assert stats.imbalance() == 2.0
        stats.tasks_run = [5, 5]
        assert stats.imbalance() == 1.0

    def test_empty_task_list(self):
        results, stats = WorkStealingPool(3).run([])
        assert results == [] and sum(stats.tasks_run) == 0

    def test_idle_workers_return_instead_of_spinning(self):
        """A worker with nothing to pop or steal returns: three idle
        workers must not burn CPU while one task sleeps."""

        def sleeper():
            time.sleep(0.3)

        tasks = [(sleeper, ())] + [(lambda: None, ())] * 3
        cpu_before = time.process_time()
        WorkStealingPool(4).run(tasks)
        assert time.process_time() - cpu_before < 0.15

    def test_busy_seconds_are_measured_per_worker(self):
        tasks = [(time.sleep, (0.05,)), (lambda: None, ())]
        _, stats = WorkStealingPool(2).run(tasks, placement=[[0], [1]], steal=False)
        assert stats.busy_seconds[0] >= 0.05
        assert stats.busy_seconds[1] < 0.05

    def test_placement_must_list_every_task_once(self):
        pool = WorkStealingPool(2)
        tasks = [(lambda: 1, ())] * 3
        for bad in ([[0, 1], [1, 2]], [[0], [2]], [[0, 1, 2]], [[0], [1], [2]]):
            with pytest.raises(ValidationError):
                pool.run(tasks, placement=bad)

    def test_no_task_lost_or_repeated_under_contention(self):
        """More workers than cores and a tiny switch interval: the shared
        FIFO and the stealing deques still hand out each task once."""
        runs = [0] * 400
        lock = threading.Lock()

        def task(i):
            with lock:
                runs[i] += 1

        tasks = [(task, (i,)) for i in range(len(runs))]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            for placement, steal in ((SHARED, False), (None, True)):
                _, stats = WorkStealingPool(8).run(tasks, placement=placement, steal=steal)
                assert sum(stats.tasks_run) == len(tasks)
            assert time.perf_counter() - start < 30.0
        finally:
            sys.setswitchinterval(old)
        assert runs == [2] * len(runs)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_task_runs_exactly_once(self, data):
        """Random placements, stealing on or off, failed workers: each task
        runs once, or ``run`` refuses at once when no live worker can
        reach a task."""
        n_workers = data.draw(st.integers(1, 6), label="n_workers")
        n_tasks = data.draw(st.integers(0, 30), label="n_tasks")
        fail = data.draw(
            st.sets(st.integers(0, n_workers - 1), max_size=n_workers - 1), label="fail"
        )
        steal = data.draw(st.booleans(), label="steal")
        if data.draw(st.booleans(), label="shared"):
            placement = SHARED
        else:
            owners = data.draw(
                st.lists(st.integers(0, n_workers - 1), min_size=n_tasks, max_size=n_tasks),
                label="owners",
            )
            placement = [
                data.draw(st.permutations([i for i, o in enumerate(owners) if o == w]))
                for w in range(n_workers)
            ]
        runs = [0] * n_tasks
        lock = threading.Lock()

        def task(i):
            with lock:
                runs[i] += 1
            return i

        tasks = [(task, (i,)) for i in range(n_tasks)]
        pool = WorkStealingPool(n_workers)
        if placement != SHARED and not steal and any(placement[w] for w in fail):
            start = time.perf_counter()
            with pytest.raises(ValidationError):
                pool.run(tasks, placement=placement, steal=steal, fail_workers=fail)
            assert time.perf_counter() - start < 1.0
            assert runs == [0] * n_tasks
            return
        results, stats = pool.run(tasks, placement=placement, steal=steal, fail_workers=fail)
        assert results == list(range(n_tasks))
        assert runs == [1] * n_tasks
        assert sum(stats.tasks_run) == n_tasks
        for w in fail:
            assert stats.tasks_run[w] == 0 and stats.busy_seconds[w] == 0.0
        if placement != SHARED and not steal:
            assert stats.tasks_run == [len(lst) for lst in placement]

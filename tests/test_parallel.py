"""Tests for the parallel substrate: communicator, partitioning, pmap, stealing."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    ANY_SOURCE,
    WorkStealingPool,
    balanced_partition,
    block_partition,
    chunk_ranges,
    cyclic_partition,
    parallel_map,
    run_ranks,
)
from repro.util.errors import CommunicationError, ValidationError


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, dest=1, tag=5)
                return comm.recv(source=1, tag=6)
            payload = comm.recv(source=0, tag=5)
            comm.send(payload["x"] + 1, dest=0, tag=6)
            return None

        results = run_ranks(fn, 2)
        assert results[0] == 2

    def test_tag_matching_out_of_order(self):
        """A message with the wrong tag is buffered, not lost."""

        def fn(comm):
            if comm.rank == 0:
                comm.send("second", dest=1, tag=2)
                comm.send("first", dest=1, tag=1)
                return None
            first = comm.recv(source=0, tag=1)
            second = comm.recv(source=0, tag=2)
            return (first, second)

        results = run_ranks(fn, 2)
        assert results[1] == ("first", "second")

    def test_any_source_recv_with_source(self):
        def fn(comm):
            if comm.rank == 0:
                got = set()
                for _ in range(2):
                    src, val = comm.recv_with_source(ANY_SOURCE, tag=9)
                    got.add((src, val))
                return got
            comm.send(comm.rank * 10, dest=0, tag=9)
            return None

        results = run_ranks(fn, 3)
        assert results[0] == {(1, 10), (2, 20)}

    def test_numpy_arrays_pass_through(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(10), dest=1)
                return None
            arr = comm.recv(source=0)
            return int(arr.sum())

        assert run_ranks(fn, 2)[1] == 45

    def test_recv_timeout_raises(self):
        def fn(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=99)  # nothing ever sent
            return None

        with pytest.raises(CommunicationError):
            run_ranks(fn, 2, timeout=0.3)

    def test_bad_dest_raises(self):
        def fn(comm):
            comm.send(1, dest=5)

        with pytest.raises(CommunicationError):
            run_ranks(fn, 2, timeout=1.0)


class TestCollectives:
    def test_bcast(self):
        def fn(comm):
            value = {"data": 42} if comm.rank == 0 else None
            return comm.bcast(value, root=0)["data"]

        assert run_ranks(fn, 4) == [42, 42, 42, 42]

    def test_scatter_gather(self):
        def fn(comm):
            values = [i * i for i in range(comm.size)] if comm.rank == 0 else None
            mine = comm.scatter(values, root=0)
            gathered = comm.gather(mine + 1, root=0)
            return gathered

        results = run_ranks(fn, 4)
        assert results[0] == [1, 2, 5, 10]
        assert results[1] is None

    def test_scatter_wrong_length_raises(self):
        def fn(comm):
            values = [1, 2] if comm.rank == 0 else None
            comm.scatter(values, root=0)

        with pytest.raises(CommunicationError):
            run_ranks(fn, 3, timeout=1.0)

    def test_allgather(self):
        def fn(comm):
            return comm.allgather(comm.rank)

        assert run_ranks(fn, 3) == [[0, 1, 2]] * 3

    def test_reduce_and_allreduce(self):
        def fn(comm):
            total = comm.reduce(comm.rank + 1, lambda a, b: a + b, root=0)
            every = comm.allreduce(comm.rank + 1, lambda a, b: a + b)
            return (total, every)

        results = run_ranks(fn, 4)
        assert results[0] == (10, 10)
        assert results[2] == (None, 10)

    def test_reduce_rank_order_deterministic(self):
        def fn(comm):
            return comm.reduce([comm.rank], lambda a, b: a + b, root=0)

        assert run_ranks(fn, 4)[0] == [0, 1, 2, 3]

    def test_barrier_synchronizes(self):
        hits: list[int] = []
        lock = threading.Lock()

        def fn(comm):
            if comm.rank == 0:
                time.sleep(0.05)
            with lock:
                hits.append(comm.rank)
            comm.barrier()
            # after the barrier everyone must have arrived
            with lock:
                return len(hits)

        results = run_ranks(fn, 3)
        assert all(r == 3 for r in results)

    def test_nonroot_collective_root_validation(self):
        def fn(comm):
            comm.bcast(1, root=9)

        with pytest.raises(CommunicationError):
            run_ranks(fn, 2, timeout=1.0)


class TestRunRanks:
    def test_results_in_rank_order(self):
        assert run_ranks(lambda comm: comm.rank * 2, 5) == [0, 2, 4, 6, 8]

    def test_exception_propagates_with_rank(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(CommunicationError, match="rank 2"):
            run_ranks(fn, 4, timeout=2.0)

    def test_zero_ranks_rejected(self):
        with pytest.raises(CommunicationError):
            run_ranks(lambda c: None, 0)


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

"""Multi-process batch serving over the memory-mapped index store.

Threads cannot spread a batch over cores: a query is a few hundred small
NumPy calls, so its Python side holds the GIL and a thread fan-out only
convoys on it (measured slower than the serial loop).  This module gives
cache misses real multi-core scaling without copying the index into
every process: worker processes **reopen the persistent**
:class:`~repro.spell.store.IndexStore` **memory-mapped**, so every
worker's shard views are windows onto the same OS page cache — the
index's bytes exist once in physical memory no matter how many workers
serve it (the store is the enabler; nothing is pickled between processes
except queries and ranked results).

Consistency is guarded by the store's durable version tokens: every
batch carries the dispatching service's ordered ``(dataset name,
content fingerprint)`` list, and a worker whose reopened index does not
match **resyncs** (reloads the store, which the parent synced before
dispatch) before serving; if it still disagrees it refuses the batch
(:class:`WorkerPoolError`) and the parent falls back to the same kernel
in-process.  A stale worker index is therefore never silently served.

Workers are spawned (not forked — the parent may be running server
threads) lazily on first use and reused across batches; each holds one
:class:`~repro.spell.index.SpellIndex` and answers its slice of the
batch with :meth:`~repro.spell.index.SpellIndex.search_batch`.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from pathlib import Path
from time import perf_counter
from typing import Sequence

from repro.spell.index import BatchQuery, SpellIndex
from repro.spell.store import IndexStore
from repro.util.deadline import Deadline
from repro.util.errors import ReproError, SearchError

__all__ = ["IndexWorkerPool", "WorkerPoolError", "REPLY_TIMEOUT_SECONDS"]

#: Default seconds a gather will wait on one worker before declaring the
#: pool broken.  Generous — a batch slice is milliseconds of work; only a
#: dead or wedged worker ever gets near this.  Configurable per pool via
#: ``IndexWorkerPool(reply_timeout=...)`` and clamped further by a
#: request deadline when one rides on the batch.
REPLY_TIMEOUT_SECONDS = 120.0


class WorkerPoolError(ReproError):
    """The pool cannot (or must not) serve this batch; caller falls back."""


def _worker_main(conn, store_dir: str) -> None:
    """One worker: reopen the store, answer batch slices until EOF.

    The index is loaded lazily (the parent may sync the store after
    spawning) and reloaded whenever the parent's expected fingerprints
    disagree with the loaded shards — the resync-never-serve-stale
    contract.  Every reply is a tuple tagged with the sequence number of
    the scatter it answers; exceptions travel back to the parent as
    values, never kill the worker.  A closed pipe — the parent shut the
    pool down, or died — ends the worker quietly, whichever side of a
    batch it is on.
    """
    index: SpellIndex | None = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        seq, expected, specs = message
        try:
            resynced = False
            if index is None or index.fingerprints() != expected:
                if index is not None:
                    resynced = True
                # sweep=False: workers are concurrent readers — reclaiming
                # crash debris is the owning service's job, and a worker
                # must never race the parent's in-flight (unpublished)
                # shard writes by deleting them as orphans
                index = IndexStore.load(store_dir, mmap=True, sweep=False)
            if index.fingerprints() != expected:
                reply = ("stale", repr(store_dir))
                index = None  # force a fresh look next batch
            else:
                start = perf_counter()
                results = index.search_batch(specs)
                reply = ("ok", results, perf_counter() - start, resynced)
        except Exception as exc:  # noqa: BLE001 — exceptions are data here
            reply = ("error", exc)
        try:
            conn.send((seq, *reply))
        except OSError:  # BrokenPipeError included
            break
    conn.close()


class IndexWorkerPool:
    """N worker processes sharing one on-disk index, serving batch slices.

    ``run_batch`` scatters a list of :class:`BatchQuery` across the
    workers in contiguous slices, gathers the per-slice results, and
    returns them in input order.  All-or-nothing: any worker error
    re-raises in the parent (after every reply is drained, so the pipes
    never desync).  A dead, wedged, or persistently-stale worker raises
    :class:`WorkerPoolError` and marks the pool ``broken`` — the owner
    is expected to fall back to in-process serving.  A request deadline
    that runs out mid-gather does neither: every scatter carries a
    sequence number its replies echo, the pool remembers which workers
    still owe one, and the next scatter reads those off first.
    """

    def __init__(
        self,
        store_dir: str | Path,
        *,
        n_procs: int,
        reply_timeout: float = REPLY_TIMEOUT_SECONDS,
    ) -> None:
        if n_procs < 1:
            raise WorkerPoolError(f"n_procs must be >= 1, got {n_procs}")
        if reply_timeout <= 0:
            raise WorkerPoolError(f"reply_timeout must be > 0, got {reply_timeout}")
        self.store_dir = str(store_dir)
        self.n_procs = int(n_procs)
        self.reply_timeout = float(reply_timeout)
        self.broken = False
        self.batches = 0
        self.resyncs = 0  # worker index reloads forced by a token mismatch
        self.dispatch_waiters = 0  # callers queued on the pipe lock
        self.dispatching = 0  # callers inside scatter-gather (0 or 1)
        self._gauge_lock = threading.Lock()
        self._lock = threading.Lock()  # pipes are not thread-safe
        self._scatters = 0  # sequence number of the latest scatter
        #: per worker, the scatter it has been sent and not yet answered
        self._owed: list[int | None] = [None] * self.n_procs
        ctx = mp.get_context("spawn")
        self._workers: list[tuple[mp.process.BaseProcess, object]] = []
        try:
            for _ in range(self.n_procs):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, self.store_dir),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._workers.append((proc, parent_conn))
        except Exception as exc:
            self.close()
            raise WorkerPoolError(f"failed to spawn index workers: {exc}") from exc

    # ------------------------------------------------------------------ serve
    def run_batch(
        self,
        expected: list[tuple[str, str | None]],
        specs: Sequence[BatchQuery],
        *,
        deadline: Deadline | None = None,
    ) -> tuple[list, float]:
        """Answer ``specs`` across the workers; returns (results, busy_seconds).

        ``expected`` is the dispatching index's ordered (name,
        fingerprint) token list; ``busy_seconds`` is the sum of worker
        compute time (for utilization accounting — wall time is the
        caller's to measure).  ``deadline`` clamps every gather wait; a
        spent budget raises :class:`~repro.util.errors.DeadlineExceeded`
        and the caller must *not* fall back to in-process work, which
        would blow the same budget.  That is the client's deadline, not a
        pool fault: the pool stays usable, and the replies the gather
        walked away from are read and dropped before their workers are
        sent anything else.
        """
        if self.broken:
            raise WorkerPoolError("worker pool is broken")
        specs = list(specs)
        if not specs:
            return [], 0.0
        # the dispatch gauges exist for the asyncio tier: its executor
        # threads all funnel through this one pipe lock, so "how many
        # callers are queued on the pool right now" is the signal that
        # says whether the pool — not the event loop — is the bottleneck
        dispatching = False
        with self._gauge_lock:
            self.dispatch_waiters += 1
        try:
            with self._lock:
                with self._gauge_lock:
                    self.dispatch_waiters -= 1
                    self.dispatching += 1
                    dispatching = True
                try:
                    return self._scatter_gather(expected, specs, deadline)
                finally:
                    with self._gauge_lock:
                        self.dispatching -= 1
        finally:
            if not dispatching:
                with self._gauge_lock:
                    self.dispatch_waiters -= 1

    def _reply(self, j: int, deadline: Deadline | None) -> list:
        """Worker ``j``'s reply to the scatter it was last sent.

        Waits ``reply_timeout`` at most, less when ``deadline`` is
        tighter.  A spent ``deadline`` raises ``DeadlineExceeded`` and
        leaves the reply owed — the client's budget ran out, not the
        worker; anything else that keeps the reply from arriving, or a
        reply tagged for another scatter, breaks the pool.
        """
        conn = self._workers[j][1]
        wait = (
            self.reply_timeout
            if deadline is None
            else deadline.clamp(self.reply_timeout)
        )
        try:
            if not conn.poll(wait):
                if deadline is not None:
                    deadline.check("worker pool gather")
                raise TimeoutError(f"no reply within {self.reply_timeout:.0f}s")
            seq, *reply = conn.recv()
        except (EOFError, OSError, TimeoutError) as exc:
            self.broken = True
            raise WorkerPoolError(f"index worker died: {exc}") from exc
        if seq != self._owed[j]:
            self.broken = True
            raise WorkerPoolError(
                f"index worker answered scatter {seq}, not {self._owed[j]}"
            )
        self._owed[j] = None
        return reply

    def _scatter_gather(self, expected, specs, deadline) -> tuple[list, float]:
        n = min(self.n_procs, len(specs))
        bounds = [(len(specs) * j) // n for j in range(n + 1)]
        self._scatters += 1
        for j in range(n):
            if self._owed[j] is not None:
                # a gather walked away from this worker when its client's
                # deadline ran out.  That reply is read (and dropped)
                # before the worker is sent more: it may be blocked
                # writing it, and would never get to read a large scatter
                self._reply(j, deadline)
            try:
                self._workers[j][1].send(
                    (self._scatters, expected, specs[bounds[j] : bounds[j + 1]])
                )
            except (OSError, ValueError) as exc:
                self.broken = True
                raise WorkerPoolError(f"worker pipe failed mid-scatter: {exc}") from exc
            self._owed[j] = self._scatters

        results: list = []
        busy = 0.0
        failure: BaseException | None = None
        stale = False
        for j in range(n):  # drain every reply before raising anything
            reply = self._reply(j, deadline)
            if reply[0] == "ok":
                _, chunk_results, seconds, resynced = reply
                results.extend(chunk_results)
                busy += seconds
                if resynced:
                    self.resyncs += 1
            elif reply[0] == "stale":
                stale = True
            elif failure is None:
                failure = reply[1]
        if stale:
            raise WorkerPoolError(
                f"worker index at {self.store_dir} does not match the "
                "dispatched version tokens even after resync"
            )
        if failure is not None:
            if isinstance(failure, SearchError):
                # a member-request error: the batch's own contract, the
                # caller must fail it all-or-nothing
                raise failure
            # anything else is environmental (store being rewritten under
            # the worker, corrupt shard, ...) — the caller should fall
            # back to in-process serving, not fail the client's batch
            raise WorkerPoolError(
                f"index worker failed: {type(failure).__name__}: {failure}"
            ) from failure
        self.batches += 1
        return results, busy

    # ------------------------------------------------------------------ admin
    def stats(self) -> dict[str, int | float | bool]:
        with self._gauge_lock:
            waiters, dispatching = self.dispatch_waiters, self.dispatching
        return {
            "n_procs": self.n_procs,
            "batches": self.batches,
            "resyncs": self.resyncs,
            "dispatch_waiters": waiters,
            "dispatching": dispatching,
            "broken": self.broken,
            "reply_timeout_seconds": self.reply_timeout,
        }

    def close(self) -> None:
        """Shut every worker down; safe to call twice."""
        for proc, conn in self._workers:
            try:
                conn.send(None)
            except (OSError, ValueError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        for proc, _ in self._workers:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
        self._workers = []
        self.broken = True

    def __enter__(self) -> "IndexWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

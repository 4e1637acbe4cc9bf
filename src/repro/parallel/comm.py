"""In-process MPI-style message passing.

The paper's display wall is driven by a PC cluster; its natural modern
substrate is MPI (mpi4py).  That library is unavailable offline, so this
module reimplements the mpi4py *programming model* over threads and
queues: ranks run concurrently, communicate only through
``send``/``recv`` and collectives, and share no mutable state by
convention.  NumPy arrays pass by reference (zero-copy, like mpi4py's
buffer path); everything else should be treated as owned by the receiver
after send.

The API mirrors mpi4py's lowercase object methods: ``send``, ``recv``,
``bcast``, ``scatter``, ``gather``, ``allgather``, ``reduce``,
``allreduce``, ``barrier``.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.util.errors import CommunicationError

__all__ = ["ANY_SOURCE", "ANY_TAG", "Communicator", "run_ranks"]

ANY_SOURCE = -1
ANY_TAG = -1

_DEFAULT_TIMEOUT = 30.0  # seconds; deadlock insurance for tests


@dataclass
class _Envelope:
    source: int
    tag: int
    payload: Any


def _matches(env: _Envelope, source: int, tag: int) -> bool:
    return (source == ANY_SOURCE or env.source == source) and (
        tag == ANY_TAG or env.tag == tag
    )


class _Mailbox:
    """One rank's incoming messages, matched by (source, tag).

    A message that arrives before a matching ``take`` is posted waits in
    ``pending``; ``take`` scans pending first, then blocks on the queue.
    """

    def __init__(self) -> None:
        self.queue: "queue.Queue[_Envelope]" = queue.Queue()
        self.pending: list[_Envelope] = []

    def take(self, source: int, tag: int, timeout: float) -> _Envelope:
        deadline = time.monotonic() + timeout
        # scan buffered messages first
        for i, env in enumerate(self.pending):
            if _matches(env, source, tag):
                return self.pending.pop(i)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CommunicationError(
                    f"recv timed out waiting for source={source} tag={tag}"
                )
            try:
                env = self.queue.get(timeout=remaining)
            except queue.Empty:
                continue
            if _matches(env, source, tag):
                return env
            self.pending.append(env)


class _World:
    """Shared state for one communicator group (mailboxes + barrier)."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.mailboxes = [_Mailbox() for _ in range(size)]
        self.barrier = threading.Barrier(size)
        self.abort = threading.Event()


class Communicator:
    """One rank's handle onto the communicator group.

    Mirrors ``mpi4py.MPI.Comm``'s lowercase-object API.  All collectives
    are implemented over point-to-point with the root as hub, giving the
    same completion semantics MPI guarantees (a collective returns only
    when the calling rank's role in it is done).
    """

    def __init__(self, world: _World, rank: int, *, timeout: float = _DEFAULT_TIMEOUT) -> None:
        self._world = world
        self._rank = rank
        self._timeout = timeout
        # Per-rank collective sequence number.  All ranks execute the same
        # collective sequence (SPMD), so equal counters identify the same
        # collective instance; folding it into the tag keeps back-to-back
        # collectives from consuming each other's messages.
        self._coll_seq = 0

    # ------------------------------------------------------------------ basic
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._world.size

    def _check_rank(self, r: int, what: str) -> None:
        if not (0 <= r < self.size):
            raise CommunicationError(f"{what} {r} out of range [0, {self.size})")

    def _check_abort(self) -> None:
        if self._world.abort.is_set():
            raise CommunicationError("communicator aborted (another rank failed)")

    # --------------------------------------------------------- point-to-point
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_abort()
        self._check_rank(dest, "dest")
        self._world.mailboxes[dest].queue.put(_Envelope(self._rank, tag, obj))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        self._check_abort()
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        env = self._world.mailboxes[self._rank].take(source, tag, self._timeout)
        return env.payload

    def recv_with_source(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> tuple[int, Any]:
        """Like :meth:`recv` but also returns the sender's rank (master loops need it)."""
        self._check_abort()
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        env = self._world.mailboxes[self._rank].take(source, tag, self._timeout)
        return env.source, env.payload

    # -------------------------------------------------------------- collectives
    _COLL_TAG = -1000  # internal tag space; sequence-stamped per instance

    def _next_coll_tag(self, op: int) -> int:
        """Unique tag for this collective instance (op in 0..7)."""
        self._coll_seq += 1
        return self._COLL_TAG - self._coll_seq * 8 - op

    def barrier(self) -> None:
        self._check_abort()
        try:
            self._world.barrier.wait(timeout=self._timeout)
        except threading.BrokenBarrierError:
            raise CommunicationError("barrier broken (a rank failed or timed out)")

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_rank(root, "root")
        tag = self._next_coll_tag(1)
        if self._rank == root:
            for dest in range(self.size):
                if dest != root:
                    self.send(obj, dest, tag)
            return obj
        return self.recv(root, tag)

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_rank(root, "root")
        tag = self._next_coll_tag(2)
        if self._rank == root:
            if values is None or len(values) != self.size:
                raise CommunicationError(
                    f"scatter root needs exactly {self.size} values, got "
                    f"{None if values is None else len(values)}"
                )
            for dest in range(self.size):
                if dest != root:
                    self.send(values[dest], dest, tag)
            return values[root]
        return self.recv(root, tag)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_rank(root, "root")
        tag = self._next_coll_tag(3)
        if self._rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for _ in range(self.size - 1):
                src, payload = self.recv_with_source(ANY_SOURCE, tag)
                out[src] = payload
            return out
        self.send(obj, root, tag)
        return None

    def allgather(self, obj: Any) -> list[Any]:
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any], root: int = 0) -> Any | None:
        """Reduce with ``op`` applied in rank order (deterministic)."""
        gathered = self.gather(obj, root=root)
        if gathered is None:
            return None
        acc = gathered[0]
        for value in gathered[1:]:
            acc = op(acc, value)
        return acc

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]) -> Any:
        reduced = self.reduce(obj, op, root=0)
        return self.bcast(reduced, root=0)


def run_ranks(
    fn: Callable[..., Any],
    n_ranks: int,
    *args: Any,
    timeout: float = _DEFAULT_TIMEOUT,
) -> list[Any]:
    """SPMD launcher: run ``fn(comm, *args)`` on ``n_ranks`` threads.

    The in-process equivalent of ``mpiexec -n N python script.py``.
    Returns the per-rank return values in rank order.  If any rank
    raises, every other rank is aborted and the first exception is
    re-raised (wrapped in :class:`CommunicationError` if it is not one
    already).
    """
    if n_ranks < 1:
        raise CommunicationError(f"need >= 1 ranks, got {n_ranks}")
    world = _World(n_ranks)
    results: list[Any] = [None] * n_ranks
    errors: list[tuple[int, BaseException]] = []
    lock = threading.Lock()

    def runner(rank: int) -> None:
        comm = Communicator(world, rank, timeout=timeout)
        try:
            results[rank] = fn(comm, *args)
        except BaseException as exc:  # noqa: BLE001 - propagate any rank failure
            with lock:
                errors.append((rank, exc))
            world.abort.set()
            world.barrier.abort()

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"rank-{r}", daemon=True)
        for r in range(n_ranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout * 2)
        if t.is_alive():
            world.abort.set()
            raise CommunicationError(f"{t.name} did not terminate (deadlock?)")
    if errors:
        errors.sort(key=lambda e: e[0])
        # Prefer the root cause: a rank that failed with a real error, not
        # one that merely saw the barrier break / abort afterwards.
        root_causes = [e for e in errors if not isinstance(e[1], CommunicationError)]
        rank, exc = (root_causes or errors)[0]
        if isinstance(exc, CommunicationError):
            raise exc
        raise CommunicationError(f"rank {rank} failed: {exc!r}") from exc
    return results

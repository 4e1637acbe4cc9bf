"""Fused shard arena + reusable scoring scratch for the SPELL hot path.

Two allocation sinks would otherwise dominate the per-query cost of
the :class:`repro.spell.index.SpellIndex` scoring kernel:

* **Shard fragmentation** — the index held one independently-allocated
  normalized matrix per dataset, so a query walked a Python list of
  arrays scattered across the heap.  :class:`ShardArena` lays every
  shard's rows into **one contiguous buffer per dtype** and hands back
  zero-copy *views* (an ``offsets`` table derived from the views is
  kept for introspection).  Matmuls against a view are bit-identical to
  matmuls against the original shard (same values, same BLAS reduction
  order), which the oracle tests assert.

* **Runs** — a view *continues* the one before it when it has the same
  dtype and shape, is C-contiguous and starts where that one ends in the
  same base buffer: a fused arena's equal-shape shards are one run, reused
  views keep their old arena's runs, store mappings are runs of one.
  :meth:`ShardArena.span` hands out a stretch of a run as one array.

* **Kernel scratch** — the scoring kernel writes a block's stacked
  ``Q @ Q.T`` Grams into one pair buffer and, per run, the
  ``Xn @ Q_all.T`` product of the members the run weighs positively into
  one flat buffer (``Σ genes × columns`` elements: around a megabyte for a
  lone query, i.e. a fresh ``mmap`` and a page fault per 4 KiB if
  allocated each time).  :class:`ScoreScratch` owns both; a
  :class:`ScratchPool` free-list recycles them across queries *and
  threads* (``ThreadingHTTPServer`` runs each connection on a fresh
  thread, so thread-local storage would allocate per connection on the
  primary serving path).  The buffers are handed out
  uninitialised — the kernel overwrites every element it reads — and
  grow only when a block needs more than any before it.  A batch goes
  through the kernel in blocks of at most
  :data:`repro.spell.index.BLOCK_COLUMNS` query-gene columns, so what a
  scratch can grow to is set by the index and that constant, not by how
  many members a batch has (the wire protocol caps no batch).  The
  universe-sized accumulators are *not* pooled: they are ``np.bincount``
  outputs, fresh per member, which is also why a result can never alias
  scratch.

**Fusion discipline**: only shards that are plain in-RAM arrays
*owning their data* are fused.  Shards reopened from the persistent
store (:mod:`repro.spell.store`) are ``np.memmap`` windows whose pages
fault in lazily — copying them would read every byte and destroy the
zero-copy cold start.  And shards that are already views into a
previous index's arena (the copy-on-write ``SpellIndex.updated`` path)
are reused as-is rather than re-copied, so an incremental sync costs
O(changed shards), not O(index bytes).  Either way the consumer sees
the same thing: a list of ``(genes, conditions)`` views, cut into runs.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

__all__ = ["ShardArena", "ScoreScratch", "ScratchPool"]


class ShardArena:
    """Contiguous (when possible) storage for a list of shard matrices.

    ``views[i]`` is the i-th shard as a ``(genes, conditions)`` array.
    When every input shard is a plain in-RAM ``ndarray`` owning its data
    and sharing one dtype, the views alias one flat buffer (``fused`` is
    True); otherwise the inputs themselves serve as the views (``fused``
    is False) — the mmap and copy-on-write-reuse cases.
    ``continues[i]``: view ``i`` continues view ``i - 1`` in one run.
    """

    __slots__ = ("views", "fused", "_flat", "continues", "_runs")

    def __init__(self, shards: Sequence[np.ndarray]) -> None:
        shards = list(shards)
        self.fused = bool(shards) and all(
            s.ndim == 2 and type(s) is np.ndarray and s.base is None for s in shards
        ) and len({s.dtype for s in shards}) == 1
        if self.fused:
            total = sum(s.size for s in shards)
            flat = np.empty(total, dtype=shards[0].dtype)
            views: list[np.ndarray] = []
            pos = 0
            for s in shards:
                view = flat[pos : pos + s.size].reshape(s.shape)
                view[...] = s
                views.append(view)
                pos += s.size
            self._flat = flat
            self.views = views
        else:
            self._flat = None
            self.views = shards
        self.continues = [
            i > 0 and _continues(self.views[i - 1], view) for i, view in enumerate(self.views)
        ]
        self._runs: list[tuple[np.ndarray, int]] = []  # per view: (its run, its place)
        starts = [i for i, c in enumerate(self.continues) if not c] + [len(self.views)]
        for start, end in zip(starts, starts[1:]):
            first = np.asarray(self.views[start])
            shape, strides = (end - start, *first.shape), (first.nbytes, *first.strides)
            run = np.lib.stride_tricks.as_strided(first, shape, strides, writeable=False)
            self._runs += [(run, k) for k in range(end - start)]

    def __len__(self) -> int:
        return len(self.views)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.views[i]

    @property
    def offsets(self) -> list[int]:
        """Element offset of each view inside the flat buffer (-1 for
        every view of an unfused arena).

        Introspection only — the scoring loop addresses shards through
        :meth:`span`; this exists so tests and debuggers can verify the
        contiguous layout without poking at ``ctypes`` themselves.
        """
        if self._flat is None:
            return [-1] * len(self.views)
        start = self._flat.ctypes.data
        return [(v.ctypes.data - start) // self._flat.itemsize for v in self.views]

    def span(self, first: int, count: int) -> np.ndarray:
        """Views ``first .. first + count - 1`` of one run as one zero-copy,
        read-only ``(count, genes, conditions)`` array."""
        run, k = self._runs[first]
        return run[k : k + count]

    def nbytes(self) -> int:
        return sum(int(v.nbytes) for v in self.views)


def _continues(prev: np.ndarray, view: np.ndarray) -> bool:
    return (
        view.base is not None and view.base is prev.base
        and (view.dtype, view.shape) == (prev.dtype, prev.shape)
        and view.flags.c_contiguous and prev.flags.c_contiguous
        and view.ctypes.data == prev.ctypes.data + prev.nbytes
    )


class ScoreScratch:
    """The two work buffers of the scoring kernel, reusable.

    Sized **per block** — the stacked members one
    :meth:`~repro.spell.index.SpellIndex._score` call scores, never the
    batch they came from.  ``grams(n, dtype)`` is the pair buffer: every
    selected dataset's stacked ``Q @ Q.T`` lands in it, ``datasets ×
    members × p²`` elements, written **per run** and read back once
    **per block** for the Fisher-z/weight step.  ``flat(n, dtype)`` is
    the score buffer: **per run**, the one ``Xn @ Q_all.T`` of the members
    weighed positively in it writes its ``(datasets, genes, columns)``
    product into the next window, and the clip and the column mean run
    over all of it once **per block** (``Σ genes × columns`` elements —
    the only allocation of the kernel large enough to be served by a
    fresh ``mmap`` and faulted in page by page).  Nothing in here is
    **per member**: a member's score vector is sliced from a fresh array
    of means, its accumulators are fresh ``bincount`` outputs.  Both
    calls hand back the first ``n`` elements **uninitialised** — the
    kernel overwrites all of them — and re-allocate only to grow or when
    the shard dtype changes.
    """

    __slots__ = ("_grams", "_flat")

    def __init__(self) -> None:
        self._grams = np.empty(0, dtype=np.float64)
        self._flat = np.empty(0, dtype=np.float64)

    def _window(self, name: str, n: int, dtype) -> np.ndarray:
        buffer = getattr(self, name)
        if buffer.shape[0] < n or buffer.dtype != dtype:
            buffer = np.empty(n, dtype=dtype)
            setattr(self, name, buffer)
        return buffer[:n]

    def grams(self, n: int, dtype) -> np.ndarray:
        return self._window("_grams", n, dtype)

    def flat(self, n: int, dtype) -> np.ndarray:
        return self._window("_flat", n, dtype)

    def nbytes(self) -> int:
        """Bytes currently held (observability: set by the widest block
        scored so far, never by how many blocks a batch had)."""
        return int(self._grams.nbytes + self._flat.nbytes)


class ScratchPool:
    """A bounded free-list of :class:`ScoreScratch`, owned by the index.

    ``acquire()`` pops a recycled scratch (or builds the first one);
    ``release()`` returns it for the next query.  A free-list rather
    than thread-local storage because the primary serving transport
    (``ThreadingHTTPServer``) runs every request on a *fresh* thread —
    thread-locals there would allocate per query, exactly the cost this
    pool exists to remove.  Concurrent searches each hold their own
    scratch; the pool retains at most ``max_pooled`` idle ones (spikes
    beyond that allocate and are dropped on release).  The pool dies
    with its index, so a copy-on-write ``updated()`` swap never leaks
    scratch sized for a retired universe.
    """

    __slots__ = ("_idle", "_lock", "_max_pooled")

    def __init__(self, max_pooled: int = 32) -> None:
        self._idle: list[ScoreScratch] = []
        self._lock = threading.Lock()
        self._max_pooled = int(max_pooled)

    def acquire(self) -> ScoreScratch:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return ScoreScratch()

    def release(self, scratch: ScoreScratch) -> None:
        with self._lock:
            if len(self._idle) < self._max_pooled:
                self._idle.append(scratch)

    def idle_count(self) -> int:
        """Scratches currently parked in the free-list (observability:
        a leak shows up as this number *failing to return* to its
        steady state after queries finish, or the pool regrowing
        allocation churn; regression-tested against failing queries)."""
        with self._lock:
            return len(self._idle)

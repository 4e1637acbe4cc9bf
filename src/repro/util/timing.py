"""Lightweight wall-clock instrumentation used by benches and the wall metrics."""

from __future__ import annotations

import time


class Stopwatch:
    """Context-manager stopwatch measuring elapsed wall-clock seconds.

    Example
    -------
    >>> with Stopwatch() as sw:
    ...     _ = sum(range(1000))
    >>> sw.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Stopwatch.stop() called before start()")
        self.elapsed = time.perf_counter() - self._start
        return self.elapsed

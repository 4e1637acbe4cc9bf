"""Hedged-request policy: racing replicas against tail latency.

When a shard call has been outstanding longer than the recent latency
percentile, the same work goes to the dataset's next replica and the
first answer wins (:mod:`repro.cluster_serving.gather` decides when).
:class:`LatencyTracker` is a bounded reservoir of recent per-call RPC
latencies; :class:`HedgePolicy` turns its percentile into the hedge
delay, which the router reads once per gather.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.util.errors import ValidationError

__all__ = ["HedgePolicy", "LatencyTracker"]


class LatencyTracker:
    """Thread-safe bounded reservoir of recent call latencies (seconds)."""

    def __init__(self, maxlen: int = 256) -> None:
        if maxlen < 1:
            raise ValidationError(f"maxlen must be >= 1, got {maxlen}")
        self._samples: deque[float] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def add(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(float(seconds))

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def percentile(self, p: float) -> float | None:
        """Nearest-rank percentile of the reservoir; None when empty."""
        if not (0.0 <= p <= 100.0):
            raise ValidationError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]


@dataclass(frozen=True)
class HedgePolicy:
    """When (and how much) to hedge an outstanding replica call.

    The hedge delay is ``factor × percentile(p)`` of recently observed
    call latencies, clamped to ``[min_delay, max_delay]``; before any
    samples exist ``initial_delay`` is used.  ``max_hedges`` bounds
    extra calls per dataset per query, so hedging can at most double
    (with the default 1) the call volume for the affected datasets —
    and only for requests actually stuck in the tail; 0 disables hedging.
    """

    percentile: float = 95.0
    factor: float = 1.0
    min_delay: float = 0.01
    max_delay: float = 2.0
    initial_delay: float = 0.05
    max_hedges: int = 1

    def __post_init__(self) -> None:
        if not (0.0 <= self.percentile <= 100.0):
            raise ValidationError(f"percentile must be in [0, 100], got {self.percentile}")
        if self.factor <= 0:
            raise ValidationError(f"factor must be > 0, got {self.factor}")
        if not (0.0 <= self.min_delay <= self.max_delay):
            raise ValidationError("need 0 <= min_delay <= max_delay")
        if self.max_hedges < 0:
            raise ValidationError(f"max_hedges must be >= 0, got {self.max_hedges}")

    @property
    def enabled(self) -> bool:
        return self.max_hedges > 0

    @classmethod
    def disabled(cls) -> "HedgePolicy":
        return cls(max_hedges=0)

    def delay(self, tracker: LatencyTracker) -> float:
        """Seconds an outstanding call may age before its hedge fires."""
        observed = tracker.percentile(self.percentile)
        if observed is None:
            return max(self.min_delay, min(self.initial_delay, self.max_delay))
        return max(self.min_delay, min(self.factor * observed, self.max_delay))

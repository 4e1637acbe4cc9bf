"""Node membership, heartbeats, and fan-out with explicit partial results.

A :class:`Membership` is the coordinator-side table of remote nodes: one
:class:`~repro.rpc.client.RpcClient` per node plus liveness state fed by
every call and by explicit :meth:`heartbeat` sweeps.  Its core primitive
is :meth:`scatter` — issue one call per node concurrently, each with its
own timeout, and return a :class:`ScatterResult` whose ``ok``/``failed``
maps account for *every* node addressed.  Degradation is therefore
always structured: a dead node shows up in ``failed`` with its error
string; nothing is silently cut from the result set.  The display wall's
tile fan-out and :meth:`heartbeat` are built on this.

Fault policy lives here too, because the membership table is the one
place that sees every call to every node:

- transport failures are retried per :class:`~repro.rpc.policy.RetryPolicy`
  (jittered exponential backoff, idempotent calls only — pass
  ``retry=RetryPolicy.none()`` per call to opt out);
- each node gets a :class:`~repro.rpc.policy.CircuitBreaker`; once it
  opens, calls fail fast with ``circuit open`` instead of burning a
  connect timeout per request.  ``__ping__`` probes bypass the open
  gate — an explicit :meth:`heartbeat` is how a recovered node heals
  its breaker immediately (the per-call half-open probe is the
  time-based fallback);
- every wait is clamped by the caller's
  :class:`~repro.util.deadline.Deadline` so one request chain never
  spends more than its end-to-end budget.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.rpc.client import RpcClient
from repro.rpc.policy import CircuitBreaker, RetryPolicy
from repro.rpc.server import RpcHandlerError
from repro.util.deadline import Deadline, DeadlineExceeded
from repro.util.errors import RpcError, ValidationError

__all__ = ["Membership", "NodeState", "ScatterResult"]

_DEFAULT_TIMEOUT = 30.0


@dataclass
class NodeState:
    """Coordinator-side view of one remote node."""

    node_id: str
    host: str
    port: int
    alive: bool = True
    consecutive_failures: int = 0
    last_ok: float | None = None  # monotonic timestamp of last success
    last_error: str | None = None
    info: dict = field(default_factory=dict)  # latest heartbeat payload

    def as_dict(self) -> dict:
        """JSON-safe snapshot for health reporting."""
        return {
            "node_id": self.node_id,
            "address": f"{self.host}:{self.port}",
            "alive": self.alive,
            "consecutive_failures": self.consecutive_failures,
            "lag_seconds": (
                None if self.last_ok is None else round(time.monotonic() - self.last_ok, 3)
            ),
            "last_error": self.last_error,
            "info": dict(self.info),
        }


@dataclass(frozen=True)
class ScatterResult:
    """Per-node outcome of one fan-out; every addressed node appears once."""

    ok: dict[str, Any]
    failed: dict[str, str]

    @property
    def complete(self) -> bool:
        return not self.failed


class Membership:
    """A table of RPC nodes with liveness tracking and concurrent fan-out."""

    def __init__(
        self,
        nodes: Mapping[str, tuple[str, int]] | Iterable[tuple[str, str, int]],
        *,
        timeout: float = _DEFAULT_TIMEOUT,
        retry: RetryPolicy | None = None,
        breaker_failure_threshold: int = 3,
        breaker_reset_timeout: float = 3.0,
        seed: int = 0,
    ) -> None:
        if isinstance(nodes, Mapping):
            entries = [(nid, host, port) for nid, (host, port) in nodes.items()]
        else:
            entries = [(nid, host, port) for nid, host, port in nodes]
        if not entries:
            raise ValidationError("membership needs at least one node")
        seen: set[str] = set()
        for nid, _h, _p in entries:
            if nid in seen:
                raise ValidationError(f"duplicate node id {nid!r}")
            seen.add(nid)
        self.timeout = float(timeout)
        self.retry = RetryPolicy() if retry is None else retry
        self._rng = random.Random(seed)
        self._states: dict[str, NodeState] = {}
        self._clients: dict[str, RpcClient] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()
        for nid, host, port in entries:
            self._states[nid] = NodeState(node_id=nid, host=host, port=int(port))
            self._clients[nid] = RpcClient(host, int(port), timeout=self.timeout)
            self._breakers[nid] = CircuitBreaker(
                failure_threshold=breaker_failure_threshold,
                reset_timeout=breaker_reset_timeout,
            )

    # ---------------------------------------------------------------- queries
    @property
    def node_ids(self) -> list[str]:
        return list(self._states)

    def state(self, node_id: str) -> NodeState:
        try:
            return self._states[node_id]
        except KeyError:
            raise ValidationError(f"unknown node {node_id!r}") from None

    def alive_ids(self) -> list[str]:
        return [nid for nid, st in self._states.items() if st.alive]

    def stats(self) -> dict[str, dict]:
        """Per-node snapshots for the ``/v1/health`` ``shards`` field."""
        out = {}
        for nid, st in self._states.items():
            snap = st.as_dict()
            snap["breaker"] = self._breakers[nid].snapshot()
            out[nid] = snap
        return out

    def breaker(self, node_id: str) -> CircuitBreaker:
        try:
            return self._breakers[node_id]
        except KeyError:
            raise ValidationError(f"unknown node {node_id!r}") from None

    # ------------------------------------------------------------------ calls
    def call(
        self,
        node_id: str,
        method: str,
        payload: Any = None,
        *,
        timeout: float | None = None,
        deadline: Deadline | None = None,
        retry: RetryPolicy | None = None,
    ) -> Any:
        """One call to one node, updating liveness and breaker state.

        :class:`RpcHandlerError` (the remote handler raised) counts as a
        *live* node — it answered — so only transport failures mark a
        node down or trip its breaker.  Transport failures are retried
        per the policy (membership default unless overridden); every try
        and every backoff sleep is clamped to ``deadline``.  ``__ping__``
        bypasses an open breaker: it *is* the probe.
        """
        state = self.state(node_id)
        client = self._clients[node_id]
        breaker = self._breakers[node_id]
        policy = self.retry if retry is None else retry
        budget = Deadline.never() if deadline is None else deadline
        attempt = 0
        while True:
            attempt += 1
            budget.check(f"call {method!r} on {node_id}")
            if method != "__ping__" and not breaker.allow():
                raise RpcError(f"circuit open for node {node_id}")
            per_try = budget.clamp(self.timeout if timeout is None else float(timeout))
            try:
                result = client.call(method, payload, timeout=per_try)
            except RpcHandlerError:
                breaker.record_success()
                self._mark_ok(state, info=None)
                raise
            except RpcError as exc:
                breaker.record_failure()
                self._mark_failed(state, str(exc))
                if attempt >= policy.max_tries:
                    raise
                delay = policy.delay(attempt, self._rng)
                remaining = budget.remaining()
                if remaining is not None and delay >= remaining:
                    raise  # no budget left to back off and retry
                if delay > 0:
                    time.sleep(delay)
                continue
            breaker.record_success()
            self._mark_ok(state, info=None)
            return result

    def scatter(
        self,
        calls: Mapping[str, tuple[str, Any]],
        *,
        timeout: float | None = None,
        deadline: Deadline | None = None,
        retry: RetryPolicy | None = None,
    ) -> ScatterResult:
        """Issue ``{node_id: (method, payload)}`` concurrently.

        Each node gets its own thread and timeout; the result maps every
        addressed node into ``ok`` or ``failed`` — partial degradation
        is explicit, never a silent cut.  A spent deadline lands the
        node in ``failed`` too; the caller decides whether that becomes
        a partial result or a structured ``DEADLINE_EXCEEDED``.
        """
        ok: dict[str, Any] = {}
        failed: dict[str, str] = {}
        lock = threading.Lock()

        def one(nid: str, method: str, payload: Any) -> None:
            try:
                result = self.call(
                    nid, method, payload, timeout=timeout, deadline=deadline, retry=retry
                )
            except (RpcError, DeadlineExceeded) as exc:  # RpcError incl. RpcHandlerError
                with lock:
                    failed[nid] = str(exc)
                return
            with lock:
                ok[nid] = result

        threads = [
            threading.Thread(
                target=one, args=(nid, method, payload), name=f"scatter-{nid}", daemon=True
            )
            for nid, (method, payload) in calls.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return ScatterResult(ok=ok, failed=failed)

    def heartbeat(self, *, timeout: float = 5.0) -> ScatterResult:
        """Ping every node, refreshing alive flags, breakers, and info.

        Pings bypass open breakers (single attempt, no retry): a sweep
        after a shard restart immediately closes its breaker and brings
        it back into routing without waiting out the reset timeout.
        """
        result = self.scatter(
            {nid: ("__ping__", None) for nid in self._states},
            timeout=timeout,
            retry=RetryPolicy.none(),
        )
        for nid, info in result.ok.items():
            if isinstance(info, dict):
                with self._lock:
                    self._states[nid].info = info
        return result

    # -------------------------------------------------------------- liveness
    def _mark_ok(self, state: NodeState, info: dict | None) -> None:
        with self._lock:
            state.alive = True
            state.consecutive_failures = 0
            state.last_ok = time.monotonic()
            state.last_error = None
            if info is not None:
                state.info = info

    def _mark_failed(self, state: NodeState, error: str) -> None:
        with self._lock:
            state.alive = False
            state.consecutive_failures += 1
            state.last_error = error

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        for client in self._clients.values():
            client.close()

    def __enter__(self) -> "Membership":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

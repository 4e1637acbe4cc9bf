"""What the socket drivers share below the request pipeline.

Both serving facades — the threaded :mod:`repro.api.http` and the
asyncio :mod:`repro.api.aio` tier — are socket drivers under one
:mod:`repro.api.pipeline`, and operating them side by side needs the
same things from each:

* **Body framing** (:func:`declared_body_length`): how many body bytes
  a request head declares — the one rule the stdlib-parsed threaded
  driver and the hand-rolled :mod:`repro.api.aio.http11` parser must
  never disagree on.  Responses need no such rule: every one, an export
  included, is complete before it is sent and states its
  ``Content-Length``.
* **Counters** (:class:`TransportStats`): open/total connections,
  keep-alive reuse, observed pipeline depth, in-flight requests, how
  many requests were finished *during* a drain, how many an event-loop
  facade answered inline (without its executor), how often it paused
  reading (a full pipelining window) or writing (a client not reading),
  and how many connections it closed at the idle bound.  A facade
  registers its snapshot on the backend
  (``service.register_transport_stats(label, stats.snapshot)``), so
  ``/v1/health``'s append-only ``serving.transport`` field reports the
  live transport no matter which facade answered the probe.
* **The idle bound** (:data:`IDLE_SECONDS`): how long a connection that
  owes no answer may stay silent before its driver closes it.
* **The drain contract** (:meth:`TransportStats.begin_drain` +
  :meth:`TransportStats.wait_idle`): on SIGTERM / ``close()`` a facade
  first stops accepting work, then waits — bounded — for every
  in-flight request to finish writing its response.  An in-flight
  response is never dropped by a graceful shutdown; only the timeout
  (a wedged handler) abandons the wait, and the facade reports it.

The counters are plain lock-guarded integers: both facades mutate them
from whatever concurrency primitive they use (handler threads, the
event loop), and an uncontended lock costs nanoseconds next to a socket
write.
"""

from __future__ import annotations

import threading
import time
from typing import Mapping

__all__ = [
    "DEFAULT_DRAIN_SECONDS",
    "IDLE_SECONDS",
    "TransportStats",
    "declared_body_length",
    "retry_after_headers",
]

def declared_body_length(headers: Mapping[str, str]) -> int:
    """Body bytes a request head declares (``headers`` keys lower-cased).

    Raises :class:`ValueError` for a body that cannot be framed:

    * ``Transfer-Encoding`` — the v1 surface has no streaming
      *requests*, and a chunked body would make the declared-length body
      cap meaningless;
    * a ``Content-Length`` that is not RFC 9110's ``1*DIGIT`` — Python's
      ``int()`` also accepts ``'+5'``, ``' 5'`` and ``'1_0'``, and a
      parser more lenient than the proxy in front of it is the
      request-smuggling precondition.
    """
    if "transfer-encoding" in headers:
        raise ValueError(
            "chunked request bodies are not supported; send Content-Length"
        )
    raw = headers.get("content-length")
    if raw is None:
        return 0
    if not raw or not all(c in "0123456789" for c in raw):
        raise ValueError(f"bad Content-Length {raw!r}")
    return int(raw)


def retry_after_headers(body: dict) -> dict:
    """The ``Retry-After`` header a ``RATE_LIMITED`` error body implies.

    Derived from the error payload, so the header always agrees with the
    body: whole seconds, rounded up, from the precise ``retry_after_ms`` the
    body carries for clients that parse JSON.
    """
    error = body.get("error") if isinstance(body, dict) else None
    if isinstance(error, dict) and error.get("code") == "RATE_LIMITED":
        retry_ms = error.get("details", {}).get("retry_after_ms", 1000)
        return {"Retry-After": str(max(1, -(-int(retry_ms) // 1000)))}
    return {}

#: Default bound on how long a graceful shutdown waits for in-flight
#: requests.  Generous — a warm request is microseconds of service time;
#: only a genuinely wedged handler ever gets near it.
DEFAULT_DRAIN_SECONDS = 10.0

#: The idle bound both drivers hold a connection to: one that owes no
#: answer and has been silent this long — a parked keep-alive client, a
#: half-sent head or body alike — is closed, so a slow-loris client
#: cannot pin a handler thread or a ``max_connections`` slot forever.
IDLE_SECONDS = 60.0


class TransportStats:
    """Connection/request counters plus the graceful-drain rendezvous.

    Lifecycle calls a facade makes:

    * ``connection_opened()`` / ``connection_closed()`` around each
      client connection;
    * ``request_started(reused=..., depth=...)`` when a request is
      admitted to processing (``reused`` marks a keep-alive connection's
      second-or-later request, ``depth`` is how many requests the
      connection currently has parsed-but-unanswered — >1 means the
      client is pipelining);
    * ``request_finished()`` after the response bytes are written (or
      the connection died trying) — **always** paired with
      ``request_started``.

    ``begin_drain()`` flags shutdown (new work should be refused by the
    facade) and ``wait_idle(timeout)`` blocks until in-flight hits zero;
    requests finishing between the two are counted as ``drained``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self.open_connections = 0
        self.total_connections = 0
        self.keepalive_reuses = 0
        self.pipelined_max_depth = 0
        self.in_flight = 0
        self.requests_total = 0
        self.drained_requests = 0
        self.inline_responses = 0
        self.read_pauses = 0
        self.write_pauses = 0
        self.idle_closed = 0
        self.draining = False

    # ------------------------------------------------------------ lifecycle
    def connection_opened(self) -> None:
        with self._lock:
            self.open_connections += 1
            self.total_connections += 1

    def connection_closed(self) -> None:
        with self._lock:
            self.open_connections = max(0, self.open_connections - 1)

    def request_started(self, *, reused: bool = False, depth: int = 1) -> None:
        with self._lock:
            self.in_flight += 1
            self.requests_total += 1
            if reused:
                self.keepalive_reuses += 1
            if depth > self.pipelined_max_depth:
                self.pipelined_max_depth = int(depth)

    def answered_inline(self) -> None:
        """An event-loop facade answered a request where it stood — no
        executor submission (a thread-per-request facade never calls it)."""
        with self._lock:
            self.inline_responses += 1

    def reading_paused(self) -> None:
        """A connection hit its pipelining window (``pause_reading``)."""
        with self._lock:
            self.read_pauses += 1

    def writing_paused(self) -> None:
        """A client stopped reading its answers (``pause_writing``)."""
        with self._lock:
            self.write_pauses += 1

    def closed_idle(self) -> None:
        """A connection was closed at the idle bound."""
        with self._lock:
            self.idle_closed += 1

    def request_finished(self) -> None:
        with self._idle:
            self.in_flight = max(0, self.in_flight - 1)
            if self.draining:
                self.drained_requests += 1
            if self.in_flight == 0:
                self._idle.notify_all()

    # ---------------------------------------------------------------- drain
    def begin_drain(self) -> int:
        """Mark shutdown started; returns the in-flight count to drain."""
        with self._lock:
            self.draining = True
            return self.in_flight

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is in flight; True when fully drained.

        ``False`` means the timeout elapsed with work still in flight —
        the facade is allowed to shut down anyway (the bound exists so a
        wedged handler cannot hold shutdown hostage), but it should
        surface the abandonment.
        """
        deadline = time.monotonic() + max(0.0, float(timeout))
        with self._idle:
            while self.in_flight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    # ---------------------------------------------------------------- stats
    def snapshot(self) -> dict:
        """Counter snapshot for ``/v1/health`` (``serving.transport``)."""
        with self._lock:
            return {
                "open_connections": self.open_connections,
                "total_connections": self.total_connections,
                "keepalive_reuses": self.keepalive_reuses,
                "pipelined_max_depth": self.pipelined_max_depth,
                "in_flight": self.in_flight,
                "requests_total": self.requests_total,
                "drained_requests": self.drained_requests,
                "draining": self.draining,
                "inline_responses": self.inline_responses,
                "read_pauses": self.read_pauses,
                "write_pauses": self.write_pauses,
                "idle_closed": self.idle_closed,
            }

"""Event-loop socket driver for the v1 API (one loop, one listening socket).

This is the asyncio half of the serving tier: a hand-rolled accept loop
(``loop.sock_accept`` on a socket the server binds itself, optionally
with ``SO_REUSEPORT`` so N worker processes share one port) that hands
each accepted socket to the loop as one ``asyncio.BufferedProtocol``.
The transport keeps the fd registered for the connection's life, so **a
request is a callback**: ``data_received`` feeds the incremental parser
(:mod:`repro.api.aio.http11`), plans the request on its head
(:func:`~repro.api.pipeline.plan_request` — admission control runs
there, before the body is waited for), buffers the declared body and
answers from the front of the connection's window, strictly in request
order.  A result-cache hit is ``epoll_wait``, ``recv``, ``send`` and
nothing else: no task, no future, no queue.

**What this module decides** is how bytes move and where code runs:
the pipeline's :func:`~repro.api.pipeline.ready` phase runs **on the
loop** — everything that cannot wait, which for a hit is the whole
answer — and only when that returns ``None`` is
:func:`~repro.api.pipeline.compute` — the kernel, the index worker
pool's pipes, the sharded router's sockets, tenant loads, ingest,
renders, encoding or resuming an export — submitted to a bounded
thread-pool executor
(``aio-dispatch`` threads), one call per connection at a time, whose
done-callback writes the answer in one ``transport.write`` and carries
on.  So hundreds of connections stay responsive while a handful of
requests compute, and nothing that can wait runs on the loop.  **What
it does not decide** is anything about the request: routing, the gate,
body rules, error bodies, headers and the close decision are
:mod:`repro.api.pipeline`'s, the same code the threaded driver
(:mod:`repro.api.http`) runs as one ``respond``.

**Where backpressure lives.**  Reading: at ``pipeline_depth``
parsed-but-unanswered requests the connection calls ``pause_reading``
(the kernel's receive buffer fills and TCP stalls the client) and
resumes below it.  Writing: a client that stops reading fills the
transport's buffer to its high-water mark; from ``pause_writing`` to
``resume_writing`` the connection answers nothing more and starts no
``compute``.  Silence: a connection that owes no answer and has sent
nothing for :data:`~repro.api.transport.IDLE_SECONDS` is closed by one
per-server sweep timer.

Graceful drain (the contract in :mod:`repro.api.transport`):
``shutdown()`` stops accepting, closes idle keep-alive connections,
lets every parsed-and-admitted request finish writing its response
(bounded by ``drain_seconds``), and only then tears the loop down — an
in-flight response is never dropped.
"""

from __future__ import annotations

import asyncio
import os
import socket
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from repro.api.app import ApiApp
from repro.api.errors import ApiError
from repro.api.pipeline import Plan, Response, compute, plan_request, read_body, ready
from repro.api.transport import DEFAULT_DRAIN_SECONDS, IDLE_SECONDS, TransportStats
from repro.api.aio.http11 import ProtocolError, RequestParser, encode_response

__all__ = ["AioApiServer", "serve", "serve_background"]

#: Bytes asked of the socket per read, into the loop's one receive buffer:
#: a pipelined burst of small requests arrives in one syscall (asyncio's
#: own default allocates 256 KiB per ``recv``, ~12 us of every request).
_RECV_BYTES = 1 << 16

#: Default per-connection pipelining window (parsed-but-unanswered
#: requests); a full window pauses reading (TCP backpressure).
DEFAULT_PIPELINE_DEPTH = 8

#: Default cap on concurrently served connections; at the cap the accept
#: loop pauses (SYN backlog holds the overflow) instead of growing
#: per-connection state without bound.
DEFAULT_MAX_CONNECTIONS = 512


class _Connection(asyncio.BufferedProtocol):
    """One client connection: the loop calls, the connection answers.

    ``window`` holds the requests parsed and admitted but not yet fully
    answered, in arrival order; only its front is ever answered, so
    responses leave in request order and at most one executor call
    (``waiting``) belongs to a connection at a time.  Every path out — a
    ``Connection: close`` answer, a half-close, a reset, a drain — ends
    in :meth:`_teardown`: the books balance, the slot goes back.
    """

    def __init__(self, server: "AioApiServer", addr, release) -> None:
        self.server = server
        self.peer = str(addr[0]) if addr else "unknown"
        self.release = release  # hands the max_connections slot back
        self.transport: asyncio.Transport | None = None
        self.parser = RequestParser()
        self.window: deque[tuple[Plan, bool]] = deque()  # (plan, client allows reuse)
        self.pending = None  # (head, plan) admitted on its head, body still arriving
        self.seen = 0  # requests admitted on this connection, ever
        self.parsing = True  # False: nothing further on this stream is trusted
        self.waiting = False  # an executor call of this connection is outstanding
        self.can_write = True  # False between pause_writing and resume_writing
        self.paused = False  # reading is paused at the pipelining window
        self.yielded = False  # a continuation of _pump is already scheduled
        self.eof = False  # the client half-closed: answer what is owed, then close
        self.touched = 0.0  # loop time of the last byte in or executor call back

    # ---------------------------------------------------- the loop's callbacks
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.touched = self.server._loop.time()
        self.server._connections.add(self)
        self.server.stats.connection_opened()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.server._recv  # shared: buffer_updated copies out at once

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self.server._recv[:nbytes])

    def data_received(self, data) -> None:
        self.touched = self.server._loop.time()
        if self.parsing:
            self.parser.feed(data)
            if not self.yielded:
                self._pump()

    def eof_received(self) -> bool:
        self.eof = True
        if self.pending is not None:
            (head, plan), self.pending = self.pending, None
            read_body(plan, b"")  # went away mid-body; read_body reports it
            self._admit(plan, head.keep_alive)
        self._pump()
        return bool(self.window)  # keep the write side open while an answer is owed

    def pause_writing(self) -> None:
        self.can_write = False
        self.server.stats.writing_paused()

    def resume_writing(self) -> None:
        self.can_write = True
        self._pump()

    def connection_lost(self, exc) -> None:
        self.transport = None
        if not self.waiting:
            self._teardown()

    # ------------------------------------------------------------------ parse
    def _fill(self) -> None:
        """Parse buffered bytes into the window: admit on the head, then its body."""
        server = self.server
        while self.parsing and len(self.window) < server.pipeline_depth:
            if self.pending is None:
                try:
                    head = self.parser.poll_head()
                except ProtocolError as exc:
                    self._admit(Plan(error=ApiError(exc.code, exc.message)), False)
                    return
                if head is None:
                    return
                self.pending = head, plan_request(
                    server.app, head.method, head.target, head.headers, self.peer
                )
            head, plan = self.pending
            body = self.parser.poll_body(head) if plan.body_bytes else b""
            if body is None:
                return
            self.pending = None
            read_body(plan, body)
            self._admit(plan, head.keep_alive)

    def _admit(self, plan: Plan, keep_alive: bool) -> None:
        self.seen += 1
        self.window.append((plan, keep_alive))
        self.server.stats.request_started(reused=self.seen > 1, depth=len(self.window))
        if plan.error is not None:
            # unframeable, or refused with its body unread: never resynced
            self.parsing = False

    # ----------------------------------------------------------------- answer
    def _pump(self) -> None:
        """Answer from the front of the window until something must be
        waited for: the executor, the client's reads, or the loop's turn."""
        self.yielded = False
        server = self.server
        inline = 0
        while self.transport is not None:
            self._fill()
            if self.waiting or not self.can_write or not self.window:
                break
            if inline >= server.pipeline_depth:
                # a burst of hits waits on nothing: give the loop a turn
                # once per window so one client cannot monopolise it
                self.yielded = True
                server._loop.call_soon(self._pump)
                break
            plan, keep_alive = self.window[0]
            phase = dict(keep_alive=keep_alive, draining=server._draining)
            # what cannot wait is answered right here, on the loop; only
            # what may wait costs a thread hop
            response = ready(server.app, plan, **phase)
            if response is None:
                work = partial(compute, server.app, plan, **phase)
                server._loop.run_in_executor(server._executor, work).add_done_callback(
                    self._landed
                )
                self.waiting = True
                break
            server.stats.answered_inline()
            inline += 1
            self._finish(response)
        # leave the callback with reading in the state the window asks for
        full = len(self.window) >= server.pipeline_depth
        if full != self.paused and self.transport is not None and not self.eof:
            self.paused = full
            if full:
                self.transport.pause_reading()
                server.stats.reading_paused()
            else:
                self.transport.resume_reading()

    def _landed(self, future) -> None:
        """``compute`` landed: write its response and carry on."""
        self.waiting = False
        self.touched = self.server._loop.time()
        try:
            response = future.result()
        except Exception as exc:  # noqa: BLE001 — the pipeline answers its own failures
            self.server._log(f"dropping {self.peer}: executor call failed: {exc!r}")
            response = None
        if self.transport is None:
            return self._teardown()
        if response is None:
            return self.transport.abort()
        self._finish(response)
        self._pump()

    def _finish(self, response: Response) -> None:
        """Write the front request's answer in one write; retire it."""
        self.transport.write(encode_response(
            response.status, response.body, response.content_type,
            extra_headers=response.headers, close=response.close,
        ))
        self.window.popleft()
        self.server.stats.request_finished()
        if response.close or not self.window and (self.eof or self.server._draining):
            self.parsing = False
            self._forget()
            self.transport.close()  # flushes what is buffered first

    # ------------------------------------------------------------------- exit
    def quiet_since(self, cutoff: float) -> bool:
        """Nothing parsed-and-unanswered, and no byte since ``cutoff``."""
        return self.transport is not None and not self.window and self.touched <= cutoff

    def _forget(self) -> None:
        """Admitted requests that will never be answered still balance."""
        while self.window:
            self.window.popleft()
            self.server.stats.request_finished()

    def _teardown(self) -> None:
        """The client is gone and nothing of it is left on the executor."""
        self._forget()
        self.server._connections.discard(self)
        self.server.stats.connection_closed()
        self.release()


class AioApiServer:
    """One event loop serving the v1 API; N of these share a port.

    The listening socket is bound in the constructor (so ``port=0``
    resolves immediately, like the threaded facade); the loop work —
    accepting, parsing, dispatching — happens inside
    :meth:`serve_forever`, which runs until :meth:`shutdown`.

    ``reuse_port=True`` sets ``SO_REUSEPORT`` before binding: start one
    server (process) per core on the same port and the kernel load
    balances accepted connections across their accept queues — the
    multi-loop topology :mod:`repro.api.aio.supervisor` manages.
    """

    #: Seconds a connection that owes no answer may stay silent.
    idle_seconds = IDLE_SECONDS

    def __init__(
        self,
        app: ApiApp,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool = False,
        pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        executor_threads: int | None = None,
        drain_seconds: float = DEFAULT_DRAIN_SECONDS,
        transport_label: str = "aio",
        quiet: bool = True,
    ) -> None:
        self.app = app
        self.pipeline_depth = max(1, int(pipeline_depth))
        self.max_connections = max(1, int(max_connections))
        self.drain_seconds = float(drain_seconds)
        self.quiet = bool(quiet)
        self.stats = TransportStats()
        self.transport_label = str(transport_label)
        self._executor_threads = executor_threads
        self._executor = None  # created on the loop, torn down with it
        self._loop: asyncio.AbstractEventLoop | None = None
        self._serve_task: asyncio.Task | None = None
        self._draining = False
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._connections: set[_Connection] = set()
        self._recv = memoryview(bytearray(_RECV_BYTES))  # the loop reads one socket at a time
        self._sweeper: asyncio.TimerHandle | None = None

        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if reuse_port:
                if not hasattr(socket, "SO_REUSEPORT"):
                    raise OSError("SO_REUSEPORT is not available on this platform")
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((host, port))
            sock.listen(128)
            sock.setblocking(False)
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self.server_address = sock.getsockname()

        app.service.register_transport_stats(self.transport_label, self.stats.snapshot)

    # ------------------------------------------------------------------ serve
    async def serve_forever(self) -> None:
        """Accept and serve until :meth:`shutdown` (or task cancellation)."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._serve_task = asyncio.current_task()
        threads = self._executor_threads
        if threads is None:
            threads = max(4, os.cpu_count() or 1)
        self._executor = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="aio-dispatch"
        )
        slots = asyncio.Semaphore(self.max_connections)
        self._sweep()
        self._started.set()
        try:
            while True:
                await slots.acquire()  # accept pause at the connection cap
                try:
                    conn, addr = await loop.sock_accept(self._sock)
                except (asyncio.CancelledError, OSError):
                    slots.release()
                    raise
                # the slot is the connection's now: _teardown returns it,
                # also if this await is cancelled (asyncio closes the transport)
                await loop.connect_accepted_socket(
                    partial(_Connection, self, addr, slots.release), conn
                )
        except asyncio.CancelledError:
            pass
        finally:
            await self._drain_and_close()
            self._executor.shutdown(wait=False)
            self._stopped.set()

    def _sweep(self) -> None:
        """The idle bound: one timer per server, never one per request."""
        cutoff = self._loop.time() - self.idle_seconds
        for conn in list(self._connections):
            if conn.quiet_since(cutoff):
                if conn.transport.is_closing():
                    conn.transport.abort()  # a whole bound and its close has not flushed
                else:
                    self.stats.closed_idle()
                    conn.transport.close()
        self._sweeper = self._loop.call_later(self.idle_seconds / 4, self._sweep)

    async def _drain_and_close(self) -> None:
        """The drain contract: finish in-flight responses, then tear down."""
        self._draining = True
        self._sock.close()
        self._sweeper.cancel()
        self.stats.begin_drain()
        # idle connections hold no in-flight work; every other one closes
        # itself behind its next answer, once those bytes are flushed
        for conn in list(self._connections):
            if conn.quiet_since(self._loop.time()):
                conn.transport.close()
        await asyncio.sleep(0)  # their connection_lost callbacks run first
        deadline = self._loop.time() + self.drain_seconds
        while self._connections:
            if self._loop.time() >= deadline:
                self._log(
                    f"drain timeout: abandoning "
                    f"{self.stats.snapshot()['in_flight']} request(s)"
                )
                break
            await asyncio.sleep(0.01)
        for conn in list(self._connections):
            if conn.transport is not None:
                conn.transport.abort()
        await asyncio.sleep(0)  # let their connection_lost callbacks run

    # -------------------------------------------------------------- plumbing
    def _log(self, message: str) -> None:
        if not self.quiet:
            sys.stderr.write(f"repro.api.aio: {message}\n")

    # ------------------------------------------------------------- lifecycle
    async def shutdown(self) -> None:
        """Graceful drain from inside the loop (signal handlers land here)."""
        self._draining = True
        # cancelling serve_forever's accept wait routes through
        # _drain_and_close exactly once; the task was recorded by
        # serve_forever itself, so every launch style — asyncio.run,
        # serve_background, the supervisor — is covered
        task = self._serve_task
        if task is not None and task is not asyncio.current_task() and not task.done():
            task.cancel()

    def close(self, *, drain: bool = True, timeout: float | None = None) -> bool:
        """Thread-safe shutdown for callers outside the loop (tests, CLI).

        With ``drain=True`` (default) the server honors the drain
        contract before stopping; returns once the loop has fully torn
        down (bounded by ``timeout`` + drain budget).  The server's
        transport probe then leaves ``/v1/health``.
        """
        if not drain:
            self.drain_seconds = 0.0
        loop = self._loop
        if loop is None or self._stopped.is_set():
            self._sock.close()
            stopped = True
        else:
            loop.call_soon_threadsafe(self._cancel_serve)
            budget = (timeout if timeout is not None else self.drain_seconds) + 5.0
            stopped = self._stopped.wait(budget)
        self.app.service.unregister_transport_stats(self.transport_label, self.stats.snapshot)
        return stopped

    def _cancel_serve(self) -> None:
        task = self._serve_task
        if task is not None and not task.done():
            task.cancel()


def serve(app: ApiApp, *, host: str = "127.0.0.1", port: int = 0,
          **kwargs) -> AioApiServer:
    """Bind (but do not run) an asyncio server for ``app``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address``.  Run ``asyncio.run(server.serve_forever())``
    (or use :func:`serve_background`) to start answering.
    """
    return AioApiServer(app, host=host, port=port, **kwargs)


def serve_background(app: ApiApp, *, host: str = "127.0.0.1", port: int = 0,
                     **kwargs) -> tuple[AioApiServer, threading.Thread]:
    """Bind and serve on a daemon thread running a private event loop."""
    server = serve(app, host=host, port=port, **kwargs)

    def _run() -> None:
        asyncio.run(server.serve_forever())

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    server._started.wait(10)
    return server, thread

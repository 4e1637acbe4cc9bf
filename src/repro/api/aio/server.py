"""Event-loop socket driver for the v1 API (one loop, one listening socket).

This is the asyncio half of the serving tier: a hand-rolled accept loop
(``loop.sock_accept`` on a socket the server binds itself, optionally
with ``SO_REUSEPORT`` so N worker processes share one port), per
connection a **reader** coroutine (incremental HTTP/1.1 parsing via
:mod:`repro.api.aio.http11`) and a **responder** coroutine (in-order
dispatch and response writing) joined by a bounded queue — the queue
*is* the per-connection pipelining window, and a full queue stops the
reader, which stops ``sock_recv``, which is TCP backpressure.

**What this module decides** is how bytes move and where code runs:
the reader plans each request on its head
(:func:`~repro.api.pipeline.plan_request` — admission control runs
there, before the body is read) and buffers the declared body; the
responder runs the pipeline's :func:`~repro.api.pipeline.ready` phase
**on the loop** — everything that cannot wait, which for a result-cache
hit is the whole answer, written without leaving the loop thread — and
only when that returns ``None`` submits
:func:`~repro.api.pipeline.compute` — the kernel, the index worker
pool's pipes, the sharded router's sockets, tenant loads, ingest,
export chunks, renders — to a bounded thread-pool executor
(``aio-dispatch`` threads).  So the loop answers what is already in
memory at loop speed, hundreds of connections stay responsive while a
handful of requests compute, and nothing that can wait runs on the
loop.  **What it does not decide** is anything about the request:
routing, the gate, body rules, error bodies, headers and the close
decision are :mod:`repro.api.pipeline`'s, the same code the threaded
driver (:mod:`repro.api.http`) runs as one ``respond`` call.

Graceful drain (the contract in :mod:`repro.api.transport`):
``shutdown()`` stops accepting, lets every parsed-and-admitted request
finish writing its response (bounded by ``drain_seconds``), closes idle
keep-alive connections, and only then tears the loop down — an
in-flight response is never dropped.
"""

from __future__ import annotations

import asyncio
import os
import socket
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

from repro.api.app import ApiApp
from repro.api.errors import ApiError
from repro.api.pipeline import Plan, compute, plan_request, read_body, ready
from repro.api.transport import DEFAULT_DRAIN_SECONDS, TransportStats
from repro.api.aio.http11 import (
    CHUNKED_EOF,
    ProtocolError,
    RequestHead,
    RequestParser,
    encode_chunk,
    encode_response,
    encode_stream_head,
)

__all__ = ["AioApiServer", "serve", "serve_background"]

#: Bytes asked of the socket per read — large enough that a pipelined
#: burst of small requests arrives in one syscall.
_RECV_BYTES = 1 << 16

#: Default per-connection pipelining window (parsed-but-unanswered
#: requests); a full window pauses the reader (TCP backpressure).
DEFAULT_PIPELINE_DEPTH = 8

#: Default cap on concurrently served connections; at the cap the accept
#: loop pauses (SYN backlog holds the overflow) instead of growing
#: per-connection state without bound.
DEFAULT_MAX_CONNECTIONS = 512

_DONE = object()  # responder sentinel: no more items for this connection

@dataclass
class _Item:
    """One planned request handed from the reader to the responder."""

    plan: Plan
    keep_alive: bool = False  # the client permits reuse after this response


@dataclass
class _ConnState:
    """Per-connection bookkeeping shared by reader and responder."""

    seen: int = 0  # requests enqueued on this connection, ever
    pending: int = 0  # enqueued but not yet fully responded


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
        self._shutdown_requested = threading.Event()
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_socks: set[socket.socket] = set()

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
        self._started.set()
        try:
            while True:
                await slots.acquire()  # accept pause at the connection cap
                try:
                    conn, addr = await loop.sock_accept(self._sock)
                except (asyncio.CancelledError, OSError):
                    slots.release()
                    raise
                conn.setblocking(False)
                try:
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                except OSError:
                    pass
                task = loop.create_task(self._handle_connection(conn, addr))
                self._conn_tasks.add(task)
                self._conn_socks.add(conn)

                def _done(t, *, c=conn):
                    self._conn_tasks.discard(t)
                    self._conn_socks.discard(c)
                    slots.release()

                task.add_done_callback(_done)
        except asyncio.CancelledError:
            pass
        finally:
            await self._drain_and_close()
            self._executor.shutdown(wait=False)
            self._stopped.set()

    async def _drain_and_close(self) -> None:
        """The drain contract: finish in-flight responses, then tear down."""
        self._draining = True
        self._sock.close()
        in_flight = self.stats.begin_drain()
        if in_flight or self._conn_tasks:
            deadline = self._loop.time() + self.drain_seconds
            while self.stats.snapshot()["in_flight"] > 0:
                if self._loop.time() >= deadline:
                    self._log(
                        f"drain timeout: abandoning "
                        f"{self.stats.snapshot()['in_flight']} request(s)"
                    )
                    break
                await asyncio.sleep(0.01)
        # idle keep-alive connections (readers parked in sock_recv) hold
        # no in-flight work; cancel their tasks — closing the socket
        # under a pending sock_recv would strand the future forever
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)

    # ------------------------------------------------------------- connection
    async def _handle_connection(self, sock: socket.socket, addr) -> None:
        self.stats.connection_opened()
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue(self.pipeline_depth)
        state = _ConnState()
        responder = loop.create_task(self._respond_loop(sock, queue, state))
        try:
            await self._read_loop(sock, addr, queue, state, responder)
        except asyncio.CancelledError:
            responder.cancel()
            raise
        finally:
            if responder.done():
                if not responder.cancelled():
                    responder.exception()  # retrieve, or the loop warns
            else:
                try:
                    # racing the sentinel put against the responder keeps
                    # a full pipeline window from deadlocking this task
                    # against a responder that exits mid-wait
                    await self._put_or_abort(queue, responder, _DONE)
                    await responder
                except asyncio.CancelledError:
                    responder.cancel()
                except Exception:
                    pass  # responder's own failure; keep balancing books
            # anything still queued was admitted (counted in-flight) but
            # will never be answered — balance the books
            while not queue.empty():
                item = queue.get_nowait()
                if item is not _DONE and isinstance(item, _Item):
                    state.pending -= 1
                    self.stats.request_finished()
            try:
                sock.close()
            except OSError:
                pass
            self.stats.connection_closed()

    async def _read_loop(self, sock, addr, queue, state, responder) -> None:
        """Parse requests off the socket and enqueue them in order."""
        loop = asyncio.get_running_loop()
        parser = RequestParser()
        while not responder.done():
            try:
                head = parser.poll_head()
            except ProtocolError as exc:
                await self._enqueue(
                    queue, state, responder,
                    _Item(Plan(error=ApiError(exc.code, exc.message))),
                )
                return  # unframeable stream: nothing after it is trusted
            if head is None:
                if self._draining and state.pending == 0 and parser.pending_bytes() == 0:
                    return  # idle keep-alive connection during drain
                try:
                    data = await loop.sock_recv(sock, _RECV_BYTES)
                except (OSError, asyncio.CancelledError):
                    return
                if not data:
                    return  # client closed
                parser.feed(data)
                continue

            item = await self._plan(sock, loop, parser, head, addr)
            if not await self._enqueue(queue, state, responder, item):
                return  # responder exited (close/write failure) mid-wait
            if item.plan.error is not None:
                # the body (if any) was not drained; the stream cannot
                # be resynced — stop reading, responder will close
                return

    async def _plan(self, sock, loop, parser, head: RequestHead, addr) -> _Item:
        """Plan on the head (admission included), then buffer the body."""
        plan = plan_request(
            self.app, head.method, head.target, head.headers,
            str(addr[0]) if addr else "unknown",
        )
        body = parser.poll_body(head) if plan.body_bytes else b""
        while body is None:
            try:
                data = await loop.sock_recv(sock, _RECV_BYTES)
            except OSError:
                data = b""
            if not data:
                body = b""  # client went away mid-body; read_body reports it
                break
            parser.feed(data)
            body = parser.poll_body(head)
        read_body(plan, body)
        return _Item(plan, keep_alive=head.keep_alive)

    async def _enqueue(
        self, queue, state: _ConnState, responder: asyncio.Task, item: _Item
    ) -> bool:
        """Admit one parsed request to the pipeline window (may block).

        Returns whether the item was enqueued.  ``False`` means the
        responder finished first — a ``Connection: close`` response or a
        write failure ended the connection while the pipeline window was
        full — so nothing more will ever be served and the reader must
        stop.  Racing the put against the responder is what prevents the
        reader from deadlocking on a dead responder (which would strand
        the connection task and its ``max_connections`` slot forever).
        """
        state.seen += 1
        state.pending += 1
        self.stats.request_started(reused=state.seen > 1, depth=state.pending)
        try:
            enqueued = await self._put_or_abort(queue, responder, item)
        except asyncio.CancelledError:
            state.pending -= 1
            self.stats.request_finished()
            raise
        if not enqueued:
            state.pending -= 1
            self.stats.request_finished()
        return enqueued

    @staticmethod
    async def _put_or_abort(
        queue: asyncio.Queue, responder: asyncio.Task, item
    ) -> bool:
        """``queue.put(item)`` unless the responder exits first.

        Returns whether the item made it onto the queue.  A plain
        ``await queue.put`` on a full queue never wakes once the
        responder (the only consumer) has returned — so only a full
        window pays for the race; with room the put cannot wait.
        """
        if not queue.full():
            queue.put_nowait(item)
            return True
        put = asyncio.ensure_future(queue.put(item))
        try:
            await asyncio.wait({put, responder}, return_when=asyncio.FIRST_COMPLETED)
        except asyncio.CancelledError:
            put.cancel()
            raise
        if put.done() and not put.cancelled():
            return True
        put.cancel()
        return False

    # -------------------------------------------------------------- responder
    async def _respond_loop(self, sock, queue, state: _ConnState) -> None:
        """Serve queued requests strictly in order; stop on close."""
        unyielded = 0  # responses written back to back without suspending
        while True:
            item = await queue.get()
            if item is _DONE:
                return
            try:
                close, inline = await self._write_response(sock, item)
            except (ConnectionError, OSError, BrokenPipeError):
                state.pending -= 1
                self.stats.request_finished()
                return  # client went away; reader will hit EOF/close
            state.pending -= 1
            self.stats.request_finished()
            if close:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                return
            # an inline answer to a pipelined request may never suspend
            # (queue non-empty, socket writable): give the loop a turn
            # once per window so one client cannot monopolise it
            unyielded = unyielded + 1 if inline else 0
            if unyielded >= self.pipeline_depth:
                unyielded = 0
                await asyncio.sleep(0)

    async def _write_response(self, sock, item: _Item) -> tuple[bool, bool]:
        """Write one response; returns ``(connection must close, answered
        inline)``."""
        loop = asyncio.get_running_loop()
        phase = dict(keep_alive=item.keep_alive, draining=self._draining)
        # what cannot wait is answered right here, on the loop; only what
        # may wait costs a thread hop
        response = ready(self.app, item.plan, **phase)
        inline = response is not None
        if inline:
            self.stats.answered_inline()
        else:
            response = await loop.run_in_executor(
                self._executor, partial(compute, self.app, item.plan, **phase)
            )
        if response.lines is None:
            await loop.sock_sendall(sock, encode_response(
                response.status, response.body, response.content_type,
                extra_headers=response.headers, close=response.close,
            ))
            return response.close, inline
        # each next() on the line stream is blocking work (slicing +
        # JSON + checksum), so it too runs on the executor
        lines = response.lines
        try:
            await loop.sock_sendall(
                sock, encode_stream_head(response.content_type, close=response.close)
            )
            while True:
                line = await loop.run_in_executor(self._executor, next, lines, None)
                if line is None:
                    break
                await loop.sock_sendall(sock, encode_chunk(line))
            await loop.sock_sendall(sock, CHUNKED_EOF)
        except BaseException:
            # client gone (OSError) or task cancelled mid-stream: close
            # the stream where its generator runs; the exception keeps
            # propagating to the responder loop, which balances the
            # connection-slot accounting
            await loop.run_in_executor(self._executor, lines.close)
            raise
        return response.close, False

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
        down (bounded by ``timeout`` + drain budget).
        """
        if not drain:
            self.drain_seconds = 0.0
        loop = self._loop
        if loop is None or self._stopped.is_set():
            self._sock.close()
            return True
        loop.call_soon_threadsafe(self._cancel_serve)
        budget = (timeout if timeout is not None else self.drain_seconds) + 5.0
        return self._stopped.wait(budget)

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

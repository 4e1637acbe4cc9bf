"""Threaded socket driver for the v1 API (stdlib ``http.server``).

The paper's deployed SPELL is a *web* query interface over a pre-built
compendium; this module is one of the two front doors onto it, built
entirely on ``http.server`` (no new dependencies).  A
:class:`~http.server.ThreadingHTTPServer` serves concurrent requests
against the shared memory-mapped index — NumPy releases the GIL in the
scoring matmuls, so concurrent searches genuinely overlap.

**What this module decides** is how bytes move: a thread per
connection, the stdlib's request-line/header parser, one blocking read
of the body, the stdlib's head composer, one send per answer (head
and whole body, an export's every line included),
connection/request counters, and the graceful drain
(:mod:`repro.api.transport`).  **What it does not decide** is
anything about the request: routing, verbs, admission control before
the body is read, body-length and JSON rules, raw-format negotiation,
error bodies, ``Retry-After`` and when a connection must close are
:mod:`repro.api.pipeline`'s, shared with the asyncio driver
(:mod:`repro.api.aio.server`); the routes themselves are declared in
:mod:`repro.api.routes` and documented in ``docs/api.md``.

Run a demo server over a synthetic compendium (the repo ships no
proprietary data) with a persistent index store::

    python -m repro.api.http --port 8080 --store-dir /tmp/spell-index

The flags are :mod:`repro.api.cli`'s (``docs/operations.md`` has the
table); the CLI prints ready-to-curl example queries against the
planted module.
"""

from __future__ import annotations

import argparse
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.api import cli
from repro.api.app import ApiApp
from repro.api.pipeline import Response, plan_request, read_body, respond
from repro.api.transport import DEFAULT_DRAIN_SECONDS, IDLE_SECONDS, TransportStats

__all__ = ["ApiHTTPServer", "serve", "main"]


class ApiHTTPServer(ThreadingHTTPServer):
    """One listening socket, one :class:`ApiApp`, a thread per request."""

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default accept backlog of 5 makes reconnecting
    # clients hit SYN-retransmit stalls under mild concurrency
    request_queue_size = 128
    # idle keep-alive handler threads must not hold server_close hostage;
    # the drain contract (close()) waits on *in-flight requests* instead
    block_on_close = False

    def __init__(
        self,
        address: tuple[str, int],
        app: ApiApp,
        *,
        quiet: bool = True,
        drain_seconds: float = DEFAULT_DRAIN_SECONDS,
        transport_label: str = "http",
    ):
        super().__init__(address, _Handler)
        self.app = app
        self.quiet = quiet
        self.drain_seconds = float(drain_seconds)
        self.stats = TransportStats()
        self.transport_label = str(transport_label)
        self._closed = False
        app.service.register_transport_stats(self.transport_label, self.stats.snapshot)

    @property
    def draining(self) -> bool:
        return self.stats.draining

    def close(self, *, timeout: float | None = None) -> bool:
        """Graceful shutdown: stop accepting, drain in-flight, tear down.

        The shared drain contract (:mod:`repro.api.transport`): after
        ``shutdown()`` stops the accept loop, every request already
        being handled finishes writing its response — bounded by
        ``timeout`` (default ``drain_seconds``) so a wedged handler
        cannot hold shutdown hostage.  Returns ``True`` when fully
        drained, ``False`` when the bound expired with work in flight.
        The server's transport probe then leaves ``/v1/health``.  Must
        be called off the serving thread (like ``shutdown()``).
        """
        self.stats.begin_drain()
        self.shutdown()  # stops serve_forever; no new connections accepted
        drained = self.stats.wait_idle(
            self.drain_seconds if timeout is None else timeout
        )
        if not self._closed:
            self._closed = True
            self.server_close()
        self.app.service.unregister_transport_stats(self.transport_label, self.stats.snapshot)
        return drained


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-api/1"
    protocol_version = "HTTP/1.1"
    # keep-alive idle bound: a parked connection times out instead of
    # pinning its handler thread forever
    timeout = IDLE_SECONDS
    # an answer longer than one segment ends in a short one; without
    # TCP_NODELAY it may wait on the client's delayed ACK (~40 ms)
    disable_nagle_algorithm = True

    def handle(self) -> None:
        """One connection (possibly many keep-alive requests)."""
        stats: TransportStats = self.server.stats  # type: ignore[attr-defined]
        stats.connection_opened()
        self._requests_served = 0
        try:
            super().handle()
        finally:
            stats.connection_closed()

    def _serve_one(self) -> None:
        """One request: accounting + the drain contract around the pipeline.

        ``request_started``/``request_finished`` bracket the request so
        a graceful ``close()`` can wait for the response bytes to hit
        the socket.  The stdlib parsed the head (and already decided
        ``close_connection`` from the client's ``Connection`` header and
        HTTP version); everything after that is the pipeline's call.
        """
        server: ApiHTTPServer = self.server  # type: ignore[assignment]
        served = self._requests_served
        self._requests_served = served + 1
        server.stats.request_started(reused=served > 0)
        try:
            plan = plan_request(
                server.app,
                self.command,
                self.path,
                {name.lower(): value for name, value in self.headers.items()},
                str(self.client_address[0]) if self.client_address else "unknown",
            )
            read_body(plan, self.rfile.read(plan.body_bytes) if plan.body_bytes else b"")
            response = respond(
                server.app,
                plan,
                keep_alive=not self.close_connection,
                draining=server.draining,
            )
            self.close_connection = response.close
            self._write(response)
        finally:
            server.stats.request_finished()

    # every verb takes the pipeline, so an unsupported one gets the
    # structured 405 rather than the stdlib's HTML 501 page
    do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = do_HEAD = do_OPTIONS = _serve_one

    def _write(self, response: Response) -> None:
        """One answer, one send: the head leaves with the whole body — an
        export's every line and its trailer included."""
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        if response.close:
            # advertise what we will do — a keep-alive client must not
            # queue another request on this socket
            self.send_header("Connection", "close")
        try:
            # the writer is unbuffered: this is one sendall
            self.wfile.write(self._composed_head() + response.body)
        except OSError:
            # the client went away (BrokenPipeError / ConnectionResetError
            # / TimeoutError are all OSErrors): the connection is dead
            self.close_connection = True

    def _composed_head(self) -> bytes:
        """The head ``send_response``/``send_header`` buffered, ended and
        taken instead of flushed (``end_headers`` would send it alone)."""
        if self.request_version == "HTTP/0.9":
            return b""  # the stdlib writes no head to an HTTP/0.9 client
        self._headers_buffer.append(b"\r\n")
        head = b"".join(self._headers_buffer)
        self._headers_buffer = []
        return head

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # type: ignore[attr-defined]
            sys.stderr.write(
                f"{self.address_string()} - {format % args}\n"
            )


def serve(app: ApiApp, *, host: str = "127.0.0.1", port: int = 0,
          quiet: bool = True, **kwargs) -> ApiHTTPServer:
    """Bind (but do not start) an HTTP server for ``app``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address``.  Call ``serve_forever()`` (typically on a
    thread) to start answering; ``close()`` for the graceful drain.
    """
    return ApiHTTPServer((host, port), app, quiet=quiet, **kwargs)


def serve_background(app: ApiApp, *, host: str = "127.0.0.1", port: int = 0,
                     quiet: bool = True,
                     **kwargs) -> tuple[ApiHTTPServer, threading.Thread]:
    """Bind and start serving on a daemon thread; returns (server, thread)."""
    server = serve(app, host=host, port=port, quiet=quiet, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


# --------------------------------------------------------------------------
# CLI: python -m repro.api.http
# --------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api.http",
        description="Serve the v1 SPELL query API over HTTP (demo compendium).",
    )
    cli.add_flags(parser, "listen", "synth", "backend", "service", "gate", "catalog")
    args = parser.parse_args(argv)
    app, truth = cli.build_app(**cli.app_options(parser, args))
    server = serve(app, host=args.host, port=args.port, quiet=not args.verbose)
    cli.print_banner(*server.server_address[:2], truth)
    cli.serve_until_signalled(server, app, server.serve_forever)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

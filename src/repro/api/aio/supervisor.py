"""Loop-group supervisor: one event loop per core, one shared port.

A single event loop is single-core by construction; the paper's
display-wall workload (many analysts, many small dynamic queries) wants
every core answering.  The topology here is the classic
``SO_REUSEPORT`` fan-out: N worker *processes*, each running one
:class:`~repro.api.aio.server.AioApiServer`, all binding the same
``(host, port)`` — the kernel load-balances accepted connections across
the listening sockets, so there is no user-space proxy hop and no
shared accept lock.  Processes (not threads) also sidestep the GIL for
the JSON/dict-heavy request handling each loop and its executor do.

Port reservation: with ``port=0`` the parent must learn a concrete port
*before* any child exists, yet must not serve.  It binds — without
listening — its own ``SO_REUSEPORT`` socket; the kernel assigns the
ephemeral port and, because only *listening* sockets participate in
accept load-balancing, the reservation never steals a connection.  The
socket is held open for the group's lifetime so the port cannot be
reused out from under a restarting worker.

This module owns the *processes* and nothing about what they serve:
each worker builds its own :class:`~repro.api.app.ApiApp` with
:func:`repro.api.cli.build_app` — the builder every serving CLI uses —
from a plain picklable options dict (a bound app object cannot cross a
``spawn`` boundary), so equal options give every worker bit-identical
data, and the oracle invariant holds regardless of which loop the kernel
picks.

Shutdown honors the drain contract end-to-end: ``stop()`` sends
SIGTERM, each worker runs :func:`repro.api.cli.serve_until_signalled`
(stop accepting, finish in-flight responses — bounded — then close the
catalog and the service) and exits; stragglers past the bound are
killed and reported.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing
import os
import socket
import time
import urllib.error
import urllib.request

from repro.api.transport import DEFAULT_DRAIN_SECONDS

__all__ = ["LoopGroup"]


def _worker_main(
    factory_kwargs: dict | None,
    host: str,
    port: int,
    index: int,
    server_options: dict | None,
) -> None:
    """Entry point of one worker process: build app, serve, drain on TERM."""
    import asyncio

    from repro.api.cli import build_app, serve_until_signalled
    from repro.api.aio.server import AioApiServer

    app = build_app(**(factory_kwargs or {}))[0]
    server = AioApiServer(
        app,
        host=host,
        port=port,
        reuse_port=True,
        transport_label=f"aio:{index}",
        **(server_options or {}),
    )
    serve_until_signalled(server, app, lambda: asyncio.run(server.serve_forever()))


class LoopGroup:
    """Supervise N single-loop worker processes sharing one port.

    >>> group = LoopGroup(n_loops=2, factory_kwargs={"seed": 7})
    >>> group.start()          # doctest: +SKIP
    >>> group.port             # doctest: +SKIP
    >>> group.stop()           # doctest: +SKIP

    ``start()`` blocks until ``/v1/health`` answers (the group is
    usable) or raises if a worker dies during boot.  Use as a context
    manager for exception-safe teardown.
    """

    def __init__(
        self,
        *,
        n_loops: int | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        factory_kwargs: dict | None = None,
        server_options: dict | None = None,
        start_timeout: float = 120.0,
        drain_seconds: float = DEFAULT_DRAIN_SECONDS,
    ) -> None:
        self.n_loops = max(1, int(n_loops if n_loops is not None else os.cpu_count() or 1))
        self.host = host
        self._requested_port = int(port)
        self.factory_kwargs = dict(factory_kwargs or {})
        self.server_options = dict(server_options or {})
        self.server_options.setdefault("drain_seconds", drain_seconds)
        self.start_timeout = float(start_timeout)
        self.drain_seconds = float(self.server_options["drain_seconds"])
        self.port: int | None = None
        self._reservation: socket.socket | None = None
        self._procs: list[multiprocessing.process.BaseProcess] = []

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "LoopGroup":
        if self._procs:
            raise RuntimeError("LoopGroup already started")
        self.port = self._reserve_port()
        ctx = multiprocessing.get_context("spawn")
        for index in range(self.n_loops):
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    self.factory_kwargs,
                    self.host,
                    self.port,
                    index,
                    self.server_options,
                ),
                # NOT daemonic: the app a worker builds may itself spawn
                # IndexWorkerPool child processes (n_procs > 1), which
                # multiprocessing forbids for daemonic parents; stop()
                # owns teardown (SIGTERM, bounded join, then kill)
                name=f"aio-loop-{index}",
                daemon=False,
            )
            proc.start()
            self._procs.append(proc)
        # non-daemonic children are joined by multiprocessing at
        # interpreter exit — which never returns while they serve; make
        # sure they are stopped first even if the caller forgot stop()
        atexit.register(self.stop)
        try:
            self._wait_ready()
        except BaseException:
            self.stop(timeout=5.0)
            raise
        return self

    def _reserve_port(self) -> int:
        """Pin (or verify) the group's port without serving on it."""
        if not hasattr(socket, "SO_REUSEPORT"):
            raise OSError(
                "SO_REUSEPORT is not available on this platform; "
                "the multi-loop topology requires it"
            )
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, self._requested_port))
        except BaseException:
            sock.close()
            raise
        self._reservation = sock  # held (not listening) for group lifetime
        return sock.getsockname()[1]

    def _wait_ready(self) -> None:
        """Poll ``/v1/health`` until the group answers (workers are slow
        to boot: ``spawn`` + synthetic compendium + index build)."""
        url = f"http://{self.host}:{self.port}/v1/health"
        deadline = time.monotonic() + self.start_timeout
        last_error: str = "no response"
        while time.monotonic() < deadline:
            for proc in self._procs:
                if not proc.is_alive():
                    raise RuntimeError(
                        f"worker {proc.name} died during startup "
                        f"(exitcode={proc.exitcode})"
                    )
            try:
                with urllib.request.urlopen(url, timeout=2.0) as resp:
                    if resp.status == 200:
                        json.loads(resp.read())
                        return
                    last_error = f"health answered {resp.status}"
            except (urllib.error.URLError, ConnectionError, OSError, TimeoutError) as exc:
                last_error = str(exc)
            time.sleep(0.1)
        raise TimeoutError(
            f"loop group not ready after {self.start_timeout:.0f}s "
            f"(last error: {last_error})"
        )

    def alive(self) -> list[bool]:
        return [proc.is_alive() for proc in self._procs]

    def stop(self, *, timeout: float | None = None) -> int:
        """SIGTERM the group (graceful drain), bounded join, then kill.

        Returns the number of workers that had to be killed (0 on a
        fully graceful stop).
        """
        atexit.unregister(self.stop)
        budget = (timeout if timeout is not None else self.drain_seconds) + 5.0
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()  # SIGTERM → cancel → drain → exit
        deadline = time.monotonic() + budget
        killed = 0
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(5.0)
                killed += 1
        self._procs = []
        if self._reservation is not None:
            self._reservation.close()
            self._reservation = None
        return killed

    def __enter__(self) -> "LoopGroup":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

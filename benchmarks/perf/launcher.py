"""Server child process: boot one serving topology, report, serve until told.

Run by ``run.py`` as ``python launcher.py <topology> [--scratch DIR]``.
Boots through the public Python entry points (not the CLIs), prints one
JSON line ``{"port": ..., "phases": {...}}`` on stdout once the listener
is bound, then serves until stdin closes (or SIGTERM) and tears down.

Import-safe: ``spell.procpool`` workers are spawned, and spawn re-imports
``__main__`` — an unguarded launcher would re-execute itself and hang.
"""

from __future__ import annotations

import json
import signal
import socket
import sys
import threading
import time
from pathlib import Path

TOPOLOGIES = ("http", "aio", "sharded", "procpool", "ingest", "null")

#: Canned body of the null server: the size of a warm_page response.
NULL_BODY = json.dumps({"pad": "x" * 2300}).encode("ascii")
NULL_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    + f"Content-Length: {len(NULL_BODY)}\r\n\r\n".encode("ascii")
    + NULL_BODY
)


def _null_connection(conn: socket.socket) -> None:
    """Answer every complete request on ``conn`` with the canned response."""
    buffer = b""
    with conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end < 0:
                data = conn.recv(65536)
                if not data:
                    return
                buffer += data
                continue
            head = buffer[:end].lower()
            at = head.find(b"content-length:")
            length = int(head[at + 15 :].split(b"\r\n", 1)[0]) if at >= 0 else 0
            need = end + 4 + length
            while len(buffer) < need:
                data = conn.recv(65536)
                if not data:
                    return
                buffer += data
            buffer = buffer[need:]
            conn.sendall(NULL_RESPONSE)


def serve_null() -> tuple[socket.socket, threading.Thread]:
    """The calibration server: no parsing beyond framing, no application."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)

    def accept_loop() -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            threading.Thread(target=_null_connection, args=(conn,), daemon=True).start()

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    return listener, thread


def start_facade(app, *, aio: bool):
    """Serve ``app`` on a background thread; returns the bound server."""
    if aio:
        from repro.api.aio import serve_background

        return serve_background(app)[0]
    from repro.api.http import serve

    server = serve(app)
    # the poll interval only bounds how long close() waits for the accept loop
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    return server


def build(topology: str, scratch: Path | None, phases: dict):
    """Boot ``topology``; returns ``(port, closers)`` and fills ``phases``."""
    if topology == "null":
        listener, _ = serve_null()
        return listener.getsockname()[1], [listener.close]

    t0 = time.perf_counter()
    import repro.api.aio  # noqa: F401 — every facade's import cost counts as set-up
    import repro.api.http  # noqa: F401
    import repro.synth  # noqa: F401
    from repro.api.app import ApiApp
    from repro.cluster_serving import build_local_topology
    from repro.spell import SpellService
    from repro.spell.catalog import CompendiumCatalog

    import workloads

    t1 = time.perf_counter()
    compendium = workloads.compendium()
    t2 = time.perf_counter()

    closers = []
    catalog = None
    if topology == "sharded":
        fleet = build_local_topology(compendium, n_shards=2)
        service = fleet.router
        closers.append(fleet.close)
    elif topology == "procpool":
        service = SpellService(compendium, n_procs=2, store_dir=scratch / "store")
        closers.append(service.close)
    elif topology == "ingest":
        service = SpellService(compendium, store_dir=scratch / "store")
        catalog = CompendiumCatalog(scratch / "catalog", default_service=service)
        closers += [catalog.close, service.close]
    else:
        service = SpellService(compendium)
        closers.append(service.close)
    app = ApiApp(service, catalog=catalog)
    t3 = time.perf_counter()

    server = start_facade(app, aio=topology == "aio")
    closers.insert(0, server.close)
    t4 = time.perf_counter()
    phases.update(import_s=t1 - t0, synth_s=t2 - t1, service_s=t3 - t2, listen_s=t4 - t3)
    return server.server_address[1], closers


def stop_resource_tracker() -> None:
    """``multiprocessing``'s resource tracker ends only once its parent's
    pipe closes, a moment *after* the parent has exited, unless the parent
    closes the pipe itself and waits.  Call when every pool worker (each
    holds a copy of the pipe) has been joined."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(module, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str]) -> int:
    topology = argv[0]
    if topology not in TOPOLOGIES:
        raise SystemExit(f"unknown topology {topology!r}; want one of {TOPOLOGIES}")
    scratch = Path(argv[2]) if argv[1:2] == ["--scratch"] else None
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    phases: dict[str, float] = {}
    port, closers = build(topology, scratch, phases)
    try:
        print(json.dumps({"port": port, "phases": phases}), flush=True)
        sys.stdin.read()  # the runner closes our stdin to stop us
    finally:
        for close in closers:
            close()
        stop_resource_tracker()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""CLI: ``python -m repro.api.aio`` — serve the v1 API on event loops.

Takes every flag ``python -m repro.api.http`` takes (one table,
:mod:`repro.api.cli`) and adds only what an event loop has that a thread
pool has not: ``--loops`` for the SO_REUSEPORT multi-loop topology and
the per-loop bounds (``--pipeline-depth``, ``--max-connections``,
``--executor-threads``, ``--drain-seconds``).

``--loops 1`` (default) serves in-process on one event loop; SIGTERM /
Ctrl-C triggers the graceful drain.  ``--loops N`` spawns N worker
processes sharing the port (see :mod:`repro.api.aio.supervisor`), each
building its own app from the same options.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.api import cli
from repro.api.transport import DEFAULT_DRAIN_SECONDS
from repro.api.aio.server import (
    DEFAULT_MAX_CONNECTIONS,
    DEFAULT_PIPELINE_DEPTH,
    AioApiServer,
)
from repro.api.aio.supervisor import LoopGroup


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api.aio",
        description="Serve the v1 SPELL query API on asyncio event loops "
                    "(demo compendium).",
    )
    cli.add_flags(parser, "listen", "synth", "backend", "service", "gate", "catalog")
    parser.add_argument("--loops", type=int, default=1,
                        help="event loops (worker processes) sharing the "
                             "port via SO_REUSEPORT; size to physical cores")
    parser.add_argument("--pipeline-depth", type=int,
                        default=DEFAULT_PIPELINE_DEPTH,
                        help="per-connection window of parsed-but-unanswered "
                             "requests; a full window pauses the read loop")
    parser.add_argument("--max-connections", type=int,
                        default=DEFAULT_MAX_CONNECTIONS,
                        help="per-loop cap on concurrently served "
                             "connections; at the cap the accept loop pauses")
    parser.add_argument("--executor-threads", type=int, default=None,
                        help="threads bridging blocking service calls off "
                             "the loop (default: max(4, cpu count))")
    parser.add_argument("--drain-seconds", type=float,
                        default=DEFAULT_DRAIN_SECONDS,
                        help="bound on the graceful drain of in-flight "
                             "requests at shutdown")
    return parser


def _serve_group(args: argparse.Namespace, options: dict, server_options: dict) -> int:
    """N spawned loops sharing the port (the --loops > 1 path)."""
    group = LoopGroup(
        n_loops=args.loops,
        host=args.host,
        port=args.port,
        factory_kwargs=options,
        server_options=server_options,
    )
    stop = cli.stop_signal()
    group.start()
    cli.print_banner(args.host, group.port)
    print(f"  loops: {args.loops} (SO_REUSEPORT)", flush=True)
    try:
        while all(group.alive()) and not stop.wait(0.2):
            pass
    finally:
        killed = group.stop()
        if killed and args.verbose:
            sys.stderr.write(f"repro.api.aio: killed {killed} worker(s) "
                             f"past the drain bound\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.loops < 1:
        parser.error("--loops must be >= 1")
    options = cli.app_options(parser, args)
    server_options = {
        "pipeline_depth": args.pipeline_depth,
        "max_connections": args.max_connections,
        "executor_threads": args.executor_threads,
        "drain_seconds": args.drain_seconds,
        "quiet": not args.verbose,
    }
    if args.loops > 1:
        return _serve_group(args, options, server_options)
    app, truth = cli.build_app(**options)
    server = AioApiServer(app, host=args.host, port=args.port, **server_options)
    cli.print_banner(*server.server_address[:2], truth)
    cli.serve_until_signalled(
        server, app, lambda: asyncio.run(server.serve_forever())
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Router CLI: serve the v1 HTTP API over a fleet of shard nodes.

The router rebuilds the same synthetic compendium as its shards (same
``--seed``) to obtain the *catalog* — names, gene lists, fingerprints —
but never normalizes a matrix or builds an index; all scoring happens on
the shards.  The full HTTP surface (auth, rate limits, body caps,
streaming export) is the unmodified :mod:`repro.api.http` facade, and
the shared flags, the compendium recipe, the gate and the
signal → drain → close lifecycle are :mod:`repro.api.cli`'s.

::

    python -m repro.cluster_serving --port 8200 \\
        --shard-addresses 127.0.0.1:8201,127.0.0.1:8202,127.0.0.1:8203
"""

from __future__ import annotations

import argparse

from repro.api import cli
from repro.api.app import ApiApp
from repro.api.http import serve
from repro.api.limits import RequestGate
from repro.cluster_serving.hedging import HedgePolicy
from repro.cluster_serving.router import RouterService
from repro.rpc.membership import Membership
from repro.rpc.policy import RetryPolicy


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster_serving",
        description=(
            "Serve the v1 SPELL query API over HTTP, routing every query "
            "to a fleet of shard nodes (see repro.cluster_serving.shard)."
        ),
    )
    cli.add_flags(parser, "listen", "synth", "backend", "gate")
    parser.add_argument("--shard-addresses", required=True,
                        help="comma-separated host:port list, in shard-index "
                             "order (entry i is node shard-i)")
    parser.add_argument("--replication", type=int, default=1,
                        help="replica owners per dataset (must match the "
                             "shards' --replication)")
    parser.add_argument("--rpc-timeout", type=float, default=10.0,
                        help="per-shard call timeout in seconds; a slower "
                             "shard is treated as failed for that query")
    parser.add_argument("--no-partial", action="store_true",
                        help="fail queries with SHARD_UNAVAILABLE instead "
                             "of serving flagged partial rankings")
    parser.add_argument("--no-hedge", action="store_true",
                        help="disable hedged replica requests (with "
                             "replication > 1 a shard call stuck past the "
                             "observed latency percentile is raced against "
                             "the next replica; first answer wins)")
    parser.add_argument("--hedge-percentile", type=float, default=95.0,
                        help="latency percentile that arms a hedge")
    parser.add_argument("--hedge-factor", type=float, default=1.0,
                        help="hedge delay = factor x observed percentile")
    parser.add_argument("--retry-tries", type=int, default=2,
                        help="transport tries per shard call (1 disables "
                             "retry); retries use jittered exponential "
                             "backoff and never follow handler errors")
    parser.add_argument("--breaker-threshold", type=int, default=3,
                        help="consecutive transport failures that open a "
                             "shard's circuit breaker")
    parser.add_argument("--breaker-reset", type=float, default=3.0,
                        help="seconds an open breaker waits before "
                             "admitting a half-open probe")
    args = parser.parse_args(argv)

    addresses: dict[str, tuple[str, int]] = {}
    for i, spec in enumerate(args.shard_addresses.split(",")):
        host, _, port = spec.strip().rpartition(":")
        if not host or not port.isdigit():
            parser.error(f"bad --shard-addresses entry {spec!r} (want host:port)")
        addresses[f"shard-{i}"] = (host, int(port))
    if args.retry_tries < 1:
        parser.error("--retry-tries must be >= 1")

    options = cli.app_options(parser, args)
    compendium, truth = cli.demo_compendium(
        **cli.options_for(cli.demo_compendium, options)
    )
    membership = Membership(
        addresses,
        timeout=args.rpc_timeout,
        retry=RetryPolicy(max_tries=args.retry_tries),
        breaker_failure_threshold=args.breaker_threshold,
        breaker_reset_timeout=args.breaker_reset,
    )
    hedge = (
        HedgePolicy.disabled()
        if args.no_hedge
        else HedgePolicy(
            percentile=args.hedge_percentile, factor=args.hedge_factor
        )
    )
    service = RouterService(
        compendium,
        membership,
        replication=args.replication,
        n_workers=args.n_workers,
        cache_size=args.cache_size,
        cache_min_cost=args.cache_min_cost,
        allow_partial=not args.no_partial,
        rpc_timeout=args.rpc_timeout,
        hedge=hedge,
    )
    gate = RequestGate(**cli.options_for(RequestGate.__init__, options))
    app = ApiApp(service, gate=gate)
    server = serve(app, host=args.host, port=args.port, quiet=not args.verbose)
    alive = service.shard_stats()["nodes"]
    n_alive = sum(1 for st in alive.values() if st["alive"])
    cli.print_banner(
        *server.server_address[:2], truth,
        what=f"routing v1 API over {n_alive}/{len(addresses)} live shard(s)",
    )
    cli.serve_until_signalled(server, app, server.serve_forever)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

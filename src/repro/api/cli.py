"""One serving CLI: the flag table, the demo app builder, the lifecycle.

Four entry points serve the v1 API — ``python -m repro.api.http``
(threaded), ``python -m repro.api.aio`` (event loops),
``python -m repro.cluster_serving`` (router) and
``python -m repro.cluster_serving.shard`` — and the *module name* is what
selects the topology.  Everything they have in common is decided here,
once:

* :data:`FLAGS` / :func:`add_flags` — the serving, gate, catalog and
  synthetic-compendium flags, in named groups an entry point picks from
  (``docs/operations.md`` carries :func:`flag_table` verbatim);
* :func:`demo_compendium` — the synthetic compendium every process of a
  deployment rebuilds from ``--seed`` (router and shards only agree on
  fingerprints because they share this recipe);
* :func:`build_app` — compendium → service → catalog → gate →
  :class:`~repro.api.app.ApiApp` from plain scalar options, so the same
  dict crosses a ``spawn`` boundary to loop-group workers;
* :func:`read_auth_files`, :func:`print_banner`,
  :func:`serve_until_signalled` (signal → drain → close catalog → close
  service) and the :func:`stop_signal` under it, which the shard CLI
  and the loop-group supervisor share.
"""

from __future__ import annotations

import argparse
import json
import signal
import threading

from repro.api.app import ApiApp
from repro.api.limits import DEFAULT_MAX_BODY_BYTES, RequestGate

__all__ = [
    "FLAGS",
    "add_flags",
    "app_options",
    "build_app",
    "demo_compendium",
    "flag_table",
    "options_for",
    "print_banner",
    "read_auth_files",
    "serve_until_signalled",
    "stop_signal",
]

#: group -> ((flag, argparse keyword arguments), ...).  ``add_flags``
#: registers whole groups; ``docs/operations.md`` renders the same table.
FLAGS: dict[str, tuple[tuple[str, dict], ...]] = {
    "listen": (
        ("--host", {"default": "127.0.0.1", "help": "listening address"}),
        ("--port", {"type": int, "default": 8080,
                    "help": "listening port (0 = ephemeral)"}),
        ("--verbose", {"action": "store_true",
                       "help": "log requests and drain/teardown events to stderr"}),
    ),
    "synth": (
        ("--synth-datasets", {"type": int, "default": 12,
                              "help": "datasets in the demo compendium"}),
        ("--synth-genes", {"type": int, "default": 300,
                           "help": "genes in the demo compendium"}),
        ("--synth-conditions", {"type": int, "default": 14,
                                "help": "conditions per demo dataset"}),
        ("--seed", {"type": int, "default": 42,
                    "help": "demo compendium seed; every process of one "
                            "deployment must share it"}),
    ),
    "backend": (
        ("--n-workers", {"type": int, "default": 4,
                         "help": "single node: threads normalising shards at index "
                                 "build (no query fans out across threads; --n-procs "
                                 "is what spreads a batch over cores). Router: batch "
                                 "members gathered from the shards at once"}),
        ("--cache-size", {"type": int, "default": 256,
                          "help": "result-cache entries (0 disables)"}),
        ("--cache-min-cost", {"type": int, "default": 0,
                              "help": "result-cache admission threshold: only cache "
                                      "results that ranked at least this many genes"}),
    ),
    "service": (
        ("--store-dir", {"default": None,
                         "help": "persistent index directory (mmap cold start; "
                                 "loop-group workers share it)"}),
        ("--store-verify", {"choices": ("eager", "lazy"), "default": None,
                            "help": "shard integrity policy at store load: eager "
                                    "hashes every shard before serving (quarantine + "
                                    "rebuild on mismatch); lazy keeps the zero-copy "
                                    "mmap cold start and defers to a verify scrub. "
                                    "Default: eager for in-RAM loads, lazy for mmap"}),
        ("--dtype", {"choices": ("float64", "float32"), "default": "float64",
                     "help": "index shard precision"}),
        ("--n-procs", {"type": int, "default": 1,
                       "help": ">= 2 scatters a /v1/search/batch's cache misses "
                               "across a process pool sharing the mmap index "
                               "store (spawned by the first such batch, ~1 s; a "
                               "single search or export stays in-process). Each "
                               "worker scores its slice in stacked blocks, so "
                               "size batches for >= 8 misses per worker (see "
                               "Sizing batches)"}),
        ("--pool-timeout", {"type": float, "default": 120.0,
                            "help": "seconds to wait on one pool worker's reply "
                                    "before declaring the pool broken (request "
                                    "deadline_ms budgets clamp waits further)"}),
    ),
    "gate": (
        ("--auth-token-file", {"default": None,
                               "help": "file holding the shared bearer token; when "
                                       "set, requests (except /v1/health) must send "
                                       "'Authorization: Bearer <token>' or get 401"}),
        ("--auth-tokens-file", {"default": None,
                                "help": "multi-credential file, one 'principal:token' "
                                        "per line; each principal gets its own "
                                        "--token-rate-limit quota bucket"}),
        ("--rate-limit", {"type": float, "default": 0.0,
                          "help": "per-client request budget in requests/second "
                                  "(token bucket; 0 disables). Over-budget clients "
                                  "get 429 RATE_LIMITED with retry_after_ms"}),
        ("--rate-burst", {"type": int, "default": None,
                          "help": "token-bucket burst size (default: ceil(rate-limit))"}),
        ("--token-rate-limit", {"type": float, "default": 0.0,
                                "help": "per-authenticated-principal requests/second "
                                        "quota, distinct from the per-peer --rate-limit "
                                        "(0 disables)"}),
        ("--token-rate-burst", {"type": int, "default": None,
                                "help": "per-principal burst size"}),
        ("--tenant-rate-limit", {"type": float, "default": 0.0,
                                 "help": "per-compendium requests/second budget across "
                                         "all callers (0 disables)"}),
        ("--tenant-rate-burst", {"type": int, "default": None,
                                 "help": "per-compendium burst size"}),
        ("--max-body-bytes", {"type": int, "default": DEFAULT_MAX_BODY_BYTES,
                              "help": "largest accepted request body; bigger declared "
                                      "bodies get 413 BODY_TOO_LARGE before any byte "
                                      "is read"}),
    ),
    "catalog": (
        ("--catalog-root", {"default": None,
                            "help": "multi-tenant catalog directory: each tenant "
                                    "compendium lives under <root>/<tenant>/ with its "
                                    "own datasets/ and store/; requests carry the "
                                    "tenant in the 'compendium' field. Each loop-group "
                                    "worker holds its own catalog view: an ingest is "
                                    "visible to its own loop immediately and to "
                                    "sibling loops at their next tenant (re)load"}),
        ("--max-resident", {"type": int, "default": 4,
                            "help": "LRU bound on tenants resident in RAM at once "
                                    "(the default tenant is pinned and not counted "
                                    "against evictions)"}),
    ),
}


def add_flags(parser: argparse.ArgumentParser, *groups: str) -> None:
    """Register the named :data:`FLAGS` groups on ``parser``."""
    for group in groups:
        for flag, spec in FLAGS[group]:
            parser.add_argument(flag, **spec)


def flag_table() -> str:
    """:data:`FLAGS` as the markdown table ``docs/operations.md`` carries."""
    rows = ["| Flag | Group | Default | Meaning |", "|---|---|---|---|"]
    for group, flags in FLAGS.items():
        for flag, spec in flags:
            default = "off" if spec.get("action") == "store_true" else spec["default"]
            rows.append(f"| `{flag}` | {group} | `{default}` | {spec['help']} |")
    return "\n".join(rows)


# --------------------------------------------------------------------------
# building what is served
# --------------------------------------------------------------------------
def demo_compendium(
    *,
    synth_datasets: int = 12,
    synth_genes: int = 300,
    synth_conditions: int = 14,
    seed: int = 42,
    n_relevant: int | None = None,
    module_size: int | None = None,
    query_size: int = 4,
):
    """``(compendium, truth)``: the synthetic demo data (the repo ships
    no proprietary data).  Equal arguments give bit-identical data in
    every process — the oracle invariant across loops and shards."""
    from repro.synth import make_spell_compendium

    return make_spell_compendium(
        n_datasets=synth_datasets,
        n_relevant=max(1, synth_datasets // 4) if n_relevant is None else n_relevant,
        n_genes=synth_genes,
        n_conditions=synth_conditions,
        module_size=max(6, synth_genes // 20) if module_size is None else module_size,
        query_size=query_size,
        seed=seed,
    )


def options_for(fn, options: dict) -> dict:
    """The subset of one flat options dict that ``fn`` takes by keyword."""
    return {k: v for k, v in options.items() if k in fn.__kwdefaults__}


def build_app(
    *,
    n_workers: int = 4,
    n_procs: int = 1,
    cache_size: int = 256,
    cache_min_cost: int = 0,
    dtype: str = "float64",
    store_dir: str | None = None,
    store_verify: str | None = None,
    pool_timeout: float = 120.0,
    catalog_root: str | None = None,
    max_resident: int = 4,
    **options,
):
    """``(app, truth)``: the demo :class:`ApiApp` over a single-node service.

    ``options`` are :func:`demo_compendium`'s and
    :class:`~repro.api.limits.RequestGate`'s keywords.  Every value is a plain picklable scalar (auth *values*,
    not file names), so the same dict builds the same app in a spawned
    worker.
    """
    import numpy as np

    from repro.spell.service import SpellService

    unknown = options.keys() - {**demo_compendium.__kwdefaults__, **RequestGate.__init__.__kwdefaults__}
    if unknown:
        raise TypeError(f"build_app() got unexpected options {sorted(unknown)}")
    compendium, truth = demo_compendium(**options_for(demo_compendium, options))
    np_dtype = np.float32 if dtype == "float32" else np.float64
    service = SpellService(
        compendium,
        n_workers=n_workers,
        n_procs=n_procs,
        cache_size=cache_size,
        cache_min_cost=cache_min_cost,
        dtype=np_dtype,
        store_dir=store_dir,
        store_verify=store_verify,
        pool_timeout=pool_timeout,
    )
    catalog = None
    if catalog_root is not None:
        # the built service stays the pinned default tenant, so a fleet
        # answers default-tenant requests bit-identically to the
        # single-tenant deployment it replaces.  Tenant services inherit
        # the serving knobs but never a process pool — per-tenant pools
        # would multiply worker processes by resident tenants.
        from repro.spell.catalog import CompendiumCatalog

        catalog = CompendiumCatalog(
            catalog_root,
            default_service=service,
            max_resident=max_resident,
            service_options={
                "n_workers": n_workers,
                "cache_size": cache_size,
                "cache_min_cost": cache_min_cost,
                "dtype": np_dtype,
                "store_verify": store_verify,
            },
        )
    gate = RequestGate(**options_for(RequestGate.__init__, options))
    return ApiApp(service, gate=gate, catalog=catalog), truth


def read_auth_files(args: argparse.Namespace) -> dict:
    """The ``auth_token`` / ``auth_tokens`` options the auth flags name.

    ``--auth-token-file`` holds one shared token; ``--auth-tokens-file``
    one ``principal:token`` per line (blank lines and ``#`` comments
    skipped), returned token -> principal — the shape
    :class:`RequestGate` keys its per-token quota buckets on.  Raises
    :class:`ValueError` for an empty or malformed file.
    """
    auth_token = None
    if args.auth_token_file is not None:
        with open(args.auth_token_file, encoding="utf-8") as fh:
            auth_token = fh.read().strip()
        if not auth_token:
            raise ValueError(f"auth token file {args.auth_token_file!r} is empty")
    tokens: dict[str, str] = {}
    path = args.auth_tokens_file
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                principal, sep, token = line.partition(":")
                if not sep or not principal.strip() or not token.strip():
                    raise ValueError(
                        f"{path}:{lineno}: want 'principal:token', got {line!r}"
                    )
                tokens[token.strip()] = principal.strip()
    return {"auth_token": auth_token, "auth_tokens": tokens}


def app_options(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Parsed flags -> the plain-scalar options :func:`build_app`,
    :class:`RequestGate` and :func:`demo_compendium` take (flags that
    configure something else — the listener, the loops — are left out)."""
    known = {
        **build_app.__kwdefaults__,
        **RequestGate.__init__.__kwdefaults__,
        **demo_compendium.__kwdefaults__,
    }
    options = {k: v for k, v in vars(args).items() if k in known}
    try:
        options.update(read_auth_files(args))
    except ValueError as exc:
        parser.error(str(exc))
    return options


# --------------------------------------------------------------------------
# running it
# --------------------------------------------------------------------------
def print_banner(host: str, port: int, truth=None, *, what: str = "serving v1 API") -> None:
    """Ready-to-curl examples against the planted module."""
    base = f"http://{host}:{port}"
    print(f"{what} on {base}/v1/", flush=True)
    print(f"  try: curl {base}/v1/health", flush=True)
    print(f"  try: curl {base}/v1/datasets", flush=True)
    if truth is not None:
        genes = list(truth.query_genes)
        page = json.dumps({"genes": genes, "page_size": 10})
        export = json.dumps({"genes": genes, "chunk_size": 100})
        print(f"  try: curl -X POST {base}/v1/search -d '{page}'", flush=True)
        print(f"  try: curl -N -X POST {base}/v1/search/export -d '{export}'", flush=True)


def stop_signal() -> threading.Event:
    """An event SIGTERM / SIGINT sets, from here on.  Call it on the main
    thread before the process serves or announces itself, so no signal
    can arrive unhandled once a client can see it."""
    stop = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, frame: stop.set())
    return stop


def serve_until_signalled(server, app: ApiApp, run) -> None:
    """``run()`` the bound ``server`` until SIGTERM / SIGINT, then tear down.

    The order is the drain contract's: the signal starts the server's
    graceful ``close()`` (stop accepting, finish in-flight responses,
    bounded), and only then are the catalog and the service closed — a
    response being written never loses its backend.  ``run`` blocks
    while serving (``server.serve_forever`` or ``asyncio.run`` of it);
    it gets its own thread because ``close()`` must come from off the
    serving thread and signal handlers run on this one, which must be
    the main thread.
    """
    stop = stop_signal()
    serving = threading.Thread(target=run, name="serve", daemon=True)
    serving.start()
    try:
        while serving.is_alive() and not stop.wait(0.2):
            pass
    finally:
        server.close()  # returns once serving stopped (or the drain bound expired)
        if app.catalog is not None:
            app.catalog.close()
        app.service.close()

"""The serving CLIs share one builder (:mod:`repro.api.cli`): its flag
table is what the operations guide documents, and its lifecycle helper
is what makes every entry point — the router included — drain on SIGTERM.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.api import cli
from repro.synth import systematic_names
from tests.smoke.conftest import ENV, REPO, RPC_BANNER, port_from_banner, spawn

SYNTH = ["--synth-datasets", "4", "--synth-genes", "80", "--synth-conditions", "8"]


def test_operations_guide_carries_the_flag_table():
    guide = (REPO / "docs" / "operations.md").read_text(encoding="utf-8")
    assert cli.flag_table() in guide, (
        "docs/operations.md is stale: paste the output of "
        "`python -c 'from repro.api import cli; print(cli.flag_table())'`"
    )


def test_build_app_refuses_unknown_options():
    with pytest.raises(TypeError, match="no_such_option"):
        cli.build_app(no_such_option=1)


def test_serving_imports_what_it_serves():
    """Booting a facade, the router or a pool worker loads neither
    networkx nor scipy (0.35 s and ~29 MiB per process, for code no route
    reaches); the functions that need them import them when called."""
    script = """
import sys
import repro.api.http, repro.api.aio.server, repro.cluster_serving.router, repro.spell.procpool
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx"))
assert not heavy, heavy[:5]
import repro.spell, repro.stats
from repro.synth import make_simple_dataset
assert 0.0 < repro.stats.enrichment_pvalue(3, 100, 10, 12) < 1.0
graph = repro.spell.coexpression_graph(make_simple_dataset(n_genes=12, n_conditions=6, n_module_genes=4), threshold=0.5)
assert graph.number_of_nodes() == 12 and repro.spell.extract_modules(graph) is not None
assert "scipy" in sys.modules and "networkx" in sys.modules
"""
    done = subprocess.run(
        [sys.executable, "-c", script], env=ENV, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_router_cli_drains_in_flight_response_on_sigterm():
    """SIGTERM while a routed request is being answered: the client
    still gets the full response, then the router exits cleanly."""
    shard = spawn(
        "repro.cluster_serving.shard", "--port", "0", "--shards", "1",
        "--shard-index", "0", *SYNTH,
        # every partials call is held 1.5 s: a reliably slow request
        "--fault-plan", "seed=1,stall=1.0,stall_seconds=1.5,methods=partials",
    )
    router = None
    try:
        shard_port = port_from_banner(shard, RPC_BANNER)
        router = spawn(
            "repro.cluster_serving", "--port", "0", "--no-hedge", *SYNTH,
            "--shard-addresses", f"127.0.0.1:{shard_port}",
        )
        port = port_from_banner(router)
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/search",
            data=json.dumps({"genes": systematic_names(3), "page_size": 5}).encode(),
        )
        outcome: dict = {}

        def issue() -> None:
            try:
                with urllib.request.urlopen(request, timeout=30) as resp:
                    outcome["status"] = resp.status
                    outcome["body"] = json.loads(resp.read())
            except Exception as exc:  # noqa: BLE001 — reported by the assert
                outcome["error"] = exc

        client = threading.Thread(target=issue)
        client.start()
        time.sleep(0.5)  # the request is now parked on the stalled shard
        router.send_signal(signal.SIGTERM)
        client.join(timeout=30)
        assert not client.is_alive()
        assert outcome.get("status") == 200, outcome
        assert outcome["body"]["gene_rows"], outcome
        assert router.wait(timeout=30) == 0
        shard.send_signal(signal.SIGTERM)
        assert shard.wait(timeout=30) == 0
    finally:
        for proc in (router, shard):
            if proc is not None:
                proc.kill()
                proc.wait(timeout=10)
                proc.stdout.close()

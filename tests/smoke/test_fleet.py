"""The sharded fleet as real processes: a router over three shard CLIs,
``--fault-plan``, ``kill -9`` of a shard, and a restart on its port that
rejoins a router never restarted.  Merge, failover, hedging and breakers
are checked in-process by ``test_chaos.py``, ``test_faults_policy.py``
and ``test_sharded_serving.py``.

Placement is deterministic for the ``--seed 42`` demo compendium:
shard-1 owns 7 datasets, shard-2 ``dataset_05`` and ``dataset_08``."""

from __future__ import annotations

import http.client
import json
import time

from tests.smoke.conftest import QUERY, RPC_BANNER, call, port_from_banner

SYNTH = ["--synth-datasets", "9", "--synth-genes", "150", "--synth-conditions", "10"]
LIVE = dict(QUERY, use_cache=False)  # every request exercises the fan-out
# shard-1's first three partials replies reset mid-frame, then the plan is spent
FAULTY = "seed=7,reset_mid_frame=1.0,max_faults=3,methods=partials"


def start_shard(procs, index: int, *flags: str, port: int = 0):
    return procs.start("repro.cluster_serving.shard", "--port", str(port), "--shards", "3",
                       "--shard-index", str(index), *SYNTH, *flags)


def search(conn: http.client.HTTPConnection) -> tuple[int, dict]:
    resp, body = call(conn, "POST", "/v1/search", LIVE)
    return resp.status, json.loads(body)


def until_complete(conn: http.client.HTTPConnection, seconds: float) -> None:
    deadline = time.monotonic() + seconds
    while search(conn)[1]["partial"]:
        assert time.monotonic() < deadline, f"still partial after {seconds} s"
        time.sleep(0.25)


def test_shard_loss_is_a_flagged_partial_and_a_restart_rejoins(procs):
    shards = [start_shard(procs, 0), start_shard(procs, 1, "--fault-plan", FAULTY),
              start_shard(procs, 2)]
    ports = [port_from_banner(shard, RPC_BANNER) for shard in shards]
    addresses = ",".join(f"127.0.0.1:{port}" for port in ports)
    port = procs.boot("repro.cluster_serving", *SYNTH, "--breaker-reset", "1.0",
                      "--shard-addresses", addresses)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    _, body = call(conn, "GET", "/v1/health")
    assert set(json.loads(body)["shards"]["nodes"]) == {"shard-0", "shard-1", "shard-2"}

    for _ in range(4):  # the storm: every answer structured, any gap itemized
        status, body = search(conn)
        assert status == 200 and isinstance(body["partial"], bool) and body["gene_rows"], body
        assert not body["partial"] or body["shards"]["missing_datasets"], body
    until_complete(conn, 15)  # the fault budget is spent and the breaker closes

    procs.kill(shards[2])
    status, body = search(conn)
    assert status == 200 and body["partial"] is True and body["gene_rows"], body
    assert body["shards"]["missing_datasets"] == ["dataset_05", "dataset_08"]

    # RpcServer sets SO_REUSEADDR: the restart takes the address the router knows
    shards[2] = start_shard(procs, 2, port=ports[2])
    port_from_banner(shards[2], RPC_BANNER)
    until_complete(conn, 30)
    _, body = call(conn, "GET", "/v1/health")
    assert json.loads(body)["shards"]["nodes"]["shard-2"]["alive"] is True

    procs.kill(shards[1])
    procs.kill(shards[2])
    status, body = search(conn)
    assert status == 503 and body["error"]["code"] == "SHARD_UNAVAILABLE", body
    conn.close()

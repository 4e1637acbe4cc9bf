"""The two facades and the loop group as real processes: CLI flags wired
to behaviour on the wire.  The request contract is checked in-process by
``test_api_conformance.py``, the gate by ``test_api_limits.py``, tenants
by ``test_catalog.py`` and ``test_api_multitenant.py``."""

from __future__ import annotations

import hashlib
import http.client
import json
import time

import pytest

from repro.api.cli import demo_compendium
from repro.data.pcl import format_pcl
from tests.smoke.conftest import QUERY, SYNTH, call

FACADES = {"threaded": ["repro.api.http"], "aio": ["repro.api.aio", "--loops", "1"]}


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_facade_serves_refuses_and_streams(facade, procs, tmp_path):
    """``--auth-token-file`` and ``--rate-limit``/``--rate-burst``: health
    stays open, a tokenless search is 401, an unknown gene a structured
    404, an export's trailer checksum holds, and the request after the
    burst is 429 with ``Retry-After`` — counted in ``/v1/health``."""
    (tmp_path / "token").write_text("smoke-token")
    # 0.02/s is one token per 50 s: nothing refills during the test
    port = procs.boot(*FACADES[facade], *SYNTH, "--auth-token-file", str(tmp_path / "token"),
                      "--rate-limit", "0.02", "--rate-burst", "4")
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    resp, body = call(conn, "GET", "/v1/health")
    health = json.loads(body)
    assert resp.status == 200 and health["status"] == "ok" and health["api_version"] == "v1"

    resp, body = call(conn, "POST", "/v1/search", QUERY)
    assert resp.status == 401 and json.loads(body)["error"]["code"] == "UNAUTHORIZED"

    resp, body = call(conn, "POST", "/v1/search", QUERY, token="smoke-token")
    assert resp.status == 200 and json.loads(body)["gene_rows"], body[:200]

    resp, body = call(conn, "POST", "/v1/search", {"genes": ["NOT_A_GENE"]}, token="smoke-token")
    assert resp.status == 404 and json.loads(body)["error"]["code"] == "UNKNOWN_GENE"

    export = {"genes": QUERY["genes"], "chunk_size": 40}
    resp, body = call(conn, "POST", "/v1/search/export", export, token="smoke-token")
    assert resp.status == 200, body[:200]
    lines = body.splitlines(keepends=True)
    trailer = json.loads(lines[-1])
    assert trailer["kind"] == "trailer" and trailer["status"] == "ok", trailer
    rows = sum(len(json.loads(line)["gene_rows"]) for line in lines[:-1])
    assert rows == trailer["total_rows"] > 0
    assert trailer["checksum"] == "sha256:" + hashlib.sha256(b"".join(lines[:-1])).hexdigest()

    resp, _ = call(conn, "POST", "/v1/search", QUERY, token="smoke-token")  # the 4th token
    assert resp.status == 200
    resp, body = call(conn, "POST", "/v1/search", QUERY, token="smoke-token")
    error = json.loads(body)["error"]
    assert resp.status == 429 and error["code"] == "RATE_LIMITED", error
    assert error["details"]["retry_after_ms"] >= 1 and int(resp.getheader("Retry-After")) >= 1

    resp, body = call(conn, "GET", "/v1/health")
    health = json.loads(body)
    assert health["limits"]["rate_limited"] >= 1, health["limits"]
    if facade == "aio":
        # 401 and 429 close their connection; the other requests reuse one
        transport = health["serving"]["transport"]["aio"]
        assert transport["requests_total"] >= 8 and transport["keepalive_reuses"] >= 4, transport
    conn.close()


def test_loop_group_answers_from_every_loop(procs):
    """``--loops 2``: two worker processes share the port through
    ``SO_REUSEPORT``, and fresh connections reach both.  The banner
    follows the first loop to answer, so the other may still be booting:
    the bound is time, not a count of connections."""
    port = procs.boot("repro.api.aio", "--loops", "2", *SYNTH)
    seen: set[str] = set()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        _, body = call(conn, "GET", "/v1/health")
        seen.update(json.loads(body)["serving"]["transport"])
        resp, body = call(conn, "POST", "/v1/search", QUERY)
        assert resp.status == 200 and json.loads(body)["gene_rows"]
        conn.close()
        if seen >= {"aio:0", "aio:1"}:
            break
    assert seen >= {"aio:0", "aio:1"}, f"only {seen} answered in 30 s"


def test_catalog_and_token_quota_flags(procs, tmp_path):
    """``--catalog-root``, ``--auth-tokens-file`` and ``--token-rate-*``:
    an ingest creates a tenant that search and health see, and one
    principal's spent quota is a token-scoped 429 that spares another."""
    (tmp_path / "tokens").write_text("alice:tok-alice\nbob:tok-bob\n")
    port = procs.boot("repro.api.http", *SYNTH, "--catalog-root", str(tmp_path / "fleet"),
                      "--auth-tokens-file", str(tmp_path / "tokens"),
                      "--token-rate-limit", "0.02", "--token-rate-burst", "2")
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    compendium, _ = demo_compendium(synth_datasets=6, synth_genes=120, synth_conditions=10)
    ingest = {"compendium": "tenant-b", "name": "dataset_00", "format": "pcl",
              "content": format_pcl(compendium[0].matrix)}
    resp, body = call(conn, "POST", "/v1/ingest", ingest, token="tok-alice")
    assert resp.status == 200 and json.loads(body)["compendium"] == "tenant-b", body[:200]

    query = dict(QUERY, compendium="tenant-b")
    resp, body = call(conn, "POST", "/v1/search", query, token="tok-alice")
    assert resp.status == 200 and json.loads(body)["gene_rows"], body[:200]
    resp, body = call(conn, "POST", "/v1/search", query, token="tok-alice")
    details = json.loads(body)["error"]["details"]
    assert resp.status == 429 and int(resp.getheader("Retry-After")) >= 1
    assert details["scope"] == "token" and details["principal"] == "alice", details
    resp, _ = call(conn, "POST", "/v1/search", query, token="tok-bob")
    assert resp.status == 200

    _, body = call(conn, "GET", "/v1/health")
    assert json.loads(body)["tenants"]["tenant-b"]["ingests"] == 1
    conn.close()

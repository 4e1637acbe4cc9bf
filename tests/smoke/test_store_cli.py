"""A persistent store under the real facade: ``--store-dir`` and
``--store-verify``, the store CLI's exit codes and JSON, a reboot
healing the store.  Scrub, quarantine and publish are checked in-process
by ``test_spell_store.py`` and ``test_store_durability.py``."""

from __future__ import annotations

import http.client
import json

from tests.smoke.conftest import QUERY, SYNTH, call, port_from_banner, run_python


def serve_once(procs, store, *flags: str) -> tuple[dict, dict]:
    """Boot the facade over ``store``, read ``/v1/health`` and one search
    (less its timing field), and stop it."""
    facade = procs.start("repro.api.http", "--port", "0", *SYNTH, "--store-dir", str(store),
                         *flags)
    conn = http.client.HTTPConnection("127.0.0.1", port_from_banner(facade), timeout=30)
    _, health = call(conn, "GET", "/v1/health")
    resp, body = call(conn, "POST", "/v1/search", QUERY)
    assert resp.status == 200, body[:200]
    conn.close()
    procs.stop(facade)
    search = json.loads(body)
    search.pop("elapsed_seconds")
    return json.loads(health), search


def store_cli(*args) -> tuple[int, str, str]:
    done = run_python("-m", "repro.spell.store", *map(str, args))
    return done.returncode, done.stdout, done.stderr


def test_a_flipped_byte_is_found_quarantined_and_rebuilt(procs, tmp_path):
    store = tmp_path / "store"
    serve_once(procs, store)  # the first boot builds and saves the store
    assert store_cli("verify", store)[0] == 0

    shard = sorted(store.glob("shard-*.npy"))[0]
    data = bytearray(shard.read_bytes())
    data[len(data) // 2] ^= 0xFF
    shard.write_bytes(bytes(data))
    code, out, _ = store_cli("verify", store)
    assert code == 1 and len(json.loads(out)["corrupt"]) == 1, out

    health, search = serve_once(procs, store, "--store-verify", "eager")
    storage = health["storage"]
    assert storage["quarantined"] >= 1 and storage["rebuilt"] >= 1, storage
    assert storage["persistent"] is True and search["gene_rows"]
    assert store_cli("verify", store)[0] == 0


def test_a_record_naming_a_file_outside_the_store_is_refused(procs, tmp_path):
    store = tmp_path / "store"
    _, before = serve_once(procs, store)
    manifest = json.loads((store / "manifest.json").read_text())
    record = manifest["shards"][0]
    outside = tmp_path / "outside.npy"
    outside.write_bytes((store / record["file"]).read_bytes())
    original = outside.read_bytes()
    record["file"] = "../outside.npy"
    (store / "manifest.json").write_text(json.dumps(manifest))

    for verb in (["verify"], ["tiers"], ["demote", record["name"]], ["promote", record["name"]]):
        code, _, err = store_cli(verb[0], store, *verb[1:])
        assert code == 2, (verb, err)
        error = json.loads(err)["error"]  # all of stderr: the module runs once, unwarned
        assert "has bad file" in error and "../outside.npy" in error, error
    assert outside.read_bytes() == original and not (tmp_path / "outside.npz").exists()

    _, after = serve_once(procs, store)  # the service rebuilds over the refused manifest
    assert json.dumps(after) == json.dumps(before)
    assert outside.read_bytes() == original
    assert store_cli("verify", store)[0] == 0

"""In-process reference answers and the checks every response must pass.

The oracle is a plain ``SpellService`` over its own copy of the
compendium, living in the load-generator process.  A served body is
correct when, after one JSON round trip, it equals the oracle's answer
in every field except timings and serving-topology detail.
"""

from __future__ import annotations

import hashlib
import json

from repro.api.protocol import BatchSearchRequest, SearchRequest
from repro.data.loader import parse_dataset
from repro.spell import SpellService

import workloads
from workloads import EXPORT_CHUNK, Request

#: Fields that legitimately differ between a served answer and the oracle:
#: wall timings, cache luck, worker counts, per-shard routing detail.
VOLATILE = frozenset(
    {"elapsed_seconds", "total_seconds", "cache_hits", "cache_misses", "n_workers", "shards"}
)


def stable(obj):
    """``obj`` without its volatile fields, recursively."""
    if isinstance(obj, dict):
        return {k: stable(v) for k, v in obj.items() if k not in VOLATILE}
    if isinstance(obj, list):
        return [stable(v) for v in obj]
    return obj


def _wire(response) -> dict:
    return stable(json.loads(json.dumps(response.to_wire())))


class Oracle:
    def __init__(self) -> None:
        self.compendium = workloads.compendium()
        self.service = SpellService(self.compendium)

    def universe(self) -> list[str]:
        return self.compendium.gene_universe()

    def ingest(self, payload: dict) -> str:
        """Apply one acknowledged write; returns the dataset fingerprint."""
        dataset = parse_dataset(payload["content"], payload["format"], name=payload["name"])
        return self.service.ingest_dataset(dataset)

    # ------------------------------------------------------------- checks
    def check(self, request: Request, body: bytes) -> str | None:
        """``None`` when ``body`` is the right answer to ``request``,
        else a one-line description of the first difference."""
        try:
            if request.endpoint == "search/export":
                return self._check_export(request, body)
            served = stable(json.loads(body))
            if request.endpoint == "search/batch":
                expected = _wire(
                    self.service.respond_batch(BatchSearchRequest.from_wire(request.payload))
                )
            else:
                expected = _wire(self.service.respond(SearchRequest.from_wire(request.payload)))
                if served.get("partial") is not False:
                    return f"partial={served.get('partial')!r}, want false"
        except Exception as exc:  # noqa: BLE001 — any failure to compare is a mismatch
            return f"{type(exc).__name__}: {exc}"
        if served != expected:
            keys = [k for k in expected if served.get(k) != expected[k]]
            return f"body differs from oracle in {keys or sorted(set(served) - set(expected))}"
        return None

    def _check_export(self, request: Request, body: bytes) -> str | None:
        lines = body.splitlines(keepends=True)
        if not lines:
            return "empty export stream"
        trailer = json.loads(lines[-1])
        if trailer.get("kind") != "trailer" or trailer.get("status") != "ok":
            return f"export trailer is {trailer.get('kind')}/{trailer.get('status')}"
        digest = hashlib.sha256()
        rows = []
        for line in lines[:-1]:
            digest.update(line)
            rows.extend(json.loads(line)["gene_rows"])
        if trailer["checksum"] != f"sha256:{digest.hexdigest()}":
            return "export checksum does not match the chunk lines"
        if trailer["total_rows"] != len(rows) or trailer["n_chunks"] != len(lines) - 1:
            return "export trailer counts do not match the stream"
        genes = request.payload["genes"]
        expected_rows = []
        page = 0
        while True:
            response = _wire(
                self.service.respond(
                    SearchRequest(genes=tuple(genes), page=page, page_size=EXPORT_CHUNK)
                )
            )
            expected_rows.extend(response["gene_rows"])
            page += 1
            if page >= response["total_pages"]:
                break
        if rows != expected_rows:
            return "export rows differ from the concatenated oracle pages"
        if trailer["dataset_rows"] != response["dataset_rows"]:
            return "export dataset_rows differ from the oracle"
        return None

    def check_ingest(self, request: Request, body: bytes) -> str | None:
        """An acknowledged write must name the fingerprint the oracle gets
        for the same bytes (applies the write to the oracle)."""
        try:
            ack = json.loads(body)
            fingerprint = self.ingest(request.payload)
        except Exception as exc:  # noqa: BLE001
            return f"{type(exc).__name__}: {exc}"
        if ack.get("fingerprint") != fingerprint:
            return f"ingest {request.payload['name']} fingerprint differs from oracle"
        if ack.get("datasets") != len(self.compendium):
            return f"ingest {request.payload['name']} reports {ack.get('datasets')} datasets"
        return None

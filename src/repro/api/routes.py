"""Declarative v1 endpoint registry — the single registration point.

Every facade used to carry its own if/elif dispatch (the app's endpoint
dict, the HTTP facade's GET-set and stream-set special cases); adding an
endpoint meant editing each one.  This table is now the only place an
endpoint is declared: :class:`~repro.api.app.ApiApp` dispatches
straight from it, the request pipeline (:mod:`repro.api.pipeline`)
derives routing *and* verb checking from it, the sharded router inherits
both unchanged, and the
``docs/api.md`` reference (:mod:`repro.api.docs`) is generated from it —
so the registry is the single source of truth for the wire contract.

Routes are keyed by endpoint *name* (``"search"``, ``"render/heatmap"``);
transports decide how names map to addresses (the HTTP facade serves
them under ``/v1/<name>``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.protocol import (
    BatchSearchRequest,
    BatchSearchResponse,
    ClusterRequest,
    ClusterResponse,
    DatasetListRequest,
    DatasetListResponse,
    ExportChunk,
    ExportRequest,
    ExportTrailer,
    HealthResponse,
    IngestRequest,
    IngestResponse,
    RenderRequest,
    RenderResponse,
    SearchRequest,
    SearchResponse,
)

__all__ = [
    "Route",
    "ROUTES",
    "ROUTE_BY_NAME",
    "all_endpoints",
]


@dataclass(frozen=True)
class Route:
    """One v1 endpoint: method, request/response schema, handler, kind.

    ``kind`` is ``"unary"`` (one JSON body in, one JSON body out) or
    ``"stream"`` (NDJSON lines); either way the app's one entry —
    ``ApiApp.ready_wire`` then ``ApiApp.compute_wire`` — parses it into
    ``request_cls`` and calls the ``ApiApp`` method named by ``handler``.
    ``response_cls`` may be a tuple for streams (the line types, in
    order of appearance).  ``raw_formats`` lists ``?format=``
    values that switch the response to raw bytes instead of the JSON
    envelope.  ``ready`` names the handler's never-waiting half when it
    has one: an ``ApiApp`` method that answers from what is already in
    memory — a unary route's encoded JSON body, a stream's lines — or
    returns ``None`` (see ``ApiApp.ready_wire``).
    """

    name: str
    method: str  # "GET" | "POST"
    request_cls: type | None
    handler: str  # ApiApp method name
    response_cls: type | tuple[type, ...] | None
    kind: str = "unary"
    summary: str = ""
    raw_formats: tuple[str, ...] = ()
    ready: str | None = None

    @property
    def path(self) -> str:
        return f"/v1/{self.name}"


ROUTES: tuple[Route, ...] = (
    Route(
        name="search",
        method="POST",
        request_cls=SearchRequest,
        handler="search",
        ready="search_cached",
        response_cls=SearchResponse,
        summary="One SPELL query: ranked genes + contributing datasets, paginated.",
    ),
    Route(
        name="search/batch",
        method="POST",
        request_cls=BatchSearchRequest,
        handler="search_batch",
        response_cls=BatchSearchResponse,
        summary="Many queries answered as one unit over the shared index.",
    ),
    Route(
        name="search/export",
        method="POST",
        request_cls=ExportRequest,
        handler="search_export",
        ready="search_export_cached",
        response_cls=(ExportChunk, ExportTrailer),
        kind="stream",
        summary=(
            "Full ranking as NDJSON: one chunk line per slice, "
            "terminated by a checksummed trailer line."
        ),
    ),
    Route(
        name="datasets",
        method="GET",
        request_cls=DatasetListRequest,
        handler="datasets",
        response_cls=DatasetListResponse,
        summary="The datasets currently served (name, shape, metadata).",
    ),
    Route(
        name="cluster",
        method="POST",
        request_cls=ClusterRequest,
        handler="cluster",
        response_cls=ClusterResponse,
        summary="Dendrogram over a search result's top genes.",
    ),
    Route(
        name="render/heatmap",
        method="POST",
        request_cls=RenderRequest,
        handler="render_heatmap",
        response_cls=RenderResponse,
        raw_formats=("ppm",),
        summary="Heatmap of a search result's top genes (PPM, base64 or raw).",
    ),
    Route(
        name="ingest",
        method="POST",
        request_cls=IngestRequest,
        handler="ingest",
        response_cls=IngestResponse,
        summary=(
            "Add one SOFT/PCL dataset to a tenant's live compendium; "
            "publication is copy-on-write, so racing queries never see a mix."
        ),
    ),
    Route(
        name="health",
        method="GET",
        request_cls=None,
        handler="health",
        response_cls=HealthResponse,
        summary="Liveness, serving counters, limits, and shard routing state.",
    ),
)

ROUTE_BY_NAME: dict[str, Route] = {route.name: route for route in ROUTES}


def all_endpoints() -> list[str]:
    """Every addressable endpoint name, sorted."""
    return sorted(r.name for r in ROUTES)

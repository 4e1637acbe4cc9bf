"""repro.api — the versioned, transport-agnostic query API (v1).

This package is the architectural seam between the analysis core and
every frontend: a typed wire protocol (:mod:`repro.api.protocol`), a
unified error model (:mod:`repro.api.errors`), one application object
routing to SPELL / clustering / rendering (:mod:`repro.api.app`), one
sans-IO request pipeline (:mod:`repro.api.pipeline`) and the two socket
drivers under it (:mod:`repro.api.http`, :mod:`repro.api.aio`).
``docs/api.md`` (generated from :mod:`repro.api.routes`) is the endpoint
list, wire schema and error-code reference; the compatibility policy is
in :mod:`repro.api.protocol`.

``protocol`` and ``errors`` are import-light (they never touch the
analysis core) and load eagerly; ``ApiApp`` and the HTTP helpers import
:mod:`repro.spell` and load lazily via module ``__getattr__`` — which is
also what lets :mod:`repro.spell.service` import the protocol types
without a cycle.
"""

from repro.api.errors import API_VERSION, ERROR_STATUS, ApiError, as_api_error, error_payload
from repro.api.protocol import (
    BatchSearchRequest,
    BatchSearchResponse,
    ClusterRequest,
    ClusterResponse,
    DatasetInfo,
    DatasetListRequest,
    DatasetListResponse,
    HealthResponse,
    RenderRequest,
    RenderResponse,
    SearchRequest,
    SearchResponse,
)

__all__ = [
    "API_VERSION",
    "ERROR_STATUS",
    "ApiError",
    "as_api_error",
    "error_payload",
    "SearchRequest",
    "BatchSearchRequest",
    "DatasetListRequest",
    "ClusterRequest",
    "RenderRequest",
    "SearchResponse",
    "BatchSearchResponse",
    "DatasetInfo",
    "DatasetListResponse",
    "ClusterResponse",
    "RenderResponse",
    "HealthResponse",
    # lazy (see __getattr__): the application object and HTTP facade
    "ApiApp",
    "ApiHTTPServer",
    "serve",
    "serve_background",
]

_LAZY = {
    "ApiApp": ("repro.api.app", "ApiApp"),
    "ApiHTTPServer": ("repro.api.http", "ApiHTTPServer"),
    "serve": ("repro.api.http", "serve"),
    "serve_background": ("repro.api.http", "serve_background"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)

"""Unified error model for the ``repro.api`` boundary.

Everything that crosses the API boundary — over HTTP or any other
transport — fails with a stable, machine-readable error code instead of
a leaked Python exception.  :class:`ApiError` is the single error type;
:func:`as_api_error` maps the library's internal exception hierarchy
(:class:`~repro.util.errors.SearchError`,
:class:`~repro.util.errors.StoreError`, validation failures, ...) onto
it; :func:`error_payload` renders the wire form every transport returns:

.. code-block:: json

    {"api_version": "v1",
     "error": {"code": "UNKNOWN_GENE",
               "message": "...",
               "details": {"unknown_genes": ["YXX999W"]}}}

Codes are part of the v1 contract (see ROADMAP "Versioned query API"):
clients may branch on ``code`` and ``details``; ``message`` is for
humans and may change between releases.
"""

from __future__ import annotations

from repro.util.errors import (
    DataFormatError,
    DeadlineExceeded,
    RenderError,
    ReproError,
    RpcError,
    SearchError,
    StoreCorruptError,
    StoreError,
    UnknownDatasetError,
    UnknownGeneError,
    ValidationError,
)

__all__ = [
    "API_VERSION",
    "ApiError",
    "ERROR_DESCRIPTIONS",
    "ERROR_STATUS",
    "as_api_error",
    "error_payload",
]

#: The wire-protocol version every v1 message carries.
API_VERSION = "v1"

#: Stable code -> default HTTP status.  The set of codes is append-only
#: within an api_version; removing or renaming one is a breaking change.
ERROR_STATUS: dict[str, int] = {
    "INVALID_REQUEST": 400,  # malformed field values / unknown fields
    "MALFORMED_BODY": 400,  # body is not a JSON object
    "UNSUPPORTED_VERSION": 400,  # api_version other than "v1"
    "INVALID_QUERY": 400,  # empty/duplicate gene list and kin
    "PAGE_OUT_OF_RANGE": 400,  # page >= total_pages
    "UNKNOWN_GENE": 404,  # no query gene exists in the compendium
    "UNKNOWN_DATASET": 404,  # a dataset filter names no known dataset
    "UNKNOWN_ENDPOINT": 404,  # no such route
    "UNKNOWN_COMPENDIUM": 404,  # the named tenant compendium does not exist
    "METHOD_NOT_ALLOWED": 405,  # known route, wrong HTTP verb
    "DATASET_EXISTS": 409,  # ingest would overwrite an existing dataset
    "UNAUTHORIZED": 401,  # missing/invalid bearer token (auth enabled)
    "RATE_LIMITED": 429,  # client key exceeded its token bucket
    "BODY_TOO_LARGE": 413,  # declared/observed body over the cap
    "INDEX_STALE": 503,  # persistent index unreadable / out of date
    "STORE_CORRUPT": 503,  # shard bytes failed integrity verification
    "SHARD_UNAVAILABLE": 503,  # sharded serving cannot reach the data owners
    "DEADLINE_EXCEEDED": 504,  # the request's deadline_ms budget ran out
    "INTERNAL": 500,  # anything unclassified (a bug, by definition)
}

#: Human-readable meaning of every stable code — the docs generator
#: (:mod:`repro.api.docs`) renders these, so the registry stays the
#: single source of truth for the error contract.
ERROR_DESCRIPTIONS: dict[str, str] = {
    "INVALID_REQUEST": "Malformed field values or unknown fields in the payload.",
    "MALFORMED_BODY": "The request body is not a JSON object.",
    "UNSUPPORTED_VERSION": "The payload declares an api_version other than 'v1'.",
    "INVALID_QUERY": "The gene query is empty or has duplicates.",
    "PAGE_OUT_OF_RANGE": "The requested page is at or past total_pages.",
    "UNKNOWN_GENE": "No query gene exists in the searched scope.",
    "UNKNOWN_DATASET": (
        "A dataset filter, or the dataset a cluster or render reads, names a "
        "dataset the server does not hold."
    ),
    "UNKNOWN_ENDPOINT": "No such route.",
    "UNKNOWN_COMPENDIUM": (
        "The request's compendium field names a tenant the catalog does not "
        "hold (details carries the known tenant names).  Requests omitting "
        "the field are served from the default compendium."
    ),
    "METHOD_NOT_ALLOWED": "Known route, wrong HTTP verb.",
    "DATASET_EXISTS": (
        "An ingest named a dataset the target compendium already serves.  "
        "Ingestion is append-only within a tenant; pick a new name.  The "
        "store is untouched."
    ),
    "UNAUTHORIZED": "Missing or invalid bearer token while auth is enabled.",
    "RATE_LIMITED": "The client key exceeded its token bucket; retry_after_ms rides in details.",
    "BODY_TOO_LARGE": "The declared or observed request body exceeds the cap.",
    "INDEX_STALE": "The persistent index is unreadable or out of date.",
    "STORE_CORRUPT": (
        "A persistent shard's bytes failed sha256 integrity verification and "
        "no bound source was available to rebuild from.  The damaged file has "
        "been quarantined (never served); details carries the affected "
        "datasets/files.  Not retriable until the store is repaired or "
        "rebuilt."
    ),
    "SHARD_UNAVAILABLE": (
        "Sharded serving could not reach any owner of the requested data "
        "(when partial results are possible they are served instead, flagged "
        "partial=true with per-shard detail)."
    ),
    "DEADLINE_EXCEEDED": (
        "The request's deadline_ms budget ran out before the answer was "
        "complete.  The server stopped work instead of blocking; nothing "
        "partial is served under this code.  Safe to retry with a larger "
        "(or no) deadline_ms."
    ),
    "INTERNAL": "Anything unclassified — a bug, by definition.",
}


class ApiError(ReproError):
    """A request failed with a stable machine-readable ``code``.

    ``details`` carries structured context (the offending genes, the
    valid page range, ...) that clients can act on without parsing the
    human-readable message.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        details: dict | None = None,
        http_status: int | None = None,
    ) -> None:
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown API error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.details = dict(details or {})
        self.http_status = ERROR_STATUS[code] if http_status is None else int(http_status)


def as_api_error(exc: BaseException) -> ApiError:
    """Classify any exception into the unified error model.

    The mapping is by exception *type*, most precise first: the two
    verdicts of :class:`~repro.spell.partials.GeneUniverse` carry the
    offending names and become ``UNKNOWN_DATASET`` / ``UNKNOWN_GENE``
    with them in ``details``; the generic buckets follow.
    """
    if isinstance(exc, ApiError):
        return exc
    # before the generic buckets: DeadlineExceeded subclasses ReproError
    # only, but it must never be mistaken for a retriable transport or
    # store failure — it means the *client's* budget ran out
    if isinstance(exc, DeadlineExceeded):
        return ApiError("DEADLINE_EXCEEDED", str(exc))
    # corrupt-before-stale: StoreCorruptError subclasses StoreError but
    # means the bytes are untrustworthy, not merely out of date
    if isinstance(exc, StoreCorruptError):
        details: dict = {}
        if getattr(exc, "datasets", ()):
            details["datasets"] = list(exc.datasets)
        if getattr(exc, "files", ()):
            details["quarantined_files"] = list(exc.files)
        return ApiError("STORE_CORRUPT", str(exc), details=details or None)
    if isinstance(exc, StoreError):
        return ApiError("INDEX_STALE", str(exc))
    if isinstance(exc, RpcError):
        return ApiError("SHARD_UNAVAILABLE", str(exc))
    if isinstance(exc, UnknownDatasetError):
        return ApiError(
            "UNKNOWN_DATASET",
            str(exc),
            details={"unknown_datasets": list(exc.datasets), "known_count": exc.known_count},
        )
    if isinstance(exc, UnknownGeneError):
        return ApiError("UNKNOWN_GENE", str(exc), details={"unknown_genes": list(exc.genes)})
    if isinstance(exc, SearchError):
        return ApiError("INVALID_QUERY", str(exc))
    if isinstance(exc, (ValidationError, RenderError, DataFormatError)):
        return ApiError("INVALID_REQUEST", str(exc))
    return ApiError("INTERNAL", f"{type(exc).__name__}: {exc}")


def error_payload(err: ApiError) -> dict:
    """The JSON-serializable wire form of one error."""
    body: dict = {"code": err.code, "message": err.message}
    if err.details:
        body["details"] = err.details
    return {"api_version": API_VERSION, "error": body}

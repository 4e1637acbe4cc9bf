"""Versioned, transport-agnostic wire protocol for the query API (v1).

This module is the public contract the paper's web interface (Figure 4)
implies: one typed request/response schema that any transport — the
stdlib HTTP facade in :mod:`repro.api.http`, an in-process caller, a
test harness — speaks unchanged.  Every message type is a frozen
dataclass with strict validation plus ``to_wire()`` / ``from_wire()``
JSON round-tripping under an explicit ``api_version`` (currently
``"v1"``).

Design rules (the compatibility policy, see ROADMAP):

* ``from_wire`` rejects unknown fields and non-``v1`` versions with
  structured :class:`~repro.api.errors.ApiError`\\ s — never a bare
  ``KeyError``/``TypeError`` leaking across the boundary.
* Within ``v1``, fields are append-only and every new field has a
  default, so yesterday's client payloads keep parsing.
* ``to_wire(x).from_wire`` is the identity for every message type
  (property-tested in ``tests/test_api_protocol.py``).

The response side also owns *pagination semantics*: ``total_pages`` is
always reported and a ``page`` past the end raises ``PAGE_OUT_OF_RANGE``.
"""

from __future__ import annotations

import base64
import math
import re
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Mapping

from repro.api.errors import API_VERSION, ApiError
from repro.cluster.distance import METRICS
from repro.cluster.hierarchical import LINKAGES
from repro.viz.colormap import COLORMAPS

if TYPE_CHECKING:  # runtime-independent: protocol never imports repro.spell
    from repro.spell.engine import SpellResult

__all__ = [
    "API_VERSION",
    "SearchRequest",
    "BatchSearchRequest",
    "DatasetListRequest",
    "ClusterRequest",
    "RenderRequest",
    "ExportRequest",
    "IngestRequest",
    "IngestResponse",
    "SearchResponse",
    "BatchSearchResponse",
    "DatasetInfo",
    "DatasetListResponse",
    "ClusterResponse",
    "RenderResponse",
    "ExportChunk",
    "ExportTrailer",
    "HealthResponse",
    "page_count",
    "check_page",
]


# --------------------------------------------------------------------------
# wire-level helpers
# --------------------------------------------------------------------------
def _invalid(message: str, **details) -> ApiError:
    return ApiError("INVALID_REQUEST", message, details=details or None)


def _check_payload(payload, allowed: frozenset[str], kind: str) -> dict:
    """Version + unknown-field gate every ``from_wire`` runs first."""
    if not isinstance(payload, Mapping):
        raise ApiError(
            "MALFORMED_BODY", f"{kind} payload must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("api_version", API_VERSION)
    if version != API_VERSION:
        raise ApiError(
            "UNSUPPORTED_VERSION",
            f"this server speaks api_version {API_VERSION!r}, got {version!r}",
            details={"supported": [API_VERSION]},
        )
    unknown = sorted(set(payload) - allowed - {"api_version"})
    if unknown:
        raise _invalid(f"unknown {kind} field(s): {', '.join(unknown)}", unknown_fields=unknown)
    return dict(payload)


def _str_tuple(value, name: str) -> tuple[str, ...]:
    if isinstance(value, str) or not isinstance(value, (list, tuple)):
        raise _invalid(f"{name} must be a list of strings")
    out = []
    for item in value:
        if not isinstance(item, str):
            raise _invalid(f"{name} must contain only strings, got {type(item).__name__}")
        out.append(item)
    return tuple(out)


def _int_field(value, name: str, *, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _invalid(f"{name} must be an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise _invalid(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _bool_field(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise _invalid(f"{name} must be a boolean, got {type(value).__name__}")
    return value


def _number_field(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _invalid(f"{name} must be a number, got {type(value).__name__}")
    return float(value)


def _allowed_fields(cls) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls))


def _query_genes(value) -> tuple[str, ...]:
    """Shared gene-list validation for every query-shaped request
    (search, export) — one definition, so paged and streaming paths can
    never drift on what counts as a valid query."""
    genes = tuple(str(g) for g in value)
    if not genes:
        raise ApiError("INVALID_QUERY", "query must contain at least one gene")
    if len(set(genes)) != len(genes):
        raise ApiError("INVALID_QUERY", "query contains duplicate genes")
    return genes


def _optional_top_k(value) -> int | None:
    return None if value is None else _int_field(value, "top_k", minimum=1)


def _optional_deadline_ms(value) -> int | None:
    """Shared ``deadline_ms`` validation (None = no budget).

    The server turns this into a monotonic budget at admission; every
    downstream wait (shard RPC, worker pool) is clamped to it and a
    spent budget is a structured ``DEADLINE_EXCEEDED``, never an
    open-ended block.
    """
    return None if value is None else _int_field(value, "deadline_ms", minimum=1)


#: Tenant (compendium) names double as store-directory names, so the
#: grammar is filesystem-safe by construction: leading alphanumeric,
#: then up to 63 more of ``[A-Za-z0-9._-]`` — no separators, no
#: traversal, no hidden files.
_COMPENDIUM_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Ingested dataset names become source-file basenames under the
#: tenant's directory; same grammar, slightly longer budget.
_DATASET_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


def _optional_compendium(value) -> str | None:
    """Shared ``compendium`` validation (None = the default tenant).

    Every tenant-scoped request runs this one definition, so what
    counts as a routable tenant name can never drift between endpoints
    — and a hostile name can never reach the filesystem layer.
    """
    if value is None:
        return None
    if not isinstance(value, str):
        raise _invalid(f"compendium must be a string or null, got {type(value).__name__}")
    if not _COMPENDIUM_RE.fullmatch(value):
        raise _invalid(
            f"compendium {value!r} is not a valid tenant name (want "
            "leading alphanumeric, then [A-Za-z0-9._-], max 64 chars)"
        )
    return value


def _datasets_filter(value) -> tuple[str, ...] | None:
    """Shared ``datasets`` filter validation (None = whole compendium)."""
    if value is None:
        return None
    datasets = tuple(str(d) for d in value)
    if not datasets:
        raise _invalid("datasets filter must name at least one dataset")
    if len(set(datasets)) != len(datasets):
        raise _invalid("datasets filter contains duplicates")
    return datasets


def page_count(total: int, page_size: int) -> int:
    """Pages needed for ``total`` rows; an empty result still has 1 (empty) page."""
    return max(1, math.ceil(max(0, total) / max(1, page_size)))


def check_page(page: int, total: int, page_size: int) -> int:
    """Validate ``page`` against the ranking size; returns ``total_pages``."""
    total_pages = page_count(total, page_size)
    if page >= total_pages:
        raise ApiError(
            "PAGE_OUT_OF_RANGE",
            f"page {page} out of range: result has {total_pages} page(s) "
            f"of size {page_size} ({total} rows)",
            details={"page": page, "total_pages": total_pages, "total_rows": total},
        )
    return total_pages


# --------------------------------------------------------------------------
# requests
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class SearchRequest:
    """One SPELL query: genes in, ranked genes + datasets out.

    ``datasets`` restricts the search to the named datasets (only they
    are weighted and contribute gene scores); ``None`` searches the whole
    compendium.  ``top_k`` caps the gene ranking the client can page
    over; ``None`` means the full ranking.  ``deadline_ms`` (append-only
    v1 addition) bounds how long the server may spend answering — past
    it the request fails with ``DEADLINE_EXCEEDED`` rather than
    blocking; ``None`` keeps the server's fixed timeouts.
    ``compendium`` (append-only v1 addition) names the tenant
    compendium to search; ``None`` keeps today's behavior exactly (the
    default compendium), so pre-tenant clients parse and are answered
    unchanged.
    """

    genes: tuple[str, ...]
    top_k: int | None = None
    page: int = 0
    page_size: int = 20
    top_datasets: int = 10
    datasets: tuple[str, ...] | None = None
    use_cache: bool = True
    deadline_ms: int | None = None
    compendium: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "genes", _query_genes(self.genes))
        object.__setattr__(self, "top_k", _optional_top_k(self.top_k))
        _int_field(self.page, "page", minimum=0)
        _int_field(self.page_size, "page_size", minimum=1)
        _int_field(self.top_datasets, "top_datasets", minimum=0)
        object.__setattr__(self, "datasets", _datasets_filter(self.datasets))
        _bool_field(self.use_cache, "use_cache")
        object.__setattr__(
            self, "deadline_ms", _optional_deadline_ms(self.deadline_ms)
        )
        object.__setattr__(
            self, "compendium", _optional_compendium(self.compendium)
        )

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "genes": list(self.genes),
            "top_k": self.top_k,
            "page": self.page,
            "page_size": self.page_size,
            "top_datasets": self.top_datasets,
            "datasets": None if self.datasets is None else list(self.datasets),
            "use_cache": self.use_cache,
            "deadline_ms": self.deadline_ms,
            "compendium": self.compendium,
        }

    @classmethod
    def from_wire(cls, payload) -> "SearchRequest":
        data = _check_payload(payload, _allowed_fields(cls), "search request")
        if "genes" not in data:
            raise ApiError("INVALID_QUERY", "search request needs a 'genes' list")
        datasets = data.get("datasets")
        return cls(
            genes=_str_tuple(data["genes"], "genes"),
            top_k=None if data.get("top_k") is None else data["top_k"],
            page=data.get("page", 0),
            page_size=data.get("page_size", 20),
            top_datasets=data.get("top_datasets", 10),
            datasets=None if datasets is None else _str_tuple(datasets, "datasets"),
            use_cache=data.get("use_cache", True),
            deadline_ms=data.get("deadline_ms"),
            compendium=data.get("compendium"),
        )


@dataclass(frozen=True)
class BatchSearchRequest:
    """A batch of searches answered concurrently over the shared index.

    All-or-nothing: if any member request fails (bad page, unknown
    genes), the whole batch fails with that request's error.

    ``deadline_ms`` bounds the *whole batch*; a member search's own
    ``deadline_ms`` can only tighten it further.

    ``compendium`` (append-only v1 addition) scopes the whole batch to
    one tenant.  A member search may repeat the same tenant (or omit
    it), but a batch is never allowed to straddle tenants — mixing
    scopes in one all-or-nothing unit would make its failure semantics
    ambiguous.
    """

    searches: tuple[SearchRequest, ...]
    scheduler: str = "map"
    deadline_ms: int | None = None
    compendium: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "searches", tuple(self.searches))
        if not self.searches:
            raise _invalid("batch must contain at least one search")
        for req in self.searches:
            if not isinstance(req, SearchRequest):
                raise _invalid("batch members must be search requests")
        if self.scheduler not in ("map", "steal"):
            raise _invalid(f"scheduler must be 'map' or 'steal', got {self.scheduler!r}")
        object.__setattr__(
            self, "deadline_ms", _optional_deadline_ms(self.deadline_ms)
        )
        object.__setattr__(
            self, "compendium", _optional_compendium(self.compendium)
        )
        for req in self.searches:
            if req.compendium is not None and req.compendium != self.compendium:
                raise _invalid(
                    "batch members must not name a different compendium than "
                    f"the batch ({req.compendium!r} vs {self.compendium!r})"
                )

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "searches": [req.to_wire() for req in self.searches],
            "scheduler": self.scheduler,
            "deadline_ms": self.deadline_ms,
            "compendium": self.compendium,
        }

    @classmethod
    def from_wire(cls, payload) -> "BatchSearchRequest":
        data = _check_payload(payload, _allowed_fields(cls), "batch request")
        raw = data.get("searches")
        if not isinstance(raw, list):
            raise _invalid("batch request needs a 'searches' list")
        return cls(
            searches=tuple(SearchRequest.from_wire(item) for item in raw),
            scheduler=data.get("scheduler", "map"),
            deadline_ms=data.get("deadline_ms"),
            compendium=data.get("compendium"),
        )


@dataclass(frozen=True)
class DatasetListRequest:
    """List the datasets currently served (name, shape, metadata).

    ``compendium`` (append-only v1 addition) lists a named tenant's
    datasets; ``None`` keeps listing the default compendium, exactly as
    before.
    """

    compendium: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "compendium", _optional_compendium(self.compendium)
        )

    def to_wire(self) -> dict:
        return {"api_version": API_VERSION, "compendium": self.compendium}

    @classmethod
    def from_wire(cls, payload) -> "DatasetListRequest":
        data = _check_payload(
            payload if payload is not None else {},
            _allowed_fields(cls),
            "dataset-list request",
        )
        return cls(compendium=data.get("compendium"))


@dataclass(frozen=True)
class ClusterRequest:
    """Hierarchically cluster a search result's top genes.

    The expression values come from ``dataset`` when named, else from the
    search's top-weighted dataset.  ``top_genes`` bounds how many ranked
    genes enter the clustering.
    """

    search: SearchRequest
    top_genes: int = 30
    dataset: str | None = None
    metric: str = "correlation"
    linkage: str = "average"

    def __post_init__(self) -> None:
        if not isinstance(self.search, SearchRequest):
            raise _invalid("cluster request needs a nested search request")
        _int_field(self.top_genes, "top_genes", minimum=2)
        if self.dataset is not None and not isinstance(self.dataset, str):
            raise _invalid("dataset must be a string or null")
        if self.metric not in METRICS:
            raise _invalid(
                f"unknown metric {self.metric!r}", choices=sorted(METRICS)
            )
        if self.linkage not in LINKAGES:
            raise _invalid(
                f"unknown linkage {self.linkage!r}", choices=sorted(LINKAGES)
            )

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "search": self.search.to_wire(),
            "top_genes": self.top_genes,
            "dataset": self.dataset,
            "metric": self.metric,
            "linkage": self.linkage,
        }

    @classmethod
    def from_wire(cls, payload) -> "ClusterRequest":
        data = _check_payload(payload, _allowed_fields(cls), "cluster request")
        if "search" not in data:
            raise _invalid("cluster request needs a 'search' object")
        return cls(
            search=SearchRequest.from_wire(data["search"]),
            top_genes=data.get("top_genes", 30),
            dataset=data.get("dataset"),
            metric=data.get("metric", "correlation"),
            linkage=data.get("linkage", "average"),
        )


@dataclass(frozen=True)
class RenderRequest:
    """Render a search result's top genes as a heatmap (binary PPM).

    ``cluster=True`` reorders the rows by the dendrogram leaf order
    (correlation distance, average linkage) before rendering; otherwise
    rows follow the search ranking.
    """

    search: SearchRequest
    top_genes: int = 30
    dataset: str | None = None
    colormap: str = "red-green"
    saturation: float | None = None
    cell_width: int = 8
    cell_height: int = 8
    cluster: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.search, SearchRequest):
            raise _invalid("render request needs a nested search request")
        _int_field(self.top_genes, "top_genes", minimum=1)
        if self.dataset is not None and not isinstance(self.dataset, str):
            raise _invalid("dataset must be a string or null")
        if self.colormap not in COLORMAPS:
            raise _invalid(
                f"unknown colormap {self.colormap!r}", choices=sorted(COLORMAPS)
            )
        if self.saturation is not None:
            saturation = _number_field(self.saturation, "saturation")
            if saturation <= 0:
                raise _invalid(f"saturation must be positive, got {saturation}")
            object.__setattr__(self, "saturation", saturation)
        _int_field(self.cell_width, "cell_width", minimum=1)
        _int_field(self.cell_height, "cell_height", minimum=1)
        _bool_field(self.cluster, "cluster")

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "search": self.search.to_wire(),
            "top_genes": self.top_genes,
            "dataset": self.dataset,
            "colormap": self.colormap,
            "saturation": self.saturation,
            "cell_width": self.cell_width,
            "cell_height": self.cell_height,
            "cluster": self.cluster,
        }

    @classmethod
    def from_wire(cls, payload) -> "RenderRequest":
        data = _check_payload(payload, _allowed_fields(cls), "render request")
        if "search" not in data:
            raise _invalid("render request needs a 'search' object")
        return cls(
            search=SearchRequest.from_wire(data["search"]),
            top_genes=data.get("top_genes", 30),
            dataset=data.get("dataset"),
            colormap=data.get("colormap", "red-green"),
            saturation=data.get("saturation"),
            cell_width=data.get("cell_width", 8),
            cell_height=data.get("cell_height", 8),
            cluster=data.get("cluster", False),
        )


@dataclass(frozen=True)
class ExportRequest:
    """Stream a search's *entire* gene ranking as fixed-size chunks.

    The deep-export counterpart of :class:`SearchRequest`: instead of a
    ``page``/``page_size`` window, the server walks the full ranking
    (capped by ``top_k`` when given) in ``chunk_size`` slices and
    streams one :class:`ExportChunk` per slice, terminated by one
    :class:`ExportTrailer`.  Reassembled, the chunks' ``gene_rows`` are
    bit-identical to the concatenation of every page the equivalent
    paged search would have served.

    ``resume_offset`` (append-only v1 addition) restarts an interrupted
    export at a chunk boundary: the stream begins at the chunk whose
    first row has that global offset, and its chunk lines are
    bit-identical to the same-offset lines of an uninterrupted export
    of the same request.  It must be a multiple of ``chunk_size`` —
    resumption is by chunk, never mid-chunk, so a client retries from
    the offset after the last chunk it fully received.

    ``compendium`` (append-only v1 addition) exports from the named
    tenant's compendium; ``None`` exports from the default one.
    """

    genes: tuple[str, ...]
    top_k: int | None = None
    chunk_size: int = 500
    top_datasets: int = 10
    datasets: tuple[str, ...] | None = None
    use_cache: bool = True
    deadline_ms: int | None = None
    resume_offset: int = 0
    compendium: str | None = None

    def __post_init__(self) -> None:
        # identical field discipline to SearchRequest (shared helpers):
        # the export of a query and the pages of that query must agree
        # on what a valid query even is
        object.__setattr__(self, "genes", _query_genes(self.genes))
        object.__setattr__(self, "top_k", _optional_top_k(self.top_k))
        _int_field(self.chunk_size, "chunk_size", minimum=1)
        _int_field(self.top_datasets, "top_datasets", minimum=0)
        object.__setattr__(self, "datasets", _datasets_filter(self.datasets))
        _bool_field(self.use_cache, "use_cache")
        object.__setattr__(
            self, "deadline_ms", _optional_deadline_ms(self.deadline_ms)
        )
        _int_field(self.resume_offset, "resume_offset", minimum=0)
        if self.resume_offset % self.chunk_size != 0:
            raise _invalid(
                f"resume_offset {self.resume_offset} is not a chunk boundary "
                f"(chunk_size {self.chunk_size}) — resume from the offset "
                "after the last fully-received chunk"
            )
        object.__setattr__(
            self, "compendium", _optional_compendium(self.compendium)
        )

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "genes": list(self.genes),
            "top_k": self.top_k,
            "chunk_size": self.chunk_size,
            "top_datasets": self.top_datasets,
            "datasets": None if self.datasets is None else list(self.datasets),
            "use_cache": self.use_cache,
            "deadline_ms": self.deadline_ms,
            "resume_offset": self.resume_offset,
            "compendium": self.compendium,
        }

    @classmethod
    def from_wire(cls, payload) -> "ExportRequest":
        data = _check_payload(payload, _allowed_fields(cls), "export request")
        if "genes" not in data:
            raise ApiError("INVALID_QUERY", "export request needs a 'genes' list")
        datasets = data.get("datasets")
        return cls(
            genes=_str_tuple(data["genes"], "genes"),
            top_k=None if data.get("top_k") is None else data["top_k"],
            chunk_size=data.get("chunk_size", 500),
            top_datasets=data.get("top_datasets", 10),
            datasets=None if datasets is None else _str_tuple(datasets, "datasets"),
            use_cache=data.get("use_cache", True),
            deadline_ms=data.get("deadline_ms"),
            resume_offset=data.get("resume_offset", 0),
            compendium=data.get("compendium"),
        )


@dataclass(frozen=True)
class IngestRequest:
    """Add one SOFT/PCL dataset to a tenant's live compendium.

    ``content`` is the complete source text (a GEO series-matrix SOFT
    file or a PCL table) and is validated *in full* before any store
    mutation — a malformed submission is a structured 4xx and the
    tenant's store is untouched.  ``name`` is the dataset's identity
    within the compendium (append-only: a duplicate is
    ``DATASET_EXISTS``, never an overwrite).  ``compendium=None``
    ingests into the default tenant.

    Publication is copy-on-write end to end: the index syncs through
    ``IndexStore.sync``'s incremental manifest-first path, so queries
    racing an ingest see either the prior or the fully-published
    compendium fingerprint — never a mix.
    """

    name: str
    format: str
    content: str
    compendium: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _DATASET_NAME_RE.fullmatch(self.name):
            raise _invalid(
                f"name {self.name!r} is not a valid dataset name (want "
                "leading alphanumeric, then [A-Za-z0-9._-], max 128 chars)"
            )
        if self.format not in ("soft", "pcl"):
            raise _invalid(
                f"format must be 'soft' or 'pcl', got {self.format!r}",
                choices=["pcl", "soft"],
            )
        if not isinstance(self.content, str) or not self.content:
            raise _invalid("content must be a non-empty string")
        object.__setattr__(
            self, "compendium", _optional_compendium(self.compendium)
        )

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "name": self.name,
            "format": self.format,
            "content": self.content,
            "compendium": self.compendium,
        }

    @classmethod
    def from_wire(cls, payload) -> "IngestRequest":
        data = _check_payload(payload, _allowed_fields(cls), "ingest request")
        for required in ("name", "format", "content"):
            if required not in data:
                raise _invalid(f"ingest request needs a {required!r} field")
        return cls(
            name=data["name"],
            format=str(data["format"]),
            content=data["content"],
            compendium=data.get("compendium"),
        )


# --------------------------------------------------------------------------
# responses
# --------------------------------------------------------------------------
def _row_tuple(value, name: str, converters) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != len(converters):
        raise _invalid(f"{name} rows must have {len(converters)} columns")
    try:
        return tuple(conv(item) for conv, item in zip(converters, value))
    except (TypeError, ValueError) as exc:
        raise _invalid(f"bad {name} row: {exc}") from exc


@dataclass(frozen=True)
class SearchResponse:
    """One page of ranked output (the Figure 4 web table, as data).

    ``gene_rows`` are ``(rank, gene_id, score)`` with 1-based global
    ranks; ``dataset_rows`` are ``(rank, dataset, weight)``.
    ``total_genes`` counts the full candidate ranking while
    ``total_pages`` reflects what this request can actually page over
    (``top_k`` caps it).

    ``partial`` / ``shards`` are append-only v1 additions for the
    sharded serving tier: ``partial=True`` flags a ranking served while
    some dataset owners were unreachable (never silently — ``shards``
    carries the per-node detail, including which datasets were skipped);
    single-node servers always answer ``partial=False`` with an empty
    ``shards``, so old clients see byte-compatible payloads.
    """

    query: tuple[str, ...]
    query_used: tuple[str, ...]
    query_missing: tuple[str, ...]
    page: int
    page_size: int
    total_genes: int
    total_pages: int
    gene_rows: tuple[tuple[int, str, float], ...]
    dataset_rows: tuple[tuple[int, str, float], ...]
    elapsed_seconds: float
    partial: bool = False
    shards: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _bool_field(self.partial, "partial")
        if not isinstance(self.shards, Mapping):
            raise _invalid(f"shards must be an object, got {type(self.shards).__name__}")

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "query": list(self.query),
            "query_used": list(self.query_used),
            "query_missing": list(self.query_missing),
            "page": self.page,
            "page_size": self.page_size,
            "total_genes": self.total_genes,
            "total_pages": self.total_pages,
            "gene_rows": [list(row) for row in self.gene_rows],
            "dataset_rows": [list(row) for row in self.dataset_rows],
            "elapsed_seconds": self.elapsed_seconds,
            "partial": self.partial,
            "shards": dict(self.shards),
        }

    @classmethod
    def from_wire(cls, payload) -> "SearchResponse":
        data = _check_payload(payload, _allowed_fields(cls), "search response")
        gene_conv = (int, str, float)
        return cls(
            query=_str_tuple(data.get("query", []), "query"),
            query_used=_str_tuple(data.get("query_used", []), "query_used"),
            query_missing=_str_tuple(data.get("query_missing", []), "query_missing"),
            page=_int_field(data.get("page", 0), "page", minimum=0),
            page_size=_int_field(data.get("page_size", 1), "page_size", minimum=1),
            total_genes=_int_field(data.get("total_genes", 0), "total_genes", minimum=0),
            total_pages=_int_field(data.get("total_pages", 1), "total_pages", minimum=0),
            gene_rows=tuple(
                _row_tuple(row, "gene", gene_conv) for row in data.get("gene_rows", [])
            ),
            dataset_rows=tuple(
                _row_tuple(row, "dataset", gene_conv) for row in data.get("dataset_rows", [])
            ),
            elapsed_seconds=_number_field(data.get("elapsed_seconds", 0.0), "elapsed_seconds"),
            partial=data.get("partial", False),
            shards=data.get("shards", {}),
        )

    @classmethod
    def from_result(
        cls,
        result: "SpellResult",
        request: SearchRequest,
        *,
        elapsed_seconds: float,
        partial: bool = False,
        shards: dict | None = None,
    ) -> "SearchResponse":
        """Paginate a :class:`~repro.spell.engine.SpellResult` per ``request``.

        This is where page semantics live for every transport: the
        pageable total is ``total_genes`` capped by the request's
        ``top_k``, and a page past its end raises ``PAGE_OUT_OF_RANGE``.
        """
        pageable = result.total_genes
        if request.top_k is not None:
            pageable = min(pageable, request.top_k)
        total_pages = check_page(request.page, pageable, request.page_size)
        start = request.page * request.page_size
        stop = min(start + request.page_size, pageable)
        if isinstance(result.genes, tuple):  # legacy tuple-of-GeneScore results
            gene_rows = tuple(
                (start + i + 1, g.gene_id, g.score)
                for i, g in enumerate(result.genes[start:stop])
            )
        else:  # a GeneTable pages straight off its arrays, like the export cursor
            gene_rows = tuple(result.genes.rows(start, stop))
        dataset_rows = tuple(
            (i + 1, d.name, d.weight)
            for i, d in enumerate(result.datasets[: request.top_datasets])
        )
        return cls(
            query=result.query,
            query_used=result.query_used,
            query_missing=result.query_missing,
            page=request.page,
            page_size=request.page_size,
            total_genes=result.total_genes,
            total_pages=total_pages,
            gene_rows=gene_rows,
            dataset_rows=dataset_rows,
            elapsed_seconds=float(elapsed_seconds),
            partial=partial,
            shards=dict(shards or {}),
        )


@dataclass(frozen=True)
class BatchSearchResponse:
    """Per-query pages plus aggregate timing for one batch."""

    results: tuple[SearchResponse, ...]
    total_seconds: float
    n_workers: int
    cache_hits: int
    cache_misses: int

    @property
    def queries_per_second(self) -> float:
        """Aggregate throughput; ``0.0`` when unmeasurable.

        A batch that completed faster than the clock's resolution (or an
        empty result set) reports ``0.0`` rather than ``inf`` — "no
        measurable rate", which downstream arithmetic and JSON encoding
        both survive.
        """
        if self.total_seconds <= 0.0 or not self.results:
            return 0.0
        return len(self.results) / self.total_seconds

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "results": [r.to_wire() for r in self.results],
            "total_seconds": self.total_seconds,
            "n_workers": self.n_workers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    @classmethod
    def from_wire(cls, payload) -> "BatchSearchResponse":
        data = _check_payload(payload, _allowed_fields(cls), "batch response")
        raw = data.get("results")
        if not isinstance(raw, list):
            raise _invalid("batch response needs a 'results' list")
        return cls(
            results=tuple(SearchResponse.from_wire(item) for item in raw),
            total_seconds=_number_field(data.get("total_seconds", 0.0), "total_seconds"),
            n_workers=_int_field(data.get("n_workers", 1), "n_workers", minimum=1),
            cache_hits=_int_field(data.get("cache_hits", 0), "cache_hits", minimum=0),
            cache_misses=_int_field(data.get("cache_misses", 0), "cache_misses", minimum=0),
        )


def _check_kind(data: dict, expected: str, kind: str) -> None:
    """NDJSON stream lines are self-describing via ``kind``; a mismatch
    (a trailer parsed as a chunk, or vice versa) is a structured error,
    never a silently misread line."""
    found = data.pop("kind", expected)
    if found != expected:
        raise _invalid(f"{kind} has kind {found!r}, expected {expected!r}")


@dataclass(frozen=True)
class ExportChunk:
    """One NDJSON line of a streaming export: a slice of the ranking.

    Self-describing: every chunk carries ``api_version``, its ``kind``
    (``"chunk"``), and the global ``offset`` of its first row, so a
    consumer can detect gaps or reordering without trusting transport
    framing.  ``gene_rows`` are ``(rank, gene_id, score)`` with 1-based
    global ranks, exactly as the paged :class:`SearchResponse` serves
    them.
    """

    offset: int
    gene_rows: tuple[tuple[int, str, float], ...]

    KIND = "chunk"

    def __post_init__(self) -> None:
        _int_field(self.offset, "offset", minimum=0)

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "kind": self.KIND,
            "offset": self.offset,
            "gene_rows": [list(row) for row in self.gene_rows],
        }

    @classmethod
    def from_wire(cls, payload) -> "ExportChunk":
        data = _check_payload(
            payload, _allowed_fields(cls) | {"kind"}, "export chunk"
        )
        _check_kind(data, cls.KIND, "export chunk")
        gene_conv = (int, str, float)
        return cls(
            offset=_int_field(data.get("offset", 0), "offset", minimum=0),
            gene_rows=tuple(
                _row_tuple(row, "gene", gene_conv) for row in data.get("gene_rows", [])
            ),
        )


@dataclass(frozen=True)
class ExportTrailer:
    """The final NDJSON line of a streaming export: totals + integrity.

    ``status`` is ``"ok"`` or ``"error"``; a mid-stream failure streams
    as an *error trailer* (``error`` carrying the standard
    ``{code, message, details}`` object) rather than a silently
    truncated response — a consumer that never sees a trailer knows the
    stream was cut.  ``checksum`` is ``sha256:<hex>`` over the exact
    bytes of every chunk line (each including its terminating newline)
    in stream order, so reassembly can be verified without re-parsing;
    ``total_rows`` / ``n_chunks`` count what was actually streamed and
    ``total_genes`` reports the full candidate ranking size.  Query
    attribution and the ranked ``dataset_rows`` ride here (once per
    stream, not once per chunk).

    ``resume_offset`` (append-only v1 addition) echoes the request's
    resume point: checksum/``n_chunks``/``total_rows`` cover only the
    chunk lines *this* stream carried, starting at that offset — a
    resuming client verifies each stream's trailer independently and
    splices streams at chunk boundaries.
    """

    status: str
    total_genes: int = 0
    total_rows: int = 0
    n_chunks: int = 0
    checksum: str = ""
    query: tuple[str, ...] = ()
    query_used: tuple[str, ...] = ()
    query_missing: tuple[str, ...] = ()
    dataset_rows: tuple[tuple[int, str, float], ...] = ()
    elapsed_seconds: float = 0.0
    error: dict | None = None
    resume_offset: int = 0

    KIND = "trailer"

    def __post_init__(self) -> None:
        if self.status not in ("ok", "error"):
            raise _invalid(f"trailer status must be 'ok' or 'error', got {self.status!r}")
        if (self.error is not None) != (self.status == "error"):
            raise _invalid("trailer error object must accompany status 'error' only")
        _int_field(self.total_genes, "total_genes", minimum=0)
        _int_field(self.total_rows, "total_rows", minimum=0)
        _int_field(self.n_chunks, "n_chunks", minimum=0)
        _int_field(self.resume_offset, "resume_offset", minimum=0)

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "kind": self.KIND,
            "status": self.status,
            "total_genes": self.total_genes,
            "total_rows": self.total_rows,
            "n_chunks": self.n_chunks,
            "checksum": self.checksum,
            "query": list(self.query),
            "query_used": list(self.query_used),
            "query_missing": list(self.query_missing),
            "dataset_rows": [list(row) for row in self.dataset_rows],
            "elapsed_seconds": self.elapsed_seconds,
            "error": None if self.error is None else dict(self.error),
            "resume_offset": self.resume_offset,
        }

    @classmethod
    def from_wire(cls, payload) -> "ExportTrailer":
        data = _check_payload(
            payload, _allowed_fields(cls) | {"kind"}, "export trailer"
        )
        _check_kind(data, cls.KIND, "export trailer")
        error = data.get("error")
        if error is not None and not isinstance(error, Mapping):
            raise _invalid("trailer error must be an object or null")
        gene_conv = (int, str, float)
        return cls(
            status=str(data.get("status", "")),
            total_genes=_int_field(data.get("total_genes", 0), "total_genes", minimum=0),
            total_rows=_int_field(data.get("total_rows", 0), "total_rows", minimum=0),
            n_chunks=_int_field(data.get("n_chunks", 0), "n_chunks", minimum=0),
            checksum=str(data.get("checksum", "")),
            query=_str_tuple(data.get("query", []), "query"),
            query_used=_str_tuple(data.get("query_used", []), "query_used"),
            query_missing=_str_tuple(data.get("query_missing", []), "query_missing"),
            dataset_rows=tuple(
                _row_tuple(row, "dataset", gene_conv)
                for row in data.get("dataset_rows", [])
            ),
            elapsed_seconds=_number_field(
                data.get("elapsed_seconds", 0.0), "elapsed_seconds"
            ),
            error=None if error is None else dict(error),
            resume_offset=_int_field(
                data.get("resume_offset", 0), "resume_offset", minimum=0
            ),
        )


@dataclass(frozen=True)
class DatasetInfo:
    """Shape + metadata for one served dataset.

    ``fingerprint`` / ``tier`` are append-only v1 additions:
    ``fingerprint`` is the dataset's durable content hash (stable across
    processes and restarts — the ingest path diffs catalogs on it) and
    ``tier`` is where the persistent store holds the shard
    (``"resident"`` mmap-served or ``"cold"`` compressed archive;
    in-memory-only serving reports ``"resident"``).
    """

    name: str
    n_genes: int
    n_conditions: int
    metadata: dict = field(default_factory=dict)
    fingerprint: str = ""
    tier: str = "resident"

    def to_wire(self) -> dict:
        return {
            "name": self.name,
            "n_genes": self.n_genes,
            "n_conditions": self.n_conditions,
            "metadata": dict(self.metadata),
            "fingerprint": self.fingerprint,
            "tier": self.tier,
        }

    @classmethod
    def from_wire(cls, payload) -> "DatasetInfo":
        if not isinstance(payload, Mapping):
            raise _invalid("dataset info must be an object")
        meta = payload.get("metadata", {})
        if not isinstance(meta, Mapping):
            raise _invalid("dataset metadata must be an object")
        return cls(
            name=str(payload.get("name", "")),
            n_genes=_int_field(payload.get("n_genes", 0), "n_genes", minimum=0),
            n_conditions=_int_field(payload.get("n_conditions", 0), "n_conditions", minimum=0),
            metadata=dict(meta),
            fingerprint=str(payload.get("fingerprint", "")),
            tier=str(payload.get("tier", "resident")),
        )


@dataclass(frozen=True)
class DatasetListResponse:
    datasets: tuple[DatasetInfo, ...]

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "datasets": [d.to_wire() for d in self.datasets],
        }

    @classmethod
    def from_wire(cls, payload) -> "DatasetListResponse":
        data = _check_payload(payload, _allowed_fields(cls), "dataset-list response")
        raw = data.get("datasets")
        if not isinstance(raw, list):
            raise _invalid("dataset-list response needs a 'datasets' list")
        return cls(datasets=tuple(DatasetInfo.from_wire(item) for item in raw))


@dataclass(frozen=True)
class IngestResponse:
    """Acknowledgement of one published ingest.

    ``fingerprint`` is the ingested dataset's durable content hash;
    ``compendium_fingerprint`` is the tenant compendium's hash *after*
    publication — the token the concurrency invariant is stated in
    (racing queries observe either the prior or exactly this value).
    ``datasets`` counts the tenant's datasets after the ingest.
    """

    compendium: str
    dataset: str
    n_genes: int
    n_conditions: int
    fingerprint: str
    compendium_fingerprint: str
    datasets: int
    elapsed_seconds: float

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "compendium": self.compendium,
            "dataset": self.dataset,
            "n_genes": self.n_genes,
            "n_conditions": self.n_conditions,
            "fingerprint": self.fingerprint,
            "compendium_fingerprint": self.compendium_fingerprint,
            "datasets": self.datasets,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_wire(cls, payload) -> "IngestResponse":
        data = _check_payload(payload, _allowed_fields(cls), "ingest response")
        return cls(
            compendium=str(data.get("compendium", "")),
            dataset=str(data.get("dataset", "")),
            n_genes=_int_field(data.get("n_genes", 0), "n_genes", minimum=0),
            n_conditions=_int_field(
                data.get("n_conditions", 0), "n_conditions", minimum=0
            ),
            fingerprint=str(data.get("fingerprint", "")),
            compendium_fingerprint=str(data.get("compendium_fingerprint", "")),
            datasets=_int_field(data.get("datasets", 0), "datasets", minimum=0),
            elapsed_seconds=_number_field(
                data.get("elapsed_seconds", 0.0), "elapsed_seconds"
            ),
        )


@dataclass(frozen=True)
class ClusterResponse:
    """Dendrogram over the clustered genes.

    ``genes`` lists the clustered gene ids in left-to-right leaf order;
    ``merges`` are scipy-style records ``(left, right, height, size)``
    with leaves ``0..n-1`` numbered by *ranking* order (the row order the
    expression submatrix was clustered in).
    """

    genes: tuple[str, ...]
    dataset: str
    metric: str
    linkage: str
    merges: tuple[tuple[int, int, float, int], ...]
    elapsed_seconds: float

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "genes": list(self.genes),
            "dataset": self.dataset,
            "metric": self.metric,
            "linkage": self.linkage,
            "merges": [list(m) for m in self.merges],
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_wire(cls, payload) -> "ClusterResponse":
        data = _check_payload(payload, _allowed_fields(cls), "cluster response")
        merge_conv = (int, int, float, int)
        return cls(
            genes=_str_tuple(data.get("genes", []), "genes"),
            dataset=str(data.get("dataset", "")),
            metric=str(data.get("metric", "")),
            linkage=str(data.get("linkage", "")),
            merges=tuple(
                _row_tuple(row, "merge", merge_conv) for row in data.get("merges", [])
            ),
            elapsed_seconds=_number_field(data.get("elapsed_seconds", 0.0), "elapsed_seconds"),
        )


@dataclass(frozen=True)
class RenderResponse:
    """A rendered heatmap: binary PPM bytes plus its row/column labels."""

    width: int
    height: int
    dataset: str
    colormap: str
    genes: tuple[str, ...]  # heatmap rows, top to bottom
    ppm: bytes
    elapsed_seconds: float

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "width": self.width,
            "height": self.height,
            "dataset": self.dataset,
            "colormap": self.colormap,
            "genes": list(self.genes),
            "ppm_base64": base64.b64encode(self.ppm).decode("ascii"),
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_wire(cls, payload) -> "RenderResponse":
        allowed = (_allowed_fields(cls) - {"ppm"}) | {"ppm_base64"}
        data = _check_payload(payload, allowed, "render response")
        try:
            ppm = base64.b64decode(data.get("ppm_base64", ""), validate=True)
        except (ValueError, TypeError) as exc:
            raise _invalid(f"ppm_base64 is not valid base64: {exc}") from exc
        return cls(
            width=_int_field(data.get("width", 0), "width", minimum=0),
            height=_int_field(data.get("height", 0), "height", minimum=0),
            dataset=str(data.get("dataset", "")),
            colormap=str(data.get("colormap", "")),
            genes=_str_tuple(data.get("genes", []), "genes"),
            ppm=ppm,
            elapsed_seconds=_number_field(data.get("elapsed_seconds", 0.0), "elapsed_seconds"),
        )


@dataclass(frozen=True)
class HealthResponse:
    """Liveness plus the per-endpoint serving counters ``ApiApp`` keeps.

    ``cache`` carries the result cache's full counter set (hits, misses,
    evictions, plus the admission policy's ``min_cost`` / ``admitted`` /
    ``rejected`` and the hottest entry's hit count); ``serving``
    describes the batch topology (thread workers, process workers, and
    the worker pool's batch/resync counters).  Both are free-form
    objects on the wire so new counters stay append-only.
    """

    status: str
    uptime_seconds: float
    datasets: int
    genes: int
    index_bytes: int
    query_count: int
    cache: dict
    endpoints: dict  # endpoint -> {count, errors, total_seconds, mean_seconds}
    serving: dict = field(default_factory=dict)  # appended in-version: default keeps v1 parsing
    limits: dict = field(default_factory=dict)  # gate config + rejection counters
    shards: dict = field(default_factory=dict)  # sharded serving: per-node liveness + routing
    storage: dict = field(default_factory=dict)  # store tiers: resident/cold/promotions/quarantined
    tenants: dict = field(default_factory=dict)  # multi-tenant catalog: per-tenant rollup

    def to_wire(self) -> dict:
        return {
            "api_version": API_VERSION,
            "status": self.status,
            "uptime_seconds": self.uptime_seconds,
            "datasets": self.datasets,
            "genes": self.genes,
            "index_bytes": self.index_bytes,
            "query_count": self.query_count,
            "cache": dict(self.cache),
            "endpoints": {k: dict(v) for k, v in self.endpoints.items()},
            "serving": dict(self.serving),
            "limits": dict(self.limits),
            "shards": dict(self.shards),
            "storage": dict(self.storage),
            "tenants": {k: dict(v) for k, v in self.tenants.items()},
        }

    @classmethod
    def from_wire(cls, payload) -> "HealthResponse":
        data = _check_payload(payload, _allowed_fields(cls), "health response")
        cache = data.get("cache", {})
        endpoints = data.get("endpoints", {})
        serving = data.get("serving", {})
        limits = data.get("limits", {})
        shards = data.get("shards", {})
        storage = data.get("storage", {})
        tenants = data.get("tenants", {})
        if not isinstance(cache, Mapping) or not isinstance(endpoints, Mapping):
            raise _invalid("health cache/endpoints must be objects")
        if not isinstance(serving, Mapping):
            raise _invalid("health serving must be an object")
        if not isinstance(limits, Mapping):
            raise _invalid("health limits must be an object")
        if not isinstance(shards, Mapping):
            raise _invalid("health shards must be an object")
        if not isinstance(storage, Mapping):
            raise _invalid("health storage must be an object")
        if not isinstance(tenants, Mapping):
            raise _invalid("health tenants must be an object")
        return cls(
            status=str(data.get("status", "")),
            uptime_seconds=_number_field(data.get("uptime_seconds", 0.0), "uptime_seconds"),
            datasets=_int_field(data.get("datasets", 0), "datasets", minimum=0),
            genes=_int_field(data.get("genes", 0), "genes", minimum=0),
            index_bytes=_int_field(data.get("index_bytes", 0), "index_bytes", minimum=0),
            query_count=_int_field(data.get("query_count", 0), "query_count", minimum=0),
            cache=dict(cache),
            endpoints={str(k): dict(v) for k, v in endpoints.items()},
            serving=dict(serving),
            limits=dict(limits),
            shards=dict(shards),
            storage=dict(storage),
            tenants={str(k): dict(v) for k, v in tenants.items()},
        )

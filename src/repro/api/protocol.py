"""Versioned, transport-agnostic wire protocol for the query API (v1).

This module is the public contract the paper's web interface (Figure 4)
implies: one typed request/response schema that any transport — the
HTTP facades, an in-process caller, a test harness — speaks unchanged,
under an explicit ``api_version`` (currently ``"v1"``).

**One field table.**  A message class is a frozen dataclass whose
fields *are* the schema: each is stated once — annotation, default,
wire metadata — and ``__post_init__``, ``to_wire()`` and ``from_wire()``
are derived from those statements by :class:`_Message`, through a
per-class :class:`_Codec` compiled once at import (nothing is looked up
per request).  ``api/docs.py`` renders ``docs/api.md`` from the same
``dataclasses.fields()``.  A field's metadata (built by :func:`_wire`)
has up to six keys, all optional:

``check``
    ``(value, name) -> value``, run by the constructor: validates and
    may normalise (``genes`` becomes a tuple, ``saturation`` a float).
    Requests carry checks, so in-process callers are validated exactly
    like wire callers.  Responses do not — a server-built response pays
    no per-field check (``SearchResponse.from_result`` is a hot path) —
    bar the few exceptions stated on the classes.
``decode``
    ``(value, name) -> value``, run by ``from_wire`` ahead of the
    constructor: JSON shape to Python shape (list to tuple, object to
    nested message, base64 to bytes) and, for responses, coercion.
``encode``
    ``value -> JSON value``, run by ``to_wire``; omitted when the value
    is JSON already.
``key``
    the wire key when it is not the field name (``ppm`` travels as
    ``ppm_base64``).
``absent``
    for a field without a dataclass default: the wire value decoded
    when the key is missing (an older server's response keeps parsing).
    Without it such a field is required on the wire; a field *with* a
    dataclass default keeps that default.
``missing``
    error code when a required key is absent: ``INVALID_REQUEST``
    unless stated (a query without ``genes`` is ``INVALID_QUERY``).

Fields several messages share (``genes``, ``top_k``, ``datasets``,
``deadline_ms``, ``compendium``, the ``(rank, id, score)`` rows, ...)
have one definition (``_GENES``, ``_TOP_K``, ...) used by every class
that carries them.  **Adding a v1 field is one line** — the field, with
a default, at the end of its class — plus ``python -m repro.api.docs``.
Per-class irregularities are class attributes, also data: ``KIND``,
``NESTED``, ``NONE_IS_EMPTY`` (see :class:`_Message`).

What stays hand-written is only what is not per-field: the three
cross-field rules, each an ``__post_init__`` that runs the derived
checks first (a batch may not straddle tenants; ``resume_offset`` must
be a chunk boundary; a trailer's ``error`` accompanies ``status
"error"`` only), and the pagination semantics the response side owns
(``SearchResponse.from_result``, :func:`page_count`,
:func:`check_page`: ``total_pages`` is always reported and a ``page``
past the end raises ``PAGE_OUT_OF_RANGE``).

Design rules (the compatibility policy, see ROADMAP):

* ``from_wire`` rejects unknown fields and non-``v1`` versions, and
  answers *any* JSON value under any key with a message or a structured
  :class:`~repro.api.errors.ApiError` — never a bare
  ``KeyError``/``TypeError`` leaking across the boundary (the
  hostile-type matrix in ``tests/test_api_protocol.py``).
* Within ``v1``, fields are append-only and every new field has a
  default, so yesterday's client payloads keep parsing.  Key order is
  field order, and the JSON bytes are pinned by a golden test: the
  export checksum and every bit-identical oracle depend on them.
* ``to_wire(x).from_wire`` is the identity for every message type
  (property-tested in ``tests/test_api_protocol.py``).
"""

from __future__ import annotations

import base64
import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields
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
    "elapsed_parts",
    "ndjson_line",
    "page_count",
    "check_page",
]


# --------------------------------------------------------------------------
# coercers: ``(value, name) -> value`` or a structured ApiError
# --------------------------------------------------------------------------
def _invalid(message: str, **details) -> ApiError:
    return ApiError("INVALID_REQUEST", message, details=details or None)


def _optional(fn):
    """``None`` (JSON ``null``) passes through; anything else goes to ``fn``."""
    return lambda value, *name: None if value is None else fn(value, *name)


def _typed(kind: type, what: str):
    def coerce(value, name: str):
        if not isinstance(value, kind):
            raise _invalid(f"{name} must be {what}, got {type(value).__name__}")
        return value

    return coerce


_bool = _typed(bool, "a boolean")
_string = _typed(str, "a string")


def _int(minimum: int):
    def coerce(value, name: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _invalid(f"{name} must be an integer, got {type(value).__name__}")
        if value < minimum:
            raise _invalid(f"{name} must be >= {minimum}, got {value}")
        return value

    return coerce


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _invalid(f"{name} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError as exc:  # a JSON integer past the float range
        raise _invalid(f"{name} is out of range: {exc}") from exc


def _positive(value, name: str) -> float:
    number = _number(value, name)
    if number <= 0:
        raise _invalid(f"{name} must be positive, got {number}")
    return number


def _content(value, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise _invalid(f"{name} must be a non-empty string")
    return value


def _text(value, name: str) -> str:
    """Response-side strings are coerced, not refused."""
    return str(value)


def _str_tuple(value, name: str) -> tuple[str, ...]:
    if isinstance(value, str) or not isinstance(value, (list, tuple)):
        raise _invalid(f"{name} must be a list of strings")
    for item in value:
        if not isinstance(item, str):
            raise _invalid(f"{name} must contain only strings, got {type(item).__name__}")
    return tuple(value)


def _choice(choices, *, listed: bool = True):
    """The one "one of" check.  A non-string is refused *before* the
    membership test, so an unhashable JSON value (``[]``, ``{}``) is a
    structured 400, never a ``TypeError`` out of ``in``.  ``listed``
    puts the sorted choices in the error's ``details``."""

    def check(value, name: str) -> str:
        if not isinstance(value, str) or value not in choices:
            options = sorted(choices)
            details = {"choices": options} if listed else {}
            raise _invalid(f"{name} must be one of {options}, got {value!r}", **details)
        return value

    return check


def _name_grammar(what: str, max_chars: int):
    """Tenant and dataset names double as directory / file names, so the
    grammar is filesystem-safe by construction: leading alphanumeric,
    then ``[A-Za-z0-9._-]`` — no separators, no traversal, no hidden
    files — and a hostile name can never reach the filesystem layer."""
    grammar = re.compile(rf"[A-Za-z0-9][A-Za-z0-9._-]{{0,{max_chars - 1}}}")

    def check(value, name: str) -> str:
        if not isinstance(value, str) or not grammar.fullmatch(value):
            raise _invalid(
                f"{name} {value!r} is not a valid {what} name (want leading "
                f"alphanumeric, then [A-Za-z0-9._-], max {max_chars} chars)"
            )
        return value

    return check


def _unique_strings(code: str, what: str):
    """A non-empty, duplicate-free tuple of strings; ``code`` on refusal."""

    def check(value, name: str) -> tuple[str, ...]:
        items = tuple(str(item) for item in value)
        if not items:
            raise ApiError(code, f"{what} must contain at least one entry")
        if len(set(items)) != len(items):
            raise ApiError(code, f"{what} contains duplicates")
        return items

    return check


def _object(value, name: str) -> dict:
    if not isinstance(value, Mapping):
        raise _invalid(f"{name} must be an object, got {type(value).__name__}")
    return dict(value)


def _objects(value, name: str) -> dict:
    """An object of objects (``/v1/health``'s per-endpoint, per-tenant maps)."""
    return {str(k): _object(v, f"{name}[{k!r}]") for k, v in _object(value, name).items()}


def _rows(*converters):
    """The one decoder for a list of fixed-width rows, e.g. ``(rank, id, score)``."""

    def decode(value, name: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise _invalid(f"{name} must be a list of rows, got {type(value).__name__}")
        rows = []
        for row in value:
            if not isinstance(row, (list, tuple)) or len(row) != len(converters):
                raise _invalid(f"{name} rows must have {len(converters)} columns")
            try:
                rows.append(tuple(conv(item) for conv, item in zip(converters, row)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise _invalid(f"bad {name} row: {exc}") from exc
        return tuple(rows)

    return decode


def _base64(value, name: str) -> bytes:
    try:
        return base64.b64decode(value, validate=True)
    except (ValueError, TypeError) as exc:
        raise _invalid(f"{name} is not valid base64: {exc}") from exc


def _members(cls):
    """Constructor check for a non-empty tuple of nested messages."""

    def check(value, name: str) -> tuple:
        members = tuple(value)
        if not members or not all(isinstance(member, cls) for member in members):
            raise _invalid(f"{name} must be a non-empty list of {cls.__name__}s")
        return members

    return check


def _nested_list(cls):
    def decode(value, name: str) -> tuple:
        if not isinstance(value, list):
            raise _invalid(f"{name} must be a list of objects")
        return tuple(cls.from_wire(item) for item in value)

    return decode


def _row_lists(rows) -> list:
    return [list(row) for row in rows]


def _wire_list(messages) -> list:
    return [message.to_wire() for message in messages]


# --------------------------------------------------------------------------
# the field table: dataclass field metadata -> one codec per message class
# --------------------------------------------------------------------------
_WIRE_KEYS = frozenset({"check", "decode", "encode", "key", "absent", "missing"})
_REQUIRED = object()  # the wire must carry the key
_DEFAULTED = object()  # the wire may omit the key: the dataclass default stands


def _wire(**spec) -> dict:
    """Wire metadata for ``dataclasses.field(metadata=...)`` (keys: module docstring)."""
    unknown = spec.keys() - _WIRE_KEYS
    if unknown:
        raise TypeError(f"unknown wire metadata key(s): {sorted(unknown)}")
    return spec


class _Codec:
    """One message class's field table, compiled once at import."""

    __slots__ = ("kind", "header", "allowed", "checks", "decoders", "encoders")

    def __init__(self, cls) -> None:
        #: "SearchRequest" -> "search request", for error messages only
        self.kind = re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()
        header = [] if cls.NESTED else [("api_version", API_VERSION)]
        if cls.KIND is not None:
            header.append(("kind", cls.KIND))
        self.header = tuple(header)
        checks, decoders, encoders = [], [], []
        for f in fields(cls):
            meta = f.metadata
            key = meta.get("key", f.name)
            if "check" in meta:
                checks.append((f.name, meta["check"]))
            if f.default is MISSING and f.default_factory is MISSING:
                absent = meta.get("absent", _REQUIRED)
            else:
                absent = _DEFAULTED
            decoders.append(
                (f.name, key, absent, meta.get("decode"), meta.get("missing", "INVALID_REQUEST"))
            )
            encoders.append((key, f.name, meta.get("encode")))
        self.checks = tuple(checks)
        self.decoders = tuple(decoders)
        self.encoders = tuple(encoders)
        self.allowed = frozenset(dict(header)) | {key for key, _, _ in encoders}


class _Message:
    """Base of all 17 v1 messages: ``__post_init__``, ``to_wire`` and
    ``from_wire`` derived from the class's field table.  The class
    attributes are the per-class irregularities, stated as data."""

    KIND = None  # literal ``kind`` emitted second and checked on parse (stream lines)
    NESTED = False  # no ``api_version``; unknown keys tolerated; never a whole body
    NONE_IS_EMPTY = False  # a body-less request: ``from_wire(None)`` parses as ``{}``

    def __post_init__(self) -> None:
        for name, check in self._codec.checks:
            value = getattr(self, name)
            checked = check(value, name)
            if checked is not value:
                object.__setattr__(self, name, checked)

    @classmethod
    def _admit(cls, payload) -> Mapping:
        """Object / version / unknown-field / ``kind`` gate ``from_wire`` runs first."""
        codec = cls._codec
        if payload is None and cls.NONE_IS_EMPTY:
            return {}
        if not isinstance(payload, Mapping):
            if cls.NESTED:
                raise _invalid(f"{codec.kind} must be an object")
            raise ApiError(
                "MALFORMED_BODY",
                f"{codec.kind} payload must be a JSON object, got {type(payload).__name__}",
            )
        if cls.NESTED:  # its parent was gated
            return payload
        version = payload.get("api_version", API_VERSION)
        if version != API_VERSION:
            raise ApiError(
                "UNSUPPORTED_VERSION",
                f"this server speaks api_version {API_VERSION!r}, got {version!r}",
                details={"supported": [API_VERSION]},
            )
        if not payload.keys() <= codec.allowed:
            unknown = sorted(payload.keys() - codec.allowed)
            raise _invalid(
                f"unknown {codec.kind} field(s): {', '.join(unknown)}", unknown_fields=unknown
            )
        # NDJSON stream lines are self-describing via ``kind``; a trailer
        # parsed as a chunk (or vice versa) is a structured error, never
        # a silently misread line
        if payload.get("kind", cls.KIND) != cls.KIND:
            raise _invalid(f"{codec.kind} has kind {payload['kind']!r}, expected {cls.KIND!r}")
        return payload

    def to_wire(self) -> dict:
        codec = self._codec
        out = dict(codec.header)
        for key, name, encode in codec.encoders:
            value = getattr(self, name)
            out[key] = value if encode is None else encode(value)
        return out

    @classmethod
    def from_wire(cls, payload):
        codec = cls._codec
        data = cls._admit(payload)
        kwargs = {}
        for name, key, absent, decode, missing in codec.decoders:
            value = data.get(key, absent)
            if value is _DEFAULTED:
                continue
            if value is _REQUIRED:
                raise ApiError(missing, f"{codec.kind} needs a {key!r} field")
            kwargs[name] = value if decode is None else decode(value, name)
        return cls(**kwargs)


# -- fields shared by several requests: validated in the constructor, so
# -- in-process callers are checked exactly like wire callers
#: one definition for every query-shaped request (search, export), so
#: paged and streaming paths can never drift on what a valid query is
_GENES = _wire(
    check=_unique_strings("INVALID_QUERY", "query"),
    decode=_str_tuple,
    encode=list,
    missing="INVALID_QUERY",
)
_TOP_K = _wire(check=_optional(_int(1)))
#: None = the whole compendium
_DATASETS = _wire(
    check=_optional(_unique_strings("INVALID_REQUEST", "datasets filter")),
    decode=_optional(_str_tuple),
    encode=_optional(list),
)
#: None = no budget.  The server turns this into a monotonic budget at
#: admission; every downstream wait (shard RPC, worker pool) is clamped
#: to it and a spent budget is a structured ``DEADLINE_EXCEEDED``
_DEADLINE_MS = _wire(check=_optional(_int(1)))
#: None = the default tenant
_COMPENDIUM = _wire(check=_optional(_name_grammar("tenant", 64)))
_AT_LEAST_0 = _wire(check=_int(0))
_AT_LEAST_1 = _wire(check=_int(1))
_FLAG = _wire(check=_bool)
_DATASET_NAME = _wire(check=_optional(_string))

# -- fields shared by several responses: coerced by ``from_wire`` only —
# -- a server-built response pays no per-field constructor check
_COUNT = _wire(decode=_int(0), absent=0)
_TEXT = _wire(decode=_text, absent="")
_SECONDS = _wire(decode=_number, absent=0.0)
_STRINGS = _wire(decode=_str_tuple, encode=list, absent=())
_RANKED_ROWS = _wire(decode=_rows(int, str, float), encode=_row_lists, absent=())
_OBJECT = _wire(decode=_object, encode=dict, absent={})
_OBJECTS = _wire(
    decode=_objects, encode=lambda value: {k: dict(v) for k, v in value.items()}, absent={}
)


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


def ndjson_line(message: "_Message") -> bytes:
    """One message as one line of a streaming export: its JSON bytes and
    a newline.  The only place a stream line is encoded — the chunk
    lines a cached ranking memoizes and both trailers come from here,
    so the checksummed bytes are what the golden test pins.  The pages
    and export trailers a cached ranking memoizes are cut from it too
    (:func:`elapsed_parts`)."""
    return json.dumps(message.to_wire()).encode("utf-8") + b"\n"


_ELAPSED_KEY = b'"elapsed_seconds": '


def elapsed_parts(message: "_Message", *, line: bool = False) -> tuple[bytes, bytes]:
    """``message``'s encoding cut around its ``elapsed_seconds`` value.

    Returns ``(head, tail)`` such that ``head + float.__repr__(seconds)
    + tail`` is what a message differing only in ``elapsed_seconds``
    encodes to — its JSON body, or with ``line`` its NDJSON line —
    because ``json.dumps`` writes a finite float as its ``repr``; so a
    cache hit answers a page or an export trailer with stored bytes.
    The cut is the first ``"elapsed_seconds": `` in the body, which is
    the field itself: that text can only be an object key (a quote
    inside a JSON string is escaped), and every field before it in a
    :class:`SearchResponse` or an :class:`ExportTrailer` is a string, a
    number or a list, so no gene or dataset name a client chose can
    forge it.
    """
    body = ndjson_line(message)
    start = body.index(_ELAPSED_KEY) + len(_ELAPSED_KEY)
    stop = start + len(float.__repr__(message.elapsed_seconds))
    return body[:start], body[stop:] if line else body[stop:-1]


# --------------------------------------------------------------------------
# requests
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class SearchRequest(_Message):
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

    genes: tuple[str, ...] = field(metadata=_GENES)
    top_k: int | None = field(default=None, metadata=_TOP_K)
    page: int = field(default=0, metadata=_AT_LEAST_0)
    page_size: int = field(default=20, metadata=_AT_LEAST_1)
    top_datasets: int = field(default=10, metadata=_AT_LEAST_0)
    datasets: tuple[str, ...] | None = field(default=None, metadata=_DATASETS)
    use_cache: bool = field(default=True, metadata=_FLAG)
    deadline_ms: int | None = field(default=None, metadata=_DEADLINE_MS)
    compendium: str | None = field(default=None, metadata=_COMPENDIUM)


#: the nested search every derived-view request (cluster, render) carries
_SEARCH = _wire(
    check=_typed(SearchRequest, "a search request"),
    decode=lambda value, name: SearchRequest.from_wire(value),
    encode=SearchRequest.to_wire,
)


@dataclass(frozen=True)
class BatchSearchRequest(_Message):
    """A batch of searches answered as one unit over the shared index.

    The members' cache hits are answered at once and the misses are
    scored together: in-process on a single node, scattered over the
    worker processes under ``n_procs >= 2``, several in flight at a
    time behind a router.  ``scheduler`` is parsed and validated
    (``"map"`` or ``"steal"``, v1 is append-only) and selects nothing:
    how a batch runs is the server's to decide, not the client's.

    All-or-nothing: if any member request fails (bad page, unknown
    genes), the whole batch fails with that request's error.

    ``deadline_ms`` bounds the *whole batch*; a member search's own
    ``deadline_ms`` can only tighten it further — for the batch, not
    just for that member: the misses are scored together under the
    tightest budget any of them carries.  On a single node an expired
    budget fails the batch (``DEADLINE_EXCEEDED``); behind a router it
    can leave every unfinished member ``partial``, the short-deadline
    member's siblings included.

    ``compendium`` (append-only v1 addition) scopes the whole batch to
    one tenant.  A member search may repeat the same tenant (or omit
    it), but a batch is never allowed to straddle tenants — mixing
    scopes in one all-or-nothing unit would make its failure semantics
    ambiguous.
    """

    searches: tuple[SearchRequest, ...] = field(
        metadata=_wire(
            check=_members(SearchRequest),
            decode=_nested_list(SearchRequest),
            encode=_wire_list,
        )
    )
    scheduler: str = field(
        default="map", metadata=_wire(check=_choice(("map", "steal"), listed=False))
    )
    deadline_ms: int | None = field(default=None, metadata=_DEADLINE_MS)
    compendium: str | None = field(default=None, metadata=_COMPENDIUM)

    def __post_init__(self) -> None:
        super().__post_init__()
        for req in self.searches:
            if req.compendium is not None and req.compendium != self.compendium:
                raise _invalid(
                    "batch members must not name a different compendium than "
                    f"the batch ({req.compendium!r} vs {self.compendium!r})"
                )


@dataclass(frozen=True)
class DatasetListRequest(_Message):
    """List the datasets currently served (name, shape, metadata).

    ``compendium`` (append-only v1 addition) lists a named tenant's
    datasets; ``None`` keeps listing the default compendium, exactly as
    before.
    """

    compendium: str | None = field(default=None, metadata=_COMPENDIUM)

    NONE_IS_EMPTY = True  # GET /v1/datasets has no body


@dataclass(frozen=True)
class ClusterRequest(_Message):
    """Hierarchically cluster a search result's top genes.

    The expression values come from ``dataset`` when named, else from the
    search's top-weighted dataset.  ``top_genes`` bounds how many ranked
    genes enter the clustering.  The nested search's ``deadline_ms``
    bounds the search the genes come from, and a ``dataset`` the server
    does not hold is ``UNKNOWN_DATASET``, judged as a ``datasets`` filter is.
    """

    search: SearchRequest = field(metadata=_SEARCH)
    top_genes: int = field(default=30, metadata=_wire(check=_int(2)))
    dataset: str | None = field(default=None, metadata=_DATASET_NAME)
    metric: str = field(default="correlation", metadata=_wire(check=_choice(METRICS)))
    linkage: str = field(default="average", metadata=_wire(check=_choice(LINKAGES)))


@dataclass(frozen=True)
class RenderRequest(_Message):
    """Render a search result's top genes as a heatmap (binary PPM).

    ``cluster=True`` reorders the rows by the dendrogram leaf order
    (correlation distance, average linkage) before rendering; otherwise
    rows follow the search ranking.  ``deadline_ms`` and ``dataset``
    behave as in :class:`ClusterRequest`.
    """

    search: SearchRequest = field(metadata=_SEARCH)
    top_genes: int = field(default=30, metadata=_AT_LEAST_1)
    dataset: str | None = field(default=None, metadata=_DATASET_NAME)
    colormap: str = field(default="red-green", metadata=_wire(check=_choice(COLORMAPS)))
    saturation: float | None = field(default=None, metadata=_wire(check=_optional(_positive)))
    cell_width: int = field(default=8, metadata=_AT_LEAST_1)
    cell_height: int = field(default=8, metadata=_AT_LEAST_1)
    cluster: bool = field(default=False, metadata=_FLAG)


@dataclass(frozen=True)
class ExportRequest(_Message):
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

    # the same field definitions as SearchRequest: the export of a query
    # and the pages of that query must agree on what a valid query even is
    genes: tuple[str, ...] = field(metadata=_GENES)
    top_k: int | None = field(default=None, metadata=_TOP_K)
    chunk_size: int = field(default=500, metadata=_AT_LEAST_1)
    top_datasets: int = field(default=10, metadata=_AT_LEAST_0)
    datasets: tuple[str, ...] | None = field(default=None, metadata=_DATASETS)
    use_cache: bool = field(default=True, metadata=_FLAG)
    deadline_ms: int | None = field(default=None, metadata=_DEADLINE_MS)
    resume_offset: int = field(default=0, metadata=_AT_LEAST_0)
    compendium: str | None = field(default=None, metadata=_COMPENDIUM)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.resume_offset % self.chunk_size != 0:
            raise _invalid(
                f"resume_offset {self.resume_offset} is not a chunk boundary "
                f"(chunk_size {self.chunk_size}) — resume from the offset "
                "after the last fully-received chunk"
            )


@dataclass(frozen=True)
class IngestRequest(_Message):
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

    #: becomes a source-file basename under the tenant's directory
    name: str = field(metadata=_wire(check=_name_grammar("dataset", 128)))
    format: str = field(metadata=_wire(check=_choice(("soft", "pcl"))))
    content: str = field(metadata=_wire(check=_content))
    compendium: str | None = field(default=None, metadata=_COMPENDIUM)


# --------------------------------------------------------------------------
# responses
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class SearchResponse(_Message):
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

    query: tuple[str, ...] = field(metadata=_STRINGS)
    query_used: tuple[str, ...] = field(metadata=_STRINGS)
    query_missing: tuple[str, ...] = field(metadata=_STRINGS)
    page: int = field(metadata=_COUNT)
    page_size: int = field(metadata=_wire(decode=_int(1), absent=1))
    total_genes: int = field(metadata=_COUNT)
    total_pages: int = field(metadata=_wire(decode=_int(0), absent=1))
    gene_rows: tuple[tuple[int, str, float], ...] = field(metadata=_RANKED_ROWS)
    dataset_rows: tuple[tuple[int, str, float], ...] = field(metadata=_RANKED_ROWS)
    elapsed_seconds: float = field(metadata=_SECONDS)
    # the only two constructor checks: ``from_result`` is the hot path
    partial: bool = field(default=False, metadata=_FLAG)
    shards: dict = field(default_factory=dict, metadata=_wire(check=_object, encode=dict))

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
        # a GeneTable pages straight off its arrays, like the export cursor
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
            shards=shards or {},  # the constructor check copies it
        )


@dataclass(frozen=True)
class BatchSearchResponse(_Message):
    """Per-query pages plus aggregate timing for one batch.

    ``n_workers`` is the width the batch's cache misses actually ran at:
    1 in-process, ``n_procs`` on the process pool, the number of members
    in flight at once behind a router.  ``cache_hits``/``cache_misses``
    count this batch's own members.
    """

    results: tuple[SearchResponse, ...] = field(
        metadata=_wire(decode=_nested_list(SearchResponse), encode=_wire_list)
    )
    total_seconds: float = field(metadata=_SECONDS)
    n_workers: int = field(metadata=_wire(decode=_int(1), absent=1))
    cache_hits: int = field(metadata=_COUNT)
    cache_misses: int = field(metadata=_COUNT)

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


@dataclass(frozen=True)
class ExportChunk(_Message):
    """One NDJSON line of a streaming export: a slice of the ranking.

    Self-describing: every chunk carries ``api_version``, its ``kind``
    (``"chunk"``), and the global ``offset`` of its first row, so a
    consumer can detect gaps or reordering without trusting transport
    framing.  ``gene_rows`` are ``(rank, gene_id, score)`` with 1-based
    global ranks, exactly as the paged :class:`SearchResponse` serves
    them.
    """

    offset: int = field(metadata=_wire(check=_int(0), absent=0))
    gene_rows: tuple[tuple[int, str, float], ...] = field(metadata=_RANKED_ROWS)

    KIND = "chunk"


@dataclass(frozen=True)
class ExportTrailer(_Message):
    """The final NDJSON line of a streaming export: totals + integrity.

    The server sends ``status="ok"``: an export is ready whole before its
    first byte leaves, so a failure answers an ordinary JSON error status
    before the first byte, never a truncated stream — a consumer that
    never sees a trailer knows the stream was cut.  ``"error"`` (with
    ``error`` carrying the standard ``{code, message, details}`` object)
    stays in the append-only v1 schema, but is never sent.

    ``checksum`` is ``sha256:<hex>`` over the exact bytes of every chunk
    line (each including its terminating newline) in stream order, so
    reassembly can be verified without re-parsing; ``total_rows`` /
    ``n_chunks`` count what was actually streamed and ``total_genes``
    reports the full candidate ranking size.  Query
    attribution and the ranked ``dataset_rows`` ride here (once per
    stream, not once per chunk).

    ``resume_offset`` (append-only v1 addition) echoes the request's
    resume point: checksum/``n_chunks``/``total_rows`` cover only the
    chunk lines *this* stream carried, starting at that offset — a
    resuming client verifies each stream's trailer independently and
    splices streams at chunk boundaries.
    """

    status: str = field(metadata=_wire(check=_choice(("ok", "error"), listed=False)))
    total_genes: int = field(default=0, metadata=_AT_LEAST_0)
    total_rows: int = field(default=0, metadata=_AT_LEAST_0)
    n_chunks: int = field(default=0, metadata=_AT_LEAST_0)
    checksum: str = field(default="", metadata=_TEXT)
    query: tuple[str, ...] = field(default=(), metadata=_STRINGS)
    query_used: tuple[str, ...] = field(default=(), metadata=_STRINGS)
    query_missing: tuple[str, ...] = field(default=(), metadata=_STRINGS)
    dataset_rows: tuple[tuple[int, str, float], ...] = field(default=(), metadata=_RANKED_ROWS)
    elapsed_seconds: float = field(default=0.0, metadata=_SECONDS)
    error: dict | None = field(
        default=None, metadata=_wire(decode=_optional(_object), encode=_optional(dict))
    )
    resume_offset: int = field(default=0, metadata=_AT_LEAST_0)

    KIND = "trailer"

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.error is not None) != (self.status == "error"):
            raise _invalid("trailer error object must accompany status 'error' only")


@dataclass(frozen=True)
class DatasetInfo(_Message):
    """Shape + metadata for one served dataset.

    ``fingerprint`` / ``tier`` are append-only v1 additions:
    ``fingerprint`` is the dataset's durable content hash (stable across
    processes and restarts — the ingest path diffs catalogs on it) and
    ``tier`` is where the persistent store holds the shard
    (``"resident"`` mmap-served or ``"cold"`` compressed archive;
    in-memory-only serving reports ``"resident"``).
    """

    name: str = field(metadata=_TEXT)
    n_genes: int = field(metadata=_COUNT)
    n_conditions: int = field(metadata=_COUNT)
    metadata: dict = field(default_factory=dict, metadata=_OBJECT)
    fingerprint: str = field(default="", metadata=_TEXT)
    tier: str = field(default="resident", metadata=_TEXT)

    NESTED = True  # only ever a member of a DatasetListResponse


@dataclass(frozen=True)
class DatasetListResponse(_Message):
    datasets: tuple[DatasetInfo, ...] = field(
        metadata=_wire(decode=_nested_list(DatasetInfo), encode=_wire_list)
    )


@dataclass(frozen=True)
class IngestResponse(_Message):
    """Acknowledgement of one published ingest.

    ``fingerprint`` is the ingested dataset's durable content hash;
    ``compendium_fingerprint`` is the tenant compendium's hash *after*
    publication — the token the concurrency invariant is stated in
    (racing queries observe either the prior or exactly this value).
    ``datasets`` counts the tenant's datasets after the ingest.
    """

    compendium: str = field(metadata=_TEXT)
    dataset: str = field(metadata=_TEXT)
    n_genes: int = field(metadata=_COUNT)
    n_conditions: int = field(metadata=_COUNT)
    fingerprint: str = field(metadata=_TEXT)
    compendium_fingerprint: str = field(metadata=_TEXT)
    datasets: int = field(metadata=_COUNT)
    elapsed_seconds: float = field(metadata=_SECONDS)


@dataclass(frozen=True)
class ClusterResponse(_Message):
    """Dendrogram over the clustered genes.

    ``genes`` lists the clustered gene ids in left-to-right leaf order;
    ``merges`` are scipy-style records ``(left, right, height, size)``
    with leaves ``0..n-1`` numbered by *ranking* order (the row order the
    expression submatrix was clustered in).
    """

    genes: tuple[str, ...] = field(metadata=_STRINGS)
    dataset: str = field(metadata=_TEXT)
    metric: str = field(metadata=_TEXT)
    linkage: str = field(metadata=_TEXT)
    merges: tuple[tuple[int, int, float, int], ...] = field(
        metadata=_wire(decode=_rows(int, int, float, int), encode=_row_lists, absent=())
    )
    elapsed_seconds: float = field(metadata=_SECONDS)


@dataclass(frozen=True)
class RenderResponse(_Message):
    """A rendered heatmap: binary PPM bytes plus its row/column labels."""

    width: int = field(metadata=_COUNT)
    height: int = field(metadata=_COUNT)
    dataset: str = field(metadata=_TEXT)
    colormap: str = field(metadata=_TEXT)
    genes: tuple[str, ...] = field(metadata=_STRINGS)  # heatmap rows, top to bottom
    ppm: bytes = field(
        metadata=_wire(
            key="ppm_base64",
            decode=_base64,
            encode=lambda ppm: base64.b64encode(ppm).decode("ascii"),
            absent="",
        )
    )
    elapsed_seconds: float = field(metadata=_SECONDS)


@dataclass(frozen=True)
class HealthResponse(_Message):
    """Liveness plus the per-endpoint serving counters ``ApiApp`` keeps.

    ``cache`` carries the result cache's full counter set (hits, misses,
    evictions, plus the admission policy's ``min_cost`` / ``admitted`` /
    ``rejected``, the hottest entry's hit count and ``encoded_bytes``:
    the encoded bytes resident results hold, summed when health is
    asked — at most one export's NDJSON chunk lines plus the bodies of
    at most 8 pages per entry, each page kept from its first cache hit);
    ``serving``
    describes the batch topology (thread workers, process workers, and
    the worker pool's batch/resync counters).  Both are free-form
    objects on the wire so new counters stay append-only.
    """

    status: str = field(metadata=_TEXT)
    uptime_seconds: float = field(metadata=_SECONDS)
    datasets: int = field(metadata=_COUNT)
    genes: int = field(metadata=_COUNT)
    index_bytes: int = field(metadata=_COUNT)
    query_count: int = field(metadata=_COUNT)
    cache: dict = field(metadata=_OBJECT)
    #: endpoint -> {count, errors, total_seconds, mean_seconds}
    endpoints: dict = field(metadata=_OBJECTS)
    # appended in-version: the defaults keep older v1 payloads parsing
    serving: dict = field(default_factory=dict, metadata=_OBJECT)
    #: gate config + rejection counters
    limits: dict = field(default_factory=dict, metadata=_OBJECT)
    #: sharded serving: per-node liveness + routing
    shards: dict = field(default_factory=dict, metadata=_OBJECT)
    #: store tiers: resident/cold/promotions/quarantined
    storage: dict = field(default_factory=dict, metadata=_OBJECT)
    #: multi-tenant catalog: per-tenant rollup
    tenants: dict = field(default_factory=dict, metadata=_OBJECTS)


# every message class's codec, compiled here, once, at import
for _cls in _Message.__subclasses__():
    _cls._codec = _Codec(_cls)

"""Transport-agnostic application object behind every API frontend.

:class:`ApiApp` routes protocol requests (:mod:`repro.api.protocol`) to
the analysis core — :class:`~repro.spell.service.SpellService` for
search, :mod:`repro.cluster` for dendrograms, :mod:`repro.viz` for
heatmap rendering — behind one object that any transport can host: the
stdlib HTTP facade (:mod:`repro.api.http`), an in-process caller, or a
test harness.  Responsibilities:

* **Routing** — every route, whether it answers a JSON body, raw bytes
  (``?format=ppm``) or an NDJSON stream, enters one way:
  :meth:`ApiApp.ready_wire` gates, parses and tenant-charges it (and
  answers it when a never-waiting half can: a cached search page, or an
  export whose lines the cached ranking already holds),
  :meth:`ApiApp.compute_wire` runs its handler.
  ``handle_wire(endpoint, payload)`` is the two in a row, entirely in
  wire (JSON-object) space, so transports never import protocol types.
* **Error discipline** — every failure crossing the boundary becomes a
  stable code (:mod:`repro.api.errors`).  The app does not judge a query
  itself: an unknown gene or dataset is the verdict of the backend's gene
  universe, raised typed and mapped to its code like any other error.
* **Observability** — per-endpoint count/error/latency counters, served
  by the ``health`` endpoint and kept in two places: :meth:`ApiApp.ready_wire`
  counts refusals and ready answers, :meth:`ApiApp.compute_wire` every
  handler answer, an export included — it is complete when its handler
  returns.
"""

from __future__ import annotations

import json
import threading
import time

from repro.api.errors import ApiError, as_api_error, error_payload
from repro.api.limits import RequestContext, RequestGate
from repro.api.protocol import (
    BatchSearchRequest,
    BatchSearchResponse,
    ClusterRequest,
    ClusterResponse,
    DatasetInfo,
    DatasetListRequest,
    DatasetListResponse,
    ExportRequest,
    HealthResponse,
    IngestRequest,
    IngestResponse,
    RenderRequest,
    RenderResponse,
    SearchRequest,
    SearchResponse,
)
from repro.api.routes import ROUTE_BY_NAME, ROUTES, all_endpoints
from repro.cluster.hierarchical import hierarchical_cluster
from repro.data.loader import parse_dataset
from repro.spell.backend import SearchBackend
from repro.util.deadline import Deadline
from repro.util.timing import Stopwatch
from repro.viz.colormap import get_colormap
from repro.viz.heatmap import render_heatmap_block
from repro.viz.ppm import encode_ppm

__all__ = ["ApiApp", "DEFAULT_TENANT", "ROUTES", "all_endpoints"]

#: The tenant a request without a ``compendium`` field is served from —
#: must agree with :data:`repro.spell.catalog.DEFAULT_TENANT` (asserted
#: by tests) without importing the catalog here: the app must keep
#: working for single-tenant deployments that never construct one.
DEFAULT_TENANT = "default"


class _EndpointStats:
    """Thread-safe per-endpoint serving counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: dict[str, dict[str, float]] = {}

    def record(self, endpoint: str, seconds: float, *, error: bool) -> None:
        with self._lock:
            row = self._data.setdefault(
                endpoint, {"count": 0, "errors": 0, "total_seconds": 0.0}
            )
            row["count"] += 1
            row["errors"] += 1 if error else 0
            row["total_seconds"] += float(seconds)

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            out = {}
            for endpoint, row in self._data.items():
                count = int(row["count"])
                out[endpoint] = {
                    "count": count,
                    "errors": int(row["errors"]),
                    "total_seconds": row["total_seconds"],
                    "mean_seconds": row["total_seconds"] / count if count else 0.0,
                }
            return out


class ApiApp:
    """One analysis core, many frontends: the v1 API application object.

    ``gate`` is the admission-control policy (:mod:`repro.api.limits`):
    auth, per-client rate limits, and the request body cap run in
    :meth:`_parse` — the one way into every route — *before* the body
    is decoded, and the tenant's budget is charged right after it, before
    the tenant is resolved, so an over-budget request never loads (or
    evicts) a tenant.  Every transport inherits the hardening by passing
    a :class:`RequestContext`.  Transports that pass no context (trusted
    in-process callers, tests) bypass the gate.

    ``catalog`` (a :class:`~repro.spell.catalog.CompendiumCatalog`)
    turns the app multi-tenant: requests carrying a ``compendium``
    field are served from that tenant's resident service, and a request
    without one keeps being served from ``service`` — the pinned
    default tenant — so single-tenant deployments and their wire
    behavior are untouched.  Without a catalog, only the default
    tenant exists and any other name is ``UNKNOWN_COMPENDIUM``.
    """

    def __init__(
        self,
        service: SearchBackend,
        *,
        gate: RequestGate | None = None,
        catalog=None,
    ) -> None:
        self.service = service
        self.gate = gate if gate is not None else RequestGate()
        self.catalog = catalog
        self._stats = _EndpointStats()
        self._started = time.monotonic()

    # ---------------------------------------------------------- tenant routing
    def _resolve(self, compendium: str | None, *, wait: bool = True):
        """``(tenant, service)`` for one request's ``compendium`` field.

        With ``wait=False`` a tenant that would have to be loaded (or a
        catalog busy loading another) is ``None`` instead.
        """
        if self.catalog is not None:
            if not wait:
                return self.catalog.resident(compendium)
            return self.catalog.resolve(compendium)
        if compendium is None or compendium == DEFAULT_TENANT:
            return DEFAULT_TENANT, self.service
        raise ApiError(
            "UNKNOWN_COMPENDIUM",
            f"no compendium named {compendium!r} (single-tenant serving)",
            details={"known": [DEFAULT_TENANT]},
        )

    @staticmethod
    def _tenant_of(request) -> str | None:
        """The tenant a parsed request addresses, or ``None`` when the
        request type has no tenant scope (health).  Nested-search
        requests (cluster, render) are scoped by their inner search."""
        if hasattr(request, "compendium"):
            return request.compendium or DEFAULT_TENANT
        search = getattr(request, "search", None)
        if search is not None:
            return search.compendium or DEFAULT_TENANT
        return None

    # ------------------------------------------------------------- wire layer
    def handle_wire(
        self, endpoint: str, payload, *, context: RequestContext | None = None
    ) -> tuple[int, dict]:
        """Dispatch one unary wire request; returns ``(http_status, json_body)``.

        Never raises: every failure — gate rejection, unknown endpoint,
        malformed payload, downstream error — comes back as a structured
        error payload with its mapped status code.

        A request is answered by the first of two phases that can:
        :meth:`ready_wire` (never waits) or :meth:`compute_wire` (may).
        A transport that must not block calls the first where it stands
        and the second from a worker thread; the answer is the same.
        A ready page arrives encoded, and is decoded here for the
        in-process caller; a stream answers its tuple of NDJSON lines
        whichever phase answered it.
        """
        request, answer = self.ready_wire(endpoint, payload, context=context)
        status, body = answer or self.compute_wire(endpoint, request)
        return status, json.loads(body) if isinstance(body, bytes) else body

    def ready_wire(
        self, endpoint: str, payload, *, context: RequestContext | None = None
    ) -> tuple[object, tuple[int, dict | bytes] | None]:
        """Everything about one request that cannot wait.

        Gate, route, parse, the tenant charge — and, where the route has
        a ``ready`` half, an answer from what is already in memory.
        Returns ``(parsed request, answer)``; ``answer`` is ``None`` when
        only :meth:`compute_wire` can tell, is final (an error body)
        when any of those steps refused the request, and on a ready
        half's success is ``(200, body)``: a unary route's encoded JSON
        body, or a stream's tuple of NDJSON lines — the shape
        :meth:`compute_wire` answers it in.

        An answer is counted here, a refusal as an error.  An unknown
        name is counted under one fixed sentinel key: a client spraying
        bogus names must not grow the stats map (and the health payload)
        without bound.
        """
        started = time.perf_counter()
        try:
            request = self._parse(endpoint, payload, context)
            ready = ROUTE_BY_NAME[endpoint].ready
            body = getattr(self, ready)(request) if ready else None
        except Exception as exc:  # noqa: BLE001 — the boundary swallows all
            err = as_api_error(exc)
            self._stats.record(
                _stats_key(endpoint), time.perf_counter() - started, error=True
            )
            return None, (err.http_status, error_payload(err))
        if body is None:
            return request, None
        self._stats.record(endpoint, time.perf_counter() - started, error=False)
        return request, (200, body)

    def compute_wire(self, endpoint: str, request, *, raw: bool = False) -> tuple[int, object]:
        """Run the handler for a request :meth:`ready_wire` parsed but
        could not answer — the kernel, a pool, a shard, a disk may be
        waited for in here.

        A failure is ``(status, error payload)`` on every route.  A
        success is ``(200, the response's wire dict)`` — except that a
        stream route answers its tuple of NDJSON lines, and ``raw`` (a
        ``?format=ppm`` render) the image bytes.  Either is counted here:
        the answer is complete when the handler returns.
        """
        route = ROUTE_BY_NAME[endpoint]
        handler = getattr(self, route.handler)
        started = time.perf_counter()
        try:
            response = handler() if request is None else handler(request)
            if route.kind != "stream":
                response = response.ppm if raw else response.to_wire()
        except Exception as exc:  # noqa: BLE001 — the boundary swallows all
            err = as_api_error(exc)
            self._stats.record(endpoint, time.perf_counter() - started, error=True)
            return err.http_status, error_payload(err)
        self._stats.record(endpoint, time.perf_counter() - started, error=False)
        return 200, response

    def _parse(self, endpoint: str, payload, context: RequestContext | None):
        """Gate, route and parse one wire request into its protocol type
        (``None`` for a body-less route), and charge its tenant.

        This is the only place the app admits, decodes or charges a
        request, for every route.  The tenant is charged from the parsed
        name, before any handler resolves it: a request over its
        tenant's budget never loads that tenant.
        """
        route = ROUTE_BY_NAME.get(endpoint)
        self.gate.admit(endpoint, context)
        if route is None:
            raise ApiError(
                "UNKNOWN_ENDPOINT",
                f"no endpoint {endpoint!r}",
                details={"endpoints": all_endpoints()},
            )
        if route.request_cls is None:
            return None
        request = route.request_cls.from_wire(payload if payload is not None else {})
        # the tenant rides in the body, so its rate budget can only be
        # charged here, post-parse — admission (auth, per-peer,
        # per-token) already ran pre-body
        tenant = self._tenant_of(request)
        if tenant is not None:
            self.gate.charge_tenant(tenant, context)
        return request

    # -------------------------------------------------------------- endpoints
    def search(self, request: SearchRequest) -> SearchResponse:
        return self._search(request, wait=True)

    def search_cached(self, request: SearchRequest) -> bytes | None:
        """The half of :meth:`search` that never waits, answering the
        page's JSON body.

        Same checks, same errors, same bytes — but only for a resident
        tenant whose result cache already holds the answer; otherwise
        ``None``, having touched nothing (``search`` then answers it).
        """
        return self._search(request, wait=False)

    def _search(
        self, request: SearchRequest, *, wait: bool
    ) -> SearchResponse | bytes | None:
        # the budget starts at admission, so validation time counts
        # against the client's deadline_ms too
        budget = Deadline.after_ms(request.deadline_ms)
        resolved = self._resolve(request.compendium, wait=wait)
        if resolved is None:
            return None
        _, service = resolved
        respond = service.respond if wait else service.respond_cached
        return respond(request, deadline=budget)

    def search_batch(self, request: BatchSearchRequest) -> BatchSearchResponse:
        budget = Deadline.after_ms(request.deadline_ms)
        _, service = self._resolve(request.compendium)
        return service.respond_batch(request, deadline=budget)

    def datasets(self, request: DatasetListRequest) -> DatasetListResponse:
        _, service = self._resolve(request.compendium)
        tiers = service.dataset_tiers()  # {} -> all resident (the v1 default)
        return DatasetListResponse(
            datasets=tuple(
                DatasetInfo(
                    name=ds.name,
                    n_genes=ds.n_genes,
                    n_conditions=ds.n_conditions,
                    metadata=dict(ds.metadata),
                    fingerprint=ds.fingerprint,
                    tier=tiers.get(ds.name, "resident"),
                )
                for ds in service.compendium
            )
        )

    def ingest(self, request: IngestRequest) -> IngestResponse:
        """``POST /v1/ingest``: add one SOFT/PCL dataset to a live tenant.

        The submission is validated in full before any mutation, then
        published through the eager copy-on-write index sync — a query
        racing this request sees either the prior or the fully-published
        compendium fingerprint, never a mix.  Without a catalog the
        ingest lands in the default service (same ordering guarantees,
        no on-disk source bookkeeping beyond its own store).
        """
        with Stopwatch() as sw:
            if self.catalog is not None:
                tenant, service, dataset = self.catalog.ingest(
                    request.compendium,
                    request.name,
                    request.format,
                    request.content,
                )
            else:
                tenant, service = self._resolve(request.compendium)
                dataset = parse_dataset(
                    request.content, request.format, name=request.name
                )
                if request.name in service.compendium:
                    raise ApiError(
                        "DATASET_EXISTS",
                        f"compendium {tenant!r} already serves a dataset "
                        f"named {request.name!r}",
                        details={"compendium": tenant, "dataset": request.name},
                    )
                service.ingest_dataset(dataset)
        return IngestResponse(
            compendium=tenant,
            dataset=dataset.name,
            n_genes=dataset.n_genes,
            n_conditions=dataset.n_conditions,
            fingerprint=dataset.fingerprint,
            compendium_fingerprint=service.compendium.fingerprint,
            datasets=len(service.compendium),
            elapsed_seconds=sw.elapsed,
        )

    def cluster(self, request: ClusterRequest) -> ClusterResponse:
        """Hierarchically cluster the top genes of a search result.

        The expression submatrix comes from the named dataset (or the
        search's top-weighted one); genes absent from that dataset are
        dropped, and at least two must survive.
        """
        with Stopwatch() as sw:
            dataset, matrix = self._top_submatrix(
                request.search, request.dataset, request.top_genes
            )
            if matrix.n_genes < 2:
                raise ApiError(
                    "INVALID_REQUEST",
                    f"only {matrix.n_genes} of the top {request.top_genes} "
                    f"genes are present in dataset {dataset!r}; "
                    "clustering needs at least 2",
                )
            tree = hierarchical_cluster(
                matrix.values,
                metric=request.metric,
                linkage=request.linkage,
                leaf_ids=matrix.gene_ids,
            )
        return ClusterResponse(
            genes=tuple(matrix.gene_ids[i] for i in tree.leaf_order()),
            dataset=dataset,
            metric=request.metric,
            linkage=request.linkage,
            merges=tuple(
                (int(left), int(right), float(height), int(size))
                for left, right, height, size in tree.to_merges()
            ),
            elapsed_seconds=sw.elapsed,
        )

    def render_heatmap(self, request: RenderRequest) -> RenderResponse:
        """Render the top genes of a search result as a PPM heatmap."""
        with Stopwatch() as sw:
            dataset, matrix = self._top_submatrix(
                request.search, request.dataset, request.top_genes
            )
            if matrix.n_genes < 1:
                raise ApiError(
                    "INVALID_REQUEST",
                    f"none of the top {request.top_genes} genes are "
                    f"present in dataset {dataset!r}",
                )
            if request.cluster and matrix.n_genes >= 2:
                tree = hierarchical_cluster(
                    matrix.values, leaf_ids=matrix.gene_ids
                )
                matrix = matrix.reorder_genes(tree.leaf_order())
            colormap = get_colormap(request.colormap)
            if request.saturation is not None:
                colormap = colormap.with_saturation(request.saturation)
            width = matrix.n_conditions * request.cell_width
            height = matrix.n_genes * request.cell_height
            pixels = render_heatmap_block(
                matrix.values,
                colormap,
                x=0, y=0, w=width, h=height,
                rx=0, ry=0, rw=width, rh=height,
            )
        return RenderResponse(
            width=width,
            height=height,
            dataset=dataset,
            colormap=request.colormap,
            genes=tuple(matrix.gene_ids),
            ppm=encode_ppm(pixels),
            elapsed_seconds=sw.elapsed,
        )

    # ------------------------------------------------------ streaming export
    def search_export(self, request: ExportRequest) -> tuple[bytes, ...]:
        """``search/export``: the export's NDJSON lines (bytes) — every
        chunk line, then the checksummed trailer — sent as one body.

        The whole export is ready before a byte of it is sent, so every
        failure — unknown genes/datasets, the deadline, the search, the
        encoding — raises here, and the transport answers it with an
        ordinary error status.
        """
        return self._export(request, wait=True)

    def search_export_cached(self, request: ExportRequest) -> tuple[bytes, ...] | None:
        """The half of :meth:`search_export` that never waits: the same
        lines, from offset 0 of a resident tenant's cached ranking whose
        lines are already encoded at this ``chunk_size``; otherwise
        ``None``, having touched nothing (``search_export`` then answers
        it)."""
        return self._export(request, wait=False)

    def _export(
        self, request: ExportRequest, *, wait: bool
    ) -> tuple[bytes, ...] | None:
        budget = Deadline.after_ms(request.deadline_ms)
        resolved = self._resolve(request.compendium, wait=wait)
        if resolved is None:
            return None
        _, service = resolved
        if not wait:
            return service.export_cached(request, deadline=budget)
        return service.iter_result(request, deadline=budget).lines()

    def export(self, payload, *, context: RequestContext | None = None):
        """:meth:`search_export` of one wire payload, for in-process
        callers: a generator over its lines.  It enters and is counted
        like every route (:meth:`ready_wire`, then :meth:`compute_wire`
        when the ready half cannot answer — both answer the tuple of
        lines), and raises the :class:`ApiError` a transport would answer
        as an error status."""
        request, answer = self.ready_wire("search/export", payload, context=context)
        status, body = answer or self.compute_wire("search/export", request)
        if status != 200:
            error = body["error"]
            raise ApiError(
                error["code"], error["message"],
                details=error.get("details"), http_status=status,
            )
        return (line for line in body)

    def health(self) -> HealthResponse:
        service = self.service
        tenants = self.catalog.stats() if self.catalog is not None else {}
        return HealthResponse(
            status="ok",
            uptime_seconds=time.monotonic() - self._started,
            datasets=len(service.compendium),
            genes=service.gene_count(),
            index_bytes=service.index_bytes(),
            query_count=service.query_count,
            cache=service.cache_stats(),
            endpoints=self._stats.snapshot(),
            serving=service.serving_stats(),
            limits=self.gate.stats(),
            shards=service.shard_stats(),
            storage=service.storage_stats(),
            tenants=tenants,
        )

    def record_rejection(self, endpoint: str) -> None:
        """Count a transport-level gate rejection against an endpoint.

        A transport that gates *before* reading the body (the request
        pipeline) rejects requests :meth:`_parse` never sees; this keeps
        those 401/429/413s visible in ``/v1/health`` error rates.  The
        caller-supplied name is clamped to known endpoints so a spray
        cannot grow the stats map.
        """
        self._stats.record(_stats_key(endpoint), 0.0, error=True)

    # -------------------------------------------------------------- internals
    def _top_submatrix(self, search: SearchRequest, dataset: str | None, top_genes: int):
        """``(dataset, matrix)``: the expression submatrix of a search's
        top genes in one dataset — the named one, or the search's
        top-weighted one — for cluster and render.

        The nested search's budget starts here, before the tenant is
        resolved, as :meth:`_search`'s does, and bounds the (full,
        un-truncated) search.  The search's ``top_k`` caps the genes read:
        cluster/render must never touch genes the client's search
        contract excluded.  A named dataset is judged by the backend's
        gene universe, like a search's ``datasets`` filter.
        """
        budget = Deadline.after_ms(search.deadline_ms)
        _, service = self._resolve(search.compendium)
        result = service.search(
            search.genes, use_cache=search.use_cache, datasets=search.datasets,
            deadline=budget,
        )
        if dataset is None:
            if not result.datasets:
                raise ApiError("INVALID_REQUEST", "search returned no datasets")
            dataset = result.datasets[0].name
        else:
            service.universe().select((dataset,))
        if search.top_k is not None:
            top_genes = min(top_genes, search.top_k)
        top = result.top_genes(top_genes)
        matrix = service.compendium[dataset].matrix.subset_genes(top, missing="skip")
        return dataset, matrix


def _stats_key(endpoint: str) -> str:
    """The stats row a request is counted under: its endpoint, or one
    sentinel for every name no route has."""
    return endpoint if endpoint in ROUTE_BY_NAME else "(unknown)"

"""The v1 wire protocol: round-tripping, validation, error mapping, paging.

Covers the contract every transport relies on: ``from_wire(to_wire(x))``
is the identity for every message type (property-tested), malformed
payloads become structured :class:`ApiError` codes (never bare Python
exceptions), and pagination semantics (``total_pages``,
``PAGE_OUT_OF_RANGE``) live in the protocol layer.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api.protocol as protocol
from repro.api.errors import API_VERSION, ERROR_STATUS, ApiError, as_api_error, error_payload
from repro.api.protocol import (
    BatchSearchRequest,
    BatchSearchResponse,
    ClusterRequest,
    ClusterResponse,
    DatasetInfo,
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
    page_count,
)
from repro.spell import SpellEngine, SpellService
from repro.util.errors import RenderError, SearchError, StoreError, ValidationError

# ---------------------------------------------------------------- strategies
gene_ids = st.text(
    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", min_size=1, max_size=8
)
gene_lists = st.lists(gene_ids, min_size=1, max_size=6, unique=True).map(tuple)
scores = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def search_requests(draw):
    return SearchRequest(
        genes=draw(gene_lists),
        top_k=draw(st.one_of(st.none(), st.integers(1, 500))),
        page=draw(st.integers(0, 50)),
        page_size=draw(st.integers(1, 100)),
        top_datasets=draw(st.integers(0, 20)),
        datasets=draw(
            st.one_of(
                st.none(),
                st.lists(gene_ids, min_size=1, max_size=4, unique=True).map(tuple),
            )
        ),
        use_cache=draw(st.booleans()),
    )


@st.composite
def search_responses(draw):
    n_rows = draw(st.integers(0, 5))
    return SearchResponse(
        query=draw(gene_lists),
        query_used=draw(gene_lists),
        query_missing=draw(st.lists(gene_ids, max_size=3, unique=True).map(tuple)),
        page=draw(st.integers(0, 10)),
        page_size=draw(st.integers(1, 50)),
        total_genes=draw(st.integers(0, 10_000)),
        total_pages=draw(st.integers(0, 500)),
        gene_rows=tuple(
            (i + 1, draw(gene_ids), draw(scores)) for i in range(n_rows)
        ),
        dataset_rows=tuple(
            (i + 1, draw(gene_ids), draw(scores)) for i in range(draw(st.integers(0, 3)))
        ),
        elapsed_seconds=draw(st.floats(0, 10, allow_nan=False)),
    )


def wire_identity(message, cls):
    """to_wire -> real JSON -> from_wire must reproduce the message."""
    payload = json.loads(json.dumps(message.to_wire()))
    assert cls.from_wire(payload) == message


# ---------------------------------------------------------------- round-trip
class TestWireRoundTrip:
    @given(req=search_requests())
    @settings(max_examples=60, deadline=None)
    def test_search_request(self, req):
        wire_identity(req, SearchRequest)

    @given(reqs=st.lists(search_requests(), min_size=1, max_size=3),
           scheduler=st.sampled_from(["map", "steal"]))
    @settings(max_examples=30, deadline=None)
    def test_batch_request(self, reqs, scheduler):
        wire_identity(
            BatchSearchRequest(searches=tuple(reqs), scheduler=scheduler),
            BatchSearchRequest,
        )

    def test_dataset_list_request(self):
        wire_identity(DatasetListRequest(), DatasetListRequest)

    @given(req=search_requests(), top=st.integers(2, 50),
           metric=st.sampled_from(["correlation", "euclidean"]),
           linkage=st.sampled_from(["average", "complete", "single", "ward"]))
    @settings(max_examples=30, deadline=None)
    def test_cluster_request(self, req, top, metric, linkage):
        wire_identity(
            ClusterRequest(search=req, top_genes=top, metric=metric, linkage=linkage),
            ClusterRequest,
        )

    @given(req=search_requests(), top=st.integers(1, 50),
           colormap=st.sampled_from(["red-green", "grayscale"]),
           saturation=st.one_of(st.none(), st.floats(0.1, 5.0)),
           cw=st.integers(1, 16), ch=st.integers(1, 16), cluster=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_render_request(self, req, top, colormap, saturation, cw, ch, cluster):
        wire_identity(
            RenderRequest(
                search=req, top_genes=top, colormap=colormap, saturation=saturation,
                cell_width=cw, cell_height=ch, cluster=cluster,
            ),
            RenderRequest,
        )

    @given(resp=search_responses())
    @settings(max_examples=60, deadline=None)
    def test_search_response(self, resp):
        wire_identity(resp, SearchResponse)

    @given(resps=st.lists(search_responses(), min_size=0, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_batch_response(self, resps):
        wire_identity(
            BatchSearchResponse(
                results=tuple(resps), total_seconds=0.5, n_workers=2,
                cache_hits=1, cache_misses=2,
            ),
            BatchSearchResponse,
        )

    def test_dataset_list_response(self):
        wire_identity(
            DatasetListResponse(
                datasets=(
                    DatasetInfo("ds0", 10, 4, {"kind": "background"}),
                    DatasetInfo("ds1", 7, 3),
                )
            ),
            DatasetListResponse,
        )

    def test_cluster_response(self):
        wire_identity(
            ClusterResponse(
                genes=("G1", "G2", "G3"),
                dataset="ds0",
                metric="correlation",
                linkage="average",
                merges=((0, 1, 0.25, 2), (3, 2, 0.5, 3)),
                elapsed_seconds=0.01,
            ),
            ClusterResponse,
        )

    def test_render_response(self):
        wire_identity(
            RenderResponse(
                width=8, height=4, dataset="ds0", colormap="red-green",
                genes=("G1",), ppm=b"P6\n2 1\n255\n" + bytes(6),
                elapsed_seconds=0.01,
            ),
            RenderResponse,
        )

    def test_health_response(self):
        wire_identity(
            HealthResponse(
                status="ok", uptime_seconds=1.5, datasets=3, genes=100,
                index_bytes=4096, query_count=7,
                cache={"hits": 2, "misses": 5},
                endpoints={"search": {"count": 7, "errors": 1,
                                      "total_seconds": 0.2, "mean_seconds": 0.03}},
                serving={"n_workers": 2},
                limits={"rate_limited": 3, "auth_required": True},
            ),
            HealthResponse,
        )

    @given(genes=gene_lists, top_k=st.one_of(st.none(), st.integers(1, 500)),
           chunk=st.integers(1, 5000), use_cache=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_export_request(self, genes, top_k, chunk, use_cache):
        wire_identity(
            ExportRequest(
                genes=genes, top_k=top_k, chunk_size=chunk, use_cache=use_cache
            ),
            ExportRequest,
        )

    @given(offset=st.integers(0, 10_000), n_rows=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_export_chunk(self, offset, n_rows):
        wire_identity(
            ExportChunk(
                offset=offset,
                gene_rows=tuple(
                    (offset + i + 1, f"G{i}", 0.5 - i * 0.01) for i in range(n_rows)
                ),
            ),
            ExportChunk,
        )

    def test_export_trailer(self):
        wire_identity(
            ExportTrailer(
                status="ok", total_genes=1000, total_rows=1000, n_chunks=2,
                checksum="sha256:abc123", query=("G1", "G2"),
                query_used=("G1",), query_missing=("G2",),
                dataset_rows=((1, "ds0", 0.9),), elapsed_seconds=0.05,
            ),
            ExportTrailer,
        )
        wire_identity(
            ExportTrailer(
                status="error", n_chunks=1, checksum="sha256:def",
                error={"code": "INTERNAL", "message": "boom"},
            ),
            ExportTrailer,
        )


# ------------------------------------------------------------- golden bytes
# ``to_wire`` key order decides the JSON bytes, and with them the export
# ``sha256`` checksum and every "bit-identical" oracle across versions.
# The literals below were recorded from the hand-written ``to_wire``s
# (commit 4738b2e); one fully-populated instance per message class.
_SEARCH = SearchRequest(
    genes=("YFG1", "YFG2"), top_k=50, page=2, page_size=10, top_datasets=3,
    datasets=("ds0", "ds2"), use_cache=False, deadline_ms=250,
    compendium="yeast.v2",
)
_SEARCH_WIRE = (
    '{"api_version": "v1", "genes": ["YFG1", "YFG2"], "top_k": 50, "page": 2'
    ', "page_size": 10, "top_datasets": 3, "datasets": ["ds0", "ds2"]'
    ', "use_cache": false, "deadline_ms": 250, "compendium": "yeast.v2"}'
)
_RESPONSE = SearchResponse(
    query=("YFG1", "YFG2"), query_used=("YFG1",), query_missing=("YFG2",),
    page=2, page_size=10, total_genes=4321, total_pages=5,
    gene_rows=((21, "YAL001C", 0.75), (22, "YAL002W", -0.125)),
    dataset_rows=((1, "ds0", 0.5), (2, "ds2", 0.25)),
    elapsed_seconds=0.015625, partial=True,
    shards={"node-1": {"status": "down", "skipped": ["ds1"]}},
)
_RESPONSE_WIRE = (
    '{"api_version": "v1", "query": ["YFG1", "YFG2"], "query_used": ["YFG1"]'
    ', "query_missing": ["YFG2"], "page": 2, "page_size": 10'
    ', "total_genes": 4321, "total_pages": 5'
    ', "gene_rows": [[21, "YAL001C", 0.75], [22, "YAL002W", -0.125]]'
    ', "dataset_rows": [[1, "ds0", 0.5], [2, "ds2", 0.25]]'
    ', "elapsed_seconds": 0.015625, "partial": true'
    ', "shards": {"node-1": {"status": "down", "skipped": ["ds1"]}}}'
)
_DS0 = DatasetInfo(
    name="ds0", n_genes=100, n_conditions=8,
    metadata={"kind": "background", "organism": "yeast"},
    fingerprint="sha256:cc", tier="cold",
)
_DS0_WIRE = (
    '{"name": "ds0", "n_genes": 100, "n_conditions": 8'
    ', "metadata": {"kind": "background", "organism": "yeast"}'
    ', "fingerprint": "sha256:cc", "tier": "cold"}'
)

GOLDEN = [
    (_SEARCH, _SEARCH_WIRE),
    (
        BatchSearchRequest(
            searches=(_SEARCH, SearchRequest(genes=("YFG3",), compendium="yeast.v2")),
            scheduler="steal", deadline_ms=900, compendium="yeast.v2",
        ),
        '{"api_version": "v1", "searches": [' + _SEARCH_WIRE +
        ', {"api_version": "v1", "genes": ["YFG3"], "top_k": null, "page": 0'
        ', "page_size": 20, "top_datasets": 10, "datasets": null'
        ', "use_cache": true, "deadline_ms": null, "compendium": "yeast.v2"}]'
        ', "scheduler": "steal", "deadline_ms": 900, "compendium": "yeast.v2"}',
    ),
    (
        DatasetListRequest(compendium="yeast.v2"),
        '{"api_version": "v1", "compendium": "yeast.v2"}',
    ),
    (
        ClusterRequest(search=_SEARCH, top_genes=12, dataset="ds0",
                       metric="euclidean", linkage="ward"),
        '{"api_version": "v1", "search": ' + _SEARCH_WIRE +
        ', "top_genes": 12, "dataset": "ds0", "metric": "euclidean"'
        ', "linkage": "ward"}',
    ),
    (
        # an integer saturation is normalised to a float by the constructor
        RenderRequest(search=_SEARCH, top_genes=12, dataset="ds0",
                      colormap="grayscale", saturation=2, cell_width=4,
                      cell_height=6, cluster=True),
        '{"api_version": "v1", "search": ' + _SEARCH_WIRE +
        ', "top_genes": 12, "dataset": "ds0", "colormap": "grayscale"'
        ', "saturation": 2.0, "cell_width": 4, "cell_height": 6, "cluster": true}',
    ),
    (
        ExportRequest(genes=("YFG1", "YFG2"), top_k=1000, chunk_size=250,
                      top_datasets=3, datasets=("ds0", "ds2"), use_cache=False,
                      deadline_ms=5000, resume_offset=500, compendium="yeast.v2"),
        '{"api_version": "v1", "genes": ["YFG1", "YFG2"], "top_k": 1000'
        ', "chunk_size": 250, "top_datasets": 3, "datasets": ["ds0", "ds2"]'
        ', "use_cache": false, "deadline_ms": 5000, "resume_offset": 500'
        ', "compendium": "yeast.v2"}',
    ),
    (
        IngestRequest(name="GSE1234.pcl", format="pcl",
                      content="YORF\tNAME\tGWEIGHT\tc0\nYAL001C\tx\t1\t0.5\n",
                      compendium="yeast.v2"),
        '{"api_version": "v1", "name": "GSE1234.pcl", "format": "pcl"'
        ', "content": "YORF\\tNAME\\tGWEIGHT\\tc0\\nYAL001C\\tx\\t1\\t0.5\\n"'
        ', "compendium": "yeast.v2"}',
    ),
    (
        IngestResponse(compendium="yeast.v2", dataset="GSE1234.pcl", n_genes=1,
                       n_conditions=1, fingerprint="sha256:aa",
                       compendium_fingerprint="sha256:bb", datasets=5,
                       elapsed_seconds=0.25),
        '{"api_version": "v1", "compendium": "yeast.v2", "dataset": "GSE1234.pcl"'
        ', "n_genes": 1, "n_conditions": 1, "fingerprint": "sha256:aa"'
        ', "compendium_fingerprint": "sha256:bb", "datasets": 5'
        ', "elapsed_seconds": 0.25}',
    ),
    (_RESPONSE, _RESPONSE_WIRE),  # partial=True, with shard detail
    (
        BatchSearchResponse(results=(_RESPONSE,), total_seconds=0.5, n_workers=2,
                            cache_hits=1, cache_misses=3),
        '{"api_version": "v1", "results": [' + _RESPONSE_WIRE +
        '], "total_seconds": 0.5, "n_workers": 2, "cache_hits": 1'
        ', "cache_misses": 3}',
    ),
    (_DS0, _DS0_WIRE),  # nested-only: no api_version
    (
        DatasetListResponse(datasets=(_DS0, DatasetInfo("ds1", 7, 3))),
        '{"api_version": "v1", "datasets": [' + _DS0_WIRE +
        ', {"name": "ds1", "n_genes": 7, "n_conditions": 3, "metadata": {}'
        ', "fingerprint": "", "tier": "resident"}]}',
    ),
    (
        ClusterResponse(genes=("G2", "G1", "G3"), dataset="ds0",
                        metric="correlation", linkage="average",
                        merges=((0, 1, 0.25, 2), (3, 2, 0.5, 3)),
                        elapsed_seconds=0.0625),
        '{"api_version": "v1", "genes": ["G2", "G1", "G3"], "dataset": "ds0"'
        ', "metric": "correlation", "linkage": "average"'
        ', "merges": [[0, 1, 0.25, 2], [3, 2, 0.5, 3]], "elapsed_seconds": 0.0625}',
    ),
    (
        RenderResponse(width=16, height=8, dataset="ds0", colormap="red-green",
                       genes=("G1", "G2"),
                       ppm=b"P6\n2 1\n255\n\x00\x01\x02\xff\xfe\xfd",
                       elapsed_seconds=0.125),
        '{"api_version": "v1", "width": 16, "height": 8, "dataset": "ds0"'
        ', "colormap": "red-green", "genes": ["G1", "G2"]'
        ', "ppm_base64": "UDYKMiAxCjI1NQoAAQL//v0=", "elapsed_seconds": 0.125}',
    ),
    (
        ExportChunk(offset=500, gene_rows=((501, "YAL001C", 0.75),
                                           (502, "YAL002W", -0.125))),
        '{"api_version": "v1", "kind": "chunk", "offset": 500'
        ', "gene_rows": [[501, "YAL001C", 0.75], [502, "YAL002W", -0.125]]}',
    ),
    (
        ExportTrailer(status="ok", total_genes=4321, total_rows=1000, n_chunks=4,
                      checksum="sha256:dd", query=("YFG1", "YFG2"),
                      query_used=("YFG1",), query_missing=("YFG2",),
                      dataset_rows=((1, "ds0", 0.5),), elapsed_seconds=0.5,
                      resume_offset=500),
        '{"api_version": "v1", "kind": "trailer", "status": "ok"'
        ', "total_genes": 4321, "total_rows": 1000, "n_chunks": 4'
        ', "checksum": "sha256:dd", "query": ["YFG1", "YFG2"]'
        ', "query_used": ["YFG1"], "query_missing": ["YFG2"]'
        ', "dataset_rows": [[1, "ds0", 0.5]], "elapsed_seconds": 0.5'
        ', "error": null, "resume_offset": 500}',
    ),
    (
        ExportTrailer(status="error", total_genes=4321, total_rows=250,
                      n_chunks=1, checksum="sha256:ee", query=("YFG1",),
                      query_used=("YFG1",), elapsed_seconds=0.25,
                      error={"code": "DEADLINE_EXCEEDED", "message": "budget spent",
                             "details": {"deadline_ms": 5000}}),
        '{"api_version": "v1", "kind": "trailer", "status": "error"'
        ', "total_genes": 4321, "total_rows": 250, "n_chunks": 1'
        ', "checksum": "sha256:ee", "query": ["YFG1"], "query_used": ["YFG1"]'
        ', "query_missing": [], "dataset_rows": [], "elapsed_seconds": 0.25'
        ', "error": {"code": "DEADLINE_EXCEEDED", "message": "budget spent"'
        ', "details": {"deadline_ms": 5000}}, "resume_offset": 0}',
    ),
    (
        HealthResponse(
            status="ok", uptime_seconds=12.5, datasets=5, genes=4321,
            index_bytes=1048576, query_count=42,
            cache={"hits": 30, "misses": 12, "evictions": 0},
            endpoints={"search": {"count": 42, "errors": 1, "total_seconds": 0.5,
                                  "mean_seconds": 0.0119}},
            serving={"n_workers": 2, "n_procs": 1},
            limits={"rate_limited": 3, "auth_required": True},
            shards={"node-1": {"alive": True}},
            storage={"resident": 4, "cold": 1},
            tenants={"yeast.v2": {"resident": True, "ingests": 1}},
        ),
        '{"api_version": "v1", "status": "ok", "uptime_seconds": 12.5'
        ', "datasets": 5, "genes": 4321, "index_bytes": 1048576, "query_count": 42'
        ', "cache": {"hits": 30, "misses": 12, "evictions": 0}'
        ', "endpoints": {"search": {"count": 42, "errors": 1, "total_seconds": 0.5'
        ', "mean_seconds": 0.0119}}, "serving": {"n_workers": 2, "n_procs": 1}'
        ', "limits": {"rate_limited": 3, "auth_required": true}'
        ', "shards": {"node-1": {"alive": true}}, "storage": {"resident": 4'
        ', "cold": 1}, "tenants": {"yeast.v2": {"resident": true, "ingests": 1}}}',
    ),
]


def _golden_id(pair) -> str:
    message = pair[0]
    name = type(message).__name__
    return f"{name}-{message.status}" if isinstance(message, ExportTrailer) else name


MESSAGE_CLASSES = {
    getattr(protocol, name) for name in protocol.__all__
    if isinstance(getattr(protocol, name), type)
}


class TestGoldenWireBytes:
    def test_every_message_class_is_pinned(self):
        assert {type(message) for message, _ in GOLDEN} == MESSAGE_CLASSES
        assert len(MESSAGE_CLASSES) == 17

    @pytest.mark.parametrize("message,wire", GOLDEN, ids=map(_golden_id, GOLDEN))
    def test_to_wire_bytes(self, message, wire):
        assert json.dumps(message.to_wire()) == wire

    @pytest.mark.parametrize("message,wire", GOLDEN, ids=map(_golden_id, GOLDEN))
    def test_from_wire_reads_them_back(self, message, wire):
        assert type(message).from_wire(json.loads(wire)) == message


# ------------------------------------------------------------ hostile types
#: wrong JSON values tried under every wire key of every message class
HOSTILE_VALUES = [
    None, True, -1, 1.5, "", [], [1], {}, {"a": 1}, [[]],
    json.loads("1e400"),  # what a JSON parser makes of it: inf
    10**30,
    10**400,  # a JSON integer past the float range
]
HOSTILE_PAYLOADS = [None, True, 1, "x", [], [{}]]


class TestHostileTypes:
    """``from_wire`` answers any JSON value with a message or an
    ``ApiError`` — never a bare ``TypeError``/``KeyError``/``OverflowError``."""

    @pytest.mark.parametrize("message,wire", GOLDEN, ids=map(_golden_id, GOLDEN))
    def test_from_wire_never_leaks_a_bare_exception(self, message, wire):
        cls, good = type(message), json.loads(wire)
        attempts = [(None, payload) for payload in HOSTILE_PAYLOADS]
        attempts += [
            (key, {**good, key: value})
            for key in [*good, "api_version", "kind"] for value in HOSTILE_VALUES
        ]
        for key, payload in attempts:
            try:
                cls.from_wire(payload)
            except ApiError:
                pass
            except Exception as exc:  # the leak this test exists to catch
                pytest.fail(f"{cls.__name__}.from_wire leaked {exc!r} for {key}={payload!r}")

    def test_the_triple_is_derived_never_hand_written(self):
        """Structure lock: a message class states fields, not code."""
        cross_field = {BatchSearchRequest, ExportRequest, ExportTrailer}
        for cls in MESSAGE_CLASSES:
            assert not {"to_wire", "from_wire"} & vars(cls).keys(), cls
            assert ("__post_init__" in vars(cls)) == (cls in cross_field), cls


# ---------------------------------------------------------------- validation
class TestValidation:
    def test_empty_query_rejected(self):
        with pytest.raises(ApiError) as exc:
            SearchRequest(genes=())
        assert exc.value.code == "INVALID_QUERY"

    def test_duplicate_genes_rejected(self):
        with pytest.raises(ApiError) as exc:
            SearchRequest(genes=("A", "A"))
        assert exc.value.code == "INVALID_QUERY"

    @pytest.mark.parametrize(
        "field,value",
        [("page", -1), ("page_size", 0), ("top_k", 0), ("top_datasets", -2)],
    )
    def test_bad_numeric_fields(self, field, value):
        with pytest.raises(ApiError) as exc:
            SearchRequest(genes=("A",), **{field: value})
        assert exc.value.code == "INVALID_REQUEST"

    def test_unknown_field_rejected(self):
        with pytest.raises(ApiError) as exc:
            SearchRequest.from_wire({"genes": ["A"], "limit": 5})
        assert exc.value.code == "INVALID_REQUEST"
        assert "limit" in exc.value.details["unknown_fields"]

    def test_wrong_version_rejected(self):
        with pytest.raises(ApiError) as exc:
            SearchRequest.from_wire({"api_version": "v2", "genes": ["A"]})
        assert exc.value.code == "UNSUPPORTED_VERSION"
        assert exc.value.details["supported"] == [API_VERSION]

    def test_non_object_payload_rejected(self):
        with pytest.raises(ApiError) as exc:
            SearchRequest.from_wire(["A", "B"])
        assert exc.value.code == "MALFORMED_BODY"

    def test_non_string_genes_rejected(self):
        with pytest.raises(ApiError) as exc:
            SearchRequest.from_wire({"genes": ["A", 3]})
        assert exc.value.code == "INVALID_REQUEST"

    def test_batch_needs_searches(self):
        with pytest.raises(ApiError):
            BatchSearchRequest.from_wire({"searches": "nope"})
        with pytest.raises(ApiError):
            BatchSearchRequest(searches=())

    def test_bad_scheduler(self):
        with pytest.raises(ApiError) as exc:
            BatchSearchRequest(
                searches=(SearchRequest(genes=("A",)),), scheduler="fifo"
            )
        assert exc.value.code == "INVALID_REQUEST"

    def test_cluster_unknown_metric_linkage(self):
        search = SearchRequest(genes=("A",))
        with pytest.raises(ApiError):
            ClusterRequest(search=search, metric="cosine")
        with pytest.raises(ApiError):
            ClusterRequest(search=search, linkage="median")

    def test_render_unknown_colormap(self):
        with pytest.raises(ApiError) as exc:
            RenderRequest(search=SearchRequest(genes=("A",)), colormap="viridis")
        assert "choices" in exc.value.details

    def test_render_bad_base64(self):
        with pytest.raises(ApiError):
            RenderResponse.from_wire({"width": 1, "height": 1, "ppm_base64": "%%%"})

    def test_export_request_validation(self):
        with pytest.raises(ApiError) as exc:
            ExportRequest.from_wire({"genes": ["A"], "chunk_size": 0})
        assert exc.value.code == "INVALID_REQUEST"
        with pytest.raises(ApiError) as exc:
            ExportRequest.from_wire({"genes": ["A"], "page": 2})  # no paging here
        assert exc.value.code == "INVALID_REQUEST"
        with pytest.raises(ApiError) as exc:
            ExportRequest.from_wire({"chunk_size": 5})
        assert exc.value.code == "INVALID_QUERY"

    def test_stream_lines_reject_kind_mismatch(self):
        """A trailer parsed as a chunk (or vice versa) must be a
        structured error — the kind discriminator is load-bearing."""
        trailer_wire = ExportTrailer(status="ok").to_wire()
        with pytest.raises(ApiError):
            ExportChunk.from_wire(trailer_wire)
        chunk_wire = ExportChunk(offset=0, gene_rows=()).to_wire()
        with pytest.raises(ApiError):
            ExportTrailer.from_wire(chunk_wire)

    def test_trailer_error_status_pairing(self):
        with pytest.raises(ApiError):
            ExportTrailer(status="error")  # error status needs an error object
        with pytest.raises(ApiError):
            ExportTrailer(status="ok", error={"code": "INTERNAL", "message": "x"})
        with pytest.raises(ApiError):
            ExportTrailer(status="partial")


# ------------------------------------------------------------- error mapping
class TestErrorModel:
    def test_every_code_has_a_status(self):
        for code, status in ERROR_STATUS.items():
            assert 400 <= status < 600, code

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            ApiError("NOT_A_CODE", "nope")

    @pytest.mark.parametrize(
        "exc,code",
        [
            (StoreError("store gone"), "INDEX_STALE"),
            (SearchError("bad query"), "INVALID_QUERY"),
            (ValidationError("bad arg"), "INVALID_REQUEST"),
            (RenderError("bad geometry"), "INVALID_REQUEST"),
            (RuntimeError("boom"), "INTERNAL"),
        ],
    )
    def test_classification(self, exc, code):
        err = as_api_error(exc)
        assert err.code == code
        assert err.http_status == ERROR_STATUS[code]

    def test_api_error_passes_through(self):
        original = ApiError("UNKNOWN_GENE", "nope", details={"unknown_genes": ["X"]})
        assert as_api_error(original) is original

    def test_error_payload_shape(self):
        payload = error_payload(ApiError("INVALID_QUERY", "empty", details={"n": 0}))
        assert payload["api_version"] == API_VERSION
        assert payload["error"]["code"] == "INVALID_QUERY"
        assert payload["error"]["details"] == {"n": 0}
        json.dumps(payload)  # wire form must be JSON-serializable


# ----------------------------------------------------------------- paging
class TestPaging:
    @given(total=st.integers(0, 10_000), page_size=st.integers(1, 100))
    @settings(max_examples=80, deadline=None)
    def test_page_count(self, total, page_size):
        pages = page_count(total, page_size)
        assert pages >= 1  # an empty ranking still has one (empty) page
        assert pages == max(1, math.ceil(total / page_size))

    def test_respond_reports_total_pages(self, spell_setup):
        compendium, truth = spell_setup
        service = SpellService(compendium)
        response = service.respond(
            SearchRequest(genes=truth.query_genes, page_size=10)
        )
        assert response.total_pages == page_count(response.total_genes, 10)
        assert response.total_genes > 0

    def test_respond_page_out_of_range(self, spell_setup):
        compendium, truth = spell_setup
        service = SpellService(compendium)
        with pytest.raises(ApiError) as exc:
            service.respond(SearchRequest(genes=truth.query_genes, page=10_000))
        assert exc.value.code == "PAGE_OUT_OF_RANGE"
        assert exc.value.details["page"] == 10_000
        assert exc.value.details["total_pages"] >= 1

    def test_top_k_caps_total_pages(self, spell_setup):
        compendium, truth = spell_setup
        service = SpellService(compendium)
        response = service.respond(
            SearchRequest(genes=truth.query_genes, top_k=7, page_size=5)
        )
        assert response.total_pages == 2  # ceil(7 / 5)
        with pytest.raises(ApiError):
            service.respond(
                SearchRequest(genes=truth.query_genes, top_k=7, page_size=5, page=2)
            )


# --------------------------------------------------- service-level additions
class TestServiceProtocolPath:
    def test_batch_response_qps_clamps(self):
        empty = BatchSearchResponse(
            results=(), total_seconds=0.0, n_workers=1, cache_hits=0, cache_misses=0
        )
        assert empty.queries_per_second == 0.0

    def test_dataset_filter_restricts_search(self, spell_setup):
        compendium, truth = spell_setup
        service = SpellService(compendium)
        subset = list(truth.relevant_datasets)
        result = service.search(list(truth.query_genes), datasets=subset)
        assert set(d.name for d in result.datasets) == set(subset)
        full = service.search(list(truth.query_genes))
        assert len(full.datasets) == len(compendium)

    def test_dataset_filter_equals_subcompendium(self, spell_setup):
        """Filtering is bit-identical to searching a compendium of just
        those datasets (for both the index and the exact-engine path)."""
        from repro.data.compendium import Compendium

        compendium, truth = spell_setup
        subset = list(truth.relevant_datasets)
        sub = Compendium([compendium[name] for name in subset])
        for filtered, direct in (
            (SpellService(compendium, cache_size=0), SpellService(sub, cache_size=0)),
            (SpellEngine(compendium), SpellEngine(sub)),
        ):
            a = filtered.search(list(truth.query_genes), datasets=subset)
            b = direct.search(list(truth.query_genes))
            assert a.dataset_ranking() == b.dataset_ranking()
            assert a.gene_ranking() == b.gene_ranking()
            assert [d.weight for d in a.datasets] == [d.weight for d in b.datasets]

    def test_dataset_filter_unknown_name(self, spell_setup):
        compendium, truth = spell_setup
        service = SpellService(compendium)
        with pytest.raises(SearchError):
            service.search(list(truth.query_genes), datasets=["no_such_dataset"])

    def test_dataset_filter_cached_separately(self, spell_setup):
        compendium, truth = spell_setup
        service = SpellService(compendium)
        full = service.search(list(truth.query_genes))
        filtered = service.search(
            list(truth.query_genes), datasets=list(truth.relevant_datasets)
        )
        assert len(filtered.datasets) < len(full.datasets)
        # repeat both: each must come back from its own cache entry
        assert len(service.search(list(truth.query_genes)).datasets) == len(full.datasets)
        assert len(
            service.search(
                list(truth.query_genes), datasets=list(truth.relevant_datasets)
            ).datasets
        ) == len(filtered.datasets)

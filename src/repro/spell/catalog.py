"""Multi-tenant compendium catalog: named tenants, bounded residency.

The paper's deployment serves *one* curated compendium; ROADMAP item 4
scales that to a fleet — many named compendia behind one serving
process, each a tenant with its own datasets, its own persistent index
store, and its own live-ingestion stream.  :class:`CompendiumCatalog`
is that fleet's spine:

* **Namespaced layout** — tenant ``acme`` lives entirely under
  ``<root>/acme/``: ``datasets/`` holds the ingested source files
  (PCL / SOFT series-matrix text, exactly as submitted) and ``store/``
  is the tenant's private :class:`~repro.spell.store.IndexStore`
  directory.  Tenant names share the wire protocol's filesystem-safe
  grammar, so a hostile ``compendium`` field can never traverse out of
  the root.  A directory is a tenant only once it holds a source file.
* **Lazy residency with a bounded LRU** — a tenant's
  :class:`~repro.spell.service.SpellService` is built on first use
  (mmap cold start when its store is current) and at most
  ``max_resident`` tenants hold RAM at once.  Eviction closes the
  victim through the existing :meth:`SpellService.close` contract —
  idempotent, and safe mid-request because a closed service still
  answers in-process; the next touch reloads from the store.  The
  default tenant is pinned: it is never evicted, preserving the
  single-tenant deployment's behavior exactly.
* **Live ingestion** — :meth:`ingest` validates the submission *in
  full* before any mutation (a malformed file is a structured 4xx and
  the store is untouched), writes the source through the store's one
  crash-safe publish (tmp + fsync + rename + directory fsync; a full
  disk is a structured 503 with no debris), then publishes through the
  service's eager copy-on-write sync: racing queries observe either
  the prior or the fully-published compendium fingerprint, never a mix.
* **Observability** — :meth:`stats` rolls up per-tenant counters
  (resident / loads / evictions / ingests / datasets) for the
  ``tenants`` field of ``/v1/health``.

All catalog state sits behind one lock; a tenant *load* happens inside
it, so a cold start briefly serializes other tenants' resolutions —
the bench (``benchmarks/bench_multitenant.py``) gates that cold start
at ≤ 5× a warm search precisely because it is on this path.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from pathlib import Path

from repro.api.errors import ApiError
from repro.data.compendium import Compendium
from repro.data.loader import INGEST_FORMATS, parse_dataset
from repro.spell.service import SpellService
from repro.spell.store import _publish_bytes

__all__ = ["DEFAULT_TENANT", "CompendiumCatalog"]

#: The tenant requests without a ``compendium`` field resolve to.
DEFAULT_TENANT = "default"

#: Same grammar the wire protocol enforces — re-checked here so the
#: catalog is safe even for in-process callers that bypass the protocol.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _sources(base: Path):
    """``(path, format, dataset name)`` for every source file under a
    tenant directory, in name order.  Foreign files (tmp leftovers,
    notes) are not sources."""
    source_dir = base / "datasets"
    if not source_dir.is_dir():
        return
    for path in sorted(source_dir.iterdir()):
        for fmt, suffix in INGEST_FORMATS.items():
            if path.name.endswith(suffix) and len(path.name) > len(suffix):
                yield path, fmt, path.name[: -len(suffix)]
                break


def _is_tenant(base: Path) -> bool:
    """A tenant is its sources: the empty directory a failed first
    ingest leaves behind is no tenant, so it is neither listed nor
    loaded, and the retried ingest creates the tenant afresh."""
    return next(_sources(base), None) is not None


def _atomic_write_text(path: Path, text: str) -> None:
    """Crash-safe source publish, as durable as a shard's: a reader (or
    a reload after a crash) sees the whole file or no file, and a full
    disk is a structured ``StorePublishError`` with no temp left."""
    _publish_bytes(path, text.encode("utf-8"))


class CompendiumCatalog:
    """Tenant name -> resident :class:`SpellService`, LRU-bounded.

    ``default_service`` (when given) is the pinned default tenant —
    typically the service the CLI already builds from ``--store-dir``
    or synthetic data — and is *owned by the caller*: :meth:`close`
    never closes it.  Every other tenant is discovered under ``root``
    and loaded/evicted on demand.  ``service_options`` are forwarded to
    every tenant ``SpellService`` the catalog constructs (workers,
    cache sizing, ``store_verify``, ...); each gets its own namespaced
    ``store_dir``.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        default_service: SpellService | None = None,
        max_resident: int = 4,
        service_options: dict | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_resident = max(1, int(max_resident))
        self.service_options = dict(service_options or {})
        # residency order: least-recently-used first (OrderedDict head)
        self._resident: OrderedDict[str, SpellService] = OrderedDict()
        self._external_default = default_service is not None
        if default_service is not None:
            self._resident[DEFAULT_TENANT] = default_service
        self._counters: dict[str, dict[str, int]] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------- resolution
    def tenants(self) -> list[str]:
        """Every known tenant name (resident or not), sorted."""
        with self._lock:
            names = set(self._resident)
            if self.root.is_dir():
                for entry in self.root.iterdir():
                    if _TENANT_RE.fullmatch(entry.name) and _is_tenant(entry):
                        names.add(entry.name)
            return sorted(names)

    def resolve(self, name: str | None) -> tuple[str, SpellService]:
        """The serving tenant for one request: ``None`` = the default.

        Marks the tenant most-recently-used, loading (mmap cold start)
        and possibly evicting the LRU victim.  An unknown name is the
        structured ``UNKNOWN_COMPENDIUM`` with the known names in
        details — a routing error, never a filesystem error.
        """
        tenant = DEFAULT_TENANT if name is None else str(name)
        with self._lock:
            service = self._resident.get(tenant)
            if service is None:
                if not _is_tenant(self._tenant_dir(tenant)):
                    raise ApiError(
                        "UNKNOWN_COMPENDIUM",
                        f"no compendium named {tenant!r}",
                        details={"known": self.tenants()},
                    )
                service = self._load(tenant)
            self._resident.move_to_end(tenant)
            return tenant, service

    def resident(self, name: str | None) -> tuple[str, SpellService] | None:
        """:meth:`resolve` for a caller that must not wait: the tenant
        only if it is resident *and* the catalog is not busy, else
        ``None``.

        Never loads, never touches the filesystem, and never queues
        behind the catalog lock (a load or an ingest's fsync may be
        running under it) — ``None`` means "ask :meth:`resolve` from
        somewhere that may block".  A hit marks the tenant
        most-recently-used like any other resolution.
        """
        tenant = DEFAULT_TENANT if name is None else str(name)
        if not self._lock.acquire(blocking=False):
            return None
        try:
            service = self._resident.get(tenant)
            if service is None:
                return None
            self._resident.move_to_end(tenant)
            return tenant, service
        finally:
            self._lock.release()

    def _tenant_dir(self, tenant: str) -> Path:
        if not _TENANT_RE.fullmatch(tenant):
            raise ApiError(
                "UNKNOWN_COMPENDIUM",
                f"no compendium named {tenant!r}",
                details={"known": self.tenants()},
            )
        return self.root / tenant

    def _bump(self, tenant: str, counter: str) -> None:
        entry = self._counters.setdefault(
            tenant, {"loads": 0, "evictions": 0, "ingests": 0}
        )
        entry[counter] += 1

    def _load(self, tenant: str) -> SpellService:
        """Build the tenant's service from its sources + private store.

        When the store is current this is the mmap fast path (shards
        reopen without re-normalizing); a stale or absent store rebuilds
        only the diff and syncs back — all existing ``IndexStore``
        behavior, just namespaced per tenant.
        """
        base = self._tenant_dir(tenant)
        datasets = [
            parse_dataset(path.read_text(encoding="utf-8"), fmt, name=name)
            for path, fmt, name in _sources(base)
        ]
        service = SpellService(
            Compendium(datasets),
            store_dir=base / "store",
            **self.service_options,
        )
        self._resident[tenant] = service
        self._bump(tenant, "loads")
        self._evict_over_budget()
        return service

    def _evict_over_budget(self) -> None:
        """Close least-recently-used tenants down to ``max_resident``.

        The default tenant is pinned.  ``close()`` is safe while the
        victim still answers an in-flight request (the service keeps
        working in-process after close; only pooled workers and owned
        temp state are torn down), which is exactly the existing drain
        contract the facades rely on at shutdown.
        """
        evictable = [t for t in self._resident if t != DEFAULT_TENANT]
        budget = self.max_resident
        while len(self._resident) > budget and evictable:
            victim = evictable.pop(0)
            service = self._resident.pop(victim)
            service.close()
            self._bump(victim, "evictions")

    # -------------------------------------------------------------- ingestion
    def ingest(self, name: str | None, dataset_name: str, fmt: str, content: str):
        """Validate, persist, and publish one submission; returns
        ``(tenant, service, dataset)``.

        Order is the whole safety story: (1) parse *everything* first —
        a malformed file raises :class:`DataFormatError` (a structured
        4xx upstream) before any mutation; (2) duplicate check —
        append-only, ``DATASET_EXISTS`` with the store untouched;
        (3) atomic source write; (4) in-memory add + eager
        copy-on-write index sync.  A crash between (3) and (4) leaves
        the prior manifest intact and the source on disk — the next
        load resyncs the store to the sources, so both orders of
        survival are consistent states.

        Ingesting into a tenant nobody has created yet creates it —
        the fleet grows by ingestion, not by provisioning.
        """
        tenant = DEFAULT_TENANT if name is None else str(name)
        with self._lock:
            base = self._tenant_dir(tenant)
            service = self._resident.get(tenant)
            if service is None and _is_tenant(base):
                service = self._load(tenant)
            # (1) full validation before any side effect
            dataset = parse_dataset(content, fmt, name=dataset_name)
            # (2) append-only within the tenant
            source_path = base / "datasets" / (
                dataset_name + INGEST_FORMATS[str(fmt).lower()]
            )
            already = source_path.exists() or (
                service is not None and dataset_name in service.compendium
            )
            if already:
                raise ApiError(
                    "DATASET_EXISTS",
                    f"compendium {tenant!r} already serves a dataset named "
                    f"{dataset_name!r}",
                    details={"compendium": tenant, "dataset": dataset_name},
                )
            # (3) durable source, atomically
            source_path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write_text(source_path, content)
            # (4) publish: in-memory append + eager copy-on-write sync
            if service is None:
                service = self._load(tenant)  # picks the new source up
            else:
                service.ingest_dataset(dataset)
                self._resident.move_to_end(tenant)
            self._bump(tenant, "ingests")
            return tenant, service, dataset

    # ----------------------------------------------------------- lifecycle
    def stats(self) -> dict:
        """Per-tenant rollup for the health payload's ``tenants`` field."""
        with self._lock:
            out: dict[str, dict] = {}
            for tenant in self.tenants():
                counters = self._counters.get(
                    tenant, {"loads": 0, "evictions": 0, "ingests": 0}
                )
                entry: dict = {"resident": tenant in self._resident, **counters}
                service = self._resident.get(tenant)
                if service is not None:
                    entry["datasets"] = len(service.compendium)
                    entry["fingerprint"] = service.compendium.fingerprint
                out[tenant] = entry
            out["_catalog"] = {
                "max_resident": self.max_resident,
                "resident": len(self._resident),
            }
            return out

    def close(self) -> None:
        """Close every catalog-owned resident service (idempotent).

        The externally-provided default service belongs to the caller
        (the CLI built it; the CLI closes it at shutdown).
        """
        with self._lock:
            while self._resident:
                tenant, service = self._resident.popitem(last=False)
                if tenant == DEFAULT_TENANT and self._external_default:
                    continue
                service.close()

"""Persistent, memory-mapped storage for :class:`~repro.spell.index.SpellIndex`.

The deployed SPELL compendium is static across server restarts, yet a
fresh process used to re-normalize every dataset before answering its
first query.  :class:`IndexStore` makes the index a durable artifact:

* :meth:`IndexStore.save` writes one ``.npy`` per dataset shard (the
  row-normalized matrix) plus a JSON manifest carrying the format
  version, shard dtype, each shard's gene list, its source dataset's
  content fingerprint (:attr:`repro.data.dataset.Dataset.fingerprint`),
  and a ``sha256`` over the shard file's exact bytes.
* :meth:`IndexStore.load` reopens the shards with
  ``np.load(mmap_mode="r")`` — a zero-copy cold start: pages of the
  normalized matrices fault in lazily as queries touch them, so serving
  begins in milliseconds regardless of compendium size.
* :meth:`IndexStore.sync` diffs the live index against the manifest by
  fingerprint and rewrites only stale shards — the on-disk mirror of
  the copy-on-write ``SpellIndex.updated``.

**Integrity is end to end.**  Every manifest record carries the sha256
of the shard's exact ``.npy`` bytes; ``load`` verifies it (eagerly for
in-RAM loads; ``verify="eager"``/``"lazy"`` selects a startup-or-lazy
policy for mmap).  A mismatched or unreadable shard is *quarantined* —
renamed into ``quarantine/``, never served — then rebuilt from its
bound :class:`Dataset` source when one is attached, else the load
refuses with :class:`~repro.util.errors.StoreCorruptError` (the API
maps it to the stable ``STORE_CORRUPT`` code).  A corrupt shard is
never silently served.

**Publish is crash-safe.**  Shards and the manifest are written to a
temp name, fsynced, and atomically renamed (then the directory entry is
fsynced), so a writer killed at any instruction leaves either the old
or the new store — never a half-published manifest.  ENOSPC and other
partial-write failures surface as
:class:`~repro.util.errors.StorePublishError` before any manifest
changes hands.  ``load`` sweeps crash debris: stale ``*.tmp`` partials
and shard files no committed manifest references.

**Shards tier.**  :meth:`demote` compresses a shard into a
``shard-*.npz`` (deflate over the exact ``.npy`` bytes, so the recorded
sha256 still verifies end to end) and :meth:`promote` decompresses it
back, re-verifying the checksum before the bytes rejoin the resident
tier.  ``load`` serves cold shards by decompress-and-verify into RAM;
:class:`StorageStats` counts resident/cold/promotions/quarantined for
``/v1/health``.

Shard files are content-addressed (``shard-<hash(name, fingerprint,
dtype)>.npy``), so a changed dataset — or a dtype switch — lands in a
new file and ``sync`` never rewrites bytes that are already current (or
that a live mmap reader may hold).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.data.compendium import Compendium
from repro.data.dataset import Dataset
from repro.spell.index import (
    SUPPORTED_DTYPES,
    SpellIndex,
    _DatasetIndex,
    _index_dataset,
)
from repro.util.errors import StoreCorruptError, StoreError, StorePublishError

__all__ = [
    "IndexStore",
    "StorageStats",
    "SyncReport",
    "VerifyReport",
    "FORMAT",
    "FORMAT_VERSION",
]

FORMAT = "spell-index-store"
#: v2 adds per-shard ``sha256``/``nbytes``/``tier`` records.  v1 stores
#: (no checksums) refuse to load — integrity is mandatory now, and the
#: service transparently rebuilds from its compendium on refusal.
FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
QUARANTINE_DIR = "quarantine"
#: Member name of the ``.npy`` byte stream inside a cold ``.npz`` shard.
COLD_MEMBER = "shard.npy"

TIER_RESIDENT = "resident"
TIER_COLD = "cold"


class StorageStats:
    """Thread-safe storage-tier counters, surfaced in ``/v1/health``.

    ``resident``/``cold`` are gauges (set from the manifest after each
    load/sync/demote/promote); everything else is an append-only
    counter, so the health surface can be diffed across scrapes.
    """

    _COUNTERS = (
        "promotions",
        "demotions",
        "quarantined",
        "rebuilt",
        "corrupt",
        "verified",
        "cold_loads",
        "swept",
        "publish_errors",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.resident = 0
        self.cold = 0
        for name in self._COUNTERS:
            setattr(self, name, 0)

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + int(n))

    def set_tiers(self, resident: int, cold: int) -> None:
        with self._lock:
            self.resident = int(resident)
            self.cold = int(cold)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            out = {"resident": self.resident, "cold": self.cold}
            for name in self._COUNTERS:
                out[name] = getattr(self, name)
            return out


@dataclass(frozen=True)
class SyncReport:
    """What one :meth:`IndexStore.sync` actually touched.

    ``written``/``removed``/``unchanged`` are dataset names;
    ``swept`` lists *file* names deleted because no committed manifest
    referenced them — shard files stranded by a writer that crashed
    between writing a shard and publishing its manifest (or by a
    pre-sweep version of this store).  Without the sweep a long-lived
    service that churns datasets grows its store directory without
    bound.
    """

    written: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()
    unchanged: tuple[str, ...] = ()
    swept: tuple[str, ...] = ()

    @property
    def dirty(self) -> bool:
        return bool(self.written or self.removed)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one :meth:`IndexStore.verify` scrub (dataset names)."""

    ok: tuple[str, ...] = ()
    corrupt: tuple[str, ...] = ()
    missing: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not (self.corrupt or self.missing)


@dataclass
class _Manifest:
    dtype: str
    shards: list[dict] = field(default_factory=list)  # manifest order = index order

    def to_json(self) -> dict:
        return {
            "format": FORMAT,
            "format_version": FORMAT_VERSION,
            "dtype": self.dtype,
            "shards": self.shards,
        }


def _shard_filename(name: str, fingerprint: str, dtype: str) -> str:
    # dtype is part of the address: a dtype switch must land in a new
    # file, never truncate bytes a live mmap reader may have mapped
    key = hashlib.sha1(f"{name}\x00{fingerprint}\x00{dtype}".encode()).hexdigest()[:16]
    return f"shard-{key}.npy"


def _cold_filename(filename: str) -> str:
    return filename[: -len(".npy")] + ".npz" if filename.endswith(".npy") else filename + ".npz"


def _shard_record(
    entry: _DatasetIndex, fingerprint: str, filename: str, sha256: str, nbytes: int
) -> dict:
    """The manifest entry for one shard (single source of truth)."""
    return {
        "name": entry.name,
        "file": filename,
        "dtype": entry.normalized.dtype.name,
        "fingerprint": fingerprint,
        "n_genes": len(entry.gene_ids),
        "n_conditions": int(entry.normalized.shape[1]),
        "gene_ids": list(entry.gene_ids),
        "sha256": sha256,
        "nbytes": int(nbytes),
        "tier": TIER_RESIDENT,
    }


def _entry_fingerprint(entry: _DatasetIndex) -> str:
    if entry.fingerprint is not None:
        return entry.fingerprint
    if entry.source is not None:
        return entry.source.fingerprint
    raise StoreError(
        f"shard {entry.name!r} carries no content fingerprint; "
        "rebuild the index from a compendium before saving"
    )


def _npy_bytes(array: np.ndarray) -> bytes:
    """The exact ``.npy`` serialization of ``array`` — the unit the
    manifest's sha256 covers, identical on disk, in RAM, and inside a
    cold ``.npz`` member."""
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(array))
    return buf.getvalue()


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fsync_dir(directory: Path) -> None:
    """Make a rename durable: fsync the directory entry (best effort on
    platforms whose directories refuse O_RDONLY fsync)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _publish_bytes(path: Path, data: bytes) -> None:
    """Crash-safe file publish: temp write + fsync + atomic rename.

    Any OS-level failure (ENOSPC, EIO, permissions) raises
    :class:`StorePublishError` after removing the temp file — the final
    name either holds its previous complete content or the new bytes,
    never a torn write.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise StorePublishError(
            f"could not publish {path.name} in {path.parent}: {exc}"
        ) from exc
    _fsync_dir(path.parent)


def _atomic_write_text(path: Path, text: str) -> None:
    _publish_bytes(path, text.encode("utf-8"))


def _compress_bytes(npy_data: bytes, path: Path) -> None:
    """Publish ``npy_data`` deflate-compressed as a one-member ``.npz``.

    The member holds the *exact* ``.npy`` bytes, so decompression
    round-trips to the same sha256 the manifest records — compression
    never weakens the integrity chain.  (zstd would compress better but
    is not in the base environment; the zip container keeps the file a
    valid ``np.load`` target either way.)
    """
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED, compresslevel=6) as archive:
        archive.writestr(COLD_MEMBER, npy_data)
    _publish_bytes(path, buf.getvalue())


def _decompress_bytes(path: Path) -> bytes:
    """The ``.npy`` bytes inside a cold shard; corruption raises
    :class:`StoreCorruptError` (checksum verification is the caller's
    job — this only peels the container)."""
    try:
        with zipfile.ZipFile(path) as archive:
            return archive.read(COLD_MEMBER)
    except (OSError, KeyError, zipfile.BadZipFile, zlib.error) as exc:
        raise StoreCorruptError(
            f"cold shard {path} is unreadable: {exc}", files=(path.name,)
        ) from exc


def _quarantine(directory: Path, filename: str) -> str | None:
    """Move a damaged shard file into ``quarantine/`` so it can never be
    served again (kept, not deleted, for forensics).  Returns the
    quarantined name, or None when the file was already gone."""
    src = directory / filename
    if not src.exists():
        return None
    pen = directory / QUARANTINE_DIR
    pen.mkdir(exist_ok=True)
    target = pen / filename
    n = 0
    while target.exists():
        n += 1
        target = pen / f"{filename}.{n}"
    os.replace(src, target)
    _fsync_dir(directory)
    return target.name


def _load_npy(data: bytes, path: Path, shard: dict) -> np.ndarray:
    try:
        array = np.load(io.BytesIO(data))
    except (OSError, ValueError) as exc:
        raise StoreCorruptError(
            f"shard {shard['name']!r} at {path} does not parse as .npy: {exc}",
            datasets=(str(shard["name"]),),
            files=(path.name,),
        ) from exc
    return array


class IndexStore:
    """Save / load / incrementally sync a :class:`SpellIndex` directory.

    All methods are static: the store is the *directory*, not an object
    with state — any process holding the path can reopen it.  Methods
    take an optional ``stats`` (:class:`StorageStats`) that the serving
    tier threads through so ``/v1/health`` sees every tier transition.
    """

    # -------------------------------------------------------------- writing
    @staticmethod
    def save(
        index: SpellIndex, directory: str | Path, *, stats: StorageStats | None = None
    ) -> list[str]:
        """Write every shard plus the manifest; returns written file names."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = _Manifest(dtype=index.dtype.name)
        written: list[str] = []
        for entry in index._entries:
            fingerprint = _entry_fingerprint(entry)
            filename = _shard_filename(
                entry.name, fingerprint, entry.normalized.dtype.name
            )
            data = _npy_bytes(entry.normalized)
            IndexStore._publish_shard(directory, filename, data, stats)
            written.append(filename)
            manifest.shards.append(
                _shard_record(entry, fingerprint, filename, _sha256_hex(data), len(data))
            )
        IndexStore._publish_manifest(directory, manifest, stats)
        if stats is not None:
            stats.set_tiers(len(manifest.shards), 0)
        return written

    @staticmethod
    def _publish_shard(
        directory: Path, filename: str, data: bytes, stats: StorageStats | None
    ) -> None:
        try:
            _publish_bytes(directory / filename, data)
        except StorePublishError:
            if stats is not None:
                stats.bump("publish_errors")
            raise

    @staticmethod
    def _publish_manifest(
        directory: Path, manifest: _Manifest, stats: StorageStats | None
    ) -> None:
        try:
            _atomic_write_text(directory / MANIFEST_NAME, json.dumps(manifest.to_json()))
        except StorePublishError:
            if stats is not None:
                stats.bump("publish_errors")
            raise

    @staticmethod
    def sync(
        index: SpellIndex, directory: str | Path, *, stats: StorageStats | None = None
    ) -> SyncReport:
        """Bring the directory up to date with ``index``, rewriting only
        shards whose content fingerprint changed.

        New and changed datasets are written, shards for datasets no
        longer in the index are deleted, unchanged shard files are left
        byte-untouched — a cold (compressed) shard that is still current
        stays cold.  A directory with no (or unreadable) manifest is
        simply saved from scratch.
        """
        directory = Path(directory)
        try:
            old = IndexStore._read_manifest(directory)
        except StoreError:
            written = IndexStore.save(index, directory, stats=stats)
            # even a from-scratch save sweeps: a corrupt manifest may
            # have stranded shard files the new manifest doesn't claim
            swept = IndexStore._sweep_orphans(directory, set(written), stats)
            return SyncReport(
                written=tuple(e.name for e in index._entries), swept=swept
            )
        old_by_key = {(s["name"], s["fingerprint"]): s for s in old.shards}

        manifest = _Manifest(dtype=index.dtype.name)
        written: list[str] = []
        unchanged: list[str] = []
        live_files: set[str] = set()
        for entry in index._entries:
            fingerprint = _entry_fingerprint(entry)
            filename = _shard_filename(
                entry.name, fingerprint, entry.normalized.dtype.name
            )
            prior = old_by_key.get((entry.name, fingerprint))
            if (
                prior is not None
                and prior["file"] == filename
                and prior["dtype"] == entry.normalized.dtype.name
                and (directory / IndexStore._stored_file(prior)).exists()
            ):
                unchanged.append(entry.name)
                manifest.shards.append(prior)
                live_files.add(IndexStore._stored_file(prior))
                continue
            data = _npy_bytes(entry.normalized)
            IndexStore._publish_shard(directory, filename, data, stats)
            written.append(entry.name)
            live_files.add(filename)
            manifest.shards.append(
                _shard_record(entry, fingerprint, filename, _sha256_hex(data), len(data))
            )
        # publish the new manifest first: a crash between here and the
        # sweep leaves orphan files that load cleanly (the manifest
        # never references a deleted shard) and that the *next*
        # successful sync — or the next load — reclaims; never a
        # manifest pointing at missing files
        IndexStore._publish_manifest(directory, manifest, stats)
        removed = tuple(
            shard["name"]
            for shard in old.shards
            if IndexStore._stored_file(shard) not in live_files
        )
        swept = IndexStore._sweep_orphans(directory, live_files, stats)
        if stats is not None:
            cold = sum(1 for s in manifest.shards if s.get("tier") == TIER_COLD)
            stats.set_tiers(len(manifest.shards) - cold, cold)
        return SyncReport(
            written=tuple(written),
            removed=removed,
            unchanged=tuple(unchanged),
            swept=swept,
        )

    @staticmethod
    def _stored_file(shard: dict) -> str:
        """The file that actually holds a shard's bytes right now —
        the ``.npz`` for cold records, the ``.npy`` otherwise."""
        if shard.get("tier") == TIER_COLD:
            return str(shard.get("cold_file") or _cold_filename(shard["file"]))
        return str(shard["file"])

    @staticmethod
    def _sweep_orphans(
        directory: Path, live_files: set[str], stats: StorageStats | None = None
    ) -> tuple[str, ...]:
        """Delete every shard file the committed manifest doesn't claim.

        This covers shards retired by the sync that just ran, strays no
        manifest ever referenced (a writer crashed between the shard
        publish and the manifest rename), and ``*.tmp`` partials from a
        writer killed mid-write.  Only runs after a successful manifest
        publish (or from ``load``, against the committed manifest), so a
        concurrent reader that already loaded the old manifest holds its
        mmaps open (POSIX keeps unlinked-but-mapped pages alive) and a
        fresh reader sees a consistent store either way.
        """
        swept: list[str] = []
        patterns = ("shard-*.npy", "shard-*.npz", "*.tmp")
        for pattern in patterns:
            for path in sorted(Path(directory).glob(pattern)):
                if path.name not in live_files:
                    path.unlink(missing_ok=True)
                    swept.append(path.name)
        if swept and stats is not None:
            stats.bump("swept", len(swept))
        return tuple(swept)

    # ------------------------------------------------------------- tiering
    @staticmethod
    def demote(
        directory: str | Path,
        names: list[str] | tuple[str, ...],
        *,
        stats: StorageStats | None = None,
    ) -> tuple[str, ...]:
        """Compress the named datasets' shards into the cold tier.

        Each resident ``.npy`` is checksum-verified (a corrupt shard
        must be quarantined, not lovingly preserved in compressed form),
        deflated into ``shard-*.npz``, the manifest republished, and
        only then is the resident file removed — a crash at any point
        leaves a loadable store, with at worst both files present until
        the next sweep.  Returns the dataset names actually demoted.
        """
        directory = Path(directory)
        manifest = IndexStore._read_manifest(directory)
        wanted = set(names)
        demoted: list[str] = []
        retired: list[str] = []
        for shard in manifest.shards:
            if shard["name"] not in wanted or shard.get("tier") == TIER_COLD:
                continue
            path = directory / shard["file"]
            data = IndexStore._verified_bytes(directory, shard, path, stats)
            cold_name = _cold_filename(shard["file"])
            try:
                _compress_bytes(data, directory / cold_name)
            except StorePublishError:
                if stats is not None:
                    stats.bump("publish_errors")
                raise
            shard["tier"] = TIER_COLD
            shard["cold_file"] = cold_name
            demoted.append(shard["name"])
            retired.append(shard["file"])
        if not demoted:
            return ()
        IndexStore._publish_manifest(directory, manifest, stats)
        for filename in retired:
            (directory / filename).unlink(missing_ok=True)
        if stats is not None:
            stats.bump("demotions", len(demoted))
            cold = sum(1 for s in manifest.shards if s.get("tier") == TIER_COLD)
            stats.set_tiers(len(manifest.shards) - cold, cold)
        return tuple(demoted)

    @staticmethod
    def promote(
        directory: str | Path,
        names: list[str] | tuple[str, ...],
        *,
        bind: Compendium | None = None,
        stats: StorageStats | None = None,
    ) -> tuple[str, ...]:
        """Decompress the named cold shards back into the resident tier.

        The decompressed bytes are re-verified against the manifest
        sha256 *before* the ``.npy`` is published — a cold shard that
        rotted on disk is quarantined and rebuilt from ``bind`` when
        possible, else the promote refuses with ``StoreCorruptError``.
        """
        directory = Path(directory)
        manifest = IndexStore._read_manifest(directory)
        sources = {(ds.name, ds.fingerprint): ds for ds in bind} if bind else {}
        wanted = set(names)
        promoted: list[str] = []
        retired: list[str] = []
        for shard in manifest.shards:
            if shard["name"] not in wanted or shard.get("tier") != TIER_COLD:
                continue
            cold_name = IndexStore._stored_file(shard)
            data = IndexStore._verified_bytes(
                directory,
                shard,
                directory / cold_name,
                stats,
                source=sources.get((shard["name"], shard["fingerprint"])),
            )
            IndexStore._publish_shard(directory, shard["file"], data, stats)
            shard["tier"] = TIER_RESIDENT
            shard.pop("cold_file", None)
            shard["sha256"] = _sha256_hex(data)
            shard["nbytes"] = len(data)
            promoted.append(shard["name"])
            retired.append(cold_name)
        if not promoted:
            return ()
        IndexStore._publish_manifest(directory, manifest, stats)
        for filename in retired:
            (directory / filename).unlink(missing_ok=True)
        if stats is not None:
            stats.bump("promotions", len(promoted))
            cold = sum(1 for s in manifest.shards if s.get("tier") == TIER_COLD)
            stats.set_tiers(len(manifest.shards) - cold, cold)
        return tuple(promoted)

    # -------------------------------------------------------------- integrity
    @staticmethod
    def _verified_bytes(
        directory: Path,
        shard: dict,
        path: Path,
        stats: StorageStats | None,
        *,
        source: Dataset | None = None,
    ) -> bytes:
        """The shard's ``.npy`` bytes, checksum-verified — or rebuilt.

        Reads ``path`` (decompressing a ``.npz`` container first) and
        compares sha256 against the manifest record.  On any mismatch or
        read failure the damaged file is quarantined and, when
        ``source`` is the shard's bound dataset, the bytes are
        re-derived from it (the caller republues them); with no source
        the store refuses with :class:`StoreCorruptError` rather than
        serve bytes that differ from what was written.
        """
        name = str(shard["name"])
        data: bytes | None = None
        failure: str | None = None
        try:
            raw = path.read_bytes()
            data = _decompress_bytes(path) if path.suffix == ".npz" else raw
        except FileNotFoundError:
            failure = "missing"
        except OSError as exc:
            failure = f"unreadable ({exc})"
        except StoreCorruptError:
            failure = "undecompressable"
        if data is not None:
            if _sha256_hex(data) == shard["sha256"]:
                if stats is not None:
                    stats.bump("verified")
                return data
            failure = "checksum mismatch"
        if stats is not None:
            stats.bump("corrupt")
        quarantined = _quarantine(directory, path.name)
        if quarantined is not None and stats is not None:
            stats.bump("quarantined")
        if source is not None:
            rebuilt = _npy_bytes(
                _index_dataset(source, dtype=np.dtype(shard["dtype"])).normalized
            )
            if stats is not None:
                stats.bump("rebuilt")
            return rebuilt
        raise StoreCorruptError(
            f"shard {name!r} at {path} failed integrity verification "
            f"({failure}); quarantined "
            f"{quarantined if quarantined is not None else 'nothing (file gone)'} "
            "and no bound dataset is available to rebuild from",
            datasets=(name,),
            files=(path.name,),
        )

    @staticmethod
    def verify(
        directory: str | Path, *, stats: StorageStats | None = None
    ) -> VerifyReport:
        """Non-mutating scrub: hash every shard against its manifest record.

        The lazy half of the mmap verification policy — run it at
        startup, from cron, or via ``python -m repro.spell.store verify``
        to detect bit rot without forcing an eager load.
        """
        directory = Path(directory)
        manifest = IndexStore._read_manifest(directory)
        ok: list[str] = []
        corrupt: list[str] = []
        missing: list[str] = []
        for shard in manifest.shards:
            path = directory / IndexStore._stored_file(shard)
            try:
                data = (
                    _decompress_bytes(path)
                    if path.suffix == ".npz"
                    else path.read_bytes()
                )
            except FileNotFoundError:
                missing.append(shard["name"])
                continue
            except (OSError, StoreCorruptError):
                corrupt.append(shard["name"])
                if stats is not None:
                    stats.bump("corrupt")
                continue
            if _sha256_hex(data) == shard["sha256"]:
                ok.append(shard["name"])
                if stats is not None:
                    stats.bump("verified")
            else:
                corrupt.append(shard["name"])
                if stats is not None:
                    stats.bump("corrupt")
        return VerifyReport(
            ok=tuple(ok), corrupt=tuple(corrupt), missing=tuple(missing)
        )

    # -------------------------------------------------------------- reading
    @staticmethod
    def _read_manifest(directory: Path) -> _Manifest:
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise StoreError(f"no index store at {directory} (missing {MANIFEST_NAME})")
        try:
            raw = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"corrupt index-store manifest at {path}: {exc}") from exc
        if not isinstance(raw, dict) or raw.get("format") != FORMAT:
            raise StoreError(
                f"{path} is not a {FORMAT} manifest "
                f"(format={raw.get('format') if isinstance(raw, dict) else raw!r})"
            )
        if raw.get("format_version") != FORMAT_VERSION:
            raise StoreError(
                f"index store at {directory} has format_version "
                f"{raw.get('format_version')!r}; this build reads version "
                f"{FORMAT_VERSION} — rebuild the store with IndexStore.save"
            )
        dtype = raw.get("dtype")
        try:
            supported = np.dtype(dtype) in SUPPORTED_DTYPES
        except TypeError:
            supported = False
        if not supported:
            raise StoreError(f"index store dtype {dtype!r} is not supported")
        shards = raw.get("shards")
        if not isinstance(shards, list):
            raise StoreError(f"corrupt index-store manifest at {path}: no shard list")
        required = {
            "name", "file", "dtype", "fingerprint", "n_genes", "gene_ids",
            "sha256", "nbytes", "tier",
        }
        for shard in shards:
            if not isinstance(shard, dict) or not required.issubset(shard):
                raise StoreError(
                    f"corrupt index-store manifest at {path}: shard record "
                    f"missing {sorted(required - set(shard or ()))}"
                )
            if shard["tier"] not in (TIER_RESIDENT, TIER_COLD):
                raise StoreError(
                    f"corrupt index-store manifest at {path}: shard "
                    f"{shard['name']!r} has unknown tier {shard['tier']!r}"
                )
        return _Manifest(dtype=dtype, shards=shards)

    @staticmethod
    def load(
        directory: str | Path,
        *,
        mmap: bool = True,
        bind: Compendium | None = None,
        verify: str | None = None,
        sweep: bool = True,
        stats: StorageStats | None = None,
    ) -> SpellIndex:
        """Reopen a saved index, verifying shard integrity.

        ``mmap=True`` opens resident shards with ``np.load(mmap_mode="r")``
        — zero-copy: nothing is read until a query touches it.
        ``mmap=False`` materializes every shard in RAM (identical
        results; pay the IO up front).  Cold shards are always
        decompressed into RAM (and checksum-verified) on either path.

        ``verify`` selects the integrity policy: ``"eager"`` hashes
        every shard file against its manifest sha256 before serving it;
        ``"lazy"`` defers hashing (structural checks only) to keep the
        mmap cold start zero-copy — pair it with a startup
        :meth:`verify` scrub.  The default is eager for in-RAM loads
        and lazy for mmap.  A shard that fails verification is
        quarantined and rebuilt from ``bind`` when the matching dataset
        is attached, else the load refuses with ``StoreCorruptError`` —
        a corrupt shard is never served.

        ``sweep=True`` (default) also reclaims crash debris — ``*.tmp``
        partials and shard files the committed manifest doesn't claim —
        so a reader after a killed writer starts from a clean directory.
        Pass ``sweep=False`` for concurrent readers (worker processes)
        that must not race a live writer's unpublished files.

        ``bind`` attaches live :class:`Dataset` objects (matched by name
        + content fingerprint) as shard sources, so a following
        ``SpellIndex.updated`` can diff by identity as if the index had
        been built in-process.
        """
        directory = Path(directory)
        if verify not in (None, "eager", "lazy"):
            raise StoreError(f"unknown verify policy {verify!r}")
        manifest = IndexStore._read_manifest(directory)
        eager = verify == "eager" or (verify is None and not mmap)
        by_key = {}
        if bind is not None:
            by_key = {(ds.name, ds.fingerprint): ds for ds in bind}
        if sweep:
            live = {IndexStore._stored_file(s) for s in manifest.shards}
            IndexStore._sweep_orphans(directory, live, stats)
        entries: list[_DatasetIndex] = []
        repaired = False
        for shard in manifest.shards:
            source = by_key.get((shard["name"], shard["fingerprint"]))
            stored = IndexStore._stored_file(shard)
            path = directory / stored
            cold = shard.get("tier") == TIER_COLD
            if cold or eager:
                # the bytes pass through RAM anyway (cold always does:
                # decompress-on-promote re-verifies by construction), so
                # hashing them is one pass over data already read
                data = IndexStore._verified_bytes(
                    directory, shard, path, stats, source=source
                )
                if _sha256_hex(data) != shard["sha256"]:
                    # rebuilt bytes drifted from the recorded digest
                    # (e.g. a numpy serialization change): republish so
                    # the store and manifest agree again
                    IndexStore._publish_shard(directory, shard["file"], data, stats)
                    shard["sha256"] = _sha256_hex(data)
                    shard["nbytes"] = len(data)
                    shard["tier"] = TIER_RESIDENT
                    shard.pop("cold_file", None)
                    repaired = True
                elif not path.exists():
                    # verification rebuilt from source but the digest
                    # matched: persist the healed resident file
                    IndexStore._publish_shard(directory, shard["file"], data, stats)
                    if cold:
                        shard["tier"] = TIER_RESIDENT
                        shard.pop("cold_file", None)
                        repaired = True
                if cold and stats is not None:
                    stats.bump("cold_loads")
                if cold or not mmap:
                    normalized = _load_npy(data, path, shard)
                else:
                    normalized = np.load(directory / shard["file"], mmap_mode="r")
            else:
                try:
                    normalized = np.load(path, mmap_mode="r" if mmap else None)
                except (OSError, ValueError):
                    # structurally unreadable: same quarantine →
                    # rebuild-or-refuse path as a checksum mismatch
                    data = IndexStore._verified_bytes(
                        directory, shard, path, stats, source=source
                    )
                    IndexStore._publish_shard(directory, shard["file"], data, stats)
                    normalized = (
                        np.load(directory / shard["file"], mmap_mode="r")
                        if mmap
                        else _load_npy(data, path, shard)
                    )
            gene_ids = list(shard["gene_ids"])  # JSON already yields str
            if normalized.ndim != 2 or normalized.shape[0] != len(gene_ids):
                raise StoreCorruptError(
                    f"shard {shard['name']!r} at {path} has shape "
                    f"{normalized.shape} for {len(gene_ids)} gene ids",
                    datasets=(str(shard["name"]),),
                    files=(stored,),
                )
            if normalized.dtype.name != shard["dtype"]:
                raise StoreCorruptError(
                    f"shard {shard['name']!r} at {path} is {normalized.dtype.name}, "
                    f"manifest says {shard['dtype']}",
                    datasets=(str(shard["name"]),),
                    files=(stored,),
                )
            entries.append(
                _DatasetIndex(
                    name=str(shard["name"]),
                    gene_ids=gene_ids,
                    normalized=normalized,
                    source=source,
                    fingerprint=str(shard["fingerprint"]),
                )
            )
        if repaired:
            IndexStore._publish_manifest(directory, manifest, stats)
        if stats is not None:
            cold = sum(1 for s in manifest.shards if s.get("tier") == TIER_COLD)
            stats.set_tiers(len(manifest.shards) - cold, cold)
        return SpellIndex(entries)

    @staticmethod
    def matches(directory: str | Path, compendium: Compendium, *, dtype=None) -> bool:
        """True when the store serves exactly ``compendium``'s content.

        Compares the ordered ``(name, fingerprint)`` sequence (order
        matters: aggregation order determines bit-level results) and,
        when given, the shard dtype.  Missing or unreadable stores are
        simply non-matches.
        """
        try:
            manifest = IndexStore._read_manifest(Path(directory))
        except StoreError:
            return False
        if dtype is not None and np.dtype(dtype).name != manifest.dtype:
            return False
        on_disk = [(s["name"], s["fingerprint"]) for s in manifest.shards]
        live = [(ds.name, ds.fingerprint) for ds in compendium]
        return on_disk == live

    @staticmethod
    def tiers(directory: str | Path) -> dict[str, str]:
        """Dataset name -> tier, straight from the committed manifest."""
        manifest = IndexStore._read_manifest(Path(directory))
        return {str(s["name"]): str(s.get("tier", TIER_RESIDENT)) for s in manifest.shards}


def _cli(argv: list[str] | None = None) -> int:
    """``python -m repro.spell.store <verb> <directory> [names...]``

    Operator verbs over a store directory: ``verify`` (scrub; exit 1 on
    any corrupt/missing shard), ``tiers`` (tier per dataset), ``demote``
    / ``promote`` (move named datasets between tiers).  JSON on stdout,
    one object per run, so the CI durability smoke and shell pipelines
    can assert on it.
    """
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.spell.store",
        description="Inspect and maintain a spell-index-store directory.",
    )
    parser.add_argument("verb", choices=("verify", "tiers", "demote", "promote"))
    parser.add_argument("directory")
    parser.add_argument("names", nargs="*", help="dataset names (demote/promote)")
    args = parser.parse_args(argv)
    stats = StorageStats()
    try:
        if args.verb == "verify":
            report = IndexStore.verify(args.directory, stats=stats)
            out = {
                "ok": list(report.ok),
                "corrupt": list(report.corrupt),
                "missing": list(report.missing),
                "storage": stats.snapshot(),
            }
            print(json.dumps(out, indent=2))
            return 0 if report.clean else 1
        if args.verb == "tiers":
            print(json.dumps(IndexStore.tiers(args.directory), indent=2))
            return 0
        mover = IndexStore.demote if args.verb == "demote" else IndexStore.promote
        moved = mover(args.directory, args.names, stats=stats)
        print(json.dumps({"moved": list(moved), "storage": stats.snapshot()}, indent=2))
        return 0
    except StoreError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover — exercised by the CI smoke
    raise SystemExit(_cli())

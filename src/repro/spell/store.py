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

**A manifest is outside input.**  :class:`_Shard` states a record once:
its fields are the manifest keys, each carrying the test a value read
back from disk must pass — ``file`` must be the ``shard-<hash>.npy``
name the store itself derives, so a record can never name a path
outside the directory; the cold file's name is derived, never read.  A
record that fails is :class:`~repro.util.errors.StoreError` from every
entry point before any path is built; under a service that means
"rebuild from the bound compendium and ``sync``".  The verified read
(:func:`_checked`), the tier move (``IndexStore._retier``) and the
publish (:func:`_publish_bytes`) likewise exist once each.

**Integrity is end to end.**  Every manifest record carries the sha256
of the shard's exact ``.npy`` bytes; ``load`` verifies it (eagerly for
in-RAM loads; ``verify="eager"``/``"lazy"`` selects a startup-or-lazy
policy for mmap).  A mismatched or unreadable shard is *quarantined* —
renamed into ``quarantine/``, never served — then rebuilt from its
bound :class:`Dataset` source when one is attached, else the load
refuses with :class:`~repro.util.errors.StoreCorruptError` (the API
maps it to the stable ``STORE_CORRUPT`` code).  A corrupt shard is
never silently served.

**Publish is crash-safe.**  Shards and the manifest (and, through
:mod:`repro.spell.catalog`, a tenant's ingested sources) are written to
a temp name, fsynced, and atomically renamed (then the directory entry
is fsynced), so a writer killed at any instruction leaves either the
old or the new store — never a half-published manifest.  ENOSPC and
other partial-write failures surface as
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
import re
import threading
import zipfile
import zlib
from dataclasses import dataclass, field, fields
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


#: where counts go when a caller passes no ``stats``: written, never
#: read, so no operation branches on having somewhere to count
_UNCOUNTED = StorageStats()


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


def _shard_filename(name: str, fingerprint: str, dtype: str) -> str:
    # dtype is part of the address: a dtype switch must land in a new
    # file, never truncate bytes a live mmap reader may have mapped
    key = hashlib.sha1(f"{name}\x00{fingerprint}\x00{dtype}".encode()).hexdigest()[:16]
    return f"shard-{key}.npy"


def _is_str(value: object) -> bool:
    return type(value) is str


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0  # bool is not a count


def _matches(pattern: str):
    regex = re.compile(pattern)
    return lambda value: _is_str(value) and regex.fullmatch(value) is not None


def _one_of(*values: str):
    return lambda value: _is_str(value) and value in values


_is_dtype = _one_of(*(dtype.name for dtype in SUPPORTED_DTYPES))


def _key(says: str, test):
    """One manifest key: the test a value read back from disk must pass,
    and the words ``docs/operations.md`` states it in."""
    return field(metadata={"says": says, "test": test})


@dataclass
class _Shard:
    """One shard's manifest record, stated once.

    The fields *are* the record's keys, in manifest order, and each
    carries its test; :meth:`from_json`, :meth:`to_json` and
    :func:`record_table` are read from them.  A manifest is outside
    input: nothing becomes a path, a dtype or a length before it passed.
    """

    name: str = _key("a string", _is_str)
    file: str = _key(
        "`shard-<16 hex digits>.npy`, the name the store derives from the "
        "content: never a separator, never a path out of the store directory",
        _matches(r"shard-[0-9a-f]{16}\.npy"),  # what _shard_filename produces
    )
    dtype: str = _key("`float64` or `float32`", _is_dtype)
    fingerprint: str = _key("a string", _is_str)
    n_genes: int = _key("a non-negative integer, equal to `len(gene_ids)`", _is_count)
    n_conditions: int = _key("a non-negative integer", _is_count)
    gene_ids: list[str] = _key(
        "a list of strings",
        # the one O(genes) test: a C-speed walk, 0.6x the generator's cost
        lambda value: type(value) is list and set(map(type, value)) <= {str},
    )
    sha256: str = _key("64 lowercase hex digits", _matches(r"[0-9a-f]{64}"))
    nbytes: int = _key("a non-negative integer", _is_count)
    tier: str = _key("`resident` or `cold`", _one_of(TIER_RESIDENT, TIER_COLD))

    @property
    def stored(self) -> str:
        """The file that holds the shard's bytes right now: the ``.npz``
        beside ``file`` for a cold record, ``file`` itself otherwise.
        Derived — a manifest's ``cold_file`` is never what gets opened."""
        if self.tier == TIER_COLD:
            return self.file[: -len(".npy")] + ".npz"
        return self.file

    @classmethod
    def of(cls, entry: _DatasetIndex, data: bytes) -> "_Shard":
        """The record of ``entry`` stored resident as ``data``, its
        exact ``.npy`` bytes."""
        fingerprint = _entry_fingerprint(entry)
        dtype = entry.normalized.dtype.name
        return cls(
            name=entry.name,
            file=_shard_filename(entry.name, fingerprint, dtype),
            dtype=dtype,
            fingerprint=fingerprint,
            n_genes=len(entry.gene_ids),
            n_conditions=int(entry.normalized.shape[1]),
            gene_ids=list(entry.gene_ids),
            sha256=_sha256_hex(data),
            nbytes=len(data),
            tier=TIER_RESIDENT,
        )

    @classmethod
    def from_json(cls, raw: object, where: Path) -> "_Shard":
        """The record a manifest at ``where`` holds, or :class:`StoreError`."""
        bad = f"corrupt index-store manifest at {where}: "
        if not isinstance(raw, dict):
            raise StoreError(f"{bad}shard record {_brief(raw)} is not an object")
        missing = [key for key in _SHARD_TESTS if key not in raw]
        if missing:
            raise StoreError(f"{bad}shard record missing {missing}")
        for key, test in _SHARD_TESTS.items():
            if not test(raw[key]):
                raise StoreError(
                    f"{bad}shard {_brief(raw['name'])} has bad {key} {_brief(raw[key])}"
                )
        shard = cls(**{key: raw[key] for key in _SHARD_TESTS})
        if shard.n_genes != len(shard.gene_ids):
            raise StoreError(
                f"{bad}shard {shard.name!r} says n_genes {shard.n_genes} "
                f"for {len(shard.gene_ids)} gene ids"
            )
        if raw.get("cold_file", shard.stored) != shard.stored:
            raise StoreError(
                f"{bad}shard {shard.name!r} has bad cold_file {_brief(raw['cold_file'])}"
            )
        return shard

    def to_json(self) -> dict:
        # built shallowly: dataclasses.asdict would deep-copy every gene list
        record = {key: getattr(self, key) for key in _SHARD_TESTS}
        if self.tier == TIER_COLD:
            record["cold_file"] = self.stored  # written for older readers
        return record


#: manifest key -> its test, in manifest order
_SHARD_TESTS = {f.name: f.metadata["test"] for f in fields(_Shard)}


def record_table() -> str:
    """The shard record as the markdown table ``docs/operations.md`` carries."""
    rows = ["| Key | A value read back from a manifest must be |", "|---|---|"]
    rows += [f"| `{f.name}` | {f.metadata['says']} |" for f in fields(_Shard)]
    return "\n".join(rows)


def _brief(value: object) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


@dataclass
class _Manifest:
    dtype: str
    shards: list[_Shard] = field(default_factory=list)  # manifest order = index order

    def to_json(self) -> dict:
        return {
            "format": FORMAT,
            "format_version": FORMAT_VERSION,
            "dtype": self.dtype,
            "shards": [shard.to_json() for shard in self.shards],
        }

    def note_tiers(self, stats: StorageStats) -> None:
        cold = sum(shard.tier == TIER_COLD for shard in self.shards)
        stats.set_tiers(len(self.shards) - cold, cold)


def _entry_fingerprint(entry: _DatasetIndex) -> str:
    if entry.fingerprint is not None:
        return entry.fingerprint
    if entry.source is not None:
        return entry.source.fingerprint
    raise StoreError(
        f"shard {entry.name!r} carries no content fingerprint; "
        "rebuild the index from a compendium before saving"
    )


def _sources(bind: Compendium | None) -> dict[tuple[str, str], Dataset]:
    """Bound datasets by the ``(name, fingerprint)`` a record names them by."""
    return {(ds.name, ds.fingerprint): ds for ds in bind} if bind else {}


def _npy_bytes(array: np.ndarray) -> bytes:
    """The exact ``.npy`` serialization of ``array`` — the unit the
    manifest's sha256 covers, identical on disk, in RAM, and inside a
    cold ``.npz`` member."""
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(array))
    return buf.getvalue()


def _cold_bytes(npy_data: bytes) -> bytes:
    """``npy_data`` deflate-compressed as a one-member ``.npz``.

    The member holds the *exact* ``.npy`` bytes, so decompression
    round-trips to the same sha256 the manifest records — compression
    never weakens the integrity chain.  (zstd would compress better but
    is not in the base environment; the zip container keeps the file a
    valid ``np.load`` target either way.)
    """
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED, compresslevel=6) as archive:
        archive.writestr(COLD_MEMBER, npy_data)
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


def _publish_bytes(path: Path, data: bytes, stats: StorageStats = _UNCOUNTED) -> None:
    """Crash-safe file publish: temp write + fsync + atomic rename +
    directory fsync — the only one in ``src/``; shards, cold shards, the
    manifest and a tenant's ingested source all land through it.

    Any OS-level failure (ENOSPC, EIO, permissions) is counted in
    ``publish_errors`` and raises :class:`StorePublishError` after
    removing the temp file — the final name either holds its previous
    complete content or the new bytes, never a torn write.
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
        stats.bump("publish_errors")
        raise StorePublishError(
            f"could not publish {path.name} in {path.parent}: {exc}"
        ) from exc
    _fsync_dir(path.parent)


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


def _checked(
    directory: Path, shard: _Shard, stats: StorageStats
) -> tuple[bytes | None, str]:
    """The one verified read: ``(the shard's .npy bytes, "ok")`` when its
    stored file (a cold one is unzipped first) hashes to the record's
    sha256, else ``(None, why)`` — ``"missing"`` when the file is gone."""
    path = directory / shard.stored
    try:
        if shard.tier == TIER_COLD:
            with zipfile.ZipFile(path) as archive:
                data = archive.read(COLD_MEMBER)
        else:
            data = path.read_bytes()
    except FileNotFoundError:
        return None, "missing"
    except (OSError, KeyError, zipfile.BadZipFile, zlib.error) as exc:
        return None, f"unreadable ({exc})"
    if _sha256_hex(data) != shard.sha256:
        return None, "checksum mismatch"
    stats.bump("verified")
    return data, "ok"


def _load_npy(
    shard: _Shard, path: Path, data: bytes | None = None, mmap_mode: str | None = None
) -> np.ndarray:
    """The array in ``data`` (else in the file at ``path``)."""
    try:
        return np.load(path if data is None else io.BytesIO(data), mmap_mode=mmap_mode)
    except (OSError, ValueError, EOFError) as exc:
        raise StoreCorruptError(
            f"shard {shard.name!r} at {path} does not parse as .npy: {exc}",
            datasets=(shard.name,),
            files=(path.name,),
        ) from exc


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
        manifest, _ = IndexStore._write(index, Path(directory), {}, stats or _UNCOUNTED)
        return [shard.file for shard in manifest.shards]

    @staticmethod
    def _write(
        index: SpellIndex,
        directory: Path,
        current: dict[tuple[str, str], _Shard],
        stats: StorageStats,
    ) -> tuple[_Manifest, list[str]]:
        """Publish ``index``'s shards, then its manifest; returns the
        manifest and the names of the datasets written.  A shard whose
        ``current`` record (keyed by name and fingerprint) still
        addresses the same content, file on disk, is kept byte-untouched."""
        directory.mkdir(parents=True, exist_ok=True)
        manifest = _Manifest(dtype=index.dtype.name)
        written: list[str] = []
        for entry in index._entries:
            fingerprint = _entry_fingerprint(entry)
            dtype = entry.normalized.dtype.name
            shard = current.get((entry.name, fingerprint))
            if (
                shard is None
                or shard.dtype != dtype
                or shard.file != _shard_filename(entry.name, fingerprint, dtype)
                or not (directory / shard.stored).exists()
            ):
                data = _npy_bytes(entry.normalized)
                shard = _Shard.of(entry, data)
                _publish_bytes(directory / shard.file, data, stats)
                written.append(entry.name)
            manifest.shards.append(shard)
        # the manifest goes last: a crash before it leaves orphan files
        # the committed manifest never references (the next sync or load
        # reclaims them), never a manifest pointing at missing shards
        IndexStore._publish_manifest(directory, manifest, stats)
        manifest.note_tiers(stats)
        return manifest, written

    @staticmethod
    def _publish_manifest(
        directory: Path, manifest: _Manifest, stats: StorageStats
    ) -> None:
        data = json.dumps(manifest.to_json()).encode("utf-8")
        _publish_bytes(directory / MANIFEST_NAME, data, stats)

    @staticmethod
    def sync(
        index: SpellIndex, directory: str | Path, *, stats: StorageStats | None = None
    ) -> SyncReport:
        """Bring the directory up to date with ``index``, rewriting only
        shards whose content fingerprint changed.

        New and changed datasets are written, shards for datasets no
        longer in the index are deleted, unchanged shard files are left
        byte-untouched — a cold (compressed) shard that is still current
        stays cold.  A directory with no (or unreadable, or refused)
        manifest is simply saved from scratch — and swept all the same:
        a corrupt manifest may have stranded shard files the new one
        doesn't claim.
        """
        directory = Path(directory)
        stats = stats or _UNCOUNTED
        try:
            old = IndexStore._read_manifest(directory).shards
        except StoreError:
            old = []
        manifest, written = IndexStore._write(
            index, directory, {(s.name, s.fingerprint): s for s in old}, stats
        )
        live_files = {shard.stored for shard in manifest.shards}
        fresh = set(written)
        return SyncReport(
            written=tuple(written),
            removed=tuple(s.name for s in old if s.stored not in live_files),
            unchanged=tuple(s.name for s in manifest.shards if s.name not in fresh),
            # files go only now, with the manifest that drops them committed
            swept=IndexStore._sweep_orphans(directory, live_files, stats),
        )

    @staticmethod
    def _sweep_orphans(
        directory: Path, live_files: set[str], stats: StorageStats
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
        return IndexStore._retier(directory, names, TIER_COLD, "demotions", None, stats)

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
        return IndexStore._retier(
            directory, names, TIER_RESIDENT, "promotions", bind, stats
        )

    @staticmethod
    def _retier(
        directory: str | Path,
        names: list[str] | tuple[str, ...],
        tier: str,
        counter: str,
        bind: Compendium | None,
        stats: StorageStats | None,
    ) -> tuple[str, ...]:
        """The one tier move: verified bytes in, the new tier's file
        published, the manifest republished — only then the old file
        unlinked.  Returns the names of the datasets moved."""
        directory = Path(directory)
        stats = stats or _UNCOUNTED
        manifest = IndexStore._read_manifest(directory)
        sources = _sources(bind)
        wanted = set(names)
        moved: list[str] = []
        retired: list[str] = []
        for shard in manifest.shards:
            if shard.name not in wanted or shard.tier == tier:
                continue
            data = IndexStore._verified_bytes(
                directory, shard, stats, source=sources.get((shard.name, shard.fingerprint))
            )
            retired.append(shard.stored)
            IndexStore._place(directory, shard, data, tier, stats)
            moved.append(shard.name)
        if not moved:
            return ()
        IndexStore._publish_manifest(directory, manifest, stats)
        for filename in retired:
            (directory / filename).unlink(missing_ok=True)
        stats.bump(counter, len(moved))
        manifest.note_tiers(stats)
        return tuple(moved)

    @staticmethod
    def _place(
        directory: Path, shard: _Shard, data: bytes, tier: str, stats: StorageStats
    ) -> None:
        """Publish ``data`` (a shard's ``.npy`` bytes) as its file in
        ``tier`` and make the record say so."""
        shard.tier, shard.sha256, shard.nbytes = tier, _sha256_hex(data), len(data)
        stored = _cold_bytes(data) if tier == TIER_COLD else data
        _publish_bytes(directory / shard.stored, stored, stats)

    # -------------------------------------------------------------- integrity
    @staticmethod
    def _verified_bytes(
        directory: Path,
        shard: _Shard,
        stats: StorageStats,
        *,
        source: Dataset | None = None,
    ) -> bytes:
        """The shard's ``.npy`` bytes, checksum-verified — or rebuilt.

        On any mismatch or read failure the damaged file is quarantined
        (so it is gone from its stored name afterwards) and, when
        ``source`` is the shard's bound dataset, the bytes are
        re-derived from it (the caller republishes them); with no source
        the store refuses with :class:`StoreCorruptError` rather than
        serve bytes that differ from what was written.
        """
        data, why = _checked(directory, shard, stats)
        if data is not None:
            return data
        stats.bump("corrupt")
        quarantined = _quarantine(directory, shard.stored)
        if quarantined is not None:
            stats.bump("quarantined")
        if source is not None:
            stats.bump("rebuilt")
            return _npy_bytes(
                _index_dataset(source, dtype=np.dtype(shard.dtype)).normalized
            )
        raise StoreCorruptError(
            f"shard {shard.name!r} at {directory / shard.stored} failed integrity "
            f"verification ({why}); quarantined "
            f"{quarantined if quarantined is not None else 'nothing (file gone)'} "
            "and no bound dataset is available to rebuild from",
            datasets=(shard.name,),
            files=(shard.stored,),
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
        stats = stats or _UNCOUNTED
        ok: list[str] = []
        corrupt: list[str] = []
        missing: list[str] = []
        for shard in IndexStore._read_manifest(directory).shards:
            data, why = _checked(directory, shard, stats)
            if data is not None:
                ok.append(shard.name)
            elif why == "missing":
                missing.append(shard.name)
            else:
                corrupt.append(shard.name)
                stats.bump("corrupt")
        return VerifyReport(
            ok=tuple(ok), corrupt=tuple(corrupt), missing=tuple(missing)
        )

    # -------------------------------------------------------------- reading
    @staticmethod
    def _read_manifest(directory: Path) -> _Manifest:
        """The committed manifest, every record tested — or :class:`StoreError`."""
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise StoreError(f"no index store at {directory} (missing {MANIFEST_NAME})")
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError, RecursionError) as exc:  # bad bytes, bad JSON
            raise StoreError(f"corrupt index-store manifest at {path}: {exc}") from exc
        if not isinstance(raw, dict) or raw.get("format") != FORMAT:
            raise StoreError(
                f"{path} is not a {FORMAT} manifest "
                f"(format={_brief(raw.get('format') if isinstance(raw, dict) else raw)})"
            )
        if raw.get("format_version") != FORMAT_VERSION:
            raise StoreError(
                f"index store at {directory} has format_version "
                f"{_brief(raw.get('format_version'))}; this build reads version "
                f"{FORMAT_VERSION} — rebuild the store with IndexStore.save"
            )
        dtype = raw.get("dtype")
        if not _is_dtype(dtype):
            raise StoreError(f"index store dtype {_brief(dtype)} is not supported")
        shards = raw.get("shards")
        if not isinstance(shards, list) or not shards:
            raise StoreError(f"corrupt index-store manifest at {path}: no shard list")
        manifest = _Manifest(dtype, [_Shard.from_json(shard, path) for shard in shards])
        if len({shard.name for shard in manifest.shards}) != len(shards):
            raise StoreError(
                f"corrupt index-store manifest at {path}: a dataset is listed twice"
            )
        return manifest

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
        stats = stats or _UNCOUNTED
        if verify not in (None, "eager", "lazy"):
            raise StoreError(f"unknown verify policy {verify!r}")
        manifest = IndexStore._read_manifest(directory)
        eager = verify == "eager" or (verify is None and not mmap)
        sources = _sources(bind)
        if sweep:
            live_files = {shard.stored for shard in manifest.shards}
            IndexStore._sweep_orphans(directory, live_files, stats)
        entries: list[_DatasetIndex] = []
        healed = False
        for shard in manifest.shards:
            source = sources.get((shard.name, shard.fingerprint))
            path = directory / shard.stored
            normalized = None
            if shard.tier == TIER_RESIDENT and not eager:
                # the zero-copy open: structural checks only
                try:
                    normalized = _load_npy(shard, path, mmap_mode="r" if mmap else None)
                except StoreCorruptError:
                    pass  # same quarantine → rebuild-or-refuse as a bad checksum
            if normalized is None:
                # the bytes pass through RAM anyway (a cold shard's always
                # do), so hashing them is one pass over data already read
                data = IndexStore._verified_bytes(directory, shard, stats, source=source)
                if shard.tier == TIER_COLD:
                    stats.bump("cold_loads")
                if not path.exists():
                    # quarantined (or lost) and rebuilt from source: persist
                    # the healed bytes resident, under their own digest, so
                    # the store and the manifest agree again
                    IndexStore._place(directory, shard, data, TIER_RESIDENT, stats)
                    healed = True
                path = directory / shard.stored
                if mmap and shard.tier == TIER_RESIDENT:
                    normalized = _load_npy(shard, path, mmap_mode="r")
                else:
                    normalized = _load_npy(shard, path, data)
            if normalized.shape != (shard.n_genes, shard.n_conditions):
                raise StoreCorruptError(
                    f"shard {shard.name!r} at {path} has shape {normalized.shape}, "
                    f"manifest says {(shard.n_genes, shard.n_conditions)}",
                    datasets=(shard.name,),
                    files=(path.name,),
                )
            if normalized.dtype.name != shard.dtype:
                raise StoreCorruptError(
                    f"shard {shard.name!r} at {path} is {normalized.dtype.name}, "
                    f"manifest says {shard.dtype}",
                    datasets=(shard.name,),
                    files=(path.name,),
                )
            entries.append(
                _DatasetIndex(
                    name=shard.name,
                    gene_ids=shard.gene_ids,
                    normalized=normalized,
                    source=source,
                    fingerprint=shard.fingerprint,
                )
            )
        if healed:
            IndexStore._publish_manifest(directory, manifest, stats)
        manifest.note_tiers(stats)
        return SpellIndex(entries)

    @staticmethod
    def matches(directory: str | Path, compendium: Compendium, *, dtype=None) -> bool:
        """True when the store serves exactly ``compendium``'s content.

        Compares the ordered ``(name, fingerprint)`` sequence (order
        matters: aggregation order determines bit-level results) and,
        when given, the shard dtype.  Missing, unreadable or refused
        stores are simply non-matches.
        """
        try:
            manifest = IndexStore._read_manifest(Path(directory))
        except StoreError:
            return False
        if dtype is not None and np.dtype(dtype).name != manifest.dtype:
            return False
        on_disk = [(shard.name, shard.fingerprint) for shard in manifest.shards]
        return on_disk == [(ds.name, ds.fingerprint) for ds in compendium]

    @staticmethod
    def tiers(directory: str | Path) -> dict[str, str]:
        """Dataset name -> tier, straight from the committed manifest."""
        manifest = IndexStore._read_manifest(Path(directory))
        return {shard.name: shard.tier for shard in manifest.shards}


def _cli(argv: list[str] | None = None) -> int:
    """``python -m repro.spell.store <verb> <directory> [names...]``

    Operator verbs over a store directory: ``verify`` (scrub; exit 1 on
    any corrupt/missing shard), ``tiers`` (tier per dataset), ``demote``
    / ``promote`` (move named datasets between tiers).  JSON on stdout,
    one object per run, so the store smoke scenarios and shell pipelines
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


if __name__ == "__main__":  # pragma: no cover — exercised by tests/smoke
    raise SystemExit(_cli())

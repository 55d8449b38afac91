"""Writing sharded columnar atom stores.

:class:`StoreWriter` turns in-memory :class:`~repro.core.atoms.AtomSet`
values into the on-disk layout ``docs/data-format.md`` specifies::

    <root>/manifest.json                 # format header, index, digests
    <root>/paths.seg                     # interned path table, id order
    <root>/snapshots/<key>/shard-NNNN.seg

Snapshots stream through one writer back to back; every normalised
path is interned once into a writer-lifetime
:class:`~repro.core.intern.PathInternPool`, so the persisted path
table is shared by all snapshots and column cells are 4-byte dense
ids.  Each snapshot's sorted prefix universe is cut into contiguous
ranges of at most ``shard_rows`` rows — the manifest records every
shard's ``[first, last]`` prefix so point queries and future shard
routing (``repro serve``) touch one segment.

Segment files are written with :func:`~repro.util.durable.atomic_file`
and the manifest last, so a killed build never leaves a store that
*opens*: :class:`~repro.store.reader.AtomStore` requires the manifest,
and the manifest references only fully written, digest-stamped segments.

The module also hosts the engine integration helpers: sweep workers
persist self-contained per-job **parts** (mini-stores under
``<root>/parts/<job digest>/``) and :func:`merge_parts` folds them —
in sweep order — into the final store as columns: each part shard's
prefix and atom columns are copied byte for byte, and its path-id
columns are remapped into one global table, so no atom is rebuilt and
merged shards keep their part's row ranges.  Parts stay on disk
afterwards: their presence is what lets a cached re-run skip
recomputation while keeping the store completable.
"""

from __future__ import annotations

import json
import os
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.core.atoms import AtomSet
from repro.core.intern import ID_TYPECODE, KEY_WIDTH, PathInternPool
from repro.net.prefix import Prefix
from repro.obs import get_tracer
from repro.store.format import (
    BYTE_ORDER,
    COLUMN_COUNTS,
    FORMAT_NAME,
    FORMAT_VERSION,
    KIND_COLUMNS,
    KIND_PATHS,
    PREFIX_RECORD,
    StoreError,
    column_padding,
    decode_prefix,
    digest,
    encode_path_table,
    encode_prefix,
    frame_segment,
    peer_id_to_json,
)
from repro.util.durable import atomic_file, sweep_stale_tmp

if TYPE_CHECKING:  # pragma: no cover - the reader imports this module
    from repro.store.reader import AtomStore

#: Default maximum prefix rows per column shard.
DEFAULT_SHARD_ROWS = 65536

#: Name of the store (and part) manifest file.
MANIFEST_NAME = "manifest.json"

#: Directory (under the store root) holding per-job sweep parts.
PARTS_DIR = "parts"


def _prefix_at(payload, row: int) -> str:
    """The prefix of ``row`` in a columns payload, as the manifest shows it."""
    start = COLUMN_COUNTS.size + row * PREFIX_RECORD.size
    return str(decode_prefix(payload[start:start + PREFIX_RECORD.size]))


class StoreWriter:
    """Builds one columnar atom store under ``root``.

    Call :meth:`add_snapshot` once per computed snapshot, or
    :meth:`copy_snapshot` for one of another store (in sweep order —
    the manifest preserves insertion order), and :meth:`close` exactly
    once to seal the store.  The normalisation options describe
    how the stored atoms were produced; they are recorded in the
    manifest so a reloaded pool carries the same semantics.
    """

    def __init__(
        self,
        root: os.PathLike,
        expand_singleton_sets: bool = True,
        strip_prepending: bool = False,
        shard_rows: int = DEFAULT_SHARD_ROWS,
    ):
        if shard_rows < 1:
            raise ValueError("shard_rows must be >= 1")
        self.root = Path(root)
        self.shard_rows = shard_rows
        #: writer-lifetime pool; atoms carry already-normalised paths,
        #: so only ``id_for_path`` (no re-normalisation) is ever used
        self.pool = PathInternPool(expand_singleton_sets, strip_prepending)
        self._snapshots: List[Dict[str, Any]] = []
        self._segments: Dict[str, Dict[str, Any]] = {}
        self._keys: set = set()
        self._closed = False

    # ------------------------------------------------------------------

    def _write_segment(self, relpath: str, kind: int, payload: bytes) -> None:
        image = frame_segment(kind, payload)
        with atomic_file(self.root / relpath) as handle:
            handle.write(image)
        self._segments[relpath] = {"bytes": len(image), "sha256": digest(image)}
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("store.segments_written")
            tracer.count("store.bytes_written", len(image))

    def _shard_payload(
        self,
        prefixes: Sequence[Prefix],
        atom_column: Sequence[int],
        id_columns: Sequence[Sequence[int]],
        start: int,
        end: int,
    ) -> bytes:
        rows = end - start
        parts = [COLUMN_COUNTS.pack(rows, len(id_columns))]
        parts.extend(encode_prefix(prefix) for prefix in prefixes[start:end])
        parts.append(bytes(column_padding(rows)))
        parts.append(array(ID_TYPECODE, atom_column[start:end]).tobytes())
        for column in id_columns:
            parts.append(array(ID_TYPECODE, column[start:end]).tobytes())
        return b"".join(parts)

    # ------------------------------------------------------------------

    def add_snapshot(
        self,
        key: str,
        atoms: AtomSet,
        label: str = "",
        role: str = "base",
        year: float = 0.0,
        month: int = 0,
        family: int = 0,
        feed: Optional[Dict[str, Any]] = None,
        report: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Persist one snapshot's columns; returns its manifest entry.

        ``key`` must be unique within the store (the sweep convention is
        ``"<label>:<role>"``, e.g. ``"2004-01:8h"``).  ``feed`` and
        ``report`` carry the snapshot-level summaries the trend series
        need but the columns cannot reproduce (full-feed counts, the
        sanitization headline); pass them for base snapshots.
        """
        self._claim_key(key)
        tracer = get_tracer()
        with tracer.span("store-write", key=key) as span:
            prefixes = sorted(atoms.by_prefix, key=Prefix.key)
            rows = len(prefixes)
            position = {prefix: row for row, prefix in enumerate(prefixes)}
            vantage_points = list(atoms.vantage_points)
            vp_count = len(vantage_points)

            atom_column = [0] * rows
            id_columns = [[0] * rows for _ in range(vp_count)]
            intern_id = self.pool.id_for_path
            for atom in atoms:
                ids = [intern_id(path) for path in atom.paths]
                if len(ids) != vp_count:
                    raise StoreError(
                        f"atom {atom.atom_id} path vector width {len(ids)} "
                        f"!= {vp_count} vantage points"
                    )
                stamped = atom.atom_id + 1
                for prefix in atom.prefixes:
                    row = position[prefix]
                    atom_column[row] = stamped
                    for vp_index in range(vp_count):
                        id_columns[vp_index][row] = ids[vp_index]

            shards: List[Dict[str, Any]] = []
            for start in range(0, rows, self.shard_rows):
                end = min(start + self.shard_rows, rows)
                relpath = f"snapshots/{key}/shard-{len(shards):04d}.seg"
                self._write_segment(
                    relpath,
                    KIND_COLUMNS,
                    self._shard_payload(
                        prefixes, atom_column, id_columns, start, end
                    ),
                )
                shards.append(
                    {
                        "file": relpath,
                        "rows": end - start,
                        "first": str(prefixes[start]),
                        "last": str(prefixes[end - 1]),
                    }
                )

            return self._seal(
                span, key, atoms.timestamp, vantage_points, rows, len(atoms),
                shards, label=label, role=role, year=year, month=month,
                family=family, feed=feed, report=report,
            )

    def copy_snapshot(self, store: "AtomStore", key: str) -> Dict[str, Any]:
        """Persist snapshot ``key`` of another store; returns its entry.

        The result is what :meth:`add_snapshot` writes for
        ``store.atoms(key)`` with the same metadata, shard for shard,
        but no atom is rebuilt: each shard's prefix and atom columns
        are copied as they are, and its path-id columns are remapped
        into this writer's pool.  Paths are interned in the order
        :meth:`add_snapshot` uses, first seen by atom id and then by
        vantage point, so the path table comes out the same too.
        Shards keep ``store``'s row ranges.  Everything is read through
        :meth:`~repro.store.reader.AtomStore.atom_columns`, whose checks
        raise :class:`StoreError` for a malformed source.
        """
        source = store.snapshot(key)
        shard_columns, vectors = store.atom_columns(key)
        self._claim_key(key)
        tracer = get_tracer()
        with tracer.span("store-write", key=key) as span:
            intern_id = self.pool.id_for_path
            ids = [[intern_id(path) for path in vector] for vector in vectors]
            # id_columns[vp][stamp]: the path id of atom ``stamp - 1``
            id_columns = [
                [0] + [vector[vp] for vector in ids]
                for vp in range(len(source.vantage_points))
            ]
            shards: List[Dict[str, Any]] = []
            for rows, head, atom_column in shard_columns:
                relpath = f"snapshots/{key}/shard-{len(shards):04d}.seg"
                payload = [head]
                payload.extend(
                    array(ID_TYPECODE, map(column.__getitem__, atom_column))
                    .tobytes()
                    for column in id_columns
                )
                self._write_segment(relpath, KIND_COLUMNS, b"".join(payload))
                shards.append(
                    {
                        "file": relpath,
                        "rows": rows,
                        "first": _prefix_at(head, 0),
                        "last": _prefix_at(head, rows - 1),
                    }
                )
            return self._seal(
                span, key, source.timestamp, source.vantage_points,
                source.prefixes, source.atom_count, shards,
                label=source.label, role=source.role, year=source.year,
                month=source.month, family=source.family, feed=source.feed,
                report=source.report,
            )

    def _claim_key(self, key: str) -> None:
        """Reserve ``key`` for one snapshot of this store."""
        if self._closed:
            raise StoreError("writer already closed")
        if key in self._keys:
            raise StoreError(f"duplicate snapshot key {key!r}")
        if "/" in key or "\\" in key or key in ("", ".", ".."):
            raise StoreError(f"invalid snapshot key {key!r}")
        self._keys.add(key)

    def _seal(
        self,
        span,
        key: str,
        timestamp: int,
        vantage_points: Sequence[Any],
        prefixes: int,
        atom_count: int,
        shards: List[Dict[str, Any]],
        *,
        label: str,
        role: str,
        year: float,
        month: int,
        family: int,
        feed: Optional[Dict[str, Any]],
        report: Optional[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Add a written snapshot to the manifest; returns its entry."""
        entry: Dict[str, Any] = {
            "key": key,
            "label": label,
            "role": role,
            "year": year,
            "month": month,
            "family": family,
            "timestamp": timestamp,
            "vantage_points": [
                peer_id_to_json(peer) for peer in vantage_points
            ],
            "prefixes": prefixes,
            "atoms": atom_count,
            "feed": feed,
            "report": report,
            "shards": shards,
        }
        self._snapshots.append(entry)
        tracer = get_tracer()
        if tracer.enabled:
            span.set(prefixes=prefixes, atoms=atom_count, shards=len(shards))
            tracer.count("store.snapshots_written")
        return entry

    def close(self) -> Path:
        """Write the path table and manifest; returns the manifest path.

        The manifest lands last (atomically), so its presence marks a
        complete store.
        """
        if self._closed:
            raise StoreError("writer already closed")
        self._closed = True
        table = [path for path in self.pool.path_table[1:] if path is not None]
        self._write_segment("paths.seg", KIND_PATHS, encode_path_table(table))
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "byte_order": BYTE_ORDER,
            "key_width": KEY_WIDTH,
            "pool": {
                "expand_singleton_sets": self.pool.expand_singleton_sets,
                "strip_prepending": self.pool.strip_prepending,
                "path_count": len(table),
            },
            "segments": self._segments,
            "snapshots": self._snapshots,
        }
        path = self.root / MANIFEST_NAME
        with atomic_file(path) as handle:
            handle.write(
                (json.dumps(manifest, indent=1, sort_keys=False) + "\n").encode(
                    "utf-8"
                )
            )
        return path


# ----------------------------------------------------------------------
# Sweep parts (engine integration)
# ----------------------------------------------------------------------

def part_dir(root: os.PathLike, job_key: str) -> Path:
    """The per-job part directory under a sweep's store root."""
    return Path(root) / PARTS_DIR / job_key


def part_complete(root: os.PathLike, job_key: str) -> bool:
    """True when the job's part was fully written (manifest present)."""
    return (part_dir(root, job_key) / MANIFEST_NAME).is_file()


def write_part(
    root: os.PathLike,
    job_key: str,
    snapshots: Sequence[Dict[str, Any]],
) -> Path:
    """Persist one job's snapshots as a self-contained part store.

    ``snapshots`` items are ``add_snapshot`` keyword dicts plus the
    ``atoms`` value; parts use local path tables (workers cannot share
    an intern pool across processes) — :func:`merge_parts` re-interns
    them into the final store's global table.  An existing complete
    part for the same job is left untouched (its content is a pure
    function of the job digest); an incomplete one is rewritten after
    dead writers' temp files are swept from its directory.
    """
    if part_complete(root, job_key):
        return part_dir(root, job_key) / MANIFEST_NAME
    sweep_stale_tmp(part_dir(root, job_key))
    writer = StoreWriter(part_dir(root, job_key))
    for item in snapshots:
        item = dict(item)
        atoms = item.pop("atoms")
        writer.add_snapshot(item.pop("key"), atoms, **item)
    return writer.close()


def merge_parts(root: os.PathLike, job_keys: Sequence[str]) -> Path:
    """Fold per-job parts into the final store at ``root``.

    ``job_keys`` give the sweep order; every part must be complete
    (:func:`part_complete`) or :class:`StoreError` names the missing
    jobs.  Each part opens with digest verification and every snapshot
    is copied as columns (:meth:`StoreWriter.copy_snapshot`), so the
    merged shards keep their part's row ranges and the store equals one
    written from the parts' rebuilt atoms.  Dead writers' temp files
    are swept from the whole store root first.  Returns the final
    manifest path.
    """
    from repro.store.reader import AtomStore

    sweep_stale_tmp(root)
    missing = [key for key in job_keys if not part_complete(root, key)]
    if missing:
        raise StoreError(
            f"cannot finalize store: {len(missing)} sweep part(s) missing "
            f"under {part_dir(root, missing[0]).parent} — "
            "re-run the sweep with --store-dir to produce them"
        )
    tracer = get_tracer()
    with tracer.span("store-merge", parts=len(job_keys)):
        writer = StoreWriter(root)
        for job_key in job_keys:
            with AtomStore(part_dir(root, job_key), verify=True) as part:
                for entry in part.snapshots():
                    writer.copy_snapshot(part, entry.key)
            if tracer.enabled:
                tracer.count("store.parts_merged")
        return writer.close()

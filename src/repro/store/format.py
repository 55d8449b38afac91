"""Binary primitives of the on-disk atom store.

Everything :mod:`repro.store` writes is built from three codecs, all
specified in ``docs/data-format.md``:

* **uvarint** — LEB128 unsigned varints frame the variable-length
  structures (the path table) so small values cost one byte;
* **path records** — a normalised :class:`~repro.net.aspath.ASPath`
  as ``uvarint nsegments`` followed by per-segment
  ``uvarint kind, uvarint nasns, nasns × uvarint asn``;
* **prefix records** — a :class:`~repro.net.prefix.Prefix` as a fixed
  18-byte ``family(u8) network(16B big-endian) length(u8)`` triple.
  The layout is ordered so *bytewise* comparison of encoded records
  equals :meth:`Prefix.key` ordering — shard range checks and row
  binary searches run on raw bytes, no decoding.

Segment files share one 16-byte header (``magic, version, kind,
payload length``); integer columns inside payloads are native-endian
``array('I')`` images so an :func:`mmap`-ed segment serves zero-copy
``memoryview.cast("I")`` slices.  The manifest records the writer's
byte order and every segment's SHA-256; readers verify both before
trusting a byte.  Any malformation — bad magic, version skew, length
or digest mismatch — raises :class:`StoreError`, never returns garbage.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from typing import List, Sequence, Tuple

from repro.net.aspath import ASPath, PathSegment, SegmentType
from repro.net.prefix import Prefix

#: Magic bytes opening every segment file.
MAGIC = b"RPST"

#: On-disk format version; bump on any incompatible layout change.
FORMAT_VERSION = 1

#: Manifest ``format`` discriminator.
FORMAT_NAME = "repro-atom-store"

#: Segment kinds (the header's ``kind`` field).
KIND_PATHS = 1
KIND_COLUMNS = 2

#: Segment header: magic, version, kind, payload byte length.
HEADER = struct.Struct(">4sHHQ")

#: Fixed-width prefix record: family, network (big-endian), length.
#: Field order makes encoded-bytes ordering equal ``Prefix.key`` order.
PREFIX_RECORD = struct.Struct(">B16sB")

#: The two native-endian u32 counts opening a columns payload.
COLUMN_COUNTS = struct.Struct("=II")

#: Native byte order stamped into the manifest; readers refuse a
#: mismatch instead of silently mis-casting integer columns.
BYTE_ORDER = sys.byteorder


class StoreError(RuntimeError):
    """The store is malformed: corrupt, truncated, or version-skewed."""


# ----------------------------------------------------------------------
# Unsigned varints (LEB128)
# ----------------------------------------------------------------------

def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` to ``out`` as a LEB128 unsigned varint."""
    if value < 0:
        raise ValueError("uvarint cannot encode negative values")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(view, offset: int) -> Tuple[int, int]:
    """Decode one uvarint at ``offset``; returns ``(value, next offset)``."""
    value = 0
    shift = 0
    length = len(view)
    while True:
        if offset >= length:
            raise StoreError("truncated uvarint")
        byte = view[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise StoreError("uvarint overlong")


# ----------------------------------------------------------------------
# Path records
# ----------------------------------------------------------------------

def encode_path(out: bytearray, path: ASPath) -> None:
    """Append one normalised path as a varint-framed record."""
    write_uvarint(out, len(path.segments))
    for segment in path.segments:
        write_uvarint(out, int(segment.kind))
        write_uvarint(out, len(segment.asns))
        for asn in segment.asns:
            write_uvarint(out, asn)


def decode_path(view, offset: int) -> Tuple[ASPath, int]:
    """Decode one path record; returns ``(path, next offset)``."""
    nsegments, offset = read_uvarint(view, offset)
    segments: List[PathSegment] = []
    for _ in range(nsegments):
        kind, offset = read_uvarint(view, offset)
        nasns, offset = read_uvarint(view, offset)
        if nasns == 0:
            raise StoreError("path record with empty segment")
        asns: List[int] = []
        for _ in range(nasns):
            asn, offset = read_uvarint(view, offset)
            asns.append(asn)
        try:
            segments.append(PathSegment(SegmentType(kind), asns))
        except ValueError as error:
            raise StoreError(f"invalid path segment: {error}") from None
    return ASPath(segments), offset


def encode_path_table(paths: Sequence[ASPath]) -> bytes:
    """The paths segment payload: count + records in dense-id order."""
    out = bytearray()
    write_uvarint(out, len(paths))
    for path in paths:
        encode_path(out, path)
    return bytes(out)


def decode_path_table(payload) -> List[ASPath]:
    """Decode a paths segment payload back into id order (id = index+1)."""
    count, offset = read_uvarint(payload, 0)
    paths: List[ASPath] = []
    for _ in range(count):
        path, offset = decode_path(payload, offset)
        paths.append(path)
    if offset != len(payload):
        raise StoreError("trailing bytes after path table")
    return paths


# ----------------------------------------------------------------------
# Prefix records
# ----------------------------------------------------------------------

def encode_prefix(prefix: Prefix) -> bytes:
    """One fixed-width, order-preserving 18-byte prefix record."""
    return PREFIX_RECORD.pack(
        prefix.family, prefix.network.to_bytes(16, "big"), prefix.length
    )


def decode_prefix(record: bytes) -> Prefix:
    """Decode one 18-byte prefix record."""
    try:
        family, network, length = PREFIX_RECORD.unpack(record)
        return Prefix(family, int.from_bytes(network, "big"), length)
    except (struct.error, ValueError) as error:
        raise StoreError(f"invalid prefix record: {error}") from None


# ----------------------------------------------------------------------
# Segment framing
# ----------------------------------------------------------------------

def frame_segment(kind: int, payload: bytes) -> bytes:
    """A complete segment file image: header + payload."""
    return HEADER.pack(MAGIC, FORMAT_VERSION, kind, len(payload)) + payload


def check_segment(data, kind: int, name: str):
    """Validate a segment image's header; returns the payload view.

    ``data`` is any buffer (bytes or an mmap-backed memoryview); the
    returned payload is a zero-copy slice of it.
    """
    if len(data) < HEADER.size:
        raise StoreError(f"{name}: segment shorter than its header")
    magic, version, found_kind, length = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise StoreError(f"{name}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise StoreError(
            f"{name}: format version {version} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    if found_kind != kind:
        raise StoreError(f"{name}: segment kind {found_kind}, expected {kind}")
    if HEADER.size + length != len(data):
        raise StoreError(
            f"{name}: payload length {length} does not match file size"
        )
    view = memoryview(data) if not isinstance(data, memoryview) else data
    return view[HEADER.size:]


def digest(data) -> str:
    """SHA-256 hex digest of a segment image (manifest integrity field)."""
    return hashlib.sha256(data).hexdigest()


def column_padding(rows: int) -> int:
    """Zero bytes inserted after the prefix column.

    Keeps the u32 columns that follow 4-byte aligned regardless of the
    18-byte prefix record count (alignment is not required by
    ``memoryview.cast`` but keeps the layout tool-friendly).
    """
    return (-(COLUMN_COUNTS.size + rows * PREFIX_RECORD.size)) % 4


def peer_id_to_json(peer_id) -> list:
    """A ``PeerId`` tuple as its JSON-manifest list form."""
    collector, asn, address = peer_id
    return [collector, asn, address]


def peer_id_from_json(item) -> tuple:
    """Restore a ``PeerId`` tuple from its JSON-manifest list form."""
    try:
        collector, asn, address = item
        return (str(collector), int(asn), str(address))
    except (TypeError, ValueError) as error:
        raise StoreError(f"invalid vantage point in manifest: {error}") from None

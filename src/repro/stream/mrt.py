"""MRT (RFC 6396) binary parsing and writing.

Real RouteViews / RIPE RIS archives ship MRT files; this module reads
the subset the replication needs and converts it into the library's
:class:`~repro.bgp.messages.RouteRecord` model:

* ``TABLE_DUMP_V2`` (type 13): ``PEER_INDEX_TABLE`` (subtype 1),
  ``RIB_IPV4_UNICAST`` (2) and ``RIB_IPV6_UNICAST`` (4);
* ``BGP4MP`` / ``BGP4MP_ET`` (16/17): ``MESSAGE`` (1) and
  ``MESSAGE_AS4`` (4) carrying BGP UPDATEs, including ``MP_REACH_NLRI``
  / ``MP_UNREACH_NLRI`` for IPv6.

A writer for the same subset is included so round-trip tests (and
fixture generation) need no external data.  Unknown record types are
surfaced as :class:`~repro.bgp.errors.CorruptRecordError`-style flagged
records rather than silently skipped — mirroring how BGPStream warns on
unparseable input (the signal the sanitizer keys on, A8.3.1).
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bgp.attributes import Community, PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.net.aspath import AS_TRANS, ASPath, PathSegment, SegmentType, merge_as4_path
from repro.net.prefix import AF_INET, AF_INET6, Prefix
from repro.obs import get_tracer

# MRT types.
MRT_TABLE_DUMP_V2 = 13
MRT_BGP4MP = 16
MRT_BGP4MP_ET = 17

# TABLE_DUMP_V2 subtypes.
TDV2_PEER_INDEX_TABLE = 1
TDV2_RIB_IPV4_UNICAST = 2
TDV2_RIB_IPV6_UNICAST = 4

# BGP4MP subtypes.
BGP4MP_MESSAGE = 1
BGP4MP_MESSAGE_AS4 = 4

# BGP path attribute type codes.
ATTR_ORIGIN = 1
ATTR_AS_PATH = 2
ATTR_MED = 4
ATTR_COMMUNITIES = 8
ATTR_MP_REACH_NLRI = 14
ATTR_MP_UNREACH_NLRI = 15
ATTR_AS4_PATH = 17

AFI_IPV4 = 1
AFI_IPV6 = 2

# Precompiled binary layouts, shared by reader and writer.  Compiling
# the 12-byte record header and the big-endian integer fields once at
# import time keeps format-string parsing out of the per-record loop;
# ``unpack_from`` reads straight out of the record body (bytes or
# memoryview) without carving intermediate slices.
_MRT_HEADER = struct.Struct(">IHHI")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")


class MRTError(ValueError):
    """Raised on structurally invalid MRT input."""


# ----------------------------------------------------------------------
# Low-level helpers
# ----------------------------------------------------------------------

def _read_exact(stream: BinaryIO, count: int) -> Optional[bytes]:
    data = stream.read(count)
    if not data:
        return None
    if len(data) != count:
        raise MRTError(f"truncated MRT stream (wanted {count}, got {len(data)})")
    return data


def _decode_nlri(
    data: "bytes | memoryview", offset: int, family: int
) -> Tuple[Prefix, int]:
    """Decode one length-prefixed NLRI entry; returns (prefix, new offset)."""
    if offset >= len(data):
        raise MRTError("NLRI runs past the buffer")
    bit_length = data[offset]
    total_bits = 32 if family == AF_INET else 128
    if bit_length > total_bits:
        raise MRTError(f"NLRI length {bit_length} exceeds {total_bits} bits")
    offset += 1
    byte_length = (bit_length + 7) // 8
    chunk = data[offset : offset + byte_length]
    if len(chunk) != byte_length:
        raise MRTError("NLRI prefix bytes truncated")
    offset += byte_length
    value = int.from_bytes(chunk, "big") << (total_bits - 8 * byte_length)
    return Prefix.from_host_bits(family, value, bit_length), offset


def _encode_nlri(prefix: Prefix) -> bytes:
    byte_length = (prefix.length + 7) // 8
    total_bits = prefix.max_length
    value = prefix.network >> (total_bits - 8 * byte_length) if byte_length else 0
    return bytes([prefix.length]) + value.to_bytes(byte_length, "big")


def _decode_as_path(data: "bytes | memoryview", asn_size: int) -> ASPath:
    segments: List[PathSegment] = []
    offset = 0
    end = len(data)
    while offset < end:
        if offset + 2 > end:
            raise MRTError("AS_PATH segment header truncated")
        segment_type = data[offset]
        count = data[offset + 1]
        offset += 2
        if not count:
            raise MRTError("empty AS_PATH segment")
        if offset + count * asn_size > end:
            raise MRTError("AS_PATH ASN truncated")
        # One unpack for the whole segment (struct caches the compiled
        # format per count) instead of a from_bytes slice per ASN.
        code = "I" if asn_size == 4 else "H"
        asns = list(struct.unpack_from(f">{count}{code}", data, offset))
        offset += count * asn_size
        if segment_type not in (1, 2):
            raise MRTError(f"unknown AS_PATH segment type {segment_type}")
        if 0 in asns:
            # RFC 7607: an AS_PATH carrying AS 0 is malformed.
            raise MRTError("AS 0 in AS_PATH")
        segments.append(
            PathSegment(
                SegmentType.AS_SET if segment_type == 1 else SegmentType.AS_SEQUENCE,
                asns,
            )
        )
    return ASPath(segments)


def _encode_as_path(path: ASPath, asn_size: int = 4) -> bytes:
    out = bytearray()
    for segment in path.segments:
        out.append(1 if segment.is_set else 2)
        out.append(len(segment.asns))
        for asn in segment.asns:
            if asn_size == 2 and asn > 0xFFFF:
                asn = AS_TRANS  # RFC 6793: 2-byte speakers substitute
            out += asn.to_bytes(asn_size, "big")
    return bytes(out)


def _decode_attributes(
    data: "bytes | memoryview", asn_size: int
) -> Tuple[Optional[PathAttributes], List[Prefix], List[Prefix], int]:
    """Decode a BGP UPDATE's path-attribute block.

    Returns (attributes or None, v6 announced, v6 withdrawn, med) —
    IPv6 NLRI ride inside MP_(UN)REACH attributes.
    """
    as_path: Optional[ASPath] = None
    as4_path: Optional[ASPath] = None
    communities: List[Community] = []
    med = 0
    v6_announced: List[Prefix] = []
    v6_withdrawn: List[Prefix] = []

    offset = 0
    end = len(data)
    while offset < end:
        if offset + 2 > end:
            raise MRTError("attribute header truncated")
        flags = data[offset]
        type_code = data[offset + 1]
        offset += 2
        if flags & 0x10:  # extended length
            if offset + 2 > end:
                raise MRTError("extended attribute length truncated")
            length = _U16.unpack_from(data, offset)[0]
            offset += 2
        else:
            if offset + 1 > end:
                raise MRTError("attribute length truncated")
            length = data[offset]
            offset += 1
        body = data[offset : offset + length]
        if len(body) != length:
            raise MRTError("attribute body truncated")
        offset += length

        if type_code == ATTR_AS_PATH:
            as_path = _decode_as_path(body, asn_size)
        elif type_code == ATTR_AS4_PATH:
            # AS4_PATH is always 4-byte encoded (RFC 6793 §3), whatever
            # the session's AS_PATH encoding.
            as4_path = _decode_as_path(body, 4)
        elif type_code == ATTR_MED:
            med = int.from_bytes(body, "big")
        elif type_code == ATTR_COMMUNITIES:
            for pos in range(0, len(body) - 3, 4):
                communities.append(
                    Community(
                        _U16.unpack_from(body, pos)[0],
                        _U16.unpack_from(body, pos + 2)[0],
                    )
                )
        elif type_code == ATTR_MP_REACH_NLRI:
            # AFI, SAFI, next-hop length, next hop, reserved byte.
            if length < 5 or length < 5 + body[3]:
                raise MRTError("MP_REACH_NLRI truncated")
            afi = _U16.unpack_from(body, 0)[0]
            next_hop_length = body[3]
            pos = 4 + next_hop_length + 1  # skip next hop + reserved byte
            family = AF_INET6 if afi == AFI_IPV6 else AF_INET
            while pos < len(body):
                prefix, pos = _decode_nlri(body, pos, family)
                v6_announced.append(prefix)
        elif type_code == ATTR_MP_UNREACH_NLRI:
            if length < 3:
                raise MRTError("MP_UNREACH_NLRI truncated")
            afi = _U16.unpack_from(body, 0)[0]
            pos = 3
            family = AF_INET6 if afi == AFI_IPV6 else AF_INET
            while pos < len(body):
                prefix, pos = _decode_nlri(body, pos, family)
                v6_withdrawn.append(prefix)
        # ORIGIN and anything else: ignored (not consumed by analyses).

    if as_path is not None and as4_path is not None:
        # 2-byte session: restore the 4-byte ASNs AS_TRANS stood in for.
        as_path = merge_as4_path(as_path, as4_path)
    if as_path is None:
        return None, v6_announced, v6_withdrawn, med
    return (
        PathAttributes(as_path, communities=communities, med=med),
        v6_announced,
        v6_withdrawn,
        med,
    )


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------

class MRTReader:
    """Iterate :class:`RouteRecord` objects out of an MRT byte stream.

    TABLE_DUMP_V2 RIB entries resolve peers through the most recent
    PEER_INDEX_TABLE; BGP4MP messages carry their peer inline.  Records
    of unknown type/subtype yield a flagged (``corrupt_warning``) empty
    record so callers see the same signal BGPStream emits.
    """

    def __init__(self, stream: BinaryIO, project: str = "mrt",
                 collector: str = "unknown"):
        self.stream = stream
        self.project = project
        self.collector = collector
        #: raw MRT bytes consumed so far (headers + bodies)
        self.bytes_read = 0
        self._peers: List[Tuple[int, str]] = []  # (asn, address) by index

    def __iter__(self) -> Iterator[RouteRecord]:
        tracer = get_tracer()
        if not tracer.enabled:
            yield from self._decode()
            return
        produced = 0
        corrupt = 0
        started = self.bytes_read
        with tracer.span(
            "mrt-decode", source="mrt", collector=self.collector
        ) as span:
            try:
                for record in self._decode():
                    produced += 1
                    if record.is_corrupt:
                        corrupt += 1
                    yield record
            finally:
                consumed = self.bytes_read - started
                span.set(
                    records=produced, corrupt_records=corrupt, bytes=consumed
                )
                tracer.count("decode.records", produced)
                tracer.count("decode.bytes", consumed)
                if corrupt:
                    tracer.count("decode.corrupt_records", corrupt)

    def _decode(self) -> Iterator[RouteRecord]:
        while True:
            header = _read_exact(self.stream, 12)
            if header is None:
                return
            timestamp, mrt_type, subtype, length = _MRT_HEADER.unpack(header)
            raw = self.stream.read(length)
            self.bytes_read += 12 + len(raw)
            if len(raw) != length:
                raise MRTError("truncated MRT record body")
            # Sub-decoders slice the body heavily; a memoryview makes
            # every slice a zero-copy window.  Nothing yielded retains a
            # view, so the buffer's lifetime ends with the record.
            body = memoryview(raw)
            if mrt_type == MRT_BGP4MP_ET:
                body = body[4:]  # drop the microsecond extension
                mrt_type = MRT_BGP4MP
            if mrt_type == MRT_TABLE_DUMP_V2:
                if subtype == TDV2_PEER_INDEX_TABLE:
                    try:
                        self._load_peer_index(body)
                    except (struct.error, IndexError) as error:
                        raise MRTError(
                            f"truncated PEER_INDEX_TABLE: {error}"
                        ) from error
                    continue
                if subtype in (TDV2_RIB_IPV4_UNICAST, TDV2_RIB_IPV6_UNICAST):
                    yield from self._rib_records(body, subtype, timestamp)
                    continue
            elif mrt_type == MRT_BGP4MP and subtype in (
                BGP4MP_MESSAGE,
                BGP4MP_MESSAGE_AS4,
            ):
                record = self._bgp4mp_record(body, subtype, timestamp)
                if record is not None:
                    yield record
                continue
            yield RouteRecord(
                "update", self.project, self.collector, 0, "0.0.0.0",
                timestamp, [],
                corrupt_warning=f"unknown MRT record type {mrt_type}/{subtype}",
            )

    # -- TABLE_DUMP_V2 --------------------------------------------------

    def _load_peer_index(self, body: "bytes | memoryview") -> None:
        offset = 4  # collector BGP ID
        view_length = _U16.unpack_from(body, offset)[0]
        offset += 2 + view_length
        peer_count = _U16.unpack_from(body, offset)[0]
        offset += 2
        peers: List[Tuple[int, str]] = []
        for _ in range(peer_count):
            peer_type = body[offset]
            offset += 1 + 4  # type + BGP ID
            if peer_type & 0x01:  # IPv6 address
                raw = body[offset : offset + 16]
                offset += 16
                address = str(Prefix(AF_INET6, int.from_bytes(raw, "big"), 128)).split("/")[0]
            else:
                raw = body[offset : offset + 4]
                offset += 4
                address = ".".join(str(b) for b in raw)
            # A short address leaves the ASN read below past the end.
            if peer_type & 0x02:
                asn = _U32.unpack_from(body, offset)[0]
                offset += 4
            else:
                asn = _U16.unpack_from(body, offset)[0]
                offset += 2
            peers.append((asn, address))
        self._peers = peers

    def _rib_records(self, body: "bytes | memoryview", subtype: int,
                     timestamp: int) -> Iterator[RouteRecord]:
        family = AF_INET if subtype == TDV2_RIB_IPV4_UNICAST else AF_INET6
        offset = 4  # sequence number
        prefix, offset = _decode_nlri(body, offset, family)
        if offset + 2 > len(body):
            raise MRTError("RIB entry count truncated")
        entry_count = _U16.unpack_from(body, offset)[0]
        offset += 2
        for _ in range(entry_count):
            if offset + 8 > len(body):
                raise MRTError("RIB entry header truncated")
            peer_index = _U16.unpack_from(body, offset)[0]
            offset += 2 + 4  # + originated time
            attr_length = _U16.unpack_from(body, offset)[0]
            offset += 2
            attr_block = body[offset : offset + attr_length]
            if len(attr_block) != attr_length:
                raise MRTError("RIB entry attributes truncated")
            offset += attr_length
            try:
                peer_asn, peer_address = self._peers[peer_index]
            except IndexError:
                raise MRTError(f"RIB entry references unknown peer {peer_index}")
            attributes, _, _, _ = _decode_attributes(attr_block, asn_size=4)
            if attributes is None:
                continue
            yield RouteRecord(
                "rib", self.project, self.collector, peer_asn, peer_address,
                timestamp,
                [RouteElement(ElementType.RIB, prefix, attributes)],
            )

    # -- BGP4MP -----------------------------------------------------------

    def _bgp4mp_record(self, body: "bytes | memoryview", subtype: int,
                       timestamp: int) -> Optional[RouteRecord]:
        asn_size = 4 if subtype == BGP4MP_MESSAGE_AS4 else 2
        asn_struct = _U32 if asn_size == 4 else _U16

        def corrupt(reason: str, peer_asn: int = 0,
                    peer_address: str = "0.0.0.0") -> RouteRecord:
            return RouteRecord(
                "update", self.project, self.collector, peer_asn,
                peer_address, timestamp, [], corrupt_warning=reason,
            )

        if len(body) < 2 * asn_size + 4:
            return corrupt("truncated BGP4MP peer header")
        offset = 0
        peer_asn = asn_struct.unpack_from(body, offset)[0]
        offset += 2 * asn_size  # peer AS + local AS
        offset += 2  # interface index
        afi = _U16.unpack_from(body, offset)[0]
        offset += 2
        addr_len = 4 if afi == AFI_IPV4 else 16
        if len(body) < offset + 2 * addr_len:
            return corrupt("truncated BGP4MP address block", peer_asn)
        raw = body[offset : offset + addr_len]
        if afi == AFI_IPV4:
            peer_address = ".".join(str(b) for b in raw)
        else:
            peer_address = str(
                Prefix(AF_INET6, int.from_bytes(raw, "big"), 128)
            ).split("/")[0]
        offset += 2 * addr_len  # peer + local address

        # BGP message: 16-byte marker, 2-byte length, 1-byte type.
        # Damaged records (bad marker, length pointing past the MRT
        # body) become flagged corrupt_warning records — the signal the
        # sanitizer's ADD-PATH heuristic keys on — never misparses.
        marker_end = offset + 16
        if len(body) < marker_end + 3:
            return corrupt("truncated BGP message header", peer_asn, peer_address)
        if body[offset:marker_end] != b"\xff" * 16:
            return corrupt("invalid BGP message marker", peer_asn, peer_address)
        declared = _U16.unpack_from(body, marker_end)[0]
        if declared < 19 or offset + declared > len(body):
            return corrupt(
                f"declared BGP message length {declared} exceeds record",
                peer_asn, peer_address,
            )
        message_end = offset + declared
        message_type = body[marker_end + 2]
        offset = marker_end + 3
        if message_type != 2:  # not an UPDATE
            return None

        try:
            if offset + 2 > message_end:
                raise MRTError("withdrawn-routes length truncated")
            withdrawn_length = _U16.unpack_from(body, offset)[0]
            offset += 2
            if offset + withdrawn_length > message_end:
                raise MRTError("withdrawn routes overrun the message")
            withdrawn_block = body[offset : offset + withdrawn_length]
            offset += withdrawn_length
            if offset + 2 > message_end:
                raise MRTError("path-attribute length truncated")
            attr_length = _U16.unpack_from(body, offset)[0]
            offset += 2
            if offset + attr_length > message_end:
                raise MRTError("path attributes overrun the message")
            attr_block = body[offset : offset + attr_length]
            offset += attr_length
            nlri_block = body[offset:message_end]

            elements: List[RouteElement] = []
            pos = 0
            while pos < len(withdrawn_block):
                prefix, pos = _decode_nlri(withdrawn_block, pos, AF_INET)
                elements.append(RouteElement(ElementType.WITHDRAWAL, prefix))
            attributes, v6_announced, v6_withdrawn, _ = _decode_attributes(
                attr_block, asn_size
            )
            pos = 0
            while pos < len(nlri_block):
                prefix, pos = _decode_nlri(nlri_block, pos, AF_INET)
                if attributes is not None:
                    elements.append(
                        RouteElement(ElementType.ANNOUNCEMENT, prefix, attributes)
                    )
        except MRTError as error:
            return corrupt(f"damaged BGP UPDATE: {error}", peer_asn, peer_address)
        for prefix in v6_announced:
            if attributes is not None:
                elements.append(
                    RouteElement(ElementType.ANNOUNCEMENT, prefix, attributes)
                )
        for prefix in v6_withdrawn:
            elements.append(RouteElement(ElementType.WITHDRAWAL, prefix))
        return RouteRecord(
            "update", self.project, self.collector, peer_asn, peer_address,
            timestamp, elements,
        )


def read_mrt(stream: BinaryIO, project: str = "mrt",
             collector: str = "unknown") -> Iterator[RouteRecord]:
    """Convenience: iterate records from an MRT byte stream."""
    return iter(MRTReader(stream, project=project, collector=collector))


# ----------------------------------------------------------------------
# Writer (fixture generation and export)
# ----------------------------------------------------------------------

class MRTWriter:
    """Write the supported MRT subset.

    ``write_peer_index`` must precede ``write_rib_entry`` calls, exactly
    as TABLE_DUMP_V2 files are laid out.
    """

    def __init__(self, stream: BinaryIO):
        self.stream = stream
        self._peer_index: Dict[Tuple[int, str], int] = {}

    def _write_record(self, timestamp: int, mrt_type: int, subtype: int,
                      body: bytes) -> None:
        self.stream.write(_MRT_HEADER.pack(timestamp, mrt_type, subtype,
                                           len(body)))
        self.stream.write(body)

    def write_peer_index(self, peers: Sequence[Tuple[int, str]],
                         timestamp: int = 0) -> None:
        """Write the PEER_INDEX_TABLE for (asn, IPv4 address) peers."""
        body = bytearray()
        body += b"\x00\x00\x00\x00"  # collector BGP ID
        body += (0).to_bytes(2, "big")  # empty view name
        body += len(peers).to_bytes(2, "big")
        self._peer_index = {}
        for index, (asn, address) in enumerate(peers):
            body.append(0x02)  # IPv4 address, 4-byte ASN
            body += b"\x00\x00\x00\x00"  # peer BGP ID
            body += bytes(int(part) for part in address.split("."))
            body += asn.to_bytes(4, "big")
            self._peer_index[(asn, address)] = index
        self._write_record(timestamp, MRT_TABLE_DUMP_V2, TDV2_PEER_INDEX_TABLE,
                           bytes(body))

    def write_rib_entry(
        self,
        prefix: Prefix,
        entries: Sequence[Tuple[int, str, PathAttributes]],
        timestamp: int = 0,
        sequence: int = 0,
    ) -> None:
        """Write one RIB prefix with per-peer attribute entries."""
        body = bytearray()
        body += sequence.to_bytes(4, "big")
        body += _encode_nlri(prefix)
        body += len(entries).to_bytes(2, "big")
        for asn, address, attributes in entries:
            index = self._peer_index[(asn, address)]
            body += index.to_bytes(2, "big")
            body += (timestamp).to_bytes(4, "big")
            attr_block = self._encode_update_attributes(attributes)
            body += len(attr_block).to_bytes(2, "big")
            body += attr_block
        subtype = (
            TDV2_RIB_IPV4_UNICAST if prefix.family == AF_INET
            else TDV2_RIB_IPV6_UNICAST
        )
        self._write_record(timestamp, MRT_TABLE_DUMP_V2, subtype, bytes(body))

    def _encode_update_attributes(self, attributes: PathAttributes,
                                  asn_size: int = 4) -> bytes:
        block = bytearray()

        def attribute(type_code: int, payload: bytes, flags: int = 0x40) -> None:
            if len(payload) > 255:
                block.extend([flags | 0x10, type_code])
                block.extend(len(payload).to_bytes(2, "big"))
            else:
                block.extend([flags, type_code])
                block.append(len(payload))
            block.extend(payload)

        attribute(ATTR_ORIGIN, bytes([int(attributes.origin)]))
        attribute(ATTR_AS_PATH, _encode_as_path(attributes.as_path, asn_size))
        if asn_size == 2 and any(
            asn > 0xFFFF for asn in attributes.as_path.asns()
        ):
            # The true 4-byte path rides in the optional transitive
            # AS4_PATH attribute (RFC 6793 §3).
            attribute(
                ATTR_AS4_PATH, _encode_as_path(attributes.as_path, 4), flags=0xC0
            )
        if attributes.med:
            attribute(ATTR_MED, attributes.med.to_bytes(4, "big"), flags=0x80)
        if attributes.communities:
            payload = bytearray()
            for community in sorted(attributes.communities):
                payload += community.asn.to_bytes(2, "big")
                payload += community.value.to_bytes(2, "big")
            attribute(ATTR_COMMUNITIES, bytes(payload), flags=0xC0)
        return bytes(block)

    def write_update(
        self,
        peer_asn: int,
        peer_address: str,
        announced: Sequence[Tuple[Prefix, PathAttributes]],
        withdrawn: Sequence[Prefix] = (),
        timestamp: int = 0,
        as4: bool = True,
    ) -> None:
        """Write one BGP4MP UPDATE (``MESSAGE_AS4``, or with
        ``as4=False`` a legacy 2-byte-ASN ``MESSAGE``).

        All announced prefixes must share one attribute bundle (as in a
        real UPDATE); IPv6 prefixes ride in MP_(UN)REACH attributes.
        Legacy records substitute AS_TRANS in AS_PATH and attach the
        true path as AS4_PATH when any ASN needs 4 bytes (RFC 6793).
        """
        asn_size = 4 if as4 else 2
        attributes = announced[0][1] if announced else None
        v4_announced = [p for p, _ in announced if p.family == AF_INET]
        v6_announced = [p for p, _ in announced if p.family == AF_INET6]
        v4_withdrawn = [p for p in withdrawn if p.family == AF_INET]
        v6_withdrawn = [p for p in withdrawn if p.family == AF_INET6]

        withdrawn_block = b"".join(_encode_nlri(p) for p in v4_withdrawn)
        attr_block = bytearray()
        if attributes is not None:
            attr_block += self._encode_update_attributes(attributes, asn_size)
        if v6_announced:
            payload = bytearray()
            payload += AFI_IPV6.to_bytes(2, "big")
            payload.append(1)   # SAFI unicast
            payload.append(16)  # next-hop length
            payload += bytes(16)
            payload.append(0)   # reserved
            for prefix in v6_announced:
                payload += _encode_nlri(prefix)
            attr_block.extend([0x80, ATTR_MP_REACH_NLRI])
            attr_block.append(len(payload))
            attr_block += bytes(payload)
        if v6_withdrawn:
            payload = bytearray()
            payload += AFI_IPV6.to_bytes(2, "big")
            payload.append(1)
            for prefix in v6_withdrawn:
                payload += _encode_nlri(prefix)
            attr_block.extend([0x80, ATTR_MP_UNREACH_NLRI])
            attr_block.append(len(payload))
            attr_block += bytes(payload)
        nlri_block = b"".join(_encode_nlri(p) for p in v4_announced)

        update = bytearray()
        update += len(withdrawn_block).to_bytes(2, "big")
        update += withdrawn_block
        update += len(attr_block).to_bytes(2, "big")
        update += bytes(attr_block)
        update += nlri_block

        message = bytearray()
        message += b"\xff" * 16
        message += (19 + len(update)).to_bytes(2, "big")
        message.append(2)  # UPDATE
        message += update

        header_peer_asn = (
            peer_asn if as4 or peer_asn <= 0xFFFF else AS_TRANS
        )
        body = bytearray()
        body += header_peer_asn.to_bytes(asn_size, "big")
        body += (64512).to_bytes(asn_size, "big")  # local AS
        body += (0).to_bytes(2, "big")  # interface index
        body += AFI_IPV4.to_bytes(2, "big")
        body += bytes(int(part) for part in peer_address.split("."))
        body += bytes(4)  # local address
        body += message
        subtype = BGP4MP_MESSAGE_AS4 if as4 else BGP4MP_MESSAGE
        self._write_record(timestamp, MRT_BGP4MP, subtype, bytes(body))

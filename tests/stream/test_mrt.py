"""Tests for the MRT (RFC 6396) reader/writer."""

import io

import pytest

from repro.bgp.attributes import Community, PathAttributes
from repro.net.aspath import ASPath
from repro.net.prefix import AF_INET6, Prefix
from repro.stream.mrt import (
    MRTError,
    MRTWriter,
    _decode_attributes,
    _decode_nlri,
    _encode_nlri,
    read_mrt,
)


def attrs(asns, communities=(), med=0):
    return PathAttributes(
        ASPath.from_asns(list(asns)), communities=communities, med=med
    )


def roundtrip(write):
    buffer = io.BytesIO()
    writer = MRTWriter(buffer)
    write(writer)
    buffer.seek(0)
    return list(read_mrt(buffer, project="ris", collector="rrc00"))


class TestNlriCodec:
    @pytest.mark.parametrize(
        "text", ["0.0.0.0/0", "10.0.0.0/8", "192.0.2.128/25", "203.0.113.7/32"]
    )
    def test_v4_roundtrip(self, text):
        prefix = Prefix.parse(text)
        decoded, offset = _decode_nlri(_encode_nlri(prefix), 0, prefix.family)
        assert decoded == prefix
        assert offset == len(_encode_nlri(prefix))

    @pytest.mark.parametrize("text", ["2001:db8::/32", "::/0", "2001:db8::1/128"])
    def test_v6_roundtrip(self, text):
        prefix = Prefix.parse(text)
        decoded, _ = _decode_nlri(_encode_nlri(prefix), 0, prefix.family)
        assert decoded == prefix

    def test_truncated_rejected(self):
        with pytest.raises(MRTError):
            _decode_nlri(bytes([24, 10]), 0, 4)  # /24 needs 3 bytes


class TestTableDumpV2:
    def test_rib_roundtrip(self):
        path_a = attrs([65001, 3257, 65010], communities=[Community(3257, 2990)])
        path_b = attrs([65002, 1299, 65010], med=50)

        def write(writer):
            writer.write_peer_index(
                [(65001, "10.0.0.1"), (65002, "10.0.0.2")], timestamp=100
            )
            writer.write_rib_entry(
                Prefix.parse("192.0.2.0/24"),
                [(65001, "10.0.0.1", path_a), (65002, "10.0.0.2", path_b)],
                timestamp=100,
            )

        records = roundtrip(write)
        assert len(records) == 2
        first, second = records
        assert first.record_type == "rib"
        assert first.peer_asn == 65001 and first.peer_address == "10.0.0.1"
        element = first.elements[0]
        assert element.prefix == Prefix.parse("192.0.2.0/24")
        assert element.attributes.as_path == ASPath.from_asns([65001, 3257, 65010])
        assert Community(3257, 2990) in element.attributes.communities
        assert second.elements[0].attributes.med == 50

    def test_v6_rib(self):
        def write(writer):
            writer.write_peer_index([(65001, "10.0.0.1")])
            writer.write_rib_entry(
                Prefix.parse("2001:db8::/32"),
                [(65001, "10.0.0.1", attrs([65001, 9]))],
            )

        records = roundtrip(write)
        assert records[0].elements[0].prefix.family == AF_INET6

    def test_rib_before_index_fails(self):
        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        writer.write_peer_index([(65001, "10.0.0.1")])
        writer.write_rib_entry(
            Prefix.parse("10.0.0.0/8"), [(65001, "10.0.0.1", attrs([65001, 9]))]
        )
        data = buffer.getvalue()
        # Drop the index record: reader must reject the dangling entry.
        header = data[:12]
        import struct

        length = struct.unpack(">IHHI", header)[3]
        stripped = io.BytesIO(data[12 + length:])
        with pytest.raises(MRTError):
            list(read_mrt(stripped))


    def test_nlri_length_beyond_family_rejected(self):
        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        writer.write_peer_index([(65001, "10.0.0.1")])
        index_length = len(buffer.getvalue())
        writer.write_rib_entry(
            Prefix.parse("10.0.0.0/8"), [(65001, "10.0.0.1", attrs([65001, 9]))]
        )
        data = bytearray(buffer.getvalue())
        # RIB body: 4-byte sequence number, then the prefix length byte.
        length_offset = index_length + 12 + 4
        assert data[length_offset] == 8
        data[length_offset] = 40
        with pytest.raises(MRTError, match="NLRI length 40"):
            list(read_mrt(io.BytesIO(bytes(data))))


class TestBgp4mp:
    def test_update_roundtrip(self):
        bundle = attrs([65001, 2, 9], communities=[Community(2, 7)])

        def write(writer):
            writer.write_update(
                65001,
                "10.0.0.1",
                announced=[
                    (Prefix.parse("10.1.0.0/16"), bundle),
                    (Prefix.parse("10.2.0.0/16"), bundle),
                ],
                withdrawn=[Prefix.parse("10.3.0.0/16")],
                timestamp=1234,
            )

        records = roundtrip(write)
        assert len(records) == 1
        record = records[0]
        assert record.record_type == "update"
        assert record.timestamp == 1234
        announced = record.announced_prefixes()
        assert announced == {Prefix.parse("10.1.0.0/16"), Prefix.parse("10.2.0.0/16")}
        withdrawals = [e for e in record.elements if e.is_withdrawal]
        assert [e.prefix for e in withdrawals] == [Prefix.parse("10.3.0.0/16")]
        kept = [e for e in record.elements if not e.is_withdrawal][0]
        assert kept.attributes.as_path == bundle.as_path

    def test_v6_update_uses_mp_reach(self):
        bundle = attrs([65001, 9])

        def write(writer):
            writer.write_update(
                65001,
                "10.0.0.1",
                announced=[(Prefix.parse("2001:db8::/32"), bundle)],
                withdrawn=[Prefix.parse("2001:db9::/32")],
            )

        records = roundtrip(write)
        prefixes = {str(e.prefix) for e in records[0].elements}
        assert prefixes == {"2001:db8::/32", "2001:db9::/32"}

    def test_pure_withdrawal(self):
        def write(writer):
            writer.write_update(
                65001, "10.0.0.1", announced=[],
                withdrawn=[Prefix.parse("10.0.0.0/8")],
            )

        records = roundtrip(write)
        assert records[0].elements[0].is_withdrawal


class TestRobustness:
    def test_unknown_type_flagged_not_dropped(self):
        import struct

        buffer = io.BytesIO()
        buffer.write(struct.pack(">IHHI", 7, 99, 1, 0))
        buffer.seek(0)
        records = list(read_mrt(buffer))
        assert len(records) == 1
        assert records[0].is_corrupt
        assert "unknown MRT record type 99/1" in records[0].corrupt_warning

    def test_truncated_body(self):
        import struct

        buffer = io.BytesIO(struct.pack(">IHHI", 7, 13, 2, 100) + b"\x00" * 10)
        with pytest.raises(MRTError):
            list(read_mrt(buffer))

    def test_empty_stream(self):
        assert list(read_mrt(io.BytesIO())) == []


class TestPipelineIntegration:
    def test_mrt_feeds_atom_computation(self):
        """MRT records drive the sanitize -> atoms pipeline directly."""
        from repro.core.atoms import compute_atoms
        from repro.bgp.rib import RIBSnapshot

        def write(writer):
            writer.write_peer_index([(11, "10.0.0.1"), (12, "10.0.0.2")])
            for text in ("10.1.0.0/16", "10.2.0.0/16"):
                writer.write_rib_entry(
                    Prefix.parse(text),
                    [
                        (11, "10.0.0.1", attrs([11, 7, 9])),
                        (12, "10.0.0.2", attrs([12, 8, 9])),
                    ],
                )
            writer.write_rib_entry(
                Prefix.parse("10.3.0.0/16"),
                [
                    (11, "10.0.0.1", attrs([11, 7, 9])),
                    (12, "10.0.0.2", attrs([12, 5, 9])),  # diverges at peer 12
                ],
            )

        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        write(writer)
        buffer.seek(0)
        snapshot = RIBSnapshot.from_records(read_mrt(buffer, collector="rrc00"))
        atoms = compute_atoms(snapshot)
        assert len(atoms) == 2
        sizes = sorted(atom.size for atom in atoms)
        assert sizes == [1, 2]


class TestAs4Path:
    """RFC 6793: 2-byte MESSAGE records with AS_TRANS + AS4_PATH."""

    def test_legacy_update_roundtrips_4byte_asns(self):
        # 196615 needs 4 bytes: a 2-byte session carries AS_TRANS in
        # AS_PATH and the true path in AS4_PATH.
        bundle = attrs([65001, 196615, 394254])

        def write(writer):
            writer.write_update(
                65001, "10.0.0.1",
                announced=[(Prefix.parse("10.1.0.0/16"), bundle)],
                as4=False,
            )

        records = roundtrip(write)
        assert len(records) == 1
        record = records[0]
        assert not record.is_corrupt
        element = record.elements[0]
        # Without the merge, AS_TRANS (23456) would remain in the path
        # and split atoms spuriously.
        assert element.attributes.as_path == ASPath.from_asns(
            [65001, 196615, 394254]
        )
        assert not element.attributes.as_path.contains_asn(23456)

    def test_legacy_update_without_4byte_asns_has_no_as4_path(self):
        from repro.stream.mrt import ATTR_AS4_PATH, MRTWriter

        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        bundle = attrs([65001, 3257, 9002])
        writer.write_update(
            65001, "10.0.0.1",
            announced=[(Prefix.parse("10.1.0.0/16"), bundle)],
            as4=False,
        )
        # No ASN needs 4 bytes, so no AS4_PATH attribute is emitted and
        # the plain 2-byte path round-trips unchanged.
        data = buffer.getvalue()
        assert bytes([0xC0, ATTR_AS4_PATH]) not in data
        buffer.seek(0)
        records = list(read_mrt(buffer))
        assert records[0].elements[0].attributes.as_path == bundle.as_path

    def test_longer_as_path_keeps_leading_hops(self):
        from repro.net.aspath import merge_as4_path

        # A 2-byte speaker prepended itself after AS4_PATH was attached:
        # the merged path keeps the excess leading AS_PATH hop.
        as_path = ASPath.from_asns([64499, 23456, 23456])
        as4_path = ASPath.from_asns([196615, 196616])
        merged = merge_as4_path(as_path, as4_path)
        assert merged == ASPath.from_asns([64499, 196615, 196616])

    def test_malformed_longer_as4_path_ignored(self):
        from repro.net.aspath import merge_as4_path

        as_path = ASPath.from_asns([64499, 23456])
        as4_path = ASPath.from_asns([1, 2, 3])
        assert merge_as4_path(as_path, as4_path) == as_path


class TestBgp4mpValidation:
    """Damaged BGP4MP records are flagged, never misparsed."""

    def _valid_update_bytes(self):
        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        writer.write_update(
            65001, "10.0.0.1",
            announced=[(Prefix.parse("10.1.0.0/16"), attrs([65001, 9]))],
            timestamp=7,
        )
        return bytearray(buffer.getvalue())

    def test_bad_marker_flagged(self):
        import struct

        data = self._valid_update_bytes()
        header_len = 12
        # BGP4MP_MESSAGE_AS4 peer header: 4+4 ASNs, 2 ifindex, 2 AFI,
        # 4+4 addresses = 20 bytes; the marker starts right after.
        marker_offset = header_len + 20
        assert data[marker_offset] == 0xFF
        data[marker_offset] = 0x00
        records = list(read_mrt(io.BytesIO(bytes(data))))
        assert len(records) == 1
        assert records[0].is_corrupt
        assert "marker" in records[0].corrupt_warning
        assert records[0].peer_asn == 65001
        assert records[0].elements == ()

    def test_declared_length_beyond_record_flagged(self):
        data = self._valid_update_bytes()
        length_offset = 12 + 20 + 16
        data[length_offset : length_offset + 2] = (999).to_bytes(2, "big")
        records = list(read_mrt(io.BytesIO(bytes(data))))
        assert records[0].is_corrupt
        assert "length" in records[0].corrupt_warning

    def test_truncated_message_body_flagged(self):
        import struct

        data = self._valid_update_bytes()
        # Chop the last 6 bytes of the UPDATE and fix up the MRT length
        # so only the BGP-level declared length disagrees.
        chopped = data[:-6]
        mrt_len = len(chopped) - 12
        chopped[8:12] = mrt_len.to_bytes(4, "big")
        records = list(read_mrt(io.BytesIO(bytes(chopped))))
        assert len(records) == 1
        assert records[0].is_corrupt

    def test_nlri_length_beyond_family_flagged(self):
        """An NLRI length byte above 32 is a counted corrupt record."""
        from repro.obs import Tracer, use_tracer

        buffer = io.BytesIO()
        MRTWriter(buffer).write_update(
            65001, "10.0.0.1",
            announced=[
                (Prefix.parse("10.1.2.0/24"), attrs([65001, 9])),
                (Prefix.parse("10.1.3.0/24"), attrs([65001, 9])),
            ],
            timestamp=7,
        )
        data = bytearray(buffer.getvalue())
        # The NLRI block closes the record: two 4-byte /24 entries.
        assert data[-8] == 24
        data[-8] = 40
        tracer = Tracer()
        with use_tracer(tracer):
            records = list(read_mrt(io.BytesIO(bytes(data))))
        assert len(records) == 1
        assert records[0].is_corrupt
        assert "NLRI length 40" in records[0].corrupt_warning
        assert tracer.counters["decode.corrupt_records"] == 1

    def test_truncated_peer_header_flagged(self):
        import struct

        buffer = io.BytesIO(struct.pack(">IHHI", 7, 16, 4, 3) + b"\x00\x00\x00")
        records = list(read_mrt(buffer))
        assert records[0].is_corrupt
        assert "peer header" in records[0].corrupt_warning

    def test_corrupt_records_feed_sanitizer_signal(self):
        """The flagged records carry the signal sanitize() keys on."""
        from repro.core.sanitize import SanitizationConfig, audit_peers, flag_abnormal_peers

        data = self._valid_update_bytes()
        marker_offset = 12 + 20
        data[marker_offset] = 0x00
        records = list(read_mrt(io.BytesIO(bytes(data))))
        audits, _ = audit_peers(records)
        removed = flag_abnormal_peers(audits, SanitizationConfig())
        assert removed == {65001: "addpath"}


class TestIPv6PureWithdrawal:
    """MP_UNREACH_NLRI-only UPDATEs (no AS_PATH at all) must flow
    through read_mrt -> RIBSnapshot.apply_record and remove routes."""

    def test_withdrawal_reaches_rib(self):
        from repro.bgp.rib import RIBSnapshot

        prefix = Prefix.parse("2001:db8::/32")
        bundle = attrs([65001, 9])

        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        writer.write_update(
            65001, "10.0.0.1", announced=[(prefix, bundle)], timestamp=10
        )
        writer.write_update(
            65001, "10.0.0.1", announced=[], withdrawn=[prefix], timestamp=20
        )
        buffer.seek(0)
        records = list(read_mrt(buffer, collector="rrc00"))
        assert len(records) == 2
        pure = records[1]
        assert not pure.is_corrupt
        assert [e.is_withdrawal for e in pure.elements] == [True]
        assert pure.elements[0].attributes is None

        snapshot = RIBSnapshot()
        snapshot.apply_record(records[0])
        table = snapshot.table(records[0].peer_id)
        assert table is not None and prefix in table
        snapshot.apply_record(pure)
        assert prefix not in table
        assert snapshot.timestamp == 20

    def test_withdrawal_only_no_other_attributes(self):
        # The attribute block holds exactly one attribute: MP_UNREACH.
        prefix = Prefix.parse("2001:db8:7::/48")
        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        writer.write_update(65001, "10.0.0.1", announced=[], withdrawn=[prefix])
        buffer.seek(0)
        records = list(read_mrt(buffer))
        assert len(records) == 1
        assert {str(e.prefix) for e in records[0].elements} == {str(prefix)}
        assert all(e.is_withdrawal for e in records[0].elements)


def reframe(record: bytes, keep: int) -> bytes:
    """One MRT record cut to ``keep`` body bytes, its length fixed up so
    only the body's own structure is damaged."""
    body = record[12 : 12 + keep]
    return record[:8] + len(body).to_bytes(4, "big") + body


class TestDecoderDamageIsTyped:
    """Damage that used to escape ``read_mrt`` as a bare ValueError,
    struct.error or IndexError."""

    def _update(self):
        buffer = io.BytesIO()
        MRTWriter(buffer).write_update(
            65001, "10.0.0.1",
            announced=[(Prefix.parse("10.1.0.0/16"), attrs([65001, 777]))],
            timestamp=7,
        )
        return bytearray(buffer.getvalue())

    def test_as0_in_update_path_is_a_corrupt_record(self):
        """RFC 7607: an AS_PATH carrying AS 0 is malformed."""
        data = self._update()
        at = data.find((777).to_bytes(4, "big"))
        data[at : at + 4] = bytes(4)
        (record,) = read_mrt(io.BytesIO(bytes(data)))
        assert record.is_corrupt and "AS 0" in record.corrupt_warning

    def test_empty_path_segment_is_a_corrupt_record(self):
        data = self._update()
        at = data.find(bytes([2, 2]) + (65001).to_bytes(4, "big"))
        data[at + 1] = 0
        (record,) = read_mrt(io.BytesIO(bytes(data)))
        assert record.is_corrupt
        assert "empty AS_PATH segment" in record.corrupt_warning

    @pytest.mark.parametrize("type_code, body", [
        (14, bytes([0, 2])),     # MP_REACH_NLRI without next-hop length
        (14, bytes([0, 2, 1, 200, 0])),  # next hop overruns the body
        (15, bytes([0, 2])),     # MP_UNREACH_NLRI without SAFI
    ], ids=["mp-reach", "mp-reach-next-hop", "mp-unreach"])
    def test_truncated_mp_attribute_raises(self, type_code, body):
        block = bytes([0x80, type_code, len(body)]) + body
        with pytest.raises(MRTError, match="NLRI truncated"):
            _decode_attributes(block, 4)

    def _table_dump(self, path=(65001, 9)):
        buffer = io.BytesIO()
        writer = MRTWriter(buffer)
        writer.write_peer_index([(65001, "10.0.0.1")])
        index = buffer.getvalue()
        writer.write_rib_entry(
            Prefix.parse("10.1.0.0/16"), [(65001, "10.0.0.1", attrs(path))]
        )
        return index, buffer.getvalue()[len(index) :]

    def test_as0_in_rib_entry_raises(self):
        index, rib = self._table_dump(path=(65001, 777))
        rib = rib.replace((777).to_bytes(4, "big"), bytes(4))
        with pytest.raises(MRTError, match="AS 0"):
            list(read_mrt(io.BytesIO(index + rib)))

    @pytest.mark.parametrize("keep", [5, 7, 9, 12, 17])
    def test_truncated_peer_index_raises(self, keep):
        index, _ = self._table_dump()
        with pytest.raises(MRTError, match="PEER_INDEX_TABLE"):
            list(read_mrt(io.BytesIO(reframe(index, keep))))

    @pytest.mark.parametrize("keep", [8, 9, 12, 16, 20])
    def test_truncated_rib_entry_raises(self, keep):
        index, rib = self._table_dump()
        with pytest.raises(MRTError, match="RIB entry"):
            list(read_mrt(io.BytesIO(index + reframe(rib, keep))))


def fuzz_corpus() -> bytes:
    """80 writer-made records: a peer index, 40 RIB prefixes (v4 and
    v6, up to three peers each) and 39 UPDATEs (AS4 and legacy, v4 and
    v6 announcements and withdrawals)."""
    buffer = io.BytesIO()
    writer = MRTWriter(buffer)
    peers = [(65001, "10.0.0.1"), (65002, "10.0.0.2"),
             (4200000001, "10.0.0.3")]
    writer.write_peer_index(peers, timestamp=100)
    for i in range(40):
        prefix = Prefix.parse(
            f"2001:db8:{i}::/48" if i % 5 == 0 else f"10.{i}.0.0/16"
        )
        writer.write_rib_entry(prefix, [
            (asn, address, attrs([asn, 3257, 1299 + i, 65010 + i % 4],
                                 communities=[Community(3257, i)], med=i))
            for asn, address in peers[: 1 + i % 3]
        ], timestamp=100)
    for i in range(39):
        asn, address = peers[i % 3]
        path = attrs([asn, 174, 3356 + i], med=i % 3)
        announced = [
            (Prefix.parse(f"10.{i}.{j}.0/24"), path) for j in range(1 + i % 3)
        ]
        if i % 4 == 0:
            announced.append((Prefix.parse(f"2001:db8:{i}:1::/64"), path))
        withdrawn = [Prefix.parse(f"10.{100 + i}.0.0/16")] if i % 3 == 0 else []
        if i % 7 == 0:
            withdrawn.append(Prefix.parse(f"2001:db8:{i}:2::/64"))
        writer.write_update(asn, address, announced, withdrawn,
                            timestamp=200 + i, as4=bool(i % 2))
    return buffer.getvalue()


def mutate(data: bytes, rng) -> bytes:
    """One bit flip, byte set, truncation or splice of ``data``."""
    out = bytearray(data)
    kind = rng.randrange(4)
    if kind == 0:
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    elif kind == 1:
        out[rng.randrange(len(out))] = rng.randrange(256)
    elif kind == 2:
        del out[rng.randrange(len(out)) :]
    else:
        start = rng.randrange(len(out))
        chunk = out[start : start + rng.randrange(1, 65)]
        at = rng.randrange(len(out))
        out[at:at] = chunk
    return bytes(out)


def test_byte_mutations_decode_or_raise_mrt_error():
    """Every mutant of a valid file yields records or raises MRTError —
    never another exception (1,000 mutations, seed 1: about 3 s)."""
    import random

    data = fuzz_corpus()
    assert len(list(read_mrt(io.BytesIO(data)))) > 80
    rng = random.Random(1)
    escapes = []
    for number in range(1000):
        mutant = mutate(data, rng)
        try:
            list(read_mrt(io.BytesIO(mutant)))
        except MRTError:
            pass
        except Exception as error:  # noqa: BLE001 - the point of the test
            escapes.append(f"mutation {number}: {type(error).__name__}: {error}")
    assert escapes == []

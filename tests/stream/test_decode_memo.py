"""Tests for decode sharing: one memo per archive handle.

Every read through one :class:`RecordArchive` decodes each distinct AS
path and attribute bundle once and hands the same object to every
element that carries it.  The objects are immutable and compared by
value everywhere, so sharing must change no result; these tests pin
both halves of that promise.
"""

import gzip
import json
from itertools import chain

import pytest

from repro.bgp.attributes import Community, PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.obs import Tracer, use_tracer
from repro.stream import serialize
from repro.stream.archive import RecordArchive
from repro.stream.live import LiveConfig, LivePipeline
from repro.stream.serialize import DecodeMemo, record_from_json
from repro.util.dates import parse_utc
from tests.stream.test_live import assert_atoms_equal, full_stream


def element(kind, prefix, path, communities=(), med=0):
    return RouteElement(
        kind, Prefix.parse(prefix),
        PathAttributes(
            ASPath.parse(path),
            communities=[Community.parse(c) for c in communities],
            med=med,
        ),
    )


def record(record_type, timestamp, elements, peer_asn=1):
    return RouteRecord(record_type, "ris", "rrc00", peer_asn, "10.0.0.1",
                       timestamp, elements)


def fields(route_record):
    """Every field of a record, compared by value."""
    return route_record.__reduce__()[1]


def unshared_records(archive, record_type):
    """The records ``archive.records(record_type=...)`` yields, each
    line decoded on its own, so nothing is shared between them."""
    decoded = []
    for *_, path in archive.dumps(record_type=record_type):
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            decoded += [record_from_json(line) for line in handle if line.strip()]
    return decoded


@pytest.fixture()
def two_dump_archive(tmp_path):
    """A RIB dump and an update dump that repeat one bundle."""
    archive = RecordArchive(tmp_path)
    archive.write_dump([
        record("rib", 100, [
            element(ElementType.RIB, "10.0.1.0/24", "1 5 9", ["5:1"], 7),
            element(ElementType.RIB, "10.0.2.0/24", "1 5 9", ["5:1"], 7),
            element(ElementType.RIB, "10.0.3.0/24", "1 5 9"),
        ]),
    ])
    archive.write_dump([
        record("update", 200, [
            element(ElementType.ANNOUNCEMENT, "10.0.4.0/24", "1 5 9",
                    ["5:1"], 7),
        ]),
    ])
    return tmp_path


class TestSharing:
    def test_equal_bundles_are_one_object_across_dumps(self, two_dump_archive):
        archive = RecordArchive(two_dump_archive)
        (rib,) = archive.records(record_type="rib")
        (update,) = archive.records(record_type="update")
        first, second, bare = (e.attributes for e in rib.elements)
        carried = update.elements[0].attributes
        assert first is second is carried
        # same path text, other communities and MED: its own bundle,
        # the same parsed path
        assert bare is not first and bare != first
        assert bare.as_path is first.as_path

    def test_two_handles_share_nothing(self, two_dump_archive):
        one = RecordArchive(two_dump_archive)
        other = RecordArchive(two_dump_archive)
        mine = next(iter(one.records())).elements[0].attributes
        theirs = next(iter(other.records())).elements[0].attributes
        assert mine == theirs
        assert mine is not theirs
        assert mine.as_path is not theirs.as_path

    def test_a_record_without_a_handle_shares_within_itself_only(self):
        line = json.dumps({
            "type": "rib", "project": "ris", "collector": "rrc00",
            "peer_asn": 1, "peer_addr": "x", "time": 1,
            "elements": [{"t": "R", "p": "10.0.1.0/24", "path": "1 2"},
                         {"t": "R", "p": "10.0.2.0/24", "path": "1 2"}],
        })
        one, two = record_from_json(line), record_from_json(line)
        assert one.elements[0].attributes is one.elements[1].attributes
        assert one.elements[0].attributes is not two.elements[0].attributes


class TestValues:
    def test_every_record_equals_an_unshared_decode(
        self, tmp_path, internet_2004, records_2004
    ):
        archive = RecordArchive(tmp_path)
        stamp = parse_utc("2004-01-15 08:00")
        archive.write_dump(records_2004, dump_timestamp=stamp)
        archive.write_dump(internet_2004.update_records(stamp, hours=2.0),
                           dump_timestamp=stamp)
        shared = list(archive.records(record_type="rib"))
        shared += archive.records(record_type="update")
        unshared = unshared_records(archive, "rib")
        unshared += unshared_records(archive, "update")
        assert [fields(r) for r in shared] == [fields(r) for r in unshared]
        # the simulated feed repeats paths across prefixes and peers
        memo = archive._memo
        elements = sum(len(r.elements) for r in shared)
        assert memo.attributes_built < elements
        assert memo.paths_parsed <= memo.attributes_built

    def test_values_survive_the_cap_clearing_the_memo(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(serialize, "MEMO_CAP", 3)
        archive = RecordArchive(tmp_path)
        paths = [f"1 {hop} 9" for hop in range(2, 9)]
        # one element per record, so the memo is sampled after each
        archive.write_dump([
            record("rib", 100, [
                element(ElementType.RIB, f"10.0.{i}.0/24", paths[i % 7],
                        [f"{i % 2}:1"]),
            ])
            for i in range(40)
        ])
        memo = archive._memo
        shared = []
        for decoded in archive.records():
            shared.append(decoded)
            assert len(memo.bundles) <= 3 and len(memo.paths) <= 3
        assert [fields(r) for r in shared] == [
            fields(r) for r in unshared_records(archive, "rib")
        ]
        # 14 distinct bundles, 40 elements: the memo started over, so
        # bundles were built again
        assert memo.attributes_built > 14


class TestBadInput:
    @pytest.mark.parametrize("path, communities", [
        ("1 x 9", ()),
        ("1 {2", ()),
        ("1 5 9", ("5:notanumber",)),
        ("1 5 9", ("5:70000",)),
    ])
    def test_raises_and_memoises_nothing(self, path, communities):
        memo = DecodeMemo()
        with pytest.raises(ValueError):
            memo.attributes(path, communities, 0)
        assert memo.paths == {} and memo.bundles == {}
        assert memo.paths_parsed == memo.attributes_built == 0
        # the same error again: nothing half-decoded was kept
        with pytest.raises(ValueError):
            memo.attributes(path, communities, 0)

    def test_bad_text_in_an_archive_raises_as_an_unshared_decode_does(
        self, tmp_path
    ):
        line = json.dumps({
            "type": "rib", "project": "ris", "collector": "rrc00",
            "peer_asn": 1, "peer_addr": "x", "time": 1,
            "elements": [{"t": "R", "p": "10.0.1.0/24", "path": "1 2"},
                         {"t": "R", "p": "10.0.2.0/24", "path": "1 ? 2"}],
        })
        with pytest.raises(ValueError) as unshared:
            record_from_json(line)
        dump = tmp_path / "ris" / "rrc00" / "rib" / "1970" / "01"
        dump.mkdir(parents=True)
        with gzip.open(dump / "1.jsonl.gz", "wt", encoding="utf-8") as handle:
            handle.write(line + "\n")
        archive = RecordArchive(tmp_path)
        with pytest.raises(ValueError) as shared:
            list(archive.records())
        assert str(shared.value) == str(unshared.value)
        assert "1 ? 2" not in archive._memo.paths


class TestCounters:
    def test_distinct_decodes_are_counted_per_read_when_tracing(
        self, two_dump_archive
    ):
        archive = RecordArchive(two_dump_archive)
        tracer = Tracer()
        with use_tracer(tracer):
            list(archive.records(record_type="rib"))
            rib_counts = dict(tracer.counters)
            list(archive.records(record_type="update"))
        assert rib_counts["decode.paths_parsed"] == 1
        assert rib_counts["decode.attributes_built"] == 2
        # the update dump's one bundle was already decoded
        assert tracer.counters["decode.paths_parsed"] == 1
        assert tracer.counters["decode.attributes_built"] == 2

    def test_a_reread_decodes_nothing_new(self, two_dump_archive):
        archive = RecordArchive(two_dump_archive)
        list(archive.records())  # untraced: warms the memo only
        tracer = Tracer()
        with use_tracer(tracer):
            list(archive.records())
        assert "decode.paths_parsed" not in tracer.counters
        assert "decode.attributes_built" not in tracer.counters
        with use_tracer(tracer):
            list(RecordArchive(two_dump_archive).records())
        assert tracer.counters["decode.paths_parsed"] == 1
        assert tracer.counters["decode.attributes_built"] == 2


class TestLiveReplay:
    """A replay through one handle equals one of unshared records."""

    def _replay(self, records):
        tracer = Tracer()
        with use_tracer(tracer):
            run = LivePipeline(records, LiveConfig(window_seconds=100)).run()
        counters = {
            name: value for name, value in tracer.counters.items()
            if name.startswith("live.")
        }
        return run, counters

    def test_windows_atoms_and_counters_match(self, tmp_path):
        archive = RecordArchive(tmp_path)
        archive.write_dump(full_stream())
        shared, shared_counters = self._replay(chain(
            archive.records(record_type="rib"),
            archive.records(record_type="update"),
        ))
        unshared, unshared_counters = self._replay(
            unshared_records(archive, "rib")
            + unshared_records(archive, "update")
        )
        assert shared.as_dict() == unshared.as_dict()
        assert shared.windows and shared.parity_checks == len(shared.windows)
        assert_atoms_equal(shared.atoms, unshared.atoms)
        assert shared_counters == unshared_counters
        assert shared_counters["live.key_changes"] > 0

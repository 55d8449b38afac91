"""Tests for the on-disk record archive."""

import multiprocessing

import pytest

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.stream.archive import RecordArchive


def make_record(collector="rrc00", project="ris", peer_asn=1, timestamp=1000,
                record_type="rib"):
    return RouteRecord(
        record_type, project, collector, peer_asn, "10.0.0.1", timestamp,
        [
            RouteElement(
                ElementType.RIB if record_type == "rib" else ElementType.ANNOUNCEMENT,
                Prefix.parse("10.0.0.0/8"),
                PathAttributes(ASPath.from_asns([peer_asn, 9])),
            )
        ],
    )


def write_one_dump(root):
    """Write one fixed dump under ``root`` (a spawned process's target)."""
    RecordArchive(root).write_dump(
        [make_record(), make_record(peer_asn=2)], dump_timestamp=100
    )


class TestArchive:
    def test_write_and_read(self, tmp_path):
        archive = RecordArchive(tmp_path)
        written = archive.write_dump([make_record(), make_record(peer_asn=2)])
        assert len(written) == 1  # same collector/type -> one file
        records = list(archive.records())
        assert len(records) == 2
        assert {r.peer_asn for r in records} == {1, 2}

    def test_layout_is_self_describing(self, tmp_path):
        archive = RecordArchive(tmp_path)
        archive.write_dump([make_record(timestamp=1_600_000_000)])
        dumps = archive.dumps()
        assert len(dumps) == 1
        project, collector, rtype, stamp, path = dumps[0]
        assert (project, collector, rtype, stamp) == ("ris", "rrc00", "rib", 1_600_000_000)
        assert "ris/rrc00/rib/2020/09" in str(path)

    def test_groups_by_collector(self, tmp_path):
        archive = RecordArchive(tmp_path)
        written = archive.write_dump(
            [make_record("rrc00"), make_record("rrc01")]
        )
        assert len(written) == 2

    def test_filters(self, tmp_path):
        archive = RecordArchive(tmp_path)
        archive.write_dump([make_record("rrc00", "ris")])
        archive.write_dump([make_record("route-views2", "routeviews")])
        ris_only = list(archive.records(project="ris"))
        assert len(ris_only) == 1 and ris_only[0].project == "ris"

    def test_time_filters(self, tmp_path):
        archive = RecordArchive(tmp_path)
        archive.write_dump([make_record(timestamp=100)], dump_timestamp=100)
        archive.write_dump([make_record(timestamp=200)], dump_timestamp=200)
        assert len(list(archive.records(from_time=150))) == 1
        assert len(list(archive.records(until_time=150))) == 1
        assert len(list(archive.records(from_time=50, until_time=250))) == 2

    def test_from_time_scans_dumps_stamped_earlier(self, tmp_path):
        """A dump is stamped with its *first* record's timestamp, so a
        dump starting before ``from_time`` can still hold in-range
        records — they must not be skipped wholesale (regression)."""
        archive = RecordArchive(tmp_path)
        spanning = [
            make_record(timestamp=100),
            make_record(peer_asn=2, timestamp=180),
            make_record(peer_asn=3, timestamp=260),
        ]
        archive.write_dump(spanning, dump_timestamp=100)
        in_range = list(archive.records(from_time=150))
        assert [r.timestamp for r in in_range] == [180, 260]
        # until_time still prunes at dump level: nothing stamped after
        # the bound is opened, and per-record filtering holds inside.
        assert [r.timestamp for r in archive.records(until_time=150)] == [100]

    def test_dumps_skips_stray_files(self, tmp_path):
        archive = RecordArchive(tmp_path)
        archive.write_dump([make_record(timestamp=100)], dump_timestamp=100)
        type_dir = next(tmp_path.rglob("100.jsonl.gz")).parent
        (type_dir / "README.jsonl.gz").write_bytes(b"not a dump")
        (type_dir / "notes.txt").write_text("ignore me")
        dumps = archive.dumps()
        assert [stamp for _, _, _, stamp, _ in dumps] == [100]
        assert len(list(archive.records())) == 1

    def test_dumps_sweeps_orphaned_tmp_files(self, tmp_path):
        archive = RecordArchive(tmp_path)
        archive.write_dump([make_record(timestamp=100)], dump_timestamp=100)
        type_dir = next(tmp_path.rglob("100.jsonl.gz")).parent
        # Temp files from a pid that no longer exists, in the writer's
        # name scheme and the older one without a uuid: orphaned, swept.
        dead = [type_dir / f"200.jsonl.gz.tmp999999999-{'a' * 32}",
                type_dir / "201.jsonl.gz.tmp999999999"]
        for path in dead:
            path.write_bytes(b"partial")
        # A live writer's tmp file (our own pid): must be left alone.
        import os

        live = type_dir / f"300.jsonl.gz.tmp{os.getpid()}-{'b' * 32}"
        live.write_bytes(b"in flight")
        archive.dumps()
        assert not any(path.exists() for path in dead)
        assert live.exists()
        live.unlink()

    def test_dump_bytes_depend_on_records_alone(self, tmp_path):
        """Two processes writing the same records write the same bytes:
        the gzip header names no temp file and holds no clock."""
        spawn = multiprocessing.get_context("spawn")
        dumps = []
        for name in ("one", "two"):
            process = spawn.Process(
                target=write_one_dump, args=(str(tmp_path / name),)
            )
            process.start()
            process.join(120)
            assert process.exitcode == 0
            (path,) = (tmp_path / name).rglob("*.jsonl.gz")
            dumps.append(path.read_bytes())
        assert dumps[0] == dumps[1]

    def test_record_type_separation(self, tmp_path):
        archive = RecordArchive(tmp_path)
        archive.write_dump(
            [make_record(record_type="rib"), make_record(record_type="update")]
        )
        assert len(list(archive.records(record_type="rib"))) == 1
        assert len(list(archive.records(record_type="update"))) == 1


class TestCrashSafety:
    def test_failed_write_leaves_no_partial_dump(self, tmp_path, monkeypatch):
        """A serializer crash mid-dump must not leave a truncated file
        that a later read would silently ingest."""
        import repro.stream.archive as archive_module

        archive = RecordArchive(tmp_path)
        calls = {"n": 0}
        real = archive_module.record_to_json

        def exploding(record):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("disk full")
            return real(record)

        monkeypatch.setattr(archive_module, "record_to_json", exploding)
        with pytest.raises(RuntimeError):
            archive.write_dump([make_record(peer_asn=1), make_record(peer_asn=2)])

        assert list(tmp_path.rglob("*.jsonl.gz")) == []  # no truncated dump
        assert list(tmp_path.rglob("*.tmp*")) == []  # no leftover temp file
        assert list(archive.records()) == []

    def test_failed_write_preserves_earlier_dumps(self, tmp_path, monkeypatch):
        import repro.stream.archive as archive_module

        archive = RecordArchive(tmp_path)
        archive.write_dump([make_record(timestamp=100)], dump_timestamp=100)

        monkeypatch.setattr(
            archive_module,
            "record_to_json",
            lambda record: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError):
            archive.write_dump([make_record(timestamp=200)], dump_timestamp=200)

        survivors = list(archive.records())
        assert len(survivors) == 1 and survivors[0].timestamp == 100

    def test_rewrite_is_atomic_replace(self, tmp_path):
        """Re-dumping the same instant swaps the file in one step."""
        archive = RecordArchive(tmp_path)
        archive.write_dump([make_record(peer_asn=1)], dump_timestamp=100)
        archive.write_dump(
            [make_record(peer_asn=1), make_record(peer_asn=2)], dump_timestamp=100
        )
        records = list(archive.records())
        assert {r.peer_asn for r in records} == {1, 2}
        assert list(tmp_path.rglob("*.tmp*")) == []


class TestIntegrationWithSimulator:
    def test_snapshot_archive_roundtrip(self, tmp_path, records_2004):
        archive = RecordArchive(tmp_path)
        sample = records_2004[:10]
        archive.write_dump(sample, dump_timestamp=sample[0].timestamp)
        restored = list(archive.records())
        assert len(restored) == len(sample)
        originals = {(r.peer_id, tuple(r.elements)) for r in sample}
        recovered = {(r.peer_id, tuple(r.elements)) for r in restored}
        assert originals == recovered

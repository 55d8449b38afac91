"""Tests for the BGPStream-like query API."""

import pytest

from repro.net.prefix import AF_INET6
from repro.simulation.scenario import SimulatedInternet
from repro.stream.archive import RecordArchive
from repro.stream.bgpstream import BGPStream
from tests.conftest import TEST_WORLD


class TestOverSimulator:
    def test_rib_stream(self, internet_2004):
        stream = BGPStream(
            internet_2004, record_type="rib", from_time="2004-01-15 08:00"
        )
        records = list(stream.records())
        assert records and all(r.record_type == "rib" for r in records)

    def test_update_stream_requires_bounds(self, internet_2004):
        stream = BGPStream(internet_2004, record_type="update",
                           from_time="2004-01-15 08:00")
        with pytest.raises(ValueError):
            list(stream.records())

    def test_update_stream(self):
        sim = SimulatedInternet(TEST_WORLD, start="2004-01-15 08:00")
        stream = BGPStream(
            sim,
            record_type="update",
            from_time="2004-01-15 08:00",
            until_time="2004-01-15 12:00",
        )
        records = list(stream)
        assert all(r.record_type == "update" for r in records)

    def test_zero_length_update_window_is_empty(self):
        sim = SimulatedInternet(TEST_WORLD, start="2004-01-15 08:00")
        stream = BGPStream(
            sim,
            record_type="update",
            from_time="2004-01-15 08:00",
            until_time="2004-01-15 08:00",
        )
        assert list(stream) == []

    def test_collector_filter(self, internet_2004):
        collectors = internet_2004.world.layout.collectors
        chosen = collectors[0][1]
        stream = BGPStream(
            internet_2004, from_time="2004-01-15 08:00", collectors=[chosen]
        )
        records = list(stream.records())
        assert records
        assert all(r.collector == chosen for r in records)

    def test_elements_iterator(self, internet_2004):
        stream = BGPStream(internet_2004, from_time="2004-01-15 08:00")
        pair = next(iter(stream.elements()))
        record, element = pair
        assert element in record.elements

    def test_family_selection(self):
        sim = SimulatedInternet(TEST_WORLD, start="2024-10-15 08:00")
        stream = BGPStream(sim, from_time="2024-10-15 08:00", family=AF_INET6)
        for record in list(stream)[:5]:
            for element in record.elements:
                assert element.prefix.family == AF_INET6


class TestOverArchive:
    def test_archive_source(self, tmp_path, records_2004):
        archive = RecordArchive(tmp_path)
        archive.write_dump(records_2004[:20], dump_timestamp=records_2004[0].timestamp)
        stream = BGPStream(archive, record_type="rib")
        assert len(list(stream.records())) == sum(1 for _ in records_2004[:20])

    def test_rejects_unknown_source(self):
        stream = BGPStream(object(), from_time=0)
        with pytest.raises(TypeError):
            list(stream.records())

    def test_rejects_unknown_record_type(self, tmp_path):
        with pytest.raises(ValueError):
            BGPStream(RecordArchive(tmp_path), record_type="nonsense")

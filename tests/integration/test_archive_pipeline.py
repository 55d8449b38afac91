"""Integration: simulate -> archive -> BGPStream -> atoms.

The port-to-real-data story depends on the archive path producing the
exact same analysis results as the in-memory path.
"""

import pytest

from repro.core.pipeline import compute_policy_atoms
from repro.core.update_correlation import update_correlation
from repro.stream.archive import RecordArchive
from repro.stream.bgpstream import BGPStream
from repro.util.dates import parse_utc


@pytest.fixture(scope="module")
def populated_archive(tmp_path_factory, internet_2004, records_2004):
    root = tmp_path_factory.mktemp("archive")
    archive = RecordArchive(root)
    stamp = parse_utc("2004-01-15 08:00")
    archive.write_dump(records_2004, dump_timestamp=stamp)
    updates = internet_2004.update_records(stamp, hours=2.0)
    archive.write_dump(updates, dump_timestamp=stamp)
    return archive, stamp, len(updates)


class TestArchivePath:
    def test_atoms_identical_to_in_memory(self, populated_archive, records_2004):
        archive, stamp, _ = populated_archive
        direct = compute_policy_atoms(records_2004)
        via_archive = compute_policy_atoms(
            BGPStream(archive, record_type="rib").records()
        )
        assert direct.atoms.prefix_sets() == via_archive.atoms.prefix_sets()
        assert direct.report.removed_peers == via_archive.report.removed_peers

    def test_update_stream_preserved(self, populated_archive):
        archive, stamp, update_count = populated_archive
        restored = list(BGPStream(archive, record_type="update").records())
        assert len(restored) == update_count

    def test_correlation_through_archive(self, populated_archive):
        archive, _, _ = populated_archive
        atoms = compute_policy_atoms(
            BGPStream(archive, record_type="rib").records()
        ).atoms
        updates = BGPStream(archive, record_type="update").records()
        correlation = update_correlation(atoms, updates, max_size=7)
        assert correlation.records_seen > 0


class TestQuarterlyCadence:
    def test_run_quarters(self):
        from repro.analysis.longitudinal import LongitudinalStudy
        from repro.simulation.scenario import SimulatedInternet
        from repro.topology.evolution import WorldParams

        params = WorldParams(
            seed=13, as_scale=1 / 400.0, prefix_scale=1 / 400.0,
            peer_scale=0.03, collector_scale=0.3, min_fullfeed_peers=6,
        )
        study = LongitudinalStudy(SimulatedInternet(params, start="2006-01-01"))
        results = study.run_quarters(2006, 2006, with_stability=False)
        assert [r.year for r in results] == [2006.0, 2006.25, 2006.5, 2006.75]
        for result in results:
            assert result.stats.n_atoms > 0

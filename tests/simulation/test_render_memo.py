"""A snapshot suite's shared render memo against unshared renders.

A :class:`RenderMemo` lets a quarter's four renders share one
``PathAttributes`` per (peer ASN, path, tag).  That is exact because a
bundle is a pure function of that key and is immutable: the renders
must equal, element for element, renders that build their own bundles,
and the memo's bundles must be the very objects every snapshot carries.
"""

from collections import Counter

import pytest

from repro.analysis.longitudinal import LongitudinalStudy
from repro.core.sanitize import audit_peers
from repro.net.asn import is_private_asn
from repro.obs import Tracer, use_tracer
from repro.simulation import scenario
from repro.simulation.scenario import SimulatedInternet
from repro.simulation.snapshot import RenderMemo
from repro.util.dates import QUARTER_SNAPSHOT_OFFSETS, utc_timestamp
from tests.conftest import TEST_WORLD

#: ADD-PATH and private-ASN artifact windows are open in 2021 (A8.3),
#: so the quarter also renders per-prefix mutated bundles.
YEAR, MONTH = 2021, 1
TIMES = [
    utc_timestamp(YEAR, MONTH, day, hour) for day, hour in QUARTER_SNAPSHOT_OFFSETS
]


def record_fields(record):
    return (
        record.record_type, record.project, record.collector,
        record.peer_asn, record.peer_address, record.timestamp,
        record.corrupt_warning, record.elements,
    )


def quarter(memo):
    """The quarter's four renders, each with ``memo`` (None: its own)."""
    internet = SimulatedInternet(TEST_WORLD, start=f"{YEAR}-01-01")
    return [list(internet.rib_records(when, memo=memo)) for when in TIMES]


def bundle_ids(records):
    return {
        id(element.attributes)
        for record in records
        for element in record.elements
    }


@pytest.fixture(scope="module")
def shared():
    """The quarter through one memo, with the trace counters it emitted."""
    tracer = Tracer()
    memo = RenderMemo()
    with use_tracer(tracer):
        records = quarter(memo)
    return memo, records, tracer.counters


@pytest.fixture(scope="module")
def plain():
    return quarter(None)


class TestSuiteMemo:
    def test_renders_equal_unshared_renders(self, shared, plain):
        _, renders, _ = shared
        for ours, reference in zip(renders, plain):
            assert [record_fields(r) for r in ours] == [
                record_fields(r) for r in reference
            ]

    def test_bundles_shared_by_identity_across_snapshots(self, shared, plain):
        memo, renders, _ = shared
        memoised = {
            id(bundle) for table in memo.bundles.values()
            for bundle in table.values()
        }
        # One object per (peer ASN, value) across the whole quarter.
        values = set()
        objects = set()
        own = 0
        for records in renders:
            for record in records:
                for element in record.elements:
                    if id(element.attributes) in memoised:
                        values.add((record.peer_asn, element.attributes))
                        objects.add(id(element.attributes))
                    else:
                        own += 1  # a per-prefix mutation's own bundle
        assert len(values) == len(objects) == len(memoised)
        assert own > 0
        # Bundles span the quarter; unshared renders share none.
        assert set.intersection(*(bundle_ids(r) for r in renders))
        assert not set.intersection(*(bundle_ids(r) for r in plain))

    def test_attributes_built_counts_each_bundle_once(self, shared, plain):
        memo, renders, counters = shared
        built = len(set.union(*(bundle_ids(r) for r in renders)))
        assert memo.attributes_built == built
        assert counters["render.attributes_built"] == built
        assert built < sum(len(bundle_ids(r)) for r in plain)

    def test_audit_per_bundle_equals_per_element(self, shared, plain):
        _, renders, _ = shared
        leaks = 0
        for ours, reference in zip(renders, plain):
            audits, _ = audit_peers(ours)
            assert audits == audit_peers(reference)[0]
            found = {
                asn: audit.private_asn_paths
                for asn, audit in audits.items() if audit.private_asn_paths
            }
            assert found == private_paths_per_element(reference)
            leaks += sum(found.values())
        assert leaks > 0


def private_paths_per_element(records):
    """The private-ASN audit as it was: one path test per element."""
    counts = Counter()
    for record in records:
        for element in record.elements:
            asns = element.attributes.as_path.asns()[1:]
            if any(is_private_asn(asn) for asn in asns):
                counts[record.peer_asn] += 1
    return dict(counts)


def test_each_suite_owns_one_memo(monkeypatch):
    """All renders of a suite get one memo, and the next suite a new one."""
    seen = []
    render = scenario.render_rib_records

    def spy(world, engine, family, when, memo=None):
        seen.append(memo)
        return render(world, engine, family, when, memo=memo)

    monkeypatch.setattr(scenario, "render_rib_records", spy)
    study = LongitudinalStudy(SimulatedInternet(TEST_WORLD, start="2006-01-01"))
    study.snapshot_suite(2006, 1, with_stability=True)
    study.snapshot_suite(2006, 4, with_stability=True)
    assert len(seen) == 8
    assert all(isinstance(memo, RenderMemo) for memo in seen)
    assert len({id(memo) for memo in seen[:4]}) == 1
    assert len({id(memo) for memo in seen[4:]}) == 1
    assert seen[0] is not seen[4]

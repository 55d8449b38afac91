"""Kernel-vs-reference property tests.

The columnar kernel must reproduce :func:`compute_atoms_reference`
exactly — atom ids, atom ordering, member sets and path vectors — over
simulated worlds exercising every normalisation branch: MOAS prefixes,
singleton and multi-element AS_SETs, prepending, and partial
visibility (prefixes unseen at some vantage points).
"""

from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.bgp.rib import RIBSnapshot
from repro.core.atoms import compute_atoms
from repro.core.intern import PathInternPool
from repro.core.kernel import columnar_atoms
from repro.net.aspath import ASPath, PathSegment, SegmentType
from repro.net.prefix import Prefix
from tests.core.reference import compute_atoms_reference

import pytest

PREFIXES = [Prefix.parse(f"10.1.{i}.0/24") for i in range(8)]
PEERS = [
    ("rrc00", 11, "a"),
    ("rrc00", 12, "b"),
    ("rrc01", 13, "c"),
    ("rrc01", 14, "d"),
]

# Path tails appended after the peer ASN.  Tuples are AS_SEQUENCEs;
# a trailing frozenset becomes an AS_SET segment (singleton sets are
# expanded by normalisation, larger ones drop the route, §2.4.4).
# Distinct origins across peers (9 vs 77) give MOAS prefixes.
TAILS = [
    None,                           # prefix invisible at this peer
    (5, 9),
    (6, 9),
    (5, 5, 9),                      # prepending
    (7, 77),                        # MOAS origin
    (5, frozenset({9})),            # singleton AS_SET: expanded
    (6, frozenset({8, 9})),         # multi AS_SET: route removed
]


def _build_path(peer_asn, tail):
    segments = []
    run = [peer_asn]
    for part in tail:
        if isinstance(part, frozenset):
            segments.append(PathSegment(SegmentType.AS_SEQUENCE, run))
            segments.append(PathSegment(SegmentType.AS_SET, sorted(part)))
            run = []
        else:
            run.append(part)
    if run:
        segments.append(PathSegment(SegmentType.AS_SEQUENCE, run))
    return ASPath(segments)


@st.composite
def snapshots(draw):
    """A random snapshot drawing per-(peer, prefix) tails from TAILS."""
    records = []
    for collector, peer_asn, address in PEERS:
        elements = []
        for prefix in PREFIXES:
            tail = TAILS[draw(st.sampled_from(range(len(TAILS))))]
            if tail is None:
                continue
            path = _build_path(peer_asn, tail)
            elements.append(
                RouteElement(ElementType.RIB, prefix, PathAttributes(path))
            )
        records.append(
            RouteRecord("rib", "ris", collector, peer_asn, address, 100, elements)
        )
    return records


def assert_identical(left, right):
    """Atom-for-atom equality: ids, ordering, members and paths."""
    assert len(left) == len(right)
    assert left.vantage_points == right.vantage_points
    for ours, theirs in zip(left, right):
        assert ours.atom_id == theirs.atom_id
        assert ours.prefixes == theirs.prefixes
        assert ours.paths == theirs.paths


@given(snapshots())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference(records):
    snapshot = RIBSnapshot.from_records(records)
    assert_identical(
        columnar_atoms(snapshot), compute_atoms_reference(snapshot)
    )


@given(snapshots())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference_stripped(records):
    snapshot = RIBSnapshot.from_records(records)
    assert_identical(
        columnar_atoms(snapshot, strip_prepending=True),
        compute_atoms_reference(snapshot, strip_prepending=True),
    )


@given(snapshots())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference_no_expansion(records):
    snapshot = RIBSnapshot.from_records(records)
    assert_identical(
        columnar_atoms(snapshot, expand_singleton_sets=False),
        compute_atoms_reference(snapshot, expand_singleton_sets=False),
    )


@given(snapshots(), snapshots())
@settings(max_examples=30, deadline=None)
def test_shared_pool_does_not_change_results(records_a, records_b):
    """One pool across successive snapshots is result-invariant."""
    pool = PathInternPool()
    for records in (records_a, records_b):
        snapshot = RIBSnapshot.from_records(records)
        assert_identical(
            columnar_atoms(snapshot, pool=pool),
            compute_atoms_reference(snapshot),
        )


@given(snapshots())
@settings(max_examples=30, deadline=None)
def test_compute_atoms_delegates_to_kernel(records):
    snapshot = RIBSnapshot.from_records(records)
    assert_identical(compute_atoms(snapshot), compute_atoms_reference(snapshot))


def test_pool_option_mismatch_rejected():
    snapshot = RIBSnapshot.from_records([])
    pool = PathInternPool(strip_prepending=True)
    with pytest.raises(ValueError):
        columnar_atoms(snapshot, pool=pool)

"""Tests for RIB structures."""

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.bgp.rib import AdjRIBIn, RIBSnapshot
from repro.net.aspath import ASPath
from repro.net.prefix import AF_INET6, Prefix


def attrs(*asns):
    return PathAttributes(ASPath.from_asns(list(asns)))


def rib_record(collector, peer_asn, elements, timestamp=100):
    return RouteRecord(
        "rib", "ris", collector, peer_asn, f"10.0.{peer_asn % 256}.1",
        timestamp, elements,
    )


def announce(prefix, *asns):
    return RouteElement(ElementType.RIB, Prefix.parse(prefix), attrs(*asns))


class TestAdjRIBIn:
    def test_announce_withdraw(self):
        table = AdjRIBIn(("rrc00", 1, "10.0.0.1"))
        prefix = Prefix.parse("10.0.0.0/8")
        table.announce(prefix, attrs(1, 2))
        assert prefix in table and len(table) == 1
        table.withdraw(prefix)
        assert prefix not in table and len(table) == 0

    def test_withdraw_missing_is_noop(self):
        table = AdjRIBIn(("rrc00", 1, "10.0.0.1"))
        table.withdraw(Prefix.parse("10.0.0.0/8"))

    def test_reannounce_replaces(self):
        table = AdjRIBIn(("rrc00", 1, "10.0.0.1"))
        prefix = Prefix.parse("10.0.0.0/8")
        table.announce(prefix, attrs(1, 2))
        table.announce(prefix, attrs(1, 3))
        assert table.get(prefix).as_path.origin == 3


class TestRIBSnapshot:
    def test_from_records(self):
        snapshot = RIBSnapshot.from_records(
            [
                rib_record("rrc00", 1, [announce("10.0.0.0/8", 1, 9)]),
                rib_record("rrc01", 2, [announce("10.0.0.0/8", 2, 9)]),
            ]
        )
        assert len(snapshot.peers()) == 2
        assert snapshot.collectors() == {"rrc00", "rrc01"}

    def test_update_application(self):
        snapshot = RIBSnapshot()
        peer = ("rrc00", 1, "10.0.1.1")
        snapshot.apply_record(
            rib_record("rrc00", 1, [announce("10.0.0.0/8", 1, 9)], timestamp=100)
        )
        withdrawal = RouteRecord(
            "update", "ris", "rrc00", 1, "10.0.1.1", 200,
            [RouteElement(ElementType.WITHDRAWAL, Prefix.parse("10.0.0.0/8"))],
        )
        snapshot.apply_record(withdrawal)
        assert snapshot.path(peer, Prefix.parse("10.0.0.0/8")) is None
        assert snapshot.timestamp == 200

    def test_path_lookup(self):
        snapshot = RIBSnapshot.from_records(
            [rib_record("rrc00", 1, [announce("10.0.0.0/8", 1, 9)])]
        )
        peer = ("rrc00", 1, "10.0.1.1")
        assert snapshot.path(peer, Prefix.parse("10.0.0.0/8")) == ASPath.from_asns([1, 9])
        assert snapshot.path(peer, Prefix.parse("11.0.0.0/8")) is None
        assert snapshot.path(("x", 0, "y"), Prefix.parse("10.0.0.0/8")) is None

    def test_prefix_visibility(self):
        snapshot = RIBSnapshot.from_records(
            [
                rib_record("rrc00", 1, [announce("10.0.0.0/8", 1, 9)]),
                rib_record("rrc00", 2, [announce("10.0.0.0/8", 2, 9)]),
                rib_record("rrc01", 3, [announce("10.0.0.0/8", 3, 9),
                                        announce("11.0.0.0/8", 3, 9)]),
            ]
        )
        visibility = snapshot.prefix_visibility()
        collectors, peer_ases = visibility[Prefix.parse("10.0.0.0/8")]
        assert collectors == {"rrc00", "rrc01"}
        assert peer_ases == {1, 2, 3}
        collectors11, peers11 = visibility[Prefix.parse("11.0.0.0/8")]
        assert collectors11 == {"rrc01"} and peers11 == {3}

    def test_restrict_peers(self):
        snapshot = RIBSnapshot.from_records(
            [
                rib_record("rrc00", 1, [announce("10.0.0.0/8", 1, 9)]),
                rib_record("rrc00", 2, [announce("10.0.0.0/8", 2, 9)]),
            ]
        )
        keep = [("rrc00", 1, "10.0.1.1")]
        restricted = snapshot.restrict_peers(keep)
        assert restricted.peers() == keep
        # Original untouched.
        assert len(snapshot.peers()) == 2

    def test_restrict_family(self):
        snapshot = RIBSnapshot.from_records(
            [
                rib_record(
                    "rrc00", 1,
                    [announce("10.0.0.0/8", 1, 9), announce("2001:db8::/32", 1, 9)],
                )
            ]
        )
        v6_only = snapshot.restrict_family(AF_INET6)
        peer = ("rrc00", 1, "10.0.1.1")
        assert v6_only.path(peer, Prefix.parse("2001:db8::/32")) is not None
        assert v6_only.path(peer, Prefix.parse("10.0.0.0/8")) is None

    def test_prefix_count_by_peer(self):
        snapshot = RIBSnapshot.from_records(
            [
                rib_record("rrc00", 1, [announce("10.0.0.0/8", 1, 9),
                                        announce("11.0.0.0/8", 1, 9)]),
                rib_record("rrc00", 2, [announce("10.0.0.0/8", 2, 9)]),
            ]
        )
        counts = snapshot.prefix_count_by_peer()
        assert counts[("rrc00", 1, "10.0.1.1")] == 2
        assert counts[("rrc00", 2, "10.0.2.1")] == 1

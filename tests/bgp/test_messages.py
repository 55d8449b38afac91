"""Tests for route records and elements."""

import pytest

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


def announcement(prefix_text, asns=(1, 2)):
    return RouteElement(
        ElementType.ANNOUNCEMENT,
        Prefix.parse(prefix_text),
        PathAttributes(ASPath.from_asns(list(asns))),
    )


def record(elements, peer_asn=65001, timestamp=1000, record_type="update",
           collector="rrc00", warning=""):
    return RouteRecord(
        record_type,
        "ris",
        collector,
        peer_asn,
        "10.0.0.1",
        timestamp,
        elements,
        corrupt_warning=warning,
    )


class TestRouteElement:
    def test_withdrawal_needs_no_attributes(self):
        element = RouteElement(ElementType.WITHDRAWAL, Prefix.parse("10.0.0.0/8"))
        assert element.is_withdrawal
        assert element.as_path is None

    def test_announcement_requires_attributes(self):
        with pytest.raises(ValueError):
            RouteElement(ElementType.ANNOUNCEMENT, Prefix.parse("10.0.0.0/8"))

    def test_accepts_string_type(self):
        element = RouteElement("W", Prefix.parse("10.0.0.0/8"))
        assert element.element_type is ElementType.WITHDRAWAL


class TestRouteRecord:
    def test_prefix_sets(self):
        rec = record(
            [
                announcement("10.0.0.0/8"),
                announcement("11.0.0.0/8"),
                RouteElement(ElementType.WITHDRAWAL, Prefix.parse("12.0.0.0/8")),
            ]
        )
        assert rec.prefixes() == {
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("11.0.0.0/8"),
            Prefix.parse("12.0.0.0/8"),
        }
        assert rec.announced_prefixes() == {
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("11.0.0.0/8"),
        }

    def test_peer_id(self):
        rec = record([announcement("10.0.0.0/8")])
        assert rec.peer_id == ("rrc00", 65001, "10.0.0.1")

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            record([announcement("10.0.0.0/8")], record_type="bogus")

    def test_corrupt_flag(self):
        rec = record([announcement("10.0.0.0/8")], warning="Duplicate Path Attribute")
        assert rec.is_corrupt

    def test_iteration_and_len(self):
        rec = record([announcement("10.0.0.0/8"), announcement("11.0.0.0/8")])
        assert len(rec) == 2
        assert all(isinstance(e, RouteElement) for e in rec)

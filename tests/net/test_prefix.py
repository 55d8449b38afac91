"""Tests for repro.net.prefix."""

import pytest
from hypothesis import given, strategies as st

from repro.net.prefix import AF_INET, AF_INET6, Prefix, PrefixError, aggregate


class TestParsing:
    def test_parse_ipv4(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert prefix.family == AF_INET
        assert prefix.length == 24
        assert prefix.network == (192 << 24) | (0 << 16) | (2 << 8)

    def test_parse_ipv4_host(self):
        assert Prefix.parse("10.1.2.3").length == 32

    def test_parse_ipv6(self):
        prefix = Prefix.parse("2001:db8::/32")
        assert prefix.family == AF_INET6
        assert prefix.length == 32
        assert prefix.network == 0x20010DB8 << 96

    def test_parse_ipv6_full_form(self):
        prefix = Prefix.parse("2001:0db8:0000:0000:0000:0000:0000:0001/128")
        assert str(prefix) == "2001:db8::1/128"

    def test_parse_ipv6_embedded_ipv4(self):
        prefix = Prefix.parse("::ffff:192.0.2.1/128")
        assert prefix.network & 0xFFFFFFFF == (192 << 24) | (2 << 8) | 1

    def test_parse_masks_host_bits(self):
        assert Prefix.parse("192.0.2.77/24") == Prefix.parse("192.0.2.0/24")

    @pytest.mark.parametrize(
        "bad",
        [
            "300.0.0.0/8",
            "1.2.3/8",
            "1.2.3.4.5/8",
            "10.0.0.0/33",
            "2001:db8::/129",
            "2001:::db8/32",
            "01.2.3.4/8",
            "zz::/16",
            "10.0.0.0/x",
            "1.2.3.4/\u00b2",
            "1.2.3.\u00b2/32",
            "1.2.3.\u0663/32",
        ],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(PrefixError):
            Prefix.parse(bad)

    def test_constructor_rejects_host_bits(self):
        with pytest.raises(PrefixError):
            Prefix(AF_INET, 1, 24)

    def test_constructor_rejects_unknown_family(self):
        with pytest.raises(PrefixError):
            Prefix(5, 0, 0)


class TestFormatting:
    @pytest.mark.parametrize(
        "text",
        ["0.0.0.0/0", "10.0.0.0/8", "203.0.113.128/25", "255.255.255.255/32"],
    )
    def test_roundtrip_v4(self, text):
        assert str(Prefix.parse(text)) == text

    @pytest.mark.parametrize(
        "text",
        ["::/0", "2001:db8::/32", "fe80::1/128", "2001:db8:0:1::/64"],
    )
    def test_roundtrip_v6(self, text):
        assert str(Prefix.parse(text)) == text

    def test_v6_zero_compression_picks_longest_run(self):
        assert str(Prefix.parse("2001:0:0:1:0:0:0:1/128")) == "2001:0:0:1::1/128"


class TestRelations:
    def test_contains_more_specific(self):
        parent = Prefix.parse("10.0.0.0/8")
        child = Prefix.parse("10.1.0.0/16")
        assert parent.contains(child)
        assert not child.contains(parent)
        assert child in parent

    def test_contains_self(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.contains(prefix)

    def test_contains_rejects_other_family(self):
        assert not Prefix.parse("::/0").contains(Prefix.parse("0.0.0.0/0"))

    def test_overlaps(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.255.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_ordering_is_by_network_then_length(self):
        prefixes = [
            Prefix.parse("10.0.0.0/16"),
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("9.0.0.0/8"),
        ]
        ordered = sorted(prefixes)
        assert [str(p) for p in ordered] == [
            "9.0.0.0/8",
            "10.0.0.0/8",
            "10.0.0.0/16",
        ]


class TestSubdivision:
    def test_subnets_halving(self):
        halves = list(Prefix.parse("192.0.2.0/24").subnets())
        assert [str(p) for p in halves] == ["192.0.2.0/25", "192.0.2.128/25"]

    def test_subnets_to_depth(self):
        quarters = list(Prefix.parse("192.0.2.0/24").subnets(26))
        assert len(quarters) == 4
        assert str(quarters[-1]) == "192.0.2.192/26"

    def test_supernet(self):
        assert str(Prefix.parse("192.0.2.128/25").supernet()) == "192.0.2.0/24"

    def test_supernet_rejects_widening_error(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.0/8").supernet(16)

    def test_sibling(self):
        left = Prefix.parse("192.0.2.0/25")
        right = Prefix.parse("192.0.2.128/25")
        assert left.sibling() == right
        assert right.sibling() == left

    def test_sibling_of_zero_length_fails(self):
        with pytest.raises(PrefixError):
            Prefix.parse("0.0.0.0/0").sibling()

    def test_aggregate_siblings(self):
        left = Prefix.parse("192.0.2.0/25")
        assert str(aggregate(left, left.sibling())) == "192.0.2.0/24"

    def test_aggregate_non_siblings(self):
        assert aggregate(Prefix.parse("10.0.0.0/25"), Prefix.parse("10.0.1.0/25")) is None

    def test_bit_indexing(self):
        prefix = Prefix.parse("128.0.0.0/1")
        assert prefix.bit(0) == 1
        assert Prefix.parse("64.0.0.0/2").bit(1) == 1


class TestImmutability:
    def test_cannot_mutate(self):
        prefix = Prefix.parse("10.0.0.0/8")
        with pytest.raises(AttributeError):
            prefix.length = 9

    def test_hash_stable_across_equal_values(self):
        assert hash(Prefix.parse("10.0.0.0/8")) == hash(
            Prefix(AF_INET, 10 << 24, 8)
        )


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------

v4_prefixes = st.builds(
    Prefix.from_host_bits,
    st.just(AF_INET),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)
v6_prefixes = st.builds(
    Prefix.from_host_bits,
    st.just(AF_INET6),
    st.integers(min_value=0, max_value=(1 << 128) - 1),
    st.integers(min_value=0, max_value=128),
)
any_prefix = st.one_of(v4_prefixes, v6_prefixes)


@given(any_prefix)
def test_parse_format_roundtrip(prefix):
    assert Prefix.parse(str(prefix)) == prefix


@given(any_prefix)
def test_subnets_are_contained_and_disjoint(prefix):
    if prefix.length >= prefix.max_length:
        return
    left, right = prefix.subnets()
    assert prefix.contains(left) and prefix.contains(right)
    assert not left.overlaps(right)
    assert left.supernet() == prefix and right.supernet() == prefix


@given(any_prefix)
def test_sibling_is_involution(prefix):
    if prefix.length == 0:
        return
    assert prefix.sibling().sibling() == prefix
    assert aggregate(prefix, prefix.sibling()) == prefix.supernet()


@given(v4_prefixes, v4_prefixes)
def test_containment_antisymmetry(a, b):
    if a.contains(b) and b.contains(a):
        assert a == b

"""Tests for the prefix radix trie."""

import pytest
from hypothesis import given, strategies as st

from repro.net.prefix import AF_INET, Prefix
from repro.net.trie import PrefixTrie


def p(text):
    return Prefix.parse(text)


class TestBasics:
    def test_insert_get(self):
        trie = PrefixTrie(AF_INET)
        trie[p("10.0.0.0/8")] = "a"
        assert trie[p("10.0.0.0/8")] == "a"
        assert trie.get(p("11.0.0.0/8")) is None
        assert len(trie) == 1

    def test_replace_keeps_size(self):
        trie = PrefixTrie(AF_INET)
        trie[p("10.0.0.0/8")] = "a"
        trie[p("10.0.0.0/8")] = "b"
        assert len(trie) == 1 and trie[p("10.0.0.0/8")] == "b"

    def test_contains(self):
        trie = PrefixTrie(AF_INET)
        trie[p("10.0.0.0/8")] = "a"
        assert p("10.0.0.0/8") in trie
        assert p("10.0.0.0/16") not in trie  # exact match only

    def test_missing_raises_keyerror(self):
        with pytest.raises(KeyError):
            PrefixTrie(AF_INET)[p("10.0.0.0/8")]

    def test_family_mismatch_rejected(self):
        trie = PrefixTrie(AF_INET)
        with pytest.raises(ValueError):
            trie.insert(p("2001:db8::/32"), "x")

    def test_remove(self):
        trie = PrefixTrie(AF_INET)
        trie[p("10.0.0.0/8")] = "a"
        assert trie.remove(p("10.0.0.0/8")) == "a"
        assert len(trie) == 0
        with pytest.raises(KeyError):
            trie.remove(p("10.0.0.0/8"))

    def test_remove_keeps_descendants(self):
        trie = PrefixTrie(AF_INET)
        trie[p("10.0.0.0/8")] = "parent"
        trie[p("10.1.0.0/16")] = "child"
        trie.remove(p("10.0.0.0/8"))
        assert trie[p("10.1.0.0/16")] == "child"


class TestLongestMatch:
    def test_prefers_most_specific(self):
        trie = PrefixTrie(AF_INET)
        trie[p("10.0.0.0/8")] = "coarse"
        trie[p("10.1.0.0/16")] = "fine"
        match = trie.longest_match(p("10.1.2.0/24"))
        assert match == (p("10.1.0.0/16"), "fine")

    def test_falls_back_to_coarse(self):
        trie = PrefixTrie(AF_INET)
        trie[p("10.0.0.0/8")] = "coarse"
        trie[p("10.1.0.0/16")] = "fine"
        assert trie.longest_match(p("10.2.0.0/24"))[1] == "coarse"

    def test_no_match(self):
        trie = PrefixTrie(AF_INET)
        trie[p("10.0.0.0/8")] = "a"
        assert trie.longest_match(p("11.0.0.0/24")) is None

    def test_default_route_matches_everything(self):
        trie = PrefixTrie(AF_INET)
        trie[p("0.0.0.0/0")] = "default"
        assert trie.longest_match(p("203.0.113.0/24"))[1] == "default"


class TestZeroLengthPrefix:
    """The default route lives at the trie root — every operation must
    treat it as an ordinary (if zero-bit) entry."""

    DEFAULT = Prefix.from_host_bits(AF_INET, 0, 0)

    def test_insert_and_get(self):
        trie = PrefixTrie(AF_INET)
        trie[self.DEFAULT] = "default"
        assert trie[self.DEFAULT] == "default"
        assert self.DEFAULT in trie
        assert len(trie) == 1

    def test_longest_match_on_itself(self):
        trie = PrefixTrie(AF_INET)
        trie[self.DEFAULT] = "default"
        assert trie.longest_match(self.DEFAULT) == (self.DEFAULT, "default")

    def test_more_specific_wins_over_default(self):
        trie = PrefixTrie(AF_INET)
        trie[self.DEFAULT] = "default"
        trie[p("10.0.0.0/8")] = "ten"
        assert trie.longest_match(p("10.1.0.0/16"))[1] == "ten"
        assert trie.longest_match(p("192.0.2.0/24"))[1] == "default"

    def test_remove(self):
        trie = PrefixTrie(AF_INET)
        trie[self.DEFAULT] = "default"
        trie[p("10.0.0.0/8")] = "ten"
        assert trie.remove(self.DEFAULT) == "default"
        assert len(trie) == 1
        assert trie.longest_match(p("192.0.2.0/24")) is None
        assert trie[p("10.0.0.0/8")] == "ten"


class TestValuelessInteriorNodes:
    """LPM must skip interior nodes created only as branch points
    (inserting 10.0.0.0/9 and 10.128.0.0/9 materialises a valueless
    10.0.0.0/8 node)."""

    def build(self):
        trie = PrefixTrie(AF_INET)
        trie[p("10.0.0.0/9")] = "low"
        trie[p("10.128.0.0/9")] = "high"
        return trie

    def test_longest_match_skips_branch_point(self):
        trie = self.build()
        assert trie.longest_match(p("10.0.1.0/24"))[1] == "low"
        assert trie.longest_match(p("10.200.0.0/16"))[1] == "high"
        # The valueless /8 interior node must not answer for a probe
        # that only reaches it.
        assert trie.longest_match(p("10.0.0.0/8")) is None

    def test_longest_match_descends_past_removed_value(self):
        trie = PrefixTrie(AF_INET)
        trie[p("10.0.0.0/8")] = "eight"
        trie[p("10.0.0.0/16")] = "sixteen"
        trie.remove(p("10.0.0.0/8"))
        assert trie.longest_match(p("10.0.0.0/24")) == (
            p("10.0.0.0/16"),
            "sixteen",
        )
        assert trie.longest_match(p("10.5.0.0/16")) is None


class TestTraversal:
    def test_items_in_network_order(self):
        trie = PrefixTrie(AF_INET)
        for text in ("10.0.0.0/8", "9.0.0.0/8", "10.0.0.0/16"):
            trie[p(text)] = text
        assert [str(k) for k, _ in trie.items()] == [
            "9.0.0.0/8",
            "10.0.0.0/8",
            "10.0.0.0/16",
        ]

    def test_covered(self):
        trie = PrefixTrie(AF_INET)
        for text in ("10.0.0.0/8", "10.1.0.0/16", "11.0.0.0/8"):
            trie[p(text)] = text
        covered = {str(k) for k, _ in trie.covered(p("10.0.0.0/8"))}
        assert covered == {"10.0.0.0/8", "10.1.0.0/16"}


# ----------------------------------------------------------------------
# Model-based property test against a plain dict.
# ----------------------------------------------------------------------

prefix_strategy = st.builds(
    Prefix.from_host_bits,
    st.just(AF_INET),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)


@given(st.lists(st.tuples(prefix_strategy, st.integers()), max_size=40))
def test_matches_dict_model(operations):
    trie = PrefixTrie(AF_INET)
    model = {}
    for prefix, value in operations:
        trie[prefix] = value
        model[prefix] = value
    assert len(trie) == len(model)
    for prefix, value in model.items():
        assert trie[prefix] == value
    assert dict(trie.items()) == model


@given(st.lists(prefix_strategy, min_size=1, max_size=30, unique=True))
def test_longest_match_agrees_with_bruteforce(prefixes):
    trie = PrefixTrie(AF_INET)
    for prefix in prefixes:
        trie[prefix] = str(prefix)
    probe = prefixes[0]
    expected = max(
        (candidate for candidate in prefixes if candidate.contains(probe)),
        key=lambda c: c.length,
        default=None,
    )
    found = trie.longest_match(probe)
    if expected is None:
        assert found is None
    else:
        assert found[0] == expected

"""Tests for the longest-prefix-match trie."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ipv4 import IPv4Network, parse_ipv4
from repro.net.trie import PrefixTrie


def brute_force_lpm(prefixes, ip, default=None):
    """Reference LPM: scan all prefixes, pick the longest match."""
    best = default
    best_len = -1
    for net, value in prefixes:
        if net.contains(ip) and net.prefix_len > best_len:
            best = value
            best_len = net.prefix_len
    return best


class TestScalarLookup:
    def test_empty_trie(self):
        trie = PrefixTrie()
        assert trie.lookup(parse_ipv4("1.2.3.4")) is None
        assert trie.lookup(0, default="x") == "x"
        assert len(trie) == 0

    def test_basic_lpm(self):
        trie = PrefixTrie()
        trie.insert(IPv4Network.from_cidr("10.0.0.0/8"), "corp")
        trie.insert(IPv4Network.from_cidr("10.1.0.0/16"), "lab")
        assert trie.lookup(parse_ipv4("10.1.2.3")) == "lab"
        assert trie.lookup(parse_ipv4("10.2.2.3")) == "corp"
        assert trie.lookup(parse_ipv4("11.0.0.1")) is None

    def test_replace_value(self):
        trie = PrefixTrie()
        net = IPv4Network.from_cidr("10.0.0.0/8")
        trie.insert(net, "old")
        trie.insert(net, "new")
        assert trie.lookup(parse_ipv4("10.0.0.1")) == "new"
        assert len(trie) == 1

    def test_slash32(self):
        trie = PrefixTrie()
        trie.insert(IPv4Network.from_cidr("192.0.2.7/32"), "host")
        assert trie.lookup(parse_ipv4("192.0.2.7")) == "host"
        assert trie.lookup(parse_ipv4("192.0.2.8")) is None

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(IPv4Network(0, 0), "default")
        trie.insert(IPv4Network.from_cidr("10.0.0.0/8"), "ten")
        assert trie.lookup(parse_ipv4("1.1.1.1")) == "default"
        assert trie.lookup(parse_ipv4("10.9.9.9")) == "ten"

    def test_lookup_prefix(self):
        trie = PrefixTrie()
        trie.insert(IPv4Network.from_cidr("10.0.0.0/8"), "a")
        trie.insert(IPv4Network.from_cidr("10.1.0.0/16"), "b")
        assert trie.lookup_prefix(parse_ipv4("10.1.2.3")) \
            == IPv4Network.from_cidr("10.1.0.0/16")
        assert trie.lookup_prefix(parse_ipv4("10.2.2.3")) \
            == IPv4Network.from_cidr("10.0.0.0/8")
        assert trie.lookup_prefix(parse_ipv4("11.0.0.0")) is None

    def test_items_in_address_order(self):
        trie = PrefixTrie()
        nets = ["10.0.0.0/8", "9.0.0.0/8", "10.1.0.0/16"]
        for i, text in enumerate(nets):
            trie.insert(IPv4Network.from_cidr(text), i)
        listed = [str(net) for net, _ in trie.items()]
        assert listed == ["9.0.0.0/8", "10.0.0.0/8", "10.1.0.0/16"]


class TestVectorLookup:
    def test_matches_scalar(self):
        trie = PrefixTrie()
        trie.insert(IPv4Network.from_cidr("10.0.0.0/8"), "a")
        trie.insert(IPv4Network.from_cidr("10.64.0.0/10"), "b")
        trie.insert(IPv4Network.from_cidr("192.0.2.0/24"), "c")
        ips = np.array([parse_ipv4(s) for s in
                        ("10.0.0.1", "10.64.0.1", "10.128.0.1",
                         "192.0.2.9", "8.8.8.8")], dtype=np.uint32)
        assert trie.lookup_array(ips) \
            == [trie.lookup(int(ip)) for ip in ips]

    def test_default_value(self):
        trie = PrefixTrie()
        trie.insert(IPv4Network.from_cidr("10.0.0.0/8"), "a")
        out = trie.lookup_array(
            np.array([parse_ipv4("11.0.0.1")], dtype=np.uint32),
            default="miss")
        assert out == ["miss"]

    def test_empty_trie_vector(self):
        trie = PrefixTrie()
        idx = trie.lookup_index_array(np.array([1, 2], dtype=np.uint32))
        assert list(idx) == [-1, -1]

    def test_insert_invalidates_compiled_form(self):
        trie = PrefixTrie()
        trie.insert(IPv4Network.from_cidr("10.0.0.0/8"), "a")
        ips = np.array([parse_ipv4("10.0.0.1")], dtype=np.uint32)
        assert trie.lookup_array(ips) == ["a"]
        trie.insert(IPv4Network.from_cidr("10.0.0.0/16"), "b")
        assert trie.lookup_array(ips) == ["b"]

    def test_lookup_during_a_compile_sees_a_whole_table(self):
        """A lookup that runs while another compile of the same trie
        is part-way through publishing its table (as when shard worlds
        sharing one topology look it up from several threads) answers
        from a complete table: here the lookup runs after each
        attribute the compile assigns."""
        compiled = ("_starts", "_ends", "_value_idx", "_values")
        ips = np.array([parse_ipv4(s) for s in
                        ("10.0.0.1", "10.64.0.1", "192.0.2.9", "8.8.8.8")],
                       dtype=np.uint32)
        seen = []

        class PeekingTrie(PrefixTrie):
            peek = False

            def __setattr__(self, name, value):
                super().__setattr__(name, value)
                if name in compiled and self.peek:
                    self.peek = False
                    try:
                        seen.append(self.lookup_array(ips, default="-"))
                    finally:
                        self.peek = True

        trie = PeekingTrie()
        trie.insert(IPv4Network.from_cidr("10.0.0.0/8"), "a")
        trie.insert(IPv4Network.from_cidr("10.64.0.0/10"), "b")
        trie.insert(IPv4Network.from_cidr("192.0.2.0/24"), "c")
        trie.peek = True
        assert trie.lookup_array(ips, default="-") == ["a", "b", "c", "-"]
        assert len(seen) == 4
        assert seen == [["a", "b", "c", "-"]] * 4

    def test_full_space_boundaries(self):
        trie = PrefixTrie()
        trie.insert(IPv4Network.from_cidr("0.0.0.0/1"), "low")
        trie.insert(IPv4Network.from_cidr("128.0.0.0/1"), "high")
        ips = np.array([0, 2**31 - 1, 2**31, 2**32 - 1], dtype=np.uint32)
        assert trie.lookup_array(ips) == ["low", "low", "high", "high"]


@st.composite
def prefix_sets(draw):
    count = draw(st.integers(1, 12))
    prefixes = []
    for i in range(count):
        addr = draw(st.integers(0, 2**32 - 1))
        length = draw(st.integers(0, 32))
        prefixes.append((IPv4Network(addr, length), i))
    return prefixes


class TestPropertyBased:
    @given(prefix_sets(), st.lists(st.integers(0, 2**32 - 1),
                                   min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_lpm_matches_brute_force(self, prefixes, ips):
        trie = PrefixTrie()
        # Later inserts win on duplicates, as the brute force assumes the
        # last value for a repeated prefix.
        seen = {}
        for net, value in prefixes:
            trie.insert(net, value)
            seen[net.key()] = value
        unique = [(IPv4Network(a, l), v) for (a, l), v in seen.items()]
        for ip in ips:
            assert trie.lookup(ip) == brute_force_lpm(unique, ip)

    @given(prefix_sets(), st.lists(st.integers(0, 2**32 - 1),
                                   min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_vector_matches_scalar(self, prefixes, ips):
        trie = PrefixTrie()
        for net, value in prefixes:
            trie.insert(net, value)
        arr = np.array(ips, dtype=np.uint32)
        assert trie.lookup_array(arr) == [trie.lookup(ip) for ip in ips]

"""Longest-prefix-match radix trie over IPv4 prefixes.

This plays the role of the routing-table snapshot and the GeoIP database in
the paper: mapping an IP address to its most specific covering prefix's
value (an AS, a country, a policy...).

The trie supports fast scalar lookups and can be *compiled* into a sorted
interval table for vectorized lookups over numpy arrays, which is how the
simulator attributes hundreds of thousands of hosts to ASes and countries
in one shot.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.net.ipv4 import IPv4Network


class _Node:
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_Node"]] = [None, None]
        self.value: Any = None
        self.has_value = False


class PrefixTrie:
    """A binary radix trie mapping CIDR prefixes to values.

    >>> trie = PrefixTrie()
    >>> trie.insert(IPv4Network.from_cidr("10.0.0.0/8"), "corp")
    >>> trie.insert(IPv4Network.from_cidr("10.1.0.0/16"), "lab")
    >>> trie.lookup(parse_ipv4("10.1.2.3"))
    'lab'
    """

    def __init__(self) -> None:
        self._root = _Node()
        self._size = 0
        # Compiled interval table (lazily rebuilt after mutation).
        self._starts: Optional[np.ndarray] = None
        self._ends: Optional[np.ndarray] = None
        self._values: List[Any] = []
        self._value_idx: Optional[np.ndarray] = None
        # Bumped on every mutation so callers caching derived structures
        # (e.g. GeoIPDatabase's translation tables) can invalidate.
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever the trie's content does."""
        return self._version

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, network: IPv4Network, value: Any) -> None:
        """Associate ``value`` with ``network``.

        Inserting the same prefix twice replaces the value.
        """
        node = self._root
        for depth in range(network.prefix_len):
            bit = (network.address >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True
        self._starts = None  # invalidate compiled form
        self._version += 1

    # ------------------------------------------------------------------
    # Scalar lookup
    # ------------------------------------------------------------------

    def lookup(self, ip: int, default: Any = None) -> Any:
        """The value of the longest prefix covering ``ip``."""
        ip = int(ip)
        node = self._root
        best = node.value if node.has_value else default
        for depth in range(32):
            bit = (ip >> (31 - depth)) & 1
            node = node.children[bit]  # type: ignore[assignment]
            if node is None:
                break
            if node.has_value:
                best = node.value
        return best

    def lookup_prefix(self, ip: int) -> Optional[IPv4Network]:
        """The longest matching prefix itself (not its value)."""
        ip = int(ip)
        node = self._root
        best_len = 0 if node.has_value else -1
        for depth in range(32):
            bit = (ip >> (31 - depth)) & 1
            node = node.children[bit]  # type: ignore[assignment]
            if node is None:
                break
            if node.has_value:
                best_len = depth + 1
        if best_len < 0:
            return None
        return IPv4Network(ip, best_len)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[IPv4Network, Any]]:
        """Yield all (prefix, value) pairs in address order."""

        def walk(node: _Node, base: int, depth: int):
            if node.has_value:
                yield IPv4Network(base, depth), node.value
            for bit in (0, 1):
                child = node.children[bit]
                if child is not None:
                    child_base = base | (bit << (31 - depth))
                    yield from walk(child, child_base, depth + 1)

        yield from walk(self._root, 0, 0)

    # ------------------------------------------------------------------
    # Vectorized lookup via compiled interval table
    # ------------------------------------------------------------------

    def _compile(self) -> None:
        """Flatten the trie into disjoint [start, end] → value intervals.

        ``_starts`` marks the table compiled, so it is assigned last:
        threads may look up a fresh trie at once (the shard worlds of
        one sharded world share their topology), and one that finds
        ``_starts`` set while another is still compiling must find the
        rest of the table set too.  Every compile of an unchanged trie
        yields equal arrays, so two threads compiling at once agree.
        """
        starts: List[int] = []
        ends: List[int] = []
        value_idx: List[int] = []
        values: List[Any] = []
        value_ids: dict = {}

        def value_id(value: Any) -> int:
            key = id(value) if not _hashable(value) else ("v", value)
            if key not in value_ids:
                value_ids[key] = len(values)
                values.append(value)
            return value_ids[key]

        def emit(start: int, end: int, value: Any) -> None:
            vid = value_id(value)
            # Merge with the previous interval when contiguous + same value.
            if starts and value_idx[-1] == vid and ends[-1] == start - 1:
                ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
                value_idx.append(vid)

        def walk(node: _Node, base: int, depth: int, inherited: Any,
                 has_inherited: bool) -> None:
            effective = node.value if node.has_value else inherited
            has_effective = node.has_value or has_inherited
            if node.children[0] is None and node.children[1] is None:
                if has_effective:
                    emit(base, base + (1 << (32 - depth)) - 1, effective)
                return
            half = 1 << (31 - depth)
            for bit in (0, 1):
                child_base = base + bit * half
                child = node.children[bit]
                if child is None:
                    if has_effective:
                        emit(child_base, child_base + half - 1, effective)
                else:
                    walk(child, child_base, depth + 1,
                         effective, has_effective)

        walk(self._root, 0, 0, None, False)
        self._ends = np.array(ends, dtype=np.uint32)
        self._value_idx = np.array(value_idx, dtype=np.int64)
        self._values = values
        self._starts = np.array(starts, dtype=np.uint32)

    def lookup_array(self, ips: np.ndarray, default: Any = None) -> list:
        """Longest-prefix-match values for a uint32 array of addresses."""
        idx = self.lookup_index_array(ips)
        return [self._values[i] if i >= 0 else default for i in idx]

    def lookup_index_array(self, ips: np.ndarray) -> np.ndarray:
        """Vectorized LPM returning indices into :meth:`compiled_values`.

        Addresses covered by no prefix map to -1.
        """
        if self._starts is None:
            self._compile()
        assert self._starts is not None and self._ends is not None
        assert self._value_idx is not None
        ips = np.asarray(ips, dtype=np.uint32)
        if len(self._starts) == 0:
            return np.full(ips.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self._starts, ips, side="right") - 1
        pos_clipped = np.clip(pos, 0, len(self._starts) - 1)
        inside = (pos >= 0) & (ips <= self._ends[pos_clipped])
        out = np.where(inside, self._value_idx[pos_clipped], -1)
        return out.astype(np.int64)

    def compiled_values(self) -> list:
        """The value table referenced by :meth:`lookup_index_array`."""
        if self._starts is None:
            self._compile()
        return list(self._values)


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True

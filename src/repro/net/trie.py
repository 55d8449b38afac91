"""A binary radix trie keyed by IP prefixes.

Used by the RIB implementation for longest-prefix match and by the
addressing allocator to track free space.  One trie holds one address
family; mixing families raises immediately rather than silently
misordering bits.
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.net.prefix import Prefix

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_Node[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Map from :class:`Prefix` to arbitrary values with LPM support."""

    def __init__(self, family: int):
        self.family = family
        self._root: _Node[V] = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def _check_family(self, prefix: Prefix) -> None:
        if prefix.family != self.family:
            raise ValueError(
                f"prefix family {prefix.family} does not match trie family {self.family}"
            )

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value at ``prefix``."""
        self._check_family(prefix)
        node = self._root
        for position in range(prefix.length):
            bit = prefix.bit(position)
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def __setitem__(self, prefix: Prefix, value: V) -> None:
        self.insert(prefix, value)

    def _find(self, prefix: Prefix) -> Optional[_Node[V]]:
        node = self._root
        for position in range(prefix.length):
            node = node.children[prefix.bit(position)]  # type: ignore[assignment]
            if node is None:
                return None
        return node

    def get(self, prefix: Prefix, default: Optional[V] = None) -> Optional[V]:
        """Exact-match lookup."""
        self._check_family(prefix)
        node = self._find(prefix)
        if node is not None and node.has_value:
            return node.value
        return default

    def __getitem__(self, prefix: Prefix) -> V:
        self._check_family(prefix)
        node = self._find(prefix)
        if node is None or not node.has_value:
            raise KeyError(prefix)
        return node.value  # type: ignore[return-value]

    def __contains__(self, prefix: Prefix) -> bool:
        self._check_family(prefix)
        node = self._find(prefix)
        return node is not None and node.has_value

    def remove(self, prefix: Prefix) -> V:
        """Remove and return the value at ``prefix``; KeyError if absent.

        Interior nodes left childless are pruned so memory tracks the
        live entry count.
        """
        self._check_family(prefix)
        path: List[Tuple[_Node[V], int]] = []
        node = self._root
        for position in range(prefix.length):
            bit = prefix.bit(position)
            child = node.children[bit]
            if child is None:
                raise KeyError(prefix)
            path.append((node, bit))
            node = child
        if not node.has_value:
            raise KeyError(prefix)
        value = node.value
        node.value = None
        node.has_value = False
        self._size -= 1
        # Prune empty leaves upward.
        while path and not node.has_value and node.children == [None, None]:
            parent, bit = path.pop()
            parent.children[bit] = None
            node = parent
        return value  # type: ignore[return-value]

    def longest_match(self, prefix: Prefix) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix match: the most specific stored covering prefix."""
        self._check_family(prefix)
        node = self._root
        best: Optional[Tuple[int, V]] = None
        if node.has_value:
            best = (0, node.value)  # type: ignore[arg-type]
        for position in range(prefix.length):
            node = node.children[prefix.bit(position)]  # type: ignore[assignment]
            if node is None:
                break
            if node.has_value:
                best = (position + 1, node.value)  # type: ignore[arg-type]
        if best is None:
            return None
        length, value = best
        matched = Prefix.from_host_bits(prefix.family, prefix.network, length)
        return matched, value

    def covered(self, prefix: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """Yield stored (prefix, value) pairs at or below ``prefix``."""
        self._check_family(prefix)
        node = self._find(prefix)
        if node is None:
            return
        yield from self._walk(node, prefix.network, prefix.length)

    def _walk(self, node: _Node[V], network: int, length: int) -> Iterator[Tuple[Prefix, V]]:
        if node.has_value:
            yield (
                Prefix.from_host_bits(self.family, network, length),
                node.value,  # type: ignore[misc]
            )
        max_bits = 32 if self.family == 4 else 128
        if length >= max_bits:
            return
        for bit in (0, 1):
            child = node.children[bit]
            if child is not None:
                child_network = network | (bit << (max_bits - length - 1))
                yield from self._walk(child, child_network, length + 1)

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Yield all (prefix, value) pairs in network order."""
        yield from self._walk(self._root, 0, 0)

    def keys(self) -> Iterator[Prefix]:
        """Stored prefixes in network order."""
        for prefix, _ in self.items():
            yield prefix

    def values(self) -> Iterator[V]:
        """Stored values in network order."""
        for _, value in self.items():
            yield value

"""IP prefix representation for IPv4 and IPv6.

A :class:`Prefix` is an immutable (address-family, network-integer, length)
triple.  The integer form keeps containment and aggregation checks cheap.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional, Tuple

AF_INET = 4
AF_INET6 = 6

_V4_BITS = 32
_V6_BITS = 128
_V4_MAX = (1 << _V4_BITS) - 1
_V6_MAX = (1 << _V6_BITS) - 1


class PrefixError(ValueError):
    """Raised when a prefix string or component is malformed."""


def _parse_v4(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise PrefixError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        # ASCII only: isdigit() also passes "²", which int() rejects,
        # and "٣", which int() reads as 3
        if not (part.isascii() and part.isdigit()) or (
            len(part) > 1 and part[0] == "0"
        ):
            raise PrefixError(f"invalid IPv4 octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise PrefixError(f"IPv4 octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def _format_v4(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def _parse_v6(text: str) -> int:
    """Parse an IPv6 address into a 128-bit integer.

    Supports `::` compression and embedded IPv4 tails; rejects anything
    else malformed.  Implemented directly (rather than via ``ipaddress``)
    to keep this module dependency-free and the error type uniform.
    """
    if text.count("::") > 1:
        raise PrefixError(f"multiple '::' in {text!r}")
    if "." in text:
        # Embedded IPv4 tail, e.g. ::ffff:192.0.2.1
        head, _, tail = text.rpartition(":")
        v4 = _parse_v4(tail)
        text = "{}:{:x}:{:x}".format(head, (v4 >> 16) & 0xFFFF, v4 & 0xFFFF)
        if text.startswith(":") and not text.startswith("::"):
            raise PrefixError("invalid IPv6 with v4 tail")

    if "::" in text:
        head_text, tail_text = text.split("::")
        head = head_text.split(":") if head_text else []
        tail = tail_text.split(":") if tail_text else []
        missing = 8 - len(head) - len(tail)
        if missing < 1:
            raise PrefixError(f"'::' expands to nothing in {text!r}")
        groups = head + ["0"] * missing + tail
    else:
        groups = text.split(":")
        if len(groups) != 8:
            raise PrefixError(f"IPv6 address needs 8 groups: {text!r}")

    value = 0
    for group in groups:
        if not group or len(group) > 4:
            raise PrefixError(f"invalid IPv6 group {group!r} in {text!r}")
        try:
            part = int(group, 16)
        except ValueError:
            raise PrefixError(f"invalid IPv6 group {group!r} in {text!r}") from None
        value = (value << 16) | part
    return value


def _format_v6(value: int) -> str:
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -16, -16)]
    # Find the longest run of zero groups to compress with '::'.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for index, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start = index
                run_len = 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(f"{g:x}" for g in groups)
    head = ":".join(f"{g:x}" for g in groups[:best_start])
    tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
    return f"{head}::{tail}"


class Prefix:
    """An immutable IP prefix such as ``192.0.2.0/24`` or ``2001:db8::/32``.

    Instances are hashable, totally ordered (by family, network, length),
    and cached via :meth:`parse` so repeated parsing of the same string is
    cheap inside tight analysis loops.
    """

    __slots__ = ("family", "network", "length", "_hash")

    def __init__(self, family: int, network: int, length: int):
        if family == AF_INET:
            max_bits, max_value = _V4_BITS, _V4_MAX
        elif family == AF_INET6:
            max_bits, max_value = _V6_BITS, _V6_MAX
        else:
            raise PrefixError(f"unknown address family {family!r}")
        if not 0 <= length <= max_bits:
            raise PrefixError(f"prefix length {length} out of range for family {family}")
        if not 0 <= network <= max_value:
            raise PrefixError("network integer out of range")
        host_bits = max_bits - length
        if host_bits and network & ((1 << host_bits) - 1):
            raise PrefixError(
                f"host bits set in network {network:#x}/{length} (family {family})"
            )
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "_hash", hash((family, network, length)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Prefix is immutable")

    def __reduce__(self) -> Tuple[type, Tuple[int, int, int]]:
        # __slots__ plus the raising __setattr__ breaks default pickling;
        # rebuild through the constructor instead.
        return (Prefix, (self.family, self.network, self.length))

    @classmethod
    @lru_cache(maxsize=1 << 20)
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` or ``"x:y::/len"`` into a Prefix."""
        address, sep, length_text = text.partition("/")
        if ":" in address:
            family, bits = AF_INET6, _V6_BITS
            value = _parse_v6(address)
        else:
            family, bits = AF_INET, _V4_BITS
            value = _parse_v4(address)
        if sep:
            if not (length_text.isascii() and length_text.isdigit()):
                raise PrefixError(f"invalid prefix length in {text!r}")
            length = int(length_text)
        else:
            length = bits
        host_bits = bits - length
        if host_bits < 0:
            raise PrefixError(f"prefix length {length} too long in {text!r}")
        if host_bits:
            value &= ~((1 << host_bits) - 1)
        return cls(family, value, length)

    @classmethod
    def from_host_bits(cls, family: int, network: int, length: int) -> "Prefix":
        """Build a prefix, silently masking any stray host bits."""
        bits = _V4_BITS if family == AF_INET else _V6_BITS
        host_bits = bits - length
        if host_bits:
            network &= ~((1 << host_bits) - 1)
        return cls(family, network, length)

    @property
    def max_length(self) -> int:
        return _V4_BITS if self.family == AF_INET else _V6_BITS

    def bit(self, position: int) -> int:
        """Return bit ``position`` (0 = most significant) of the network."""
        return (self.network >> (self.max_length - 1 - position)) & 1

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        if self.family != other.family or other.length < self.length:
            return False
        shift = self.max_length - self.length
        return (self.network >> shift) == (other.network >> shift)

    def overlaps(self, other: "Prefix") -> bool:
        """True if either prefix contains the other."""
        return self.contains(other) or other.contains(self)

    def supernet(self, new_length: Optional[int] = None) -> "Prefix":
        """Return the covering prefix of ``new_length`` (default: length-1)."""
        length = self.length - 1 if new_length is None else new_length
        if not 0 <= length <= self.length:
            raise PrefixError(f"cannot widen /{self.length} to /{length}")
        return Prefix.from_host_bits(self.family, self.network, length)

    def subnets(self, new_length: Optional[int] = None) -> Iterator["Prefix"]:
        """Yield the subdivisions of this prefix at ``new_length``."""
        length = self.length + 1 if new_length is None else new_length
        if length < self.length or length > self.max_length:
            raise PrefixError(f"cannot split /{self.length} into /{length}")
        count = 1 << (length - self.length)
        step = 1 << (self.max_length - length)
        for index in range(count):
            yield Prefix(self.family, self.network + index * step, length)

    def sibling(self) -> "Prefix":
        """Return the other half of this prefix's parent."""
        if self.length == 0:
            raise PrefixError("/0 has no sibling")
        flip = 1 << (self.max_length - self.length)
        return Prefix(self.family, self.network ^ flip, self.length)

    def key(self) -> Tuple[int, int, int]:
        """Sort/hash key: (family, network, length)."""
        return (self.family, self.network, self.length)

    def __contains__(self, other: object) -> bool:
        return isinstance(other, Prefix) and self.contains(other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Prefix)
            and self.family == other.family
            and self.network == other.network
            and self.length == other.length
        )

    def __lt__(self, other: "Prefix") -> bool:
        return self.key() < other.key()

    def __le__(self, other: "Prefix") -> bool:
        return self.key() <= other.key()

    def __gt__(self, other: "Prefix") -> bool:
        return self.key() > other.key()

    def __ge__(self, other: "Prefix") -> bool:
        return self.key() >= other.key()

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.family == AF_INET:
            return f"{_format_v4(self.network)}/{self.length}"
        return f"{_format_v6(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"


def aggregate(first: Prefix, second: Prefix) -> Optional[Prefix]:
    """Merge two sibling prefixes into their parent, or return None.

    ``192.0.2.0/25`` + ``192.0.2.128/25`` -> ``192.0.2.0/24``.
    """
    if (
        first.family != second.family
        or first.length != second.length
        or first.length == 0
    ):
        return None
    if first.sibling() == second:
        return first.supernet()
    return None

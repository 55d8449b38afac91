"""Route records and elements — the unit of BGP data exchange.

Mirrors the BGPStream data model:

* a :class:`RouteRecord` corresponds to one MRT record — either a chunk
  of a RIB dump or a single BGP UPDATE message from one peer;
* a :class:`RouteElement` is one per-prefix observation inside a record.

The update-correlation analysis (paper §3.3) operates on records: the
prefix set of an UPDATE record is exactly the NLRI that one peer packed
into one message, which is why prefixes sharing a policy tend to appear
in the same record.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, Optional, Set, Tuple

from repro.bgp.attributes import PathAttributes
from repro.net.prefix import Prefix


class ElementType(str, Enum):
    """The kind of one route element."""

    RIB = "R"
    ANNOUNCEMENT = "A"
    WITHDRAWAL = "W"


class RouteElement:
    """One prefix observation from one peer.

    Withdrawals carry ``attributes=None``; RIB entries and announcements
    always carry a full attribute bundle.
    """

    __slots__ = ("element_type", "prefix", "attributes")

    def __init__(
        self,
        element_type: ElementType,
        prefix: Prefix,
        attributes: Optional[PathAttributes] = None,
    ):
        if not isinstance(element_type, ElementType):
            element_type = ElementType(element_type)
        if element_type is not ElementType.WITHDRAWAL and attributes is None:
            raise ValueError(f"{element_type.value} element requires attributes")
        object.__setattr__(self, "element_type", element_type)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "attributes", attributes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RouteElement is immutable")

    def __reduce__(
        self,
    ) -> Tuple[type, Tuple[ElementType, Prefix, Optional[PathAttributes]]]:
        return (RouteElement, (self.element_type, self.prefix, self.attributes))

    @property
    def is_withdrawal(self) -> bool:
        return self.element_type == ElementType.WITHDRAWAL

    @property
    def as_path(self):
        return self.attributes.as_path if self.attributes else None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RouteElement)
            and self.element_type == other.element_type
            and self.prefix == other.prefix
            and self.attributes == other.attributes
        )

    def __hash__(self) -> int:
        return hash((self.element_type, self.prefix, self.attributes))

    def __repr__(self) -> str:
        return (
            f"RouteElement({self.element_type.value}, {self.prefix}, "
            f"{self.attributes!r})"
        )


class RouteRecord:
    """One MRT-style record: a batch of elements from one peer at one time.

    Attributes
    ----------
    record_type:
        ``"rib"`` or ``"update"`` — matching BGPStream's record types.
    project / collector:
        e.g. ``"ris"`` / ``"rrc00"`` or ``"routeviews"`` / ``"route-views2"``.
    peer_asn / peer_address:
        The BGP peer that sent the data to the collector.
    timestamp:
        Seconds since the epoch (UTC) of the record.
    elements:
        The per-prefix observations packed into this record.
    corrupt_warning:
        Non-empty when the collector failed to fully parse the source MRT
        data (ADD-PATH incompatibilities etc.); the sanitizer keys off it.
    """

    __slots__ = (
        "record_type",
        "project",
        "collector",
        "peer_asn",
        "peer_address",
        "timestamp",
        "elements",
        "corrupt_warning",
    )

    def __init__(
        self,
        record_type: str,
        project: str,
        collector: str,
        peer_asn: int,
        peer_address: str,
        timestamp: int,
        elements: Iterable[RouteElement],
        corrupt_warning: str = "",
    ):
        if record_type not in ("rib", "update"):
            raise ValueError(f"unknown record type {record_type!r}")
        object.__setattr__(self, "record_type", record_type)
        object.__setattr__(self, "project", project)
        object.__setattr__(self, "collector", collector)
        object.__setattr__(self, "peer_asn", peer_asn)
        object.__setattr__(self, "peer_address", peer_address)
        object.__setattr__(self, "timestamp", int(timestamp))
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "corrupt_warning", corrupt_warning)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RouteRecord is immutable")

    def __reduce__(self) -> Tuple[type, Tuple]:
        return (
            RouteRecord,
            (
                self.record_type,
                self.project,
                self.collector,
                self.peer_asn,
                self.peer_address,
                self.timestamp,
                self.elements,
                self.corrupt_warning,
            ),
        )

    @property
    def peer_id(self) -> Tuple[str, int, str]:
        """Identity of the feed: (collector, peer ASN, peer address)."""
        return (self.collector, self.peer_asn, self.peer_address)

    @property
    def is_corrupt(self) -> bool:
        return bool(self.corrupt_warning)

    def prefixes(self) -> Set[Prefix]:
        """The set of prefixes inside this record (``Prefix(r)`` in §3.3)."""
        return {element.prefix for element in self.elements}

    def announced_prefixes(self) -> Set[Prefix]:
        """Prefixes announced (non-withdrawal) in this record."""
        return {
            element.prefix
            for element in self.elements
            if element.element_type != ElementType.WITHDRAWAL
        }

    def __iter__(self) -> Iterator[RouteElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return (
            f"RouteRecord({self.record_type}, {self.collector}, "
            f"peer=AS{self.peer_asn}, t={self.timestamp}, "
            f"{len(self.elements)} elements)"
        )

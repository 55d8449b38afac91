"""BGP substrate: path attributes, route records, and RIB tables.

This package models the data plane of a BGP collection infrastructure the
way MRT dumps and BGPStream expose it: *elements* (one prefix observation
from one peer) grouped into *records* (one on-the-wire message or one RIB
dump chunk).
"""

from repro.bgp.attributes import Community, PathAttributes
from repro.bgp.errors import BGPError, CorruptRecordError
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.bgp.rib import AdjRIBIn, RIBSnapshot

__all__ = [
    "AdjRIBIn",
    "BGPError",
    "Community",
    "CorruptRecordError",
    "ElementType",
    "PathAttributes",
    "RIBSnapshot",
    "RouteElement",
    "RouteRecord",
]

"""Network primitives: prefixes, AS numbers and AS paths.

These are the lowest-level building blocks shared by the BGP substrate,
the topology simulator, and the policy-atom pipeline.  Everything here is
pure data with no I/O.
"""

from repro.net.asn import PRIVATE_ASN_RANGES, is_private_asn, validate_asn
from repro.net.aspath import AS_TRANS, ASPath, PathSegment, SegmentType
from repro.net.prefix import AF_INET, AF_INET6, Prefix, PrefixError

__all__ = [
    "AF_INET",
    "AF_INET6",
    "AS_TRANS",
    "ASPath",
    "PRIVATE_ASN_RANGES",
    "PathSegment",
    "Prefix",
    "PrefixError",
    "SegmentType",
    "is_private_asn",
    "validate_asn",
]

"""Autonomous System Number utilities.

ASNs are plain ``int`` throughout the library; this module centralises the
range classification rules (IANA registry) used by the sanitization pipeline
to spot misconfigured peers (e.g. the AS65000 case in the paper's A8.3.2).
"""

from __future__ import annotations

from typing import Tuple

ASN_MAX = (1 << 32) - 1

#: (low, high) inclusive ranges reserved for private use (RFC 6996).
PRIVATE_ASN_RANGES: Tuple[Tuple[int, int], ...] = (
    (64512, 65534),
    (4200000000, 4294967294),
)


def validate_asn(asn: int) -> int:
    """Return ``asn`` unchanged if it is a syntactically valid ASN.

    Raises ``ValueError`` otherwise.  Zero is rejected because it is
    reserved (RFC 7607) and never legitimately appears in an AS path.
    This sits on the hot path of path construction, so the common case
    is a single exact-type check plus a range comparison.
    """
    if asn.__class__ is int and 1 <= asn <= ASN_MAX:
        return asn
    raise ValueError(f"ASN must be an int in 1..{ASN_MAX}, got {asn!r}")


def is_private_asn(asn: int) -> bool:
    """True for RFC 6996 private-use ASNs (e.g. 65000)."""
    return any(low <= asn <= high for low, high in PRIVATE_ASN_RANGES)

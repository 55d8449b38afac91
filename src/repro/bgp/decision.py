"""The BGP best-path decision process (RFC 4271 §9.1, abridged).

A reusable route comparator for consumers that hold several candidate
routes for one prefix (e.g. replaying collector data where multiple
peers offer paths, or extending the simulator with per-router RIBs).

Steps implemented, in order:

1. highest LOCAL_PREF;
2. shortest AS path (AS_SETs count as one hop);
3. lowest ORIGIN (IGP < EGP < INCOMPLETE);
4. lowest MED (compared only between routes from the same neighbor AS,
   per the RFC's default; ``always_compare_med`` relaxes that);
5. lowest neighbor ASN (deterministic stand-in for the router-ID
   tie-break).

Routes whose AS path contains the deciding AS are rejected up front
(loop prevention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.bgp.attributes import PathAttributes


@dataclass(frozen=True)
class CandidateRoute:
    """One candidate: who offered it and with what attributes."""

    neighbor_asn: int
    attributes: PathAttributes

    @property
    def local_pref(self) -> int:
        return self.attributes.local_pref

    @property
    def path_length(self) -> int:
        return self.attributes.as_path.hop_count()


def _comparison_key(route: CandidateRoute) -> Tuple:
    return (
        -route.local_pref,
        route.path_length,
        int(route.attributes.origin),
        route.neighbor_asn,
    )


def best_route(
    candidates: Iterable[CandidateRoute],
    local_asn: Optional[int] = None,
    always_compare_med: bool = False,
) -> Optional[CandidateRoute]:
    """Select the best route, or None when no candidate is usable.

    ``local_asn`` enables loop rejection: candidates whose AS path
    already contains the deciding AS are discarded.
    """
    usable: List[CandidateRoute] = []
    for candidate in candidates:
        if local_asn is not None and candidate.attributes.as_path.contains_asn(
            local_asn
        ):
            continue
        usable.append(candidate)
    if not usable:
        return None

    usable.sort(key=_comparison_key)
    # MED applies after local-pref/length/origin, among the leading
    # group, and by default only between same-neighbor-AS routes.
    leader = usable[0]
    leading = [
        route
        for route in usable
        if _comparison_key(route)[:3] == _comparison_key(leader)[:3]
    ]
    if len(leading) == 1:
        return leading[0]

    if always_compare_med:
        leading.sort(key=lambda route: (route.attributes.med, route.neighbor_asn))
        return leading[0]

    # Default MED semantics: compare within same-first-AS groups, then
    # fall back to the neighbor-ASN tie-break across groups.
    by_first_as = {}
    for route in leading:
        by_first_as.setdefault(route.attributes.as_path.peer, []).append(route)
    finalists = []
    for group in by_first_as.values():
        group.sort(key=lambda route: (route.attributes.med, route.neighbor_asn))
        finalists.append(group[0])
    finalists.sort(key=lambda route: route.neighbor_asn)
    return finalists[0]


def rank_routes(
    candidates: Sequence[CandidateRoute],
    local_asn: Optional[int] = None,
) -> List[CandidateRoute]:
    """All usable candidates, best first (repeated best_route removal)."""
    remaining = list(candidates)
    ranked: List[CandidateRoute] = []
    while remaining:
        best = best_route(remaining, local_asn=local_asn)
        if best is None:
            break
        ranked.append(best)
        remaining.remove(best)
    return ranked

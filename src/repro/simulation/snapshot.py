"""Render the world's routing state into collector RIB records.

For every collector peer (vantage point), the renderer asks the
propagation engine for the routes the peer's AS selected, expands policy
units into per-prefix table entries, resolves MOAS conflicts by route
preference, applies partial-feed subsetting, and injects the configured
data artifacts.  The output is a stream of ``RouteRecord`` objects — the
same shape a BGPStream RIB dump would yield.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bgp.attributes import Community, PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.bgp.rib import RIBSnapshot
from repro.net.aspath import ASPath
from repro.net.prefix import AF_INET, Prefix
from repro.obs import get_tracer
from repro.simulation import artifacts as art
from repro.simulation.routing import Route, RouteSource
from repro.topology.world import PeerSpec, World
from repro.util.determinism import derive_rng

#: RIB records pack roughly this many elements per record, like MRT
#: table-dump chunks.
RIB_RECORD_CHUNK = 1000


def _vp_tables(
    world: World,
    engine: RouteSource,
    family: int,
) -> Dict[int, Dict[Prefix, Tuple[Route, Optional[Community]]]]:
    """Best route per (vantage-point AS, prefix), MOAS resolved."""
    targets = frozenset(world.layout.vantage_asns())
    tables: Dict[int, Dict[Prefix, Tuple[Route, Optional[Community]]]] = defaultdict(dict)
    for policy in world.origins(family).values():
        routes = engine.routes(policy, targets)
        if not routes:
            continue
        unit_by_id = {unit.unit_id: unit for unit in policy.units}
        for vp_asn, unit_routes in routes.items():
            table = tables[vp_asn]
            for unit_id, route in unit_routes.items():
                unit = unit_by_id.get(unit_id)
                if unit is None:
                    continue
                for prefix in unit.prefixes:
                    current = table.get(prefix)
                    if current is None or route.rank() < current[0].rank():
                        table[prefix] = (route, unit.tag)
    return tables


class RenderMemo:
    """The attribute bundles that several renders share.

    A quarter's snapshots render mostly the same routes, so each
    (peer ASN, table path, TE tag) becomes one :class:`PathAttributes`
    and one :class:`ASPath`, whichever render meets it first.  Bundles
    are immutable and every consumer compares them by value, so sharing
    changes no record; it lets identity short-circuit equality in
    sanitize, the RIB tables and the atom kernel.  Per-prefix mutations
    (AS_SET tails, artifact corruption) are never memoised.
    ``attributes_built`` counts every bundle the renders built.

    Whoever creates a memo drops it with the renders it serves (one
    snapshot suite), so it never grows past one quarter's routes.
    """

    __slots__ = ("bundles", "attributes_built")

    def __init__(self) -> None:
        #: peer ASN -> {(table path, tag): bundle}
        self.bundles: Dict[
            int,
            Dict[Tuple[Tuple[int, ...], Optional[Community]], PathAttributes],
        ] = {}
        self.attributes_built = 0


class _AttributeFactory:
    """Builds RIB elements for one peer, sharing attribute objects.

    Most prefixes of a unit share the same recorded path, so the
    ``PathAttributes`` bundle comes from the memo's entry for this
    peer's (path, tag); per-prefix mutations bypass the memo.
    """

    def __init__(self, peer: PeerSpec, world: World, when: int,
                 memo: RenderMemo):
        self.peer = peer
        self.world = world
        self.when = when
        self.artifact = peer.artifact if peer.artifact_active(when) else ""
        self.memo = memo
        self._cache = memo.bundles.setdefault(peer.asn, {})

    def element(self, prefix: Prefix, route: Route,
                tag: Optional[Community]) -> RouteElement:
        """Build one RIB element, applying the peer's artifact quirks."""
        peer = self.peer
        origin_asn = route.path[-1]
        mutate_as_set = (
            origin_asn in self.world.as_set_origins
            and art.stable_fraction(prefix, origin_asn) < 0.3
        )
        mutate_artifact = self.artifact in ("private_asn", "addpath")

        if not mutate_as_set and not mutate_artifact:
            key = (route.path, tag)
            attributes = self._cache.get(key)
            if attributes is None:
                recorded = ASPath.from_asns((peer.asn,) + route.path)
                communities = (tag,) if tag is not None else ()
                attributes = PathAttributes(recorded, communities=communities)
                self._cache[key] = attributes
                self.memo.attributes_built += 1
            return RouteElement(ElementType.RIB, prefix, attributes)

        recorded = ASPath.from_asns((peer.asn,) + route.path)
        if mutate_as_set:
            as_set_path = art.maybe_as_set_path(recorded, prefix, True, origin_asn)
            if as_set_path is not None:
                recorded = as_set_path
        if self.artifact == "private_asn" and art.stable_fraction(prefix, 65000) < 0.7:
            recorded = art.inject_private_asn(recorded)
        elif self.artifact == "addpath" and art.stable_fraction(prefix, 9) < 0.15:
            recorded = art.garble_path(recorded, peer.asn)
        communities = (tag,) if tag is not None else ()
        self.memo.attributes_built += 1
        return RouteElement(
            ElementType.RIB, prefix, PathAttributes(recorded, communities=communities)
        )


def render_rib_records(
    world: World,
    engine: RouteSource,
    family: int = AF_INET,
    when: Optional[int] = None,
    memo: Optional[RenderMemo] = None,
) -> Iterator[RouteRecord]:
    """Yield the RIB dump of every collector peer at the current instant.

    ``memo`` shares attribute bundles with the other renders it serves.
    Without one, each peer's bundles are shared within its own dump and
    dropped from the index once its elements are built, so a render
    holds one peer's index at a time.  When tracing, the bundles this
    render built are counted once, at the end.
    """
    moment = world.current_time if when is None else when
    shared = memo is not None
    if memo is None:
        memo = RenderMemo()
    built = memo.attributes_built
    tables = _vp_tables(world, engine, family)

    # One address-ordered prefix universe shared by all peers: sorting
    # per peer would redo millions of Prefix comparisons.
    universe: set = set()
    for table in tables.values():
        universe.update(table)
    ordered_universe = sorted(universe, key=Prefix.key)

    for peer in world.layout.peers:
        table = tables.get(peer.asn)
        if not table:
            continue
        duplicates_active = (
            peer.artifact == "duplicates" and peer.artifact_active(moment)
        )
        addpath_active = peer.artifact == "addpath" and peer.artifact_active(moment)
        factory = _AttributeFactory(peer, world, moment, memo)

        elements: List[RouteElement] = []
        for prefix in ordered_universe:
            entry = table.get(prefix)
            if entry is None:
                continue
            if not peer.full_feed:
                if art.stable_fraction(prefix, peer.asn) >= peer.partial_fraction:
                    continue
            route, tag = entry
            element = factory.element(prefix, route, tag)
            elements.append(element)
            if duplicates_active and art.stable_fraction(prefix, 777) < 0.15:
                elements.append(element)
        if not shared:
            del memo.bundles[peer.asn]

        record_index = 0
        for start in range(0, len(elements), RIB_RECORD_CHUNK):
            chunk = elements[start : start + RIB_RECORD_CHUNK]
            warning = ""
            if addpath_active and record_index % 4 == 0:
                warning = art.addpath_warning_for(record_index)
            yield RouteRecord(
                "rib",
                peer.project,
                peer.collector,
                peer.asn,
                peer.address,
                moment,
                chunk,
                corrupt_warning=warning,
            )
            record_index += 1

    # Stuck routes: phantom prefixes at a single collector (v4 only).
    if family == AF_INET and world.params.inject_artifacts:
        yield from _stuck_route_records(world, moment, memo)

    tracer = get_tracer()
    if tracer.enabled and memo.attributes_built > built:
        tracer.count("render.attributes_built", memo.attributes_built - built)


def _stuck_route_records(world: World, moment: int,
                         memo: RenderMemo) -> Iterator[RouteRecord]:
    rng = derive_rng(world.params.seed, "stuck", moment // (86400 * 30))
    if rng.random() > 0.4 or not world.layout.collectors:
        return
    project, collector = world.layout.collectors[
        rng.randrange(len(world.layout.collectors))
    ]
    victims = [
        peer
        for peer in world.layout.peers
        if peer.collector == collector and peer.full_feed
    ]
    if not victims:
        return
    phantom = art.stuck_route_prefixes(rng, rng.randint(1, 4))
    for peer in victims:
        elements = [
            RouteElement(
                ElementType.RIB,
                prefix,
                PathAttributes(art.stuck_route_path(rng, peer.asn)),
            )
            for prefix in phantom
        ]
        memo.attributes_built += len(elements)
        yield RouteRecord(
            "rib", project, collector, peer.asn, peer.address, moment, elements
        )


def render_snapshot(
    world: World,
    engine: RouteSource,
    family: int = AF_INET,
    when: Optional[int] = None,
) -> RIBSnapshot:
    """Materialise the rendered records into a :class:`RIBSnapshot`."""
    return RIBSnapshot.from_records(render_rib_records(world, engine, family, when))

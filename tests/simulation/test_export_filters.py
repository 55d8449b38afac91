"""Export filters resolved per origin against per-offer filtering.

:func:`per_offer_propagate` is the propagation engine as it was before
filters were resolved once per origin: every exporter holding any
transit rule filters every grouped offer it sends.  ``propagate`` asks
only the exporters that hold a rule on one of the origin's unit tags,
which is exact because ``TransitPolicy.blocks`` is False for a tag with
no rule.  The two must return equal routes for every origin, on
generated worlds and on random graphs whose exporters also hold rules
for other origins' tags.
"""

import random
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pytest

from repro.bgp.attributes import Community
from repro.net.prefix import AF_INET, AF_INET6, Prefix
from repro.simulation.routing import (
    CLASS_CUSTOMER,
    CLASS_PEER,
    CLASS_PROVIDER,
    GraphView,
    PropagationResult,
    Route,
    _export_filters,
    propagate,
)
from repro.simulation.scenario import SimulatedInternet
from repro.topology.model import ASGraph, ASNode, Tier
from repro.topology.policies import OriginPolicy, PolicyUnit, TransitPolicy
from tests.conftest import TEST_WORLD


def _per_offer_filtered(policy: Optional[TransitPolicy], units: Tuple[PolicyUnit, ...],
              neighbor: int) -> Tuple[PolicyUnit, ...]:
    """Units of a grouped message that survive the exporter's filters."""
    if policy is None or not policy.rules:
        return units
    return tuple(u for u in units if not policy.blocks(u.tag, neighbor))


def per_offer_propagate(
    graph: ASGraph,
    policy: OriginPolicy,
    transit_policies: Dict[int, TransitPolicy],
    targets: Optional[Set[int]] = None,
    view: Optional[GraphView] = None,
) -> PropagationResult:
    """:func:`propagate` filtering every offer at every exporter with rules."""
    origin = policy.asn
    units = tuple(policy.units)
    if not units:
        return {}

    if view is None or view.version != graph.version:
        effective_targets = frozenset(targets) if targets is not None else frozenset(graph.nodes)
        view = GraphView(graph, effective_targets)
    providers_of = view.providers
    customers_of = view.customers
    peers_of = view.peers
    cone = view.cone

    unit_by_id = {unit.unit_id: unit for unit in units}

    # ---- Phase C: customer routes ------------------------------------
    # Level-synchronous BFS up provider links; within a level, offers are
    # resolved per receiver by lowest sender ASN.
    # levels[length] -> list of (sender, receiver, path, units)
    levels: Dict[int, List[Tuple[int, int, Tuple[int, ...], Tuple[PolicyUnit, ...]]]] = defaultdict(list)

    def seed_groups(neighbor: int) -> Dict[int, List[PolicyUnit]]:
        """Units announced to ``neighbor``, grouped by prepend count."""
        groups: Dict[int, List[PolicyUnit]] = defaultdict(list)
        for unit in units:
            if unit.announces_to(neighbor):
                groups[unit.prepend_for(neighbor)].append(unit)
        return groups

    for provider in providers_of.get(origin, ()):
        for prepend, group in seed_groups(provider).items():
            path = (origin,) * (1 + prepend)
            levels[len(path)].append((origin, provider, path, tuple(group)))

    customer_routes: Dict[int, Dict[int, Route]] = defaultdict(dict)
    length = min(levels) if levels else 0
    max_level = (max(levels) if levels else 0) + len(graph.nodes) + 2
    while levels and length <= max_level:
        batch = levels.pop(length, None)
        if batch is None:
            length += 1
            continue
        # Resolve per receiver: lowest sender ASN wins ties at this level.
        batch.sort(key=lambda offer: (offer[1], offer[0]))
        for sender, receiver, path, group in batch:
            table = customer_routes[receiver]
            fresh = tuple(u for u in group if u.unit_id not in table)
            if not fresh:
                continue
            route = Route(CLASS_CUSTOMER, length, path)
            for unit in fresh:
                table[unit.unit_id] = route
            export_path = (receiver,) + path
            receiver_policy = transit_policies.get(receiver)
            has_rules = receiver_policy is not None and receiver_policy.rules
            for provider in providers_of.get(receiver, ()):
                if provider == origin or provider in path:
                    continue
                allowed = _per_offer_filtered(receiver_policy, fresh, provider) if has_rules else fresh
                if allowed:
                    levels[length + 1].append(
                        (receiver, provider, export_path, allowed)
                    )
        length += 1

    # ---- Phase P: peer routes ----------------------------------------
    peer_routes: Dict[int, Dict[int, Route]] = defaultdict(dict)

    def offer_peer(receiver: int, sender: int, path: Tuple[int, ...],
                   group: Iterable[PolicyUnit]) -> None:
        """Offer a peer route to ``receiver`` unless a customer route wins."""
        table = peer_routes[receiver]
        customer_table = customer_routes.get(receiver)
        route = Route(CLASS_PEER, len(path), path)
        for unit in group:
            if customer_table and unit.unit_id in customer_table:
                continue
            current = table.get(unit.unit_id)
            if current is None or (route.length, sender) < (
                current.length,
                current.path[0],
            ):
                table[unit.unit_id] = route

    for peer in peers_of.get(origin, ()):
        if peer not in cone and not customers_of.get(peer):
            continue
        for prepend, group in seed_groups(peer).items():
            path = (origin,) * (1 + prepend)
            offer_peer(peer, origin, path, group)

    for asn, table in customer_routes.items():
        asn_peers = peers_of.get(asn, ())
        if not asn_peers:
            continue
        by_route: Dict[Route, List[PolicyUnit]] = defaultdict(list)
        for unit_id, route in table.items():
            by_route[route].append(unit_by_id[unit_id])
        asn_policy = transit_policies.get(asn)
        for route, group in by_route.items():
            export_path = (asn,) + route.path
            group_tuple = tuple(group)
            for peer in asn_peers:
                # A peer route is only useful at a target or somewhere it
                # can flow down toward one.
                if peer == origin or peer not in cone or peer in route.path:
                    continue
                allowed = _per_offer_filtered(asn_policy, group_tuple, peer)
                if allowed:
                    offer_peer(peer, asn, export_path, allowed)

    # ---- Phase D: provider routes ------------------------------------
    provider_routes: Dict[int, Dict[int, Route]] = defaultdict(dict)
    levels = defaultdict(list)

    def seed_down(asn: int, table: Dict[int, Route]) -> None:
        """Export ``asn``'s selected routes down to its customers."""
        by_route: Dict[Route, List[PolicyUnit]] = defaultdict(list)
        for unit_id, route in table.items():
            by_route[route].append(unit_by_id[unit_id])
        asn_policy = transit_policies.get(asn)
        has_rules = asn_policy is not None and asn_policy.rules
        for route, group in by_route.items():
            export_path = (asn,) + route.path
            group_tuple = tuple(group)
            for customer in customers_of.get(asn, ()):
                if customer == origin or customer not in cone or customer in route.path:
                    continue
                allowed = _per_offer_filtered(asn_policy, group_tuple, customer) if has_rules else group_tuple
                if allowed:
                    levels[route.length + 1].append(
                        (asn, customer, export_path, allowed)
                    )

    for asn, table in customer_routes.items():
        seed_down(asn, table)
    for asn, table in peer_routes.items():
        if table:
            seed_down(asn, table)

    length = min(levels) if levels else 0
    max_level = (max(levels) if levels else 0) + len(graph.nodes) + 2
    while levels and length <= max_level:
        batch = levels.pop(length, None)
        if batch is None:
            length += 1
            continue
        batch.sort(key=lambda offer: (offer[1], offer[0]))
        for sender, receiver, path, group in batch:
            customer_table = customer_routes.get(receiver)
            peer_table = peer_routes.get(receiver)
            table = provider_routes[receiver]
            fresh = tuple(
                u
                for u in group
                if (not customer_table or u.unit_id not in customer_table)
                and (not peer_table or u.unit_id not in peer_table)
                and u.unit_id not in table
            )
            if not fresh:
                continue
            route = Route(CLASS_PROVIDER, length, path)
            for unit in fresh:
                table[unit.unit_id] = route
            export_path = (receiver,) + path
            receiver_policy = transit_policies.get(receiver)
            has_rules = receiver_policy is not None and receiver_policy.rules
            for customer in customers_of.get(receiver, ()):
                if customer == origin or customer not in cone or customer in path:
                    continue
                allowed = _per_offer_filtered(receiver_policy, fresh, customer) if has_rules else fresh
                if allowed:
                    levels[length + 1].append(
                        (receiver, customer, export_path, allowed)
                    )
        length += 1

    # ---- Combine ------------------------------------------------------
    result: PropagationResult = {}
    wanted = targets if targets is not None else (
        set(customer_routes) | set(peer_routes) | set(provider_routes)
    )
    for asn in wanted:
        if asn == origin:
            continue
        combined: Dict[int, Route] = {}
        for source in (customer_routes, peer_routes, provider_routes):
            table = source.get(asn)
            if table:
                for unit_id, route in table.items():
                    if unit_id not in combined:
                        combined[unit_id] = route
        if combined:
            result[asn] = combined
    return result


# ----------------------------------------------------------------------
# Generated worlds
# ----------------------------------------------------------------------

@pytest.mark.parametrize("start", ["2008-01-15 08:00", "2024-10-15 08:00"])
def test_generated_world_equals_per_offer_filtering(start):
    world = SimulatedInternet(TEST_WORLD, start=start).world
    graph, rules = world.graph, world.transit_policies
    targets = set(world.layout.vantage_asns())
    view = GraphView(graph, frozenset(targets))
    tagged = resolved = moved = 0
    for family in (AF_INET, AF_INET6):
        for policy in world.origins(family).values():
            routes = propagate(graph, policy, rules, targets, view)
            assert routes == per_offer_propagate(
                graph, policy, rules, targets, view
            )
            assert propagate(graph, policy, rules) == per_offer_propagate(
                graph, policy, rules
            )
            tagged += any(unit.tag is not None for unit in policy.units)
            resolved += bool(_export_filters(tuple(policy.units), rules))
            moved += routes != propagate(graph, policy, {}, targets, view)
    # The worlds hold TE-tagged units whose transit rules change routes.
    assert tagged and resolved and moved


# ----------------------------------------------------------------------
# Random graphs
# ----------------------------------------------------------------------

#: The tag pool: origins draw unit tags from it, and exporters hold
#: rules on any of it, including tags no unit of a given origin carries.
TAGS = [Community(64500, value) for value in range(6)]


def random_world(rng: random.Random):
    """A small valley-free graph with random policies and transit rules."""
    graph = ASGraph()
    tier1 = [1, 2, 3]
    transit = list(range(10, 10 + rng.randint(4, 8)))
    stubs = list(range(100, 100 + rng.randint(6, 12)))
    for asns, tier in ((tier1, Tier.TIER1), (transit, Tier.TRANSIT),
                       (stubs, Tier.STUB)):
        for asn in asns:
            graph.add_as(ASNode(asn, tier))
    for index, left in enumerate(tier1):
        for right in tier1[index + 1:]:
            graph.add_peer_link(left, right)
    for index, asn in enumerate(transit):
        uplinks = tier1 + transit[:index]
        for provider in rng.sample(uplinks, rng.randint(1, 2)):
            graph.add_provider_link(asn, provider)
    for index, left in enumerate(transit):
        for right in transit[index + 1:]:
            if rng.random() < 0.2 and graph.relationship(left, right) is None:
                graph.add_peer_link(left, right)
    for asn in stubs:
        for provider in rng.sample(transit + tier1, rng.randint(1, 3)):
            graph.add_provider_link(asn, provider)

    policies: List[OriginPolicy] = []
    octet = 0
    for asn in rng.sample(transit + stubs, 6):
        policy = OriginPolicy(asn, AF_INET)
        neighbors = sorted(graph.neighbors(asn))
        for _ in range(rng.randint(1, 4)):
            octet += 1
            announce = None
            if rng.random() < 0.4:
                announce = frozenset(
                    rng.sample(neighbors, rng.randint(1, len(neighbors)))
                )
            prepend = {n: rng.randint(1, 2) for n in neighbors
                       if rng.random() < 0.25}
            policy.new_unit(
                [Prefix.parse(f"10.{octet}.0.0/24")],
                announce_to=announce,
                prepend=prepend,
                tag=rng.choice(TAGS + [None, None]),
            )
        policies.append(policy)

    rules: Dict[int, TransitPolicy] = {}
    for asn in rng.sample(tier1 + transit, rng.randint(2, 6)):
        holder = rules.setdefault(asn, TransitPolicy(asn))
        neighbors = sorted(graph.neighbors(asn))
        for tag in rng.sample(TAGS, rng.randint(1, 3)):
            holder.block(tag, frozenset(
                rng.sample(neighbors, rng.randint(1, len(neighbors)))
            ))
    # An exporter whose rules were all dropped again.
    emptied = TransitPolicy(stubs[0])
    emptied.block(TAGS[0], frozenset(graph.neighbors(stubs[0])))
    emptied.unblock(TAGS[0])
    rules[stubs[0]] = emptied
    return graph, policies, rules, stubs


@pytest.mark.parametrize("seed", range(40))
def test_random_graph_equals_per_offer_filtering(seed):
    rng = random.Random(seed)
    graph, policies, rules, stubs = random_world(rng)
    targets = set(rng.sample(stubs, rng.randint(1, len(stubs))))
    view = GraphView(graph, frozenset(targets))
    for policy in policies:
        assert propagate(graph, policy, rules) == per_offer_propagate(
            graph, policy, rules
        )
        assert propagate(graph, policy, rules, targets, view) == (
            per_offer_propagate(graph, policy, rules, targets, view)
        )


def test_export_filters_name_only_rules_on_the_units_tags():
    rules = {asn: TransitPolicy(asn) for asn in (10, 11, 12)}
    rules[10].block(TAGS[0], frozenset({1}))
    rules[11].block(TAGS[1], frozenset({1}))
    units = (
        PolicyUnit(0, [Prefix.parse("10.0.0.0/24")], tag=TAGS[0]),
        PolicyUnit(1, [Prefix.parse("10.0.1.0/24")]),
    )
    assert _export_filters(units, rules) == {10: rules[10]}
    assert _export_filters(units[1:], rules) == {}

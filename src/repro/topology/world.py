"""The mutable simulated Internet.

A :class:`World` owns the AS graph, the address plan, every origin's
policy units, transit selective-export rules, and the collector/peer
layout.  It can be advanced in time: crossing growth boundaries adds
ASes/prefixes/vantage points according to the year profiles, and any
advance applies policy churn whose hazards are calibrated to the
paper's stability tables.

The world is deterministic for a fixed ``WorldParams.seed`` *and* a
fixed sequence of ``advance_to`` calls (churn draws depend on the call
cadence; scenarios fix the cadence).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.bgp.attributes import Community
from repro.net.prefix import AF_INET, AF_INET6, Prefix
from repro.topology.addressing import AddressAllocator, carve_prefixes
from repro.topology.evolution import ScaledCounts, WorldParams, YearProfile, profile_for
from repro.topology.generator import add_stub_as, add_transit_as, generate_topology, GeneratorParams
from repro.topology.model import ASGraph, ASNode, Relationship, Tier
from repro.topology.policies import OriginPolicy, PolicyUnit, TransitPolicy
from repro.util.dates import HOUR
from repro.util.determinism import derive_rng

#: Mechanisms that differentiate a non-base policy unit from its origin's
#: base unit.  Each maps to a characteristic formation distance.
MECH_UNIFORM = "uniform"        # same config as base (merges into base atom)
MECH_PREPEND = "prepend"        # distance 1
MECH_SELECTIVE = "selective"    # distance 2
MECH_SCOPED = "scoped"          # distance 1 (visible to a unique peer set)
MECH_TAG_SHALLOW = "tag3"       # distance 3
MECH_TAG_DEEP = "tag4"          # distance 4+


@dataclass
class PeerSpec:
    """One BGP session between an AS and a collector."""

    project: str
    collector: str
    asn: int
    address: str
    full_feed: bool
    #: fraction of the table shared when not full feed
    partial_fraction: float = 1.0
    #: artifact class: "", "addpath", "private_asn", "duplicates"
    artifact: str = ""
    #: artifact active window (epoch seconds); 0/inf-like when unused
    artifact_start: int = 0
    artifact_end: int = 2**62

    @property
    def peer_id(self) -> Tuple[str, int, str]:
        return (self.collector, self.asn, self.address)

    def artifact_active(self, when: int) -> bool:
        """True while this peer's artifact window covers ``when``."""
        return bool(self.artifact) and self.artifact_start <= when < self.artifact_end


@dataclass
class CollectorLayout:
    """The collector infrastructure at one instant."""

    collectors: List[Tuple[str, str]] = field(default_factory=list)  # (project, name)
    peers: List[PeerSpec] = field(default_factory=list)

    def fullfeed_peers(self) -> List[PeerSpec]:
        """Peers configured to share their full table."""
        return [peer for peer in self.peers if peer.full_feed]

    def vantage_asns(self) -> Set[int]:
        """ASNs of all collector peers."""
        return {peer.asn for peer in self.peers}


@dataclass
class _UnitMeta:
    """World-side bookkeeping for one policy unit."""

    mechanism: str = MECH_UNIFORM
    volatile: bool = False
    #: reversal memory for oscillating membership churn
    last_move: Optional[Tuple[Prefix, int, int]] = None


class World:
    """See module docstring."""

    def __init__(self, params: WorldParams, start_time: int):
        self.params = params
        self.current_time = start_time
        self.profile: YearProfile = profile_for(start_time)
        self.counts: ScaledCounts = params.scaled_counts(self.profile)

        self._rng = derive_rng(params.seed, "world")
        self.allocators = {AF_INET: AddressAllocator(AF_INET), AF_INET6: AddressAllocator(AF_INET6)}

        self.graph: ASGraph = self._build_base_graph()
        self._next_asn = max(self.graph.nodes) + 1

        # (family, asn) -> OriginPolicy
        self.origin_policies: Dict[Tuple[int, int], OriginPolicy] = {}
        self.transit_policies: Dict[int, TransitPolicy] = {}
        self._unit_meta: Dict[Tuple[int, int, int], _UnitMeta] = {}
        #: per-family empirical mechanism counts (deficit steering)
        self._mech_counts: Dict[int, Dict[str, int]] = {}
        #: per-origin policy style: mechanism reused by most of an
        #: origin's differentiated units (an AS has one TE discipline)
        self._origin_style: Dict[Tuple[int, int], str] = {}
        #: origins whose style was pre-counted at full unit weight
        self._precounted: Set[Tuple[int, int]] = set()
        #: extra peerings added by VP policy churn (vp asn -> peer asn)
        self._vp_extra_peers: Dict[int, int] = {}
        #: bumped whenever transit rules change (propagation cache key)
        self.policy_epoch = 0
        self._next_tag_value = 1
        self.moas_prefixes: Dict[Prefix, Tuple[int, int]] = {}
        #: origins whose paths should carry an AS_SET tail at rendering
        self.as_set_origins: Set[int] = set()
        # Worlds born after the FITI launch already include its ASes in
        # the initial v6 population; only fire the event when the world
        # lives through 2021.
        self._fiti_done = start_time >= self._fiti_timestamp()

        self._populate_origins(AF_INET, self.counts.v4_ases, self.counts.v4_prefixes)
        if self.counts.v6_ases:
            self._populate_origins(AF_INET6, self.counts.v6_ases, self.counts.v6_prefixes)

        self.layout = CollectorLayout()
        self._grow_collectors()
        if params.inject_artifacts:
            self._assign_artifacts()

    # ------------------------------------------------------------------
    # Base construction
    # ------------------------------------------------------------------

    def _build_base_graph(self) -> ASGraph:
        counts = self.counts
        n_transit = max(10, int(0.08 * counts.v4_ases))
        n_stub = max(10, counts.v4_ases - n_transit - 8)
        year = self.profile.year
        # Internet flattening: denser edge peering in later years.
        flatness = min(1.0, max(0.0, (year - 2004.0) / 20.0))
        gen_params = GeneratorParams(
            n_tier1=8,
            n_transit=n_transit,
            n_stub=n_stub,
            n_regions=self.params.n_regions,
            multihoming_mean=1.3 + 0.6 * flatness,
            peering_density=0.10 + 0.15 * flatness,
            edge_peering_density=0.0005 + 0.002 * flatness,
            ipv6_fraction=self._v6_fraction(),
            seed=derive_rng(self.params.seed, "topology").randrange(2**31),
        )
        return generate_topology(gen_params)

    def _v6_fraction(self) -> float:
        if not self.counts.v6_ases:
            return 0.0
        return min(1.0, self.counts.v6_ases / max(1, self.counts.v4_ases))

    # ------------------------------------------------------------------
    # Origin population
    # ------------------------------------------------------------------

    def _prefix_count_distribution(self, n_ases: int, n_prefixes: int,
                                   rng: random.Random) -> List[int]:
        """Heavy-tailed per-AS prefix counts summing to ~n_prefixes.

        Shaped like the measured Internet: roughly 40-50 % of origins
        announce a single prefix, a Zipf body, and a handful of giants
        (CDNs, incumbents) that absorb whatever the body leaves over.
        """
        if n_ases <= 0:
            return []
        # Zipf body: P(count >= k) ~ k^-alpha, truncated.
        alpha = 1.15
        cap = max(4, n_prefixes // 12)
        counts = []
        for _ in range(n_ases):
            draw = (1.0 - rng.random()) ** (-1.0 / alpha)
            counts.append(max(1, min(cap, int(draw))))
        drift = n_prefixes - sum(counts)
        if drift > 0:
            # Hand the surplus to a population of giants, wide enough
            # that no single origin dominates the table.
            giants = max(6, n_ases // 15)
            order = sorted(range(n_ases), key=lambda i: -counts[i])[:giants]
            share, remainder = divmod(drift, len(order))
            for position, index in enumerate(order):
                counts[index] += share + (1 if position < remainder else 0)
        else:
            index = 0
            deficit = -drift
            while deficit > 0 and index < n_ases:
                take = min(counts[index] - 1, deficit)
                if take > 0:
                    counts[index] -= take
                    deficit -= take
                index += 1
        return counts

    def _eligible_origin_asns(self, family: int) -> List[int]:
        """ASes that may originate prefixes of the family (stubs and
        transits; Tier-1s originate a little too)."""
        eligible = []
        for asn, node in self.graph.nodes.items():
            if family == AF_INET6 and not node.ipv6_capable:
                continue
            eligible.append(asn)
        return eligible

    def _populate_origins(self, family: int, n_ases: int, n_prefixes: int) -> None:
        rng = derive_rng(self.params.seed, "populate", family)
        eligible = self._eligible_origin_asns(family)
        rng.shuffle(eligible)
        chosen = eligible[: min(n_ases, len(eligible))]
        counts = self._prefix_count_distribution(len(chosen), n_prefixes, rng)
        for asn, prefix_count in zip(chosen, counts):
            self._create_origin(family, asn, prefix_count, rng)
        self._assign_moas(family, rng)

    def _allocate_prefixes(self, family: int, asn: int, count: int,
                           rng: random.Random) -> List[Prefix]:
        """Carve ``count`` prefixes out of fresh allocation blocks."""
        prefixes: List[Prefix] = []
        allocator = self.allocators[family]
        while len(prefixes) < count:
            chunk = min(count - len(prefixes), rng.choice((4, 8, 16, 32, 64)))
            if family == AF_INET:
                # Block must have room for the chunk above /24.
                depth = max(1, math.ceil(math.log2(max(2, chunk))))
                length = max(8, min(22, 24 - depth))
            else:
                depth = max(1, math.ceil(math.log2(max(2, chunk))))
                length = max(20, min(40, 48 - depth - 2))
            block = allocator.allocate_block(length)
            prefixes.extend(carve_prefixes(block, chunk, rng))
        return prefixes[:count]

    def _mean_unit_size(self, family: int) -> float:
        return (
            self.profile.mean_unit_size_v4
            if family == AF_INET
            else self.profile.mean_unit_size_v6
        )

    def _single_unit_share(self, family: int) -> float:
        return (
            self.profile.single_unit_share_v4
            if family == AF_INET
            else self.profile.single_unit_share_v6
        )

    def _unit_size_cap(self, family: int) -> int:
        """Largest unit size, scaled from the paper's largest atom.

        At very small world scales the scaled cap would fall below the
        mean unit size and distort the whole size distribution, so it is
        floored at a small multiple of the mean.
        """
        full_scale = (
            self.profile.max_atom_v4 if family == AF_INET else self.profile.max_atom_v6
        )
        floor = int(math.ceil(3 * self._mean_unit_size(family)))
        return max(3, floor, int(round(full_scale * self.params.prefix_scale)))

    def _partition_sizes(self, total: int, family: int, rng: random.Random,
                         uniform_bias: float = 1.0) -> List[int]:
        """Split an origin's prefix count into unit sizes.

        One dominant base unit plus a train of small TE units reproduces
        the paper's size distribution: many single-prefix atoms alongside
        a fat base atom per origin.  Unit sizes are capped so even giant
        origins (CDNs) fragment into many atoms, with the cap tracking
        the paper's largest-atom trend.
        """
        cap = self._unit_size_cap(family)
        if total == 1 or (
            total <= cap
            and rng.random() < self._single_unit_share(family) * uniform_bias
        ):
            return [total]
        mean_size = self._mean_unit_size(family)
        base_low = min(0.6, 0.20 + 0.03 * mean_size)
        base_high = min(0.85, 0.45 + 0.04 * mean_size)
        base = max(1, min(int(total * rng.uniform(base_low, base_high)), cap))
        sizes = [base]
        remaining = total - base
        mean_small = max(1.05, mean_size * 0.35)
        while remaining > 0:
            size = 1
            while (
                remaining - size > 0
                and size < cap
                and rng.random() < 1.0 - 1.0 / mean_small
            ):
                size += 1
            # Giant origins: occasionally emit another large block so the
            # size distribution keeps its heavy tail.
            if remaining > 4 * cap and rng.random() < 0.15:
                size = min(remaining, max(size, int(cap * rng.uniform(0.3, 1.0))))
            sizes.append(size)
            remaining -= size
        return sizes

    def _mechanism_targets(self) -> Dict[str, float]:
        profile = self.profile
        scoped = 0.12 * profile.mix_selective
        return {
            MECH_PREPEND: profile.mix_prepend,
            MECH_SELECTIVE: profile.mix_selective - scoped,
            MECH_SCOPED: scoped,
            MECH_TAG_SHALLOW: profile.mix_tag_shallow,
            MECH_TAG_DEEP: profile.mix_tag_deep,
        }

    def _pick_mechanism(self, rng: random.Random, single_homed: Optional[bool],
                        family: int) -> str:
        """Choose a differentiation mechanism the origin can actually use,
        steering the empirical mix toward the profile targets.

        Selective announcement needs multiple upstreams; transit-imposed
        tag splits are modelled on single-homed origins, where the early
        hops are pinned and the divergence lands past the transit — the
        same reasoning the paper borrows from Kastanakis et al. (§4.3).
        Because eligibility depends on homing, a plain weighted draw
        would drift from the target mix; instead each draw favours the
        eligible mechanism furthest below its target share.
        """
        targets = self._mechanism_targets()
        if single_homed is None:
            # Caller will conform the homing to the chosen style.
            eligible = tuple(targets)
        elif single_homed:
            # Tag splits need the announcement hops pinned: a multi-homed
            # origin's tagged unit could detour through the other
            # provider and split at distance 2 instead of 3.
            eligible = (MECH_PREPEND, MECH_SCOPED, MECH_TAG_SHALLOW, MECH_TAG_DEEP)
        else:
            eligible = (MECH_PREPEND, MECH_SELECTIVE, MECH_SCOPED)
        counts = self._mech_counts.setdefault(family, {})
        total = sum(counts.values()) or 1
        weights = []
        for mechanism in eligible:
            share = counts.get(mechanism, 0) / total
            deficit = max(0.0, targets[mechanism] - share)
            weights.append((mechanism, deficit + 0.02 * targets[mechanism]))
        weight_sum = sum(weight for _, weight in weights)
        if weight_sum <= 0:
            return rng.choice(eligible)
        draw = rng.random() * weight_sum
        for mechanism, weight in weights:
            draw -= weight
            if draw <= 0:
                return mechanism
        return weights[-1][0]

    def _count_mechanism(self, family: int, mechanism: str,
                         weight: int = 1) -> None:
        counts = self._mech_counts.setdefault(family, {})
        counts[mechanism] = counts.get(mechanism, 0) + weight

    def _new_tag(self) -> Community:
        value = self._next_tag_value
        self._next_tag_value += 1
        return Community(value >> 16 & 0xFFFF | 3000, value & 0xFFFF)

    def _meta(self, family: int, asn: int, unit: PolicyUnit) -> _UnitMeta:
        return self._unit_meta.setdefault((family, asn, unit.unit_id), _UnitMeta())

    def _create_origin(self, family: int, asn: int, prefix_count: int,
                       rng: random.Random) -> OriginPolicy:
        policy = OriginPolicy(asn, family)
        self.origin_policies[(family, asn)] = policy
        prefixes = self._allocate_prefixes(family, asn, prefix_count, rng)
        sizes = self._partition_sizes(prefix_count, family, rng)
        if len(sizes) > 6:
            self._conform_giant(family, asn, len(sizes), rng)
        cursor = 0
        base_unit: Optional[PolicyUnit] = None
        for index, size in enumerate(sizes):
            members = prefixes[cursor : cursor + size]
            cursor += size
            if index == 0:
                base_unit = policy.new_unit(members)
                self._init_meta(family, asn, base_unit, MECH_UNIFORM, rng)
            else:
                self._differentiate_unit(policy, members, rng)
        if prefix_count <= 20 and self._rng.random() < self.profile.as_set_share * 4:
            # Aggregating origin: a slice of its paths will carry AS_SETs.
            # Restricted to small origins so the share of AS_SET paths
            # stays well under 1 % (§2.4.4).
            self.as_set_origins.add(asn)
        return policy

    def _init_meta(self, family: int, asn: int, unit: PolicyUnit,
                   mechanism: str, rng: random.Random) -> None:
        meta = self._meta(family, asn, unit)
        meta.mechanism = mechanism
        meta.volatile = rng.random() < self.profile.volatile_unit_share

    def _differentiate_unit(self, policy: OriginPolicy, members: List[Prefix],
                            rng: random.Random,
                            allow_rewire: bool = True) -> PolicyUnit:
        """Create a non-base unit with a distance-targeted mechanism.

        ``allow_rewire=False`` (used during churn) forbids adding graph
        links, so within-quarter snapshots keep the topology — and the
        propagation cache — intact.
        """
        asn = policy.asn
        single_homed = len(self.graph.providers(asn)) < 2
        # An origin mostly sticks to one TE discipline; deciding it at
        # the first differentiated unit (while homing is pristine) keeps
        # the world-level mechanism mix on target even though selective
        # announcement rewires origins to multi-homed.
        style_key = (policy.family, asn)
        style = self._origin_style.get(style_key)
        # Style stickiness fades as an origin accumulates units: a
        # mechanism's configuration space is topology-bounded, so a big
        # origin that kept one style would pile new units into existing
        # atoms.  Mixing mechanisms multiplies the config space (the
        # formation distance is a max over siblings, so mixing does not
        # blur each unit's characteristic distance).
        reuse = 0.7 if len(policy.units) <= 6 else 0.25
        if style is None or rng.random() > reuse:
            mechanism = self._pick_mechanism(rng, single_homed, policy.family)
            self._origin_style.setdefault(style_key, mechanism)
        else:
            mechanism = style
        unit: Optional[PolicyUnit] = None

        if mechanism == MECH_PREPEND:
            # Uniform prepending to every neighbor: lengthens the path
            # without redirecting anyone's best-path choice, so the atom
            # differs from the base only in duplicate hops (distance 1).
            # Non-uniform prepending would act as traffic engineering and
            # split at the provider hop instead.
            amount = rng.choice((1, 2, 3))
            prepend = {n: amount for n in self._announce_targets(asn)}
            unit = policy.new_unit(members, prepend=prepend)
        elif mechanism == MECH_SELECTIVE:
            providers = sorted(self.graph.providers(asn))
            if len(providers) < 2 and allow_rewire:
                self._ensure_multihomed(asn)
                providers = sorted(self.graph.providers(asn))
            if len(providers) >= 2:
                # Announce through a proper subset of providers, splitting
                # at the provider hop (distance 2).  Varying the subset
                # across an origin's units matters: pinning every unit to
                # the same provider would merge them into a single atom.
                size = 1 if len(providers) == 2 else rng.randint(1, len(providers) - 1)
                pool = providers[1:] if size == 1 else providers
                subset = frozenset(rng.sample(pool, size))
                unit = policy.new_unit(members, announce_to=subset)
            else:
                mechanism = MECH_PREPEND
                targets = self._announce_targets(asn)
                unit = policy.new_unit(members, prepend={n: 2 for n in targets})
        elif mechanism == MECH_SCOPED:
            unit = self._make_scoped_unit(policy, members, rng)
            if unit is None:
                mechanism = MECH_PREPEND
                prepend = {n: 2 for n in self._announce_targets(asn)}
                unit = policy.new_unit(members, prepend=prepend)
        elif mechanism in (MECH_TAG_SHALLOW, MECH_TAG_DEEP):
            unit = self._make_tagged_unit(policy, members, mechanism, rng)
            if unit is None:
                mechanism = MECH_SELECTIVE
                targets = (
                    self._ensure_multihomed(asn)
                    if allow_rewire
                    else self._announce_targets(asn)
                )
                subset = frozenset([min(targets)]) if targets else None
                unit = policy.new_unit(members, announce_to=subset)

        if unit is None:  # pragma: no cover - defensive
            mechanism = MECH_UNIFORM
            unit = policy.new_unit(members)
        if style_key not in self._precounted:
            self._count_mechanism(policy.family, mechanism)
        self._init_meta(policy.family, asn, unit, mechanism, rng)
        return unit

    def _announce_targets(self, asn: int) -> Set[int]:
        """Neighbors an origin announces to: providers plus peers."""
        return set(self.graph.providers(asn)) | set(self.graph.peers(asn))

    def _would_create_provider_cycle(self, customer: int, provider: int) -> bool:
        """True if linking ``customer -> provider`` closes a cycle, i.e.
        ``provider`` already (transitively) buys transit from ``customer``."""
        frontier = [provider]
        seen = {provider}
        while frontier:
            current = frontier.pop()
            for upper in self.graph.providers(current):
                if upper == customer:
                    return True
                if upper not in seen:
                    seen.add(upper)
                    frontier.append(upper)
        return False

    def _add_provider(self, asn: int) -> bool:
        """Attach one more transit provider to ``asn``; False when no
        acyclic candidate exists."""
        transits = [
            other
            for other, node in self.graph.nodes.items()
            if node.tier in (Tier.TIER1, Tier.TRANSIT)
            and other != asn
            and self.graph.relationship(asn, other) is None
            and not self._would_create_provider_cycle(asn, other)
        ]
        if not transits:
            return False
        self.graph.add_provider_link(asn, self._rng.choice(transits))
        return True

    def _conform_giant(self, family: int, asn: int, unit_count: int,
                       rng: random.Random) -> None:
        """Give a many-unit origin (CDN, incumbent) the topology its
        policy style needs.

        Origins with many policy units dominate the unit mass, so they
        must land on the target mechanism mix: pick the style first,
        then conform the homing the style needs — single-homed under a
        Tier-1 for tag styles (granularity from the transit's community
        vocabulary), densely multihomed for selective announcement.
        Applied both at creation and when growth pushes an origin past
        the threshold.  The style choice is pre-counted at the origin's
        full unit weight so one giant's lucky draw cannot swing the
        world's mechanism mix.
        """
        style = self._pick_mechanism(rng, single_homed=None, family=family)
        self._origin_style[(family, asn)] = style
        self._count_mechanism(family, style, weight=max(1, unit_count - 1))
        self._precounted.add((family, asn))
        if style == MECH_TAG_DEEP:
            # Deep splits need a transit layer above the first hop.
            self._rehome_to_second_tier(asn, rng)
        elif style in (MECH_TAG_SHALLOW, MECH_SCOPED):
            self._rehome_to_tier1(asn, rng)
        elif style == MECH_SELECTIVE:
            want = min(6, 2 + int(math.log2(max(2, unit_count))))
            while len(self.graph.providers(asn)) < want:
                if not self._add_provider(asn):
                    break

    def _rehome_single(self, asn: int, target: int) -> None:
        if self._would_create_provider_cycle(asn, target):
            return
        for provider in list(self.graph.providers(asn)):
            if provider != target:
                self.graph.remove_link(asn, provider)
        if self.graph.relationship(asn, target) is None:
            self.graph.add_provider_link(asn, target)

    def _rehome_to_tier1(self, asn: int, rng: random.Random) -> None:
        """Make ``asn`` a single-homed direct customer of a Tier-1."""
        tier1 = [t for t in self.graph.tier1() if t != asn]
        if tier1 and self.graph.nodes[asn].tier != Tier.TIER1:
            self._rehome_single(asn, rng.choice(tier1))

    def _rehome_to_second_tier(self, asn: int, rng: random.Random) -> None:
        """Home ``asn`` under a second-tier transit (one that itself buys
        transit from other transits), falling back to any transit."""
        if self.graph.nodes[asn].tier == Tier.TIER1:
            return
        second_tier = [
            other
            for other, node in self.graph.nodes.items()
            if node.tier == Tier.TRANSIT
            and other != asn
            and any(
                self.graph.nodes[p].tier == Tier.TRANSIT
                for p in self.graph.providers(other)
            )
        ]
        if second_tier:
            self._rehome_single(asn, rng.choice(second_tier))

    def _ensure_multihomed(self, asn: int) -> Set[int]:
        """Give ``asn`` a second provider if it has only one."""
        if len(self.graph.providers(asn)) < 2:
            self._add_provider(asn)
        return self._announce_targets(asn)

    def _global_egress(self, rule_holder: int) -> Tuple[List[int], List[int]]:
        """(globally-propagating egresses, all egresses) of a transit.

        A provider egress always propagates globally; a peer egress only
        does when the rule holder is transit-free (Tier-1 clique), since
        ordinary peer routes stay in the peer's customer cone.
        """
        providers = sorted(self.graph.providers(rule_holder))
        peers = sorted(self.graph.peers(rule_holder))
        if providers:
            global_egress = providers
        elif self.graph.nodes[rule_holder].tier == Tier.TIER1:
            global_egress = peers
        else:
            global_egress = []
        return global_egress, providers + peers

    def _make_tagged_unit(self, policy: OriginPolicy, members: List[Prefix],
                          mechanism: str, rng: random.Random) -> Optional[PolicyUnit]:
        """A unit whose TE tag transits act on (distance 3 or 4 splits).

        *Shallow* (distance 3): every provider of the origin pins the
        tagged unit to one of its own egresses — a "prefer egress X"
        community.  Vantage points whose untagged path used a different
        egress diverge right after the provider.

        *Deep* (distance 4+): a "do not announce to these networks"
        community — the chosen upper-tier ASes are blocked at *every*
        upstream of the origin's providers, so no equal-length detour at
        distance 3 exists and affected vantage points re-route one hop
        further out.  Announcement sets are untouched in both variants,
        keeping the early hops identical to the base unit.
        """
        asn = policy.asn
        providers = self.graph.providers(asn)
        if not providers:
            return None
        blocks: Dict[int, FrozenSet[int]] = {}
        if mechanism == MECH_TAG_SHALLOW:
            for rule_holder in sorted(providers):
                global_egress, egress = self._global_egress(rule_holder)
                if len(egress) < 2 or not global_egress:
                    continue
                # Block a varied subset so sibling tagged units end up
                # with distinct path vectors instead of merging; bias
                # toward blocking the tie-preferred egress (lowest ASN),
                # which carries most untagged paths, so the split is
                # widely visible.  Always keep one global egress open —
                # a fully stranded unit would degenerate to distance 1.
                open_egress = rng.choice(global_egress)
                candidates = [n for n in egress if n != open_egress]
                blocked = {
                    n
                    for n in candidates
                    if rng.random() < (0.85 if n == min(egress) else 0.5)
                }
                if not blocked:
                    blocked = {rng.choice(candidates)}
                blocks[rule_holder] = frozenset(blocked)
        else:
            # Collect the distance-3 layer (the providers' upstreams).
            holders: Set[int] = set()
            for provider in providers:
                holders.update(self.graph.providers(provider))
                if self.graph.nodes[provider].tier == Tier.TIER1:
                    holders.add(provider)
            if not holders:
                return None
            if all(
                self.graph.nodes[holder].tier == Tier.TIER1 for holder in holders
            ):
                # With Tier-1 rule holders most vantage points reach the
                # origin through a *shared* Tier-1 in 4 hops and never
                # cross a blocked edge; the deep split needs the extra
                # hierarchy level below the clique.
                return None
            # Victims: upper-tier ASes to suppress, drawn from the
            # primary holder's egress.
            primary = min(holders)
            global_primary, egress_primary = self._global_egress(primary)
            if len(egress_primary) < 2:
                return None
            victim_count = max(1, (len(egress_primary)) // 2)
            victims = set(rng.sample(egress_primary, victim_count))
            for rule_holder in sorted(holders):
                global_egress, egress = self._global_egress(rule_holder)
                blocked = victims.intersection(egress)
                open_left = [n for n in global_egress if n not in blocked]
                if not blocked:
                    continue
                if not open_left:
                    # Keep one global egress alive.
                    spare = rng.choice(global_egress) if global_egress else None
                    if spare is None:
                        continue
                    blocked = blocked - {spare}
                    if not blocked:
                        continue
                blocks[rule_holder] = frozenset(blocked)
        if not blocks:
            return None
        tag = self._new_tag()
        for rule_holder, blocked in blocks.items():
            transit = self.transit_policies.setdefault(
                rule_holder, TransitPolicy(rule_holder)
            )
            transit.block(tag, blocked)
        self.policy_epoch += 1
        return policy.new_unit(members, tag=tag)

    def _make_scoped_unit(self, policy: OriginPolicy, members: List[Prefix],
                          rng: random.Random) -> Optional[PolicyUnit]:
        """A unit kept regional: no first-hop transit exports it upward,
        so only vantage points inside the providers' customer cones see
        it — the atom is distinguished by its unique peer set."""
        asn = policy.asn
        providers = self.graph.providers(asn)
        if not providers:
            return None
        tag = self._new_tag()
        installed = False
        for first_hop in providers:
            egress = sorted(
                set(self.graph.providers(first_hop))
                | set(self.graph.peers(first_hop))
            )
            if not egress:
                continue
            transit = self.transit_policies.setdefault(
                first_hop, TransitPolicy(first_hop)
            )
            transit.block(tag, frozenset(egress))
            installed = True
        if not installed:
            return None
        self.policy_epoch += 1
        return policy.new_unit(members, tag=tag)

    def _assign_moas(self, family: int, rng: random.Random) -> None:
        """Pick prefixes announced by a second origin (< 5 % share)."""
        policies = [p for (fam, _), p in self.origin_policies.items() if fam == family]
        if len(policies) < 2:
            return
        total_prefixes = sum(p.prefix_count() for p in policies)
        target = int(total_prefixes * self.profile.moas_share)
        for _ in range(target):
            first = rng.choice(policies)
            if not first.units:
                continue
            unit = rng.choice(first.units)
            prefix = rng.choice(unit.prefixes)
            if prefix in self.moas_prefixes:
                continue
            second = rng.choice(policies)
            if second.asn == first.asn or not second.units:
                continue
            second_unit = rng.choice(second.units)
            if prefix not in second_unit.prefixes:
                second_unit.prefixes.append(prefix)
                second.touch()
                self.moas_prefixes[prefix] = (first.asn, second.asn)

    # ------------------------------------------------------------------
    # Collector infrastructure
    # ------------------------------------------------------------------

    def _collector_name(self, index: int) -> Tuple[str, str]:
        if index % 2 == 0:
            return ("ris", f"rrc{index // 2:02d}")
        return ("routeviews", f"route-views{(index - 1) // 2 or 2}")

    def _grow_collectors(self) -> None:
        rng = derive_rng(self.params.seed, "collectors", len(self.layout.peers))
        while len(self.layout.collectors) < self.counts.collectors:
            self.layout.collectors.append(
                self._collector_name(len(self.layout.collectors))
            )
        current_full = sum(1 for p in self.layout.peers if p.full_feed)
        current_partial = sum(1 for p in self.layout.peers if not p.full_feed)
        existing = {p.asn for p in self.layout.peers}
        candidates = [
            asn
            for asn, node in self.graph.nodes.items()
            if asn not in existing and node.tier != Tier.TIER1
        ]
        rng.shuffle(candidates)
        # Full-feed peers skew toward transit ASes, which hold full tables.
        candidates.sort(
            key=lambda a: 0 if self.graph.nodes[a].tier == Tier.TRANSIT else 1
        )
        need_full = self.counts.fullfeed_peers - current_full
        need_partial = self.counts.partial_peers - current_partial
        for _ in range(max(0, need_full)):
            if not candidates:
                break
            asn = candidates.pop(0)
            self._add_peer(asn, full_feed=True, rng=rng)
        rng.shuffle(candidates)
        for _ in range(max(0, need_partial)):
            if not candidates:
                break
            asn = candidates.pop(0)
            self._add_peer(asn, full_feed=False, rng=rng)

    def _add_peer(self, asn: int, full_feed: bool, rng: random.Random) -> PeerSpec:
        project, collector = self.layout.collectors[
            rng.randrange(len(self.layout.collectors))
        ]
        address = f"10.{(asn >> 8) & 0xFF}.{asn & 0xFF}.{len(self.layout.peers) % 250 + 1}"
        peer = PeerSpec(
            project=project,
            collector=collector,
            asn=asn,
            address=address,
            full_feed=full_feed,
            partial_fraction=1.0 if full_feed else rng.uniform(0.05, 0.8),
        )
        self.layout.peers.append(peer)
        return peer

    def _assign_artifacts(self) -> None:
        """Flag peers with the paper's A8.3 data problems.

        Windows are placed inside the longitudinal range so sanitization
        is exercised on some snapshots and idle on others.
        """
        rng = derive_rng(self.params.seed, "artifacts")
        full = [p for p in self.layout.peers if p.full_feed]
        if len(full) < 6:
            return
        chosen = rng.sample(full, 6)
        from repro.util.dates import utc_timestamp

        windows = [
            ("addpath", utc_timestamp(2020, 5), utc_timestamp(2021, 2)),
            ("addpath", utc_timestamp(2021, 2), utc_timestamp(2021, 6)),
            ("addpath", utc_timestamp(2022, 1), utc_timestamp(2022, 2)),
            ("addpath", utc_timestamp(2022, 9), utc_timestamp(2022, 10)),
            ("private_asn", utc_timestamp(2020, 11), utc_timestamp(2023, 3)),
            ("duplicates", utc_timestamp(2018, 1), utc_timestamp(2025, 1)),
        ]
        for peer, (artifact, start, end) in zip(chosen, windows):
            peer.artifact = artifact
            peer.artifact_start = start
            peer.artifact_end = end

    # ------------------------------------------------------------------
    # Time advancement: growth + churn
    # ------------------------------------------------------------------

    def advance_to(self, when: int) -> None:
        """Move the world forward: growth at quarter boundaries + churn."""
        if when < self.current_time:
            raise ValueError("the world only moves forward")
        if when == self.current_time:
            return
        elapsed_hours = (when - self.current_time) / HOUR
        self.profile = profile_for(when)
        # Growth is quantized to quarter boundaries: within a quarter the
        # population targets are frozen, so consecutive snapshots differ
        # only by policy churn and the propagation cache stays warm.
        from repro.util.dates import quarter_start

        quarter_profile = profile_for(quarter_start(when))
        new_counts = self.params.scaled_counts(quarter_profile)
        if new_counts != self.counts:
            self._grow(new_counts, when)
            self.counts = new_counts
        self._churn(elapsed_hours)
        self.current_time = when

    # -- growth --------------------------------------------------------

    def _grow(self, target: ScaledCounts, when: int) -> None:
        rng = derive_rng(self.params.seed, "grow", when)
        self._grow_family(AF_INET, target.v4_ases, target.v4_prefixes, rng)
        if target.v6_ases:
            if when >= self._fiti_timestamp() and not self._fiti_done:
                self._fiti_event(rng)
            self._grow_family(AF_INET6, target.v6_ases, target.v6_prefixes, rng)
        if (
            target.collectors > len(self.layout.collectors)
            or target.fullfeed_peers > sum(1 for p in self.layout.peers if p.full_feed)
        ):
            self.counts = target
            self._grow_collectors()

    @staticmethod
    def _fiti_timestamp() -> int:
        from repro.util.dates import utc_timestamp

        return utc_timestamp(2021, 1, 1)

    def _fiti_event(self, rng: random.Random) -> None:
        """FITI testbed (§5.1): a burst of sibling v6-only stub ASes, each
        announcing one /32 from a common block."""
        self._fiti_done = True
        count = max(4, int(round(4096 * self.params.as_scale)))
        transits = [
            asn for asn, node in self.graph.nodes.items() if node.tier == Tier.TRANSIT
        ]
        if not transits:
            return
        cernet = rng.choice(transits)
        self.graph.nodes[cernet].ipv6_capable = True
        org_id = self._next_asn
        block = self.allocators[AF_INET6].allocate_block(
            max(20, 32 - max(1, math.ceil(math.log2(count))))
        )
        subnets = iter(block.subnets(32))
        for _ in range(count):
            asn = self._next_asn
            self._next_asn += 1
            node = self.graph.add_as(
                ASNode(asn, Tier.STUB, org_id=org_id,
                       region=self.graph.nodes[cernet].region, ipv6_capable=True)
            )
            self.graph.add_provider_link(asn, cernet)
            try:
                prefix = next(subnets)
            except StopIteration:  # pragma: no cover - block sized above
                break
            policy = OriginPolicy(asn, AF_INET6)
            self.origin_policies[(AF_INET6, asn)] = policy
            unit = policy.new_unit([prefix])
            self._init_meta(AF_INET6, asn, unit, MECH_UNIFORM, rng)

    def _family_stats(self, family: int) -> Tuple[int, int]:
        ases = 0
        prefixes = 0
        for (fam, _), policy in self.origin_policies.items():
            if fam == family:
                ases += 1
                prefixes += policy.prefix_count()
        return ases, prefixes

    def _grow_family(self, family: int, target_ases: int, target_prefixes: int,
                     rng: random.Random) -> None:
        current_ases, current_prefixes = self._family_stats(family)
        new_ases = max(0, target_ases - current_ases)

        for _ in range(new_ases):
            asn = self._pick_or_create_origin_asn(family, rng)
            if asn is None:
                break
            # Newcomers carry most of the prefix growth (fresh players
            # deaggregating from day one), keeping the evolved world's
            # granularity on the same trend as a freshly built one.
            mean_new = max(1.0, target_prefixes / max(1, target_ases) * 0.9)
            count = 1
            while rng.random() < 1.0 - 1.0 / mean_new and count < 64:
                count += 1
            self._create_origin(family, asn, count, rng)

        _, current_prefixes = self._family_stats(family)
        deficit = target_prefixes - current_prefixes
        if deficit <= 0:
            return
        policies = [
            policy for (fam, _), policy in self.origin_policies.items() if fam == family
        ]
        # New prefixes follow the era's policy granularity: mostly new
        # differentiated units (prefix fragmentation is TE-driven), with
        # a share appended to an existing unit.  Growing only by
        # appending would silently inflate mean atom size over the years.
        append_share = min(0.5, self._single_unit_share(family) * 0.8 + 0.05)
        cap = self._unit_size_cap(family)
        append_limit = max(2, int(cap * 0.5))
        # Preferential attachment: growth concentrates on already-large
        # origins (CDNs and incumbents deaggregate; small stubs stay
        # small), which keeps the per-AS prefix distribution heavy-tailed
        # and the single-atom-AS share on the paper's trend.
        weights = [max(1, policy.prefix_count()) for policy in policies]
        total_weight = sum(weights)
        cumulative = []
        running = 0
        for weight in weights:
            running += weight
            cumulative.append(running)
        import bisect

        while deficit > 0 and policies:
            position = bisect.bisect_left(
                cumulative, rng.randrange(1, total_weight + 1)
            )
            policy = policies[min(position, len(policies) - 1)]
            chunk = min(deficit, rng.choice((1, 1, 1, 1, 1, 2, 2, 3, 4)))
            fresh = self._allocate_prefixes(family, policy.asn, chunk, rng)
            target_unit = None
            if rng.random() < append_share and policy.units:
                candidates = [u for u in policy.units if len(u) + chunk <= append_limit]
                if candidates:
                    target_unit = rng.choice(candidates)
            if target_unit is not None:
                target_unit.prefixes.extend(fresh)
                policy.touch()
            else:
                self._differentiate_unit(policy, fresh, rng)
            deficit -= chunk
        self._split_oversized_units(family, rng)
        self._refresh_granularity(family, rng)

    def _refresh_granularity(self, family: int, rng: random.Random,
                             fraction: float = 0.07) -> None:
        """Re-partition a slice of origins to the era's policy granularity.

        Operators periodically overhaul their TE configuration; without
        this, origins keep their birth-era unit structure forever and the
        world's mean atom size cannot track the paper's downward trend.
        Runs at growth (quarter) boundaries only, so it reads as
        long-horizon churn, not intra-week instability.
        """
        policies = [
            policy
            for (fam, _), policy in self.origin_policies.items()
            if fam == family and policy.prefix_count() > 1
        ]
        if not policies:
            return
        sample_size = max(1, int(len(policies) * fraction))
        for policy in rng.sample(policies, min(sample_size, len(policies))):
            prefixes = policy.all_prefixes()
            for unit in list(policy.units):
                policy.remove_unit(unit)
            sizes = self._partition_sizes(len(prefixes), family, rng)
            cursor = 0
            for index, size in enumerate(sizes):
                members = prefixes[cursor : cursor + size]
                cursor += size
                if not members:
                    continue
                if index == 0:
                    base = policy.new_unit(members)
                    self._init_meta(family, policy.asn, base, MECH_UNIFORM, rng)
                else:
                    self._differentiate_unit(policy, members, rng)

    def _split_oversized_units(self, family: int, rng: random.Random) -> None:
        """Break units that outgrew the era's size cap (growth happens
        at quarter boundaries, so these membership changes look like the
        paper's long-horizon atom churn, not intra-week noise)."""
        cap = self._unit_size_cap(family)
        for (fam, asn), policy in list(self.origin_policies.items()):
            if fam != family:
                continue
            for unit in list(policy.units):
                if len(unit) <= int(cap * 1.5):
                    continue
                spill = unit.prefixes[cap:]
                del unit.prefixes[cap:]
                for start in range(0, len(spill), max(1, cap // 2)):
                    members = spill[start : start + max(1, cap // 2)]
                    if members:
                        self._differentiate_unit(policy, members, rng)
                policy.touch()

    def _pick_or_create_origin_asn(self, family: int,
                                   rng: random.Random) -> Optional[int]:
        """An AS without a policy in this family: reuse a policy-less
        existing AS when possible, otherwise grow the graph."""
        for asn, node in self.graph.nodes.items():
            if (family, asn) in self.origin_policies:
                continue
            if family == AF_INET6 and not node.ipv6_capable:
                if rng.random() < 0.5:
                    node.ipv6_capable = True
                else:
                    continue
            return asn
        asn = self._next_asn
        self._next_asn += 1
        if rng.random() < 0.06:
            add_transit_as(self.graph, rng, asn,
                           region=rng.randrange(self.params.n_regions),
                           ipv6_capable=True, peering_density=0.1)
        else:
            add_stub_as(self.graph, rng, asn,
                        region=rng.randrange(self.params.n_regions),
                        ipv6_capable=family == AF_INET6 or rng.random() < self._v6_fraction(),
                        multihoming_mean=1.3 + 0.6 * min(1.0, (self.profile.year - 2004) / 20))
        return asn

    # -- churn ---------------------------------------------------------

    def _churn(self, hours: float) -> None:
        if hours <= 0 or self.params.churn_multiplier <= 0:
            return
        rng = derive_rng(self.params.seed, "churn", self.current_time)
        profile = self.profile
        multiplier = self.params.churn_multiplier
        p_volatile = 1.0 - math.exp(-profile.hazard_volatile * multiplier * hours)
        p_stable = 1.0 - math.exp(-profile.hazard_stable * multiplier * hours)

        for (family, asn), policy in list(self.origin_policies.items()):
            for unit in list(policy.units):
                if unit not in policy.units:
                    # Removed by a sibling unit's churn (merge/oscillation).
                    continue
                meta = self._meta(family, asn, unit)
                chance = p_volatile if meta.volatile else p_stable
                if rng.random() < chance:
                    self._churn_unit(policy, unit, meta, rng)

        # Vantage-point policy changes (localized split storms, §4.4.1):
        # occasionally a VP swaps a provider, and more often it gains or
        # drops a peering — both change routing only from that VP's own
        # perspective, which is what makes most atom splits visible to a
        # single vantage point in the paper.
        p_vp = 1.0 - math.exp(
            -profile.vp_change_per_day * multiplier * hours / 24.0
        )
        p_peering = 1.0 - math.exp(
            -profile.vp_change_per_day * 30.0 * multiplier * hours / 24.0
        )
        for peer in self.layout.peers:
            if not peer.full_feed:
                continue
            if rng.random() < p_vp:
                self._change_vp_provider(peer.asn, rng)
            elif rng.random() < p_peering:
                self._toggle_vp_peering(peer.asn, rng)

    def _churn_unit(self, policy: OriginPolicy, unit: PolicyUnit,
                    meta: _UnitMeta, rng: random.Random) -> None:
        """Apply one membership or configuration change to a unit."""
        family = policy.family
        # Oscillation: volatile units preferentially undo their last move,
        # producing the fast-then-flat CAM decay the paper reports.
        if (
            meta.volatile
            and meta.last_move is not None
            and rng.random() < self.profile.oscillation_bias
        ):
            prefix, from_id, to_id = meta.last_move
            source = next((u for u in policy.units if u.unit_id == to_id), None)
            target = next((u for u in policy.units if u.unit_id == from_id), None)
            if source is not None and target is not None and prefix in source.prefixes:
                source.prefixes.remove(prefix)
                target.prefixes.append(prefix)
                if not source.prefixes:
                    policy.remove_unit(source)
                policy.touch()
                meta.last_move = (prefix, to_id, from_id)
                return
            meta.last_move = None

        roll = rng.random()
        if roll < 0.55:
            self._move_prefix(policy, unit, meta, rng)
        elif roll < 0.75 and len(policy.units) > 1:
            self._merge_unit(policy, unit, rng)
        elif roll < 0.9:
            # Re-tag / re-prepend: path change with membership intact.
            if unit.tag is not None:
                unit.prepend = {n: rng.choice((1, 2)) for n in unit.prepend} or {
                    n: 1 for n in self._announce_targets(policy.asn)
                }
            else:
                targets = self._announce_targets(policy.asn)
                if targets:
                    pick = rng.choice(sorted(targets))
                    unit.prepend[pick] = unit.prepend.get(pick, 0) % 3 + 1
            policy.touch()
        else:
            self._move_prefix(policy, unit, meta, rng)

    def _move_prefix(self, policy: OriginPolicy, unit: PolicyUnit,
                     meta: _UnitMeta, rng: random.Random) -> None:
        if not unit.prefixes:
            return
        prefix = rng.choice(unit.prefixes)
        others = [u for u in policy.units if u.unit_id != unit.unit_id]
        if others and rng.random() < 0.6:
            # TE adjustments usually move prefixes between *related*
            # traffic classes (same mechanism, different configuration),
            # whose paths differ at few vantage points — most splits are
            # therefore narrowly observed (4.4.1).
            mechanism = meta.mechanism
            related = [
                u
                for u in others
                if (m := self._unit_meta.get((policy.family, policy.asn, u.unit_id)))
                and m.mechanism == mechanism
            ]
            pool = related if related and rng.random() < 0.75 else others
            target = rng.choice(pool)
            unit.prefixes.remove(prefix)
            target.prefixes.append(prefix)
            meta.last_move = (prefix, unit.unit_id, target.unit_id)
        else:
            if len(unit.prefixes) == 1:
                return
            unit.prefixes.remove(prefix)
            fresh = self._differentiate_unit(policy, [prefix], rng, allow_rewire=False)
            meta.last_move = (prefix, unit.unit_id, fresh.unit_id)
        if not unit.prefixes:
            policy.remove_unit(unit)
        policy.touch()

    def _merge_unit(self, policy: OriginPolicy, unit: PolicyUnit,
                    rng: random.Random) -> None:
        others = [u for u in policy.units if u.unit_id != unit.unit_id]
        if not others:
            return
        target = rng.choice(others)
        target.prefixes.extend(unit.prefixes)
        unit.prefixes.clear()
        policy.remove_unit(unit)

    def _toggle_vp_peering(self, asn: int, rng: random.Random) -> None:
        """Add or remove one settlement-free peering of a vantage point.

        Peer routes only flow to the VP itself (and its customer cone),
        so the resulting path changes — and any atom splits they reveal
        — are visible almost exclusively from this vantage point.
        """
        existing = self._vp_extra_peers.get(asn)
        if existing is not None:
            if self.graph.relationship(asn, existing) == Relationship.PEER:
                self.graph.remove_link(asn, existing)
            del self._vp_extra_peers[asn]
            return
        candidates = [
            other
            for other, node in self.graph.nodes.items()
            if node.tier in (Tier.TIER1, Tier.TRANSIT)
            and other != asn
            and self.graph.relationship(asn, other) is None
        ]
        if not candidates:
            return
        target = rng.choice(candidates)
        self.graph.add_peer_link(asn, target)
        self._vp_extra_peers[asn] = target

    def _change_vp_provider(self, asn: int, rng: random.Random) -> None:
        providers = self.graph.providers(asn)
        if not providers:
            return
        old = rng.choice(providers)
        replacements = [
            candidate
            for candidate, node in self.graph.nodes.items()
            if node.tier in (Tier.TIER1, Tier.TRANSIT)
            and candidate != asn
            and self.graph.relationship(asn, candidate) is None
            and not self._would_create_provider_cycle(asn, candidate)
        ]
        if not replacements:
            return
        self.graph.replace_provider(asn, old, rng.choice(replacements))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def origins(self, family: int) -> Dict[int, OriginPolicy]:
        """{asn: OriginPolicy} for one address family."""
        return {
            asn: policy
            for (fam, asn), policy in self.origin_policies.items()
            if fam == family
        }

    def total_prefixes(self, family: int) -> int:
        """Prefix count across all origins of a family."""
        return self._family_stats(family)[1]

    def total_units(self, family: int) -> int:
        """Policy-unit count across all origins of a family."""
        return sum(
            len(policy.units)
            for (fam, _), policy in self.origin_policies.items()
            if fam == family
        )

    def __repr__(self) -> str:
        v4_ases, v4_prefixes = self._family_stats(AF_INET)
        v6_ases, v6_prefixes = self._family_stats(AF_INET6)
        return (
            f"World(t={self.current_time}, ASes={len(self.graph)}, "
            f"v4={v4_ases}/{v4_prefixes}p, v6={v6_ases}/{v6_prefixes}p, "
            f"peers={len(self.layout.peers)})"
        )

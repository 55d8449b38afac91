"""BGP UPDATE stream generation.

The paper analyses the four hours of updates following each quarterly
snapshot (§2.4.1) to measure how often an atom's prefixes travel in one
UPDATE message (§3.3, §4.2).  This generator produces that stream from
the world's routing state:

* *unit events* — a policy unit's route changes somewhere, so every
  affected vantage point re-announces the unit's prefixes; the prefixes
  are packed into one record (case 2, "seen in full") or split across
  records (case 3, partial), with a packing probability that declines
  mildly with unit size;
* *prefix flaps* — single-prefix noise, usually visible at one vantage
  point, which keeps multi-prefix ASes from ever being seen in full;
* *session resets* — rare full-table re-announcements from one peer.

Volatile units (the same ones driving snapshot churn) flap more often,
keeping the update stream and the stability analysis consistent.

Events are not pure refreshes: with :attr:`UpdateStreamConfig.path_change_prob`
a shared-fate event announces an *altered* AS path (an extra origin
prepend) and restores the original shortly after, and with
:attr:`UpdateStreamConfig.flap_withdraw_prob` a prefix flap is a
withdraw-then-reannounce pair.  Consumers that track selected paths —
``repro live``, :mod:`repro.core.incremental` — therefore see real
best-path changes and nonzero per-window churn, not just timestamps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.net.aspath import ASPath
from repro.net.prefix import AF_INET, Prefix
from repro.simulation.routing import PropagationEngine, Route
from repro.simulation.snapshot import _vp_tables
from repro.topology.world import PeerSpec, World
from repro.util.dates import HOUR
from repro.util.determinism import derive_rng


@dataclass
class UpdateStreamConfig:
    """Rates of the update generator (per hour unless noted)."""

    unit_event_rate_volatile: float = 0.060
    unit_event_rate_stable: float = 0.012
    prefix_flap_rate: float = 0.0015
    session_reset_prob: float = 0.01  # per peer, per window
    #: probability a global (all-VP) rather than localized event
    global_event_prob: float = 0.55
    #: base probability a unit's prefixes are packed into one record
    pack_full_base: float = 0.75
    #: per-extra-prefix decay of the packing probability
    pack_full_decay: float = 0.03
    pack_full_floor: float = 0.25
    #: probability a shared-fate event announces an altered AS path
    #: (extra origin prepend) before restoring the original — this is
    #: what makes the stream change selected paths, not just refresh
    path_change_prob: float = 0.35
    #: probability a single-prefix flap withdraws before re-announcing
    flap_withdraw_prob: float = 0.4

    @classmethod
    def for_year(cls, year: float) -> "UpdateStreamConfig":
        """Packing discipline loosens over the years (Fig. 3: the 2024
        atom curve sits below the 2004 one)."""
        drift = max(0.0, min(1.0, (year - 2004.0) / 20.0))
        return cls(pack_full_base=0.86 - 0.14 * drift)

    def pack_probability(self, size: int) -> float:
        """Probability a ``size``-prefix group travels in one record."""
        return max(
            self.pack_full_floor,
            self.pack_full_base - self.pack_full_decay * max(0, size - 2),
        )


#: The largest mean one Knuth draw takes: ``e**-lam`` underflows to 0.0
#: near 745, after which the product test would stop near 745 whatever
#: the mean.
POISSON_CHUNK = 700.0

#: The last second an MRT header's 32-bit timestamp can hold (RFC 6396 §2).
MRT_TIME_MAX = 2**32 - 1


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's method, over chunks of mean at most :data:`POISSON_CHUNK`.

    A sum of independent Poisson draws is a Poisson draw of the summed
    mean, so a larger mean is drawn in chunks; a mean up to the chunk
    is a single Knuth draw.
    """
    if lam <= 0:
        return 0
    count = 0
    while lam > POISSON_CHUNK:
        count += _poisson(rng, POISSON_CHUNK)
        lam -= POISSON_CHUNK
    level = 2.718281828459045 ** (-lam)
    product = rng.random()
    while product > level:
        count += 1
        product *= rng.random()
    return count


def update_window(start: int, hours: float) -> int:
    """The update window of ``hours`` after ``start``, in whole seconds.

    Raises ValueError when the window rounds to 0 s, or when it ends
    after :data:`MRT_TIME_MAX`, which also keeps its length a finite
    whole number.  Only the window's end is bounded: an event drawn
    near it is stamped up to a few minutes later, and a session reset
    spreads its table over one more second per 200 prefixes.
    """
    seconds = hours * HOUR
    if not seconds >= 1:  # NaN too
        raise ValueError(f"a {hours:g} h window rounds to 0 s")
    if not start + seconds <= MRT_TIME_MAX:
        raise ValueError(
            f"a {hours:g} h window ends after {MRT_TIME_MAX}, the last "
            f"second an MRT timestamp can hold (start {start})"
        )
    return int(seconds)


def _announcement(peer: PeerSpec, prefix: Prefix, route: Route) -> RouteElement:
    path = ASPath.from_asns((peer.asn,) + route.path)
    return RouteElement(ElementType.ANNOUNCEMENT, prefix, PathAttributes(path))


def _withdrawal(prefix: Prefix) -> RouteElement:
    return RouteElement(ElementType.WITHDRAWAL, prefix, None)


def _prepended(route: Route) -> Route:
    """The same route with one extra origin prepend (a longer AS path)."""
    return Route(route.pref_class, route.length + 1,
                 route.path + (route.path[-1],))


def _event_groups(world: World, tables, family: int,
                  peers: Sequence[PeerSpec]):
    """Path-vector equivalence classes of prefixes (atom precursors).

    Yields (prefixes, volatile): prefixes sharing the same AS path at
    every vantage point, flagged volatile when any contributing policy
    unit is volatile.
    """
    prefix_volatile: Dict[Prefix, bool] = {}
    for asn, policy in world.origins(family).items():
        for unit in policy.units:
            meta = world._unit_meta.get((family, asn, unit.unit_id))
            volatile = bool(meta and meta.volatile)
            for prefix in unit.prefixes:
                if volatile:
                    prefix_volatile[prefix] = True
                else:
                    prefix_volatile.setdefault(prefix, False)

    ordered_tables = [tables[peer.asn] for peer in peers]
    universe = set()
    for table in ordered_tables:
        universe.update(table)
    groups: Dict[tuple, list] = {}
    for prefix in universe:
        key = tuple(
            entry[0].path if (entry := table.get(prefix)) is not None else None
            for table in ordered_tables
        )
        groups.setdefault(key, []).append(prefix)
    for members in groups.values():
        volatile = any(prefix_volatile.get(prefix, False) for prefix in members)
        yield members, volatile


def generate_update_records(
    world: World,
    engine: PropagationEngine,
    start: int,
    hours: float = 4.0,
    family: int = AF_INET,
    config: Optional[UpdateStreamConfig] = None,
) -> List[RouteRecord]:
    """Generate the update stream for ``hours`` after ``start``.

    The world state is not advanced; transient events are drawn on top
    of the current routing state.  Records are returned time-sorted.
    Raises ValueError for a window :func:`update_window` refuses.
    """
    window = update_window(start, hours)
    if config is None:
        config = UpdateStreamConfig.for_year(world.profile.year)
    rng = derive_rng(world.params.seed, "updates", start, family)
    tables = _vp_tables(world, engine, family)
    peers = [p for p in world.layout.peers if p.asn in tables]
    if not peers:
        return []
    records: List[RouteRecord] = []

    def emit(peer: PeerSpec, when: int, prefixes: Sequence[Prefix],
             altered: bool = False, withdraw: bool = False) -> None:
        """Append one update record for ``peer`` covering ``prefixes``."""
        table = tables[peer.asn]
        if withdraw:
            elements = [
                _withdrawal(prefix) for prefix in prefixes if prefix in table
            ]
        else:
            elements = [
                _announcement(
                    peer,
                    prefix,
                    _prepended(table[prefix][0]) if altered else table[prefix][0],
                )
                for prefix in prefixes
                if prefix in table
            ]
        if elements:
            records.append(
                RouteRecord(
                    "update",
                    peer.project,
                    peer.collector,
                    peer.asn,
                    peer.address,
                    when,
                    elements,
                )
            )

    # ---- shared-fate events ---------------------------------------------
    # A route change somewhere upstream hits every prefix that shares the
    # changed path — i.e. a whole path-vector equivalence class (a policy
    # atom), which may span several policy units that merged.  Firing per
    # *unit* would systematically split merged atoms across records and
    # erase the correlation the paper measures.
    for prefixes, volatile in _event_groups(world, tables, family, peers):
        rate = (
            config.unit_event_rate_volatile
            if volatile
            else config.unit_event_rate_stable
        )
        for _ in range(_poisson(rng, rate * hours)):
            when = start + rng.randrange(window)
            if rng.random() < config.global_event_prob:
                affected = peers
            else:
                count = max(1, int(len(peers) * rng.uniform(0.05, 0.4)))
                affected = rng.sample(peers, count)
            # An actual path change: the event announces a prepended
            # path, held for a short time, then restores the original.
            # Both legs hit the same peers so every consumer converges
            # back to the snapshot state by end of window.
            changed = rng.random() < config.path_change_prob
            hold = rng.randrange(30, 120) if changed else 0
            for peer in affected:
                carried = [
                    prefix for prefix in prefixes if prefix in tables[peer.asn]
                ]
                if not carried:
                    continue
                jitter = rng.randrange(0, 20)
                if (
                    len(carried) == 1
                    or rng.random() < config.pack_probability(len(carried))
                ):
                    emit(peer, when + jitter, carried, altered=changed)
                else:
                    split = rng.randrange(1, len(carried))
                    shuffled = carried[:]
                    rng.shuffle(shuffled)
                    emit(peer, when + jitter, shuffled[:split], altered=changed)
                    emit(peer, when + jitter + rng.randrange(1, 40),
                         shuffled[split:], altered=changed)
                if changed:
                    emit(peer, when + jitter + hold, carried)

    # ---- single-prefix flaps --------------------------------------------
    all_prefixes: List[Prefix] = []
    for policy in world.origins(family).values():
        all_prefixes.extend(policy.all_prefixes())
    flap_count = _poisson(rng, config.prefix_flap_rate * hours * len(all_prefixes))
    for _ in range(flap_count):
        prefix = rng.choice(all_prefixes)
        when = start + rng.randrange(window)
        witnesses = (
            peers
            if rng.random() < 0.1
            else rng.sample(peers, max(1, len(peers) // 20))
        )
        # A real flap: the route vanishes, then comes back.  Without
        # the withdrawal leg the "flap" would be a no-op refresh.
        flap_down = rng.random() < config.flap_withdraw_prob
        back = rng.randrange(10, 60) if flap_down else 0
        for peer in witnesses:
            if prefix in tables[peer.asn]:
                offset = rng.randrange(0, 10)
                if flap_down:
                    emit(peer, when + offset, [prefix], withdraw=True)
                    emit(peer, when + offset + back, [prefix])
                else:
                    emit(peer, when + offset, [prefix])

    # ---- session resets --------------------------------------------------
    for peer in peers:
        if rng.random() >= config.session_reset_prob:
            continue
        when = start + rng.randrange(window)
        carried = sorted(tables[peer.asn])
        for chunk_start in range(0, len(carried), 200):
            emit(peer, when + chunk_start // 200, carried[chunk_start : chunk_start + 200])

    records.sort(key=lambda record: record.timestamp)
    return records

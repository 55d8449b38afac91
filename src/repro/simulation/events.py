"""Discrete-event BGP convergence engine.

The equilibrium renderer (:mod:`repro.simulation.routing`) computes the
fixed point of Gao-Rexford route selection directly.  This module runs
the *process* that reaches it: per-AS routers exchange timed
announcements and withdrawals over a priority-queue event loop, with
per-neighbor Adj-RIB-Ins, MRAI batching, deterministic link latencies,
BGP session resets, and scheduled perturbations (flap storms, route
leaks, multihoming failover).  Mid-run, the routing state can be
rendered into collector RIB records at any sim time — capturing the
transients an equilibrium snapshot can never show.

Three properties make the engine useful for measurement experiments:

* **Determinism.**  Events are ordered by ``(time, sequence)`` with a
  globally unique sequence number, link latencies are constant per link
  and drawn from :func:`~repro.util.determinism.derive_rng`, and every
  state iteration that affects behavior walks keys in sorted order.
  Two runs of the same seeded world and scenario produce identical
  event counts, messages, and snapshots.

* **Quiescence parity.**  Routers select by ``(preference class, path
  length, path)`` — exactly the total order of
  :meth:`~repro.simulation.routing.Route.rank`.  The centralized BFS
  breaks same-length ties by lowest sender, which equals
  path-lexicographic order because competing paths differ at their
  first hop.  Gao-Rexford preferences admit a unique stable solution,
  so once the event queue drains (MRAI deadlines are passive: a send is
  only scheduled while pending updates exist, hence an empty queue
  means no pending timers), the rendered tables are value-identical to
  the equilibrium renderer's — :func:`quiescence_parity` checks this
  record for record.

* **Snapshot reuse.**  :class:`EventPropagationView` adapts router
  Loc-RIBs to the :class:`~repro.simulation.routing.RouteSource`
  interface, so :func:`~repro.simulation.snapshot.render_rib_records`
  is reused wholesale — MOAS resolution, partial feeds, and collector
  artifacts behave identically in both modes, and snapshots feed
  directly into ``compute_atoms``, ``repro.core.incremental``, and
  ``LivePipeline``.

See ``docs/simulation.md`` for the event model and scenario taxonomy.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.bgp.attributes import Community, PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.bgp.rib import RIBSnapshot
from repro.net.aspath import ASPath
from repro.net.prefix import AF_INET, Prefix
from repro.obs import get_tracer
from repro.simulation import artifacts as art
from repro.simulation.routing import (
    CLASS_CUSTOMER,
    CLASS_PEER,
    CLASS_PROVIDER,
    PropagationEngine,
    PropagationResult,
    Route,
)
from repro.simulation.snapshot import render_rib_records
from repro.topology.model import Relationship
from repro.topology.policies import OriginPolicy, PolicyUnit, TransitPolicy
from repro.topology.world import PeerSpec, World
from repro.util.determinism import derive_rng

#: One routed object: ``(origin ASN, policy-unit id)``.  Announcements
#: carry whole units (their prefixes share one configuration), matching
#: how the equilibrium engine groups messages.
NLRI = Tuple[int, int]

#: What one router advertised to one neighbor: ``(as_path, TE tag)``.
#: Paths are receiver-side table entries ``(sender, ..., origin)``.
Advert = Tuple[Tuple[int, ...], Optional[Community]]

#: Default MRAI (minimum route advertisement interval), sim seconds.
DEFAULT_MRAI = 30.0

# Event kinds; only (time, seq) participate in heap ordering.
_EV_MESSAGE = 0
_EV_SEND = 1
_EV_ACTION = 2


class ConvergenceError(RuntimeError):
    """The event loop exceeded its safety budget without quiescing."""


class SimRouter:
    """Per-AS BGP speaker state.

    Attributes
    ----------
    asn:
        The router's AS number.
    neighbor_class:
        Preference class of routes learned *from* each neighbor
        (customer < peer < provider).
    customers / providers / peers:
        Neighbor sets by business relationship.
    neighbor_order:
        Every neighbor ASN, sorted once at build time (relationships are
        fixed for a run; link state lives on the run).
    adj_in:
        Per-neighbor Adj-RIB-In: ``{neighbor: {nlri: (path, tag)}}``.
    loc_rib:
        Selected best routes: ``{nlri: (Route, tag)}``.
    sent:
        Advert memory per neighbor, diffed on every send so updates are
        emitted only on change and withdrawals exactly on retraction.
    pending:
        NLRIs whose advertisement toward a neighbor must be re-evaluated
        at the next send opportunity.
    mrai_ready:
        Earliest sim time the next UPDATE toward each neighbor may leave.
    suppressed:
        Locally originated unit ids currently withdrawn by a scenario.
    leak_to:
        Neighbors toward which valley-free export is (mis)configured off
        — the route-leak perturbation.
    """

    __slots__ = (
        "asn",
        "neighbor_class",
        "customers",
        "providers",
        "peers",
        "neighbor_order",
        "adj_in",
        "loc_rib",
        "sent",
        "pending",
        "mrai_ready",
        "send_scheduled",
        "suppressed",
        "leak_to",
        "local_units",
    )

    def __init__(self, asn: int, neighbors: Dict[int, Relationship]):
        self.asn = asn
        self.neighbor_class: Dict[int, int] = {}
        customers: Set[int] = set()
        providers: Set[int] = set()
        peers: Set[int] = set()
        for neighbor, rel in neighbors.items():
            if rel == Relationship.CUSTOMER:
                customers.add(neighbor)
                self.neighbor_class[neighbor] = CLASS_CUSTOMER
            elif rel == Relationship.PEER:
                peers.add(neighbor)
                self.neighbor_class[neighbor] = CLASS_PEER
            else:
                providers.add(neighbor)
                self.neighbor_class[neighbor] = CLASS_PROVIDER
        self.customers = frozenset(customers)
        self.providers = frozenset(providers)
        self.peers = frozenset(peers)
        self.neighbor_order: Tuple[int, ...] = tuple(sorted(self.neighbor_class))
        self.adj_in: Dict[int, Dict[NLRI, Advert]] = {}
        self.loc_rib: Dict[NLRI, Tuple[Route, Optional[Community]]] = {}
        self.sent: Dict[int, Dict[NLRI, Advert]] = {}
        self.pending: Dict[int, Set[NLRI]] = {}
        self.mrai_ready: Dict[int, float] = {}
        self.send_scheduled: Set[int] = set()
        self.suppressed: Set[int] = set()
        self.leak_to: Set[int] = set()
        self.local_units: Dict[int, PolicyUnit] = {}

    def neighbors(self) -> FrozenSet[int]:
        """All neighbor ASNs regardless of relationship."""
        return self.customers | self.providers | self.peers

    def __repr__(self) -> str:
        return (
            f"SimRouter(AS{self.asn}, {len(self.neighbor_class)} neighbors, "
            f"{len(self.loc_rib)} routes)"
        )


class EventPropagationView:
    """Adapts router Loc-RIBs to the snapshot renderer's interface.

    Implements :class:`~repro.simulation.routing.RouteSource` by
    indexing every vantage-point router's selected routes per origin,
    cached on the run's mutation counter so consecutive renders of an
    unchanged state reuse the index.
    """

    def __init__(self, run: "ConvergenceRun"):
        self._run = run
        self._stamp: Optional[Tuple[int, FrozenSet[int]]] = None
        self._index: Dict[int, PropagationResult] = {}

    def routes(self, policy: OriginPolicy, targets: FrozenSet[int]) -> PropagationResult:
        """Selected routes of one origin's units at the target ASes."""
        run = self._run
        stamp = (run.mutations, targets)
        if stamp != self._stamp:
            index: Dict[int, PropagationResult] = {}
            for vp_asn in sorted(targets):
                router = run.routers.get(vp_asn)
                if router is None:
                    continue
                for (origin, unit_id), (route, _tag) in router.loc_rib.items():
                    index.setdefault(origin, {}).setdefault(vp_asn, {})[unit_id] = route
            self._index = index
            self._stamp = stamp
        return self._index.get(policy.asn, {})


class ConvergenceRun:
    """One discrete-event convergence experiment over a frozen world.

    The world is not advanced during the run; sim time is seconds
    relative to ``world.current_time``.  Typical flow::

        run = ConvergenceRun(world)
        run.settle()                  # origins start announcing
        run.run_to_quiescence()       # initial convergence
        run.schedule(run.now + 60, run.withdraw_unit, asn, unit_id)
        run.run_until(run.now + 90)   # ... mid-convergence snapshots ...
        run.run_to_quiescence()

    Perturbation primitives (:meth:`withdraw_unit`,
    :meth:`announce_unit`, :meth:`set_session`, :meth:`reset_session`,
    :meth:`start_leak`, :meth:`stop_leak`) may be called directly or
    via :meth:`schedule`; the scenario taxonomy in
    :mod:`repro.simulation.scenario` composes them.
    """

    def __init__(
        self,
        world: World,
        family: int = AF_INET,
        mrai: float = DEFAULT_MRAI,
        seed: Optional[int] = None,
        record_updates: bool = False,
    ):
        mrai = float(mrai)
        if not math.isfinite(mrai) or mrai < 0:
            raise ValueError(f"mrai must be a finite number >= 0, got {mrai}")
        self.world = world
        self.family = family
        self.mrai = mrai
        self.seed = world.params.seed if seed is None else seed
        self.start_ts = world.current_time
        self.now = 0.0
        #: sim time the scenario (if any) started; set by the facade
        self.scenario_start = 0.0
        #: narration lines describing the applied scenario
        self.narration: List[str] = []
        self.record_updates = record_updates
        self.recording = False
        #: bumped on every Loc-RIB change; the render index caches on it
        self.mutations = 0
        self._seq = 0
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._latency_cache: Dict[Tuple[int, int], float] = {}
        self._session_epoch: Dict[Tuple[int, int], int] = {}
        self._down_links: Set[Tuple[int, int]] = set()
        #: full Adj-RIB-In scans since the last ``_pump`` reported them
        self._selection_scans = 0
        self._update_log: List[RouteRecord] = []
        self._settled = False
        self._transit = world.transit_policies
        self.view = EventPropagationView(self)

        tracer = get_tracer()
        with tracer.span("sim.build", family=family):
            graph = world.graph
            self.routers: Dict[int, SimRouter] = {
                asn: SimRouter(asn, graph.neighbors(asn))
                for asn in sorted(graph.nodes)
            }
            self._units: Dict[NLRI, PolicyUnit] = {}
            for asn, policy in sorted(world.origins(family).items()):
                router = self.routers.get(asn)
                if router is None:
                    continue
                for unit in policy.units:
                    self._units[(asn, unit.unit_id)] = unit
                    router.local_units[unit.unit_id] = unit
            self._vp_peers: Dict[int, PeerSpec] = {}
            for peer in world.layout.peers:
                self._vp_peers.setdefault(peer.asn, peer)
            tracer.count("sim.routers", len(self.routers))

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    @property
    def is_quiescent(self) -> bool:
        """True when no event (hence no MRAI deadline) is outstanding."""
        return not self._heap

    def _push(self, when: float, kind: int, payload: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, kind, payload))

    def schedule(self, when: float, action: Callable[..., None], *args: Any) -> None:
        """Run ``action(*args)`` at sim time ``when`` (>= now).

        A non-finite ``when`` raises :class:`ValueError`: NaN compares
        false with every time and would break the heap's order.
        """
        if not math.isfinite(when):
            raise ValueError(f"schedule needs a finite sim time, got {when}")
        self._push(max(when, self.now), _EV_ACTION, (action, args))

    def _latency(self, a: int, b: int) -> float:
        key = (a, b) if a < b else (b, a)
        latency = self._latency_cache.get(key)
        if latency is None:
            # Constant per link: the session is FIFO (as over TCP), so
            # consecutive UPDATEs can never overtake each other.
            rng = derive_rng(self.seed, "sim.latency", key[0], key[1])
            latency = rng.uniform(0.01, 0.2)
            self._latency_cache[key] = latency
        return latency

    def _link_key(self, a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def _link_down(self, a: int, b: int) -> bool:
        return self._link_key(a, b) in self._down_links

    def _epoch(self, a: int, b: int) -> int:
        return self._session_epoch.get(self._link_key(a, b), 0)

    def _bump_epoch(self, a: int, b: int) -> None:
        key = self._link_key(a, b)
        self._session_epoch[key] = self._session_epoch.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Routing core
    # ------------------------------------------------------------------

    def _desired_advert(
        self,
        router: SimRouter,
        neighbor: int,
        nlri: NLRI,
        upstream: bool,
        takes_all: bool,
        policy: Optional[TransitPolicy],
    ) -> Optional[Advert]:
        """What ``router`` should currently advertise to ``neighbor``.

        ``None`` means nothing (a withdrawal if something was sent
        before).  Mirrors the equilibrium engine exactly: origins
        announce only to providers and peers per the unit's
        announcement set and prepending; learned customer routes export
        everywhere, peer/provider routes to customers only (unless a
        leak is configured); transit tag filters apply at every
        non-origin export; exports never face the origin or an AS
        already on the path.

        The caller has checked that the session is up and passes the
        facts fixed for the whole send: ``upstream`` (the neighbor is a
        provider or peer), ``takes_all`` (it is a customer or a leak
        target, so it takes non-customer routes) and ``policy`` (the
        router's transit policy, ``None`` when it has no rules).
        """
        origin, unit_id = nlri
        if router.asn == origin:
            unit = router.local_units.get(unit_id)
            if unit is None or unit_id in router.suppressed:
                return None
            if not upstream or not unit.announces_to(neighbor):
                return None
            path = (origin,) * (1 + unit.prepend_for(neighbor))
            return (path, unit.tag)
        entry = router.loc_rib.get(nlri)
        if entry is None:
            return None
        route, tag = entry
        if neighbor == origin or neighbor in route.path:
            return None
        if route.pref_class != CLASS_CUSTOMER and not takes_all:
            return None
        if policy is not None and policy.blocks(tag, neighbor):
            return None
        return ((router.asn,) + route.path, tag)

    def _reselect(self, router: SimRouter, nlri: NLRI, sender: int,
                  advert: Optional[Advert]) -> bool:
        """Update the best route for ``nlri`` after ``sender``'s offer
        became ``advert`` (``None``: withdrawn); True if it changed.

        Candidates never tie: same-class same-length offers from
        different neighbors differ at ``path[0]``, which is the sender,
        so ``Route.rank()`` is a strict total order over them and only
        the changed offer can displace the best.  An offer that ranks
        at or above the best becomes the best; an offer from a neighbor
        that did not hold the best changes nothing otherwise.  Only when
        the sender held the best and now offers a worse route or none
        are all Adj-RIB-Ins scanned.
        """
        old = router.loc_rib.get(nlri)
        new: Optional[Tuple[Route, Optional[Community]]] = None
        if advert is not None:
            path, tag = advert
            offer = Route(router.neighbor_class[sender], len(path), path)
            if old is None or offer.rank() <= old[0].rank():
                new = (offer, tag)
        if new is None:
            if old is None or old[0].path[0] != sender:
                return False
            self._selection_scans += 1
            best: Optional[Route] = None
            best_tag: Optional[Community] = None
            for neighbor, table in router.adj_in.items():
                entry = table.get(nlri)
                if entry is None:
                    continue
                path, tag = entry
                route = Route(router.neighbor_class[neighbor], len(path), path)
                if best is None or route.rank() < best.rank():
                    best, best_tag = route, tag
            if best is not None:
                new = (best, best_tag)
        if new == old:
            return False
        if new is None:
            del router.loc_rib[nlri]
        else:
            router.loc_rib[nlri] = new
        self.mutations += 1
        return True

    def _mark_pending(self, router: SimRouter, nlris: Set[NLRI]) -> None:
        """Queue NLRIs for (re-)advertisement toward every live neighbor."""
        if not nlris:
            return
        for neighbor in router.neighbor_order:
            if self._link_down(router.asn, neighbor):
                continue
            router.pending.setdefault(neighbor, set()).update(nlris)
            self._schedule_send(router, neighbor)

    def _schedule_send(self, router: SimRouter, neighbor: int) -> None:
        if neighbor in router.send_scheduled:
            return
        ready = router.mrai_ready.get(neighbor, 0.0)
        when = self.now
        if ready > when:
            when = ready
            get_tracer().count("sim.mrai_deferred")
        router.send_scheduled.add(neighbor)
        self._push(when, _EV_SEND, (router.asn, neighbor))

    def _do_send(self, asn: int, neighbor: int) -> None:
        router = self.routers[asn]
        router.send_scheduled.discard(neighbor)
        pending = router.pending.get(neighbor)
        if not pending:
            return
        if self._link_down(asn, neighbor):
            pending.clear()
            return
        # Fixed for the whole send: worked out once, not once per NLRI.
        upstream = neighbor in router.providers or neighbor in router.peers
        takes_all = neighbor in router.customers or neighbor in router.leak_to
        policy = self._transit.get(asn) or None
        announcements: List[Tuple[NLRI, Advert]] = []
        withdrawals: List[NLRI] = []
        sent = router.sent.setdefault(neighbor, {})
        for nlri in sorted(pending):
            desired = self._desired_advert(router, neighbor, nlri, upstream,
                                           takes_all, policy)
            previous = sent.get(nlri)
            if desired == previous:
                continue
            if desired is None:
                del sent[nlri]
                withdrawals.append(nlri)
            else:
                sent[nlri] = desired
                announcements.append((nlri, desired))
        pending.clear()
        if not announcements and not withdrawals:
            return
        tracer = get_tracer()
        tracer.count("sim.messages")
        if announcements:
            tracer.count("sim.announcements", len(announcements))
        if withdrawals:
            tracer.count("sim.withdrawals", len(withdrawals))
        router.mrai_ready[neighbor] = self.now + self.mrai
        self._push(
            self.now + self._latency(asn, neighbor),
            _EV_MESSAGE,
            (neighbor, asn, self._epoch(asn, neighbor),
             tuple(announcements), tuple(withdrawals)),
        )

    def _deliver(
        self,
        receiver: int,
        sender: int,
        epoch: int,
        announcements: Tuple[Tuple[NLRI, Advert], ...],
        withdrawals: Tuple[NLRI, ...],
    ) -> None:
        if epoch != self._epoch(receiver, sender):
            # The session dropped (or reset) while the message was in
            # flight; a real TCP teardown would have discarded it too.
            get_tracer().count("sim.messages_dropped")
            return
        router = self.routers[receiver]
        adj = router.adj_in.setdefault(sender, {})
        changed: Set[NLRI] = set()
        for nlri, advert in announcements:
            adj[nlri] = advert
            if self._reselect(router, nlri, sender, advert):
                changed.add(nlri)
        for nlri in withdrawals:
            if (adj.pop(nlri, None) is not None
                    and self._reselect(router, nlri, sender, None)):
                changed.add(nlri)
        if not changed:
            return
        get_tracer().count("sim.best_changes", len(changed))
        self._mark_pending(router, changed)
        if self.recording and receiver in self._vp_peers:
            self._log_updates(router, changed)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def _pump(self, until: Optional[float],
              max_events: Optional[int] = None) -> int:
        processed = 0
        heap = self._heap
        while heap:
            when = heap[0][0]
            if until is not None and when > until:
                break
            if max_events is not None and processed >= max_events:
                raise ConvergenceError(
                    f"no quiescence after {processed} events "
                    f"(sim time {self.now:.1f}s)"
                )
            _, _, kind, payload = heapq.heappop(heap)
            if when > self.now:
                self.now = when
            processed += 1
            if kind == _EV_MESSAGE:
                self._deliver(*payload)
            elif kind == _EV_SEND:
                self._do_send(*payload)
            else:
                action, args = payload
                action(*args)
        if until is not None and until > self.now:
            self.now = until
        tracer = get_tracer()
        if processed:
            tracer.count("sim.events", processed)
        if self._selection_scans:
            tracer.count("sim.selection_scans", self._selection_scans)
            self._selection_scans = 0
        return processed

    def settle(self) -> None:
        """Schedule every origin's initial announcements (idempotent)."""
        if self._settled:
            return
        self._settled = True
        for asn in sorted(self.routers):
            router = self.routers[asn]
            if router.local_units:
                self._mark_pending(
                    router,
                    {(asn, unit_id) for unit_id in router.local_units},
                )

    def run_until(self, when: float) -> int:
        """Process every event up to sim time ``when``; returns count.

        A non-finite ``when`` raises :class:`ValueError`: NaN would
        never stop the loop and infinity has no state to show.
        """
        if not math.isfinite(when):
            raise ValueError(f"run_until needs a finite sim time, got {when}")
        with get_tracer().span("sim.run", until=when) as span:
            processed = self._pump(until=when)
            span.set(events=processed, sim_time=self.now)
        return processed

    def run_to_quiescence(self, max_events: Optional[int] = 50_000_000) -> float:
        """Drain the event queue completely; returns the final sim time.

        An empty queue *is* the quiescence condition: MRAI deadlines are
        passive (send events exist only while pending updates do), so no
        events outstanding means no pending timers.  ``max_events``
        bounds runaway scenarios with a :class:`ConvergenceError`; a
        negative budget raises :class:`ValueError`.
        """
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        with get_tracer().span("sim.run") as span:
            processed = self._pump(until=None, max_events=max_events)
            span.set(events=processed, sim_time=self.now)
        return self.now

    # ------------------------------------------------------------------
    # Perturbation primitives
    # ------------------------------------------------------------------

    def withdraw_unit(self, origin: int, unit_id: int) -> None:
        """Withdraw one locally originated policy unit everywhere."""
        router = self.routers[origin]
        if unit_id in router.suppressed or unit_id not in router.local_units:
            return
        router.suppressed.add(unit_id)
        get_tracer().count("sim.unit_flaps")
        self._mark_pending(router, {(origin, unit_id)})

    def announce_unit(self, origin: int, unit_id: int) -> None:
        """Re-announce a previously withdrawn policy unit."""
        router = self.routers[origin]
        if unit_id not in router.suppressed:
            return
        router.suppressed.discard(unit_id)
        self._mark_pending(router, {(origin, unit_id)})

    def _session_resync(self, router: SimRouter, neighbor: int) -> None:
        """Queue a full re-advertisement toward ``neighbor``."""
        candidates: Set[NLRI] = set(router.loc_rib)
        candidates.update((router.asn, uid) for uid in router.local_units)
        if candidates:
            router.pending.setdefault(neighbor, set()).update(candidates)
            self._schedule_send(router, neighbor)

    def _session_clear(self, a: int, b: int) -> None:
        """Drop session state on both ends of the ``a``–``b`` link."""
        self._bump_epoch(a, b)
        for here, there in ((a, b), (b, a)):
            router = self.routers[here]
            router.sent.pop(there, None)
            router.pending.pop(there, None)
            stale = router.adj_in.pop(there, None)
            if stale:
                changed = {
                    nlri for nlri in sorted(stale)
                    if self._reselect(router, nlri, there, None)
                }
                if changed:
                    get_tracer().count("sim.best_changes", len(changed))
                    self._mark_pending(router, changed)
                    if self.recording and here in self._vp_peers:
                        self._log_updates(router, changed)

    def set_session(self, a: int, b: int, up: bool) -> None:
        """Take the BGP session on the ``a``–``b`` link down or up.

        Going down clears both Adj-RIB-Ins and advert memory (routes
        via the link are withdrawn from the rest of the topology as the
        reselection propagates); coming up triggers a full resync, like
        a session re-establishment.
        """
        key = self._link_key(a, b)
        if up:
            if key not in self._down_links:
                return
            self._down_links.discard(key)
            for here, there in ((a, b), (b, a)):
                self._session_resync(self.routers[here], there)
        else:
            if key in self._down_links:
                return
            self._down_links.add(key)
            self._session_clear(a, b)
        get_tracer().count("sim.session_events")

    def reset_session(self, a: int, b: int) -> None:
        """Hard-reset the ``a``–``b`` session: flush state, full resync."""
        if self._link_down(a, b):
            return
        self._session_clear(a, b)
        for here, there in ((a, b), (b, a)):
            self._session_resync(self.routers[here], there)
        get_tracer().count("sim.session_resets")

    def start_leak(self, asn: int, neighbor: int) -> None:
        """Misconfigure ``asn`` to export peer/provider routes to
        ``neighbor`` — a classic route leak (valley-free violation)."""
        router = self.routers[asn]
        if neighbor in router.leak_to:
            return
        router.leak_to.add(neighbor)
        get_tracer().count("sim.leaks")
        if router.loc_rib:
            router.pending.setdefault(neighbor, set()).update(router.loc_rib)
            self._schedule_send(router, neighbor)

    def stop_leak(self, asn: int, neighbor: int) -> None:
        """Retract a leak: stale exports are withdrawn by the diff."""
        router = self.routers[asn]
        if neighbor not in router.leak_to:
            return
        router.leak_to.discard(neighbor)
        stale: Set[NLRI] = set(router.sent.get(neighbor, ()))
        stale.update(router.loc_rib)
        if stale:
            router.pending.setdefault(neighbor, set()).update(stale)
            self._schedule_send(router, neighbor)

    # ------------------------------------------------------------------
    # Rendering and update emission
    # ------------------------------------------------------------------

    def rib_records(self, when: Optional[float] = None) -> Iterator[RouteRecord]:
        """Render the collector RIB dump of the current routing state.

        ``when`` is a sim time used only for the record timestamps (and
        the artifact windows keyed on them); it does **not** advance the
        run — call :meth:`run_until` first for a mid-convergence view.
        """
        moment = self.start_ts + int(self.now if when is None else when)
        get_tracer().count("sim.snapshots")
        return render_rib_records(self.world, self.view, self.family, moment)

    def snapshot(self, when: Optional[float] = None) -> RIBSnapshot:
        """Materialise :meth:`rib_records` into a :class:`RIBSnapshot`."""
        with get_tracer().span("sim.render"):
            return RIBSnapshot.from_records(self.rib_records(when))

    def start_recording(self) -> None:
        """Begin logging vantage-point route changes as update records."""
        self.record_updates = True
        self.recording = True

    def update_records(self) -> List[RouteRecord]:
        """Update records logged since :meth:`start_recording`.

        The list is time-ordered and, together with a RIB dump rendered
        at recording start, forms a stream ``repro live`` can consume.
        """
        return list(self._update_log)

    def _log_updates(self, router: SimRouter, nlris: Set[NLRI]) -> None:
        peer = self._vp_peers[router.asn]
        elements: List[RouteElement] = []
        for nlri in sorted(nlris):
            unit = self._units.get(nlri)
            if unit is None:
                continue
            entry = router.loc_rib.get(nlri)
            for prefix in sorted(unit.prefixes, key=Prefix.key):
                if not peer.full_feed:
                    if art.stable_fraction(prefix, peer.asn) >= peer.partial_fraction:
                        continue
                if entry is None:
                    elements.append(
                        RouteElement(ElementType.WITHDRAWAL, prefix, None)
                    )
                else:
                    route, tag = entry
                    path = ASPath.from_asns((peer.asn,) + route.path)
                    communities = (tag,) if tag is not None else ()
                    elements.append(
                        RouteElement(
                            ElementType.ANNOUNCEMENT,
                            prefix,
                            PathAttributes(path, communities=communities),
                        )
                    )
        if elements:
            self._update_log.append(
                RouteRecord(
                    "update",
                    peer.project,
                    peer.collector,
                    peer.asn,
                    peer.address,
                    self.start_ts + int(self.now),
                    elements,
                )
            )
            get_tracer().count("sim.update_records")


def quiescence_parity(
    run: ConvergenceRun,
    engine: Optional[PropagationEngine] = None,
) -> List[str]:
    """Differences between the run's tables and the equilibrium ones.

    Renders both the event engine's state and the centralized
    equilibrium fixed point at the same instant and compares the record
    streams field for field (paths, attributes, artifacts, ordering —
    hence atom ids too, since atoms are a pure function of the
    records).  Returns human-readable difference lines; empty means
    parity holds.  Call only at quiescence — mid-convergence state is
    *supposed* to differ.
    """
    problems: List[str] = []
    if not run.is_quiescent:
        problems.append("event queue is not drained; run_to_quiescence() first")
        return problems
    if engine is None:
        engine = PropagationEngine(run.world.graph, run.world.transit_policies)
    moment = run.start_ts + int(run.now)
    ours = list(render_rib_records(run.world, run.view, run.family, moment))
    reference = list(render_rib_records(run.world, engine, run.family, moment))
    if len(ours) != len(reference):
        problems.append(
            f"record count differs: event engine {len(ours)}, "
            f"equilibrium {len(reference)}"
        )
    for index, (left, right) in enumerate(zip(ours, reference)):
        header_left = (left.project, left.collector, left.peer_asn,
                       left.peer_address, left.timestamp, left.corrupt_warning)
        header_right = (right.project, right.collector, right.peer_asn,
                        right.peer_address, right.timestamp,
                        right.corrupt_warning)
        if header_left != header_right:
            problems.append(f"record {index}: header differs "
                            f"{header_left} != {header_right}")
            continue
        if left.elements != right.elements:
            detail = ""
            for position, (a, b) in enumerate(zip(left.elements, right.elements)):
                if a != b:
                    detail = f" (first at element {position}: {a!r} != {b!r})"
                    break
            problems.append(
                f"record {index} ({left.collector}/AS{left.peer_asn}): "
                f"elements differ{detail}"
            )
        if len(problems) >= 20:
            problems.append("... further differences suppressed")
            break
    return problems

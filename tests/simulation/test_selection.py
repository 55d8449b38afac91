"""Route selection in the event engine against its executable spec.

:class:`FullScanRun` is the engine with the plain selection rule: on
every change it scans every Adj-RIB-In for the best offer.  The engine
itself decides from the offer that changed and scans only when the
sender held the best route and now offers a worse one or none.  Both
must select the same route for every NLRI after every message, so whole
runs through every scenario, and random offers at one router, must be
indistinguishable.
"""

import random
from types import SimpleNamespace

import pytest

from repro.bgp.attributes import Community
from repro.net.prefix import AF_INET
from repro.obs import Tracer, use_tracer
from repro.simulation.events import ConvergenceRun, SimRouter
from repro.simulation.routing import Route
from repro.simulation.scenario import SCENARIOS, SimulatedInternet, apply_scenario
from repro.topology.model import Relationship
from tests.conftest import TEST_WORLD

START = "2004-01-15 08:00"

#: A scheduled hard reset on top of the quiet scenario: no scenario in
#: the taxonomy uses ``reset_session``.
RESET = "quiet+reset_session"


class FullScanRun(ConvergenceRun):
    """The engine with the full-scan selection: the spec of ``_reselect``."""

    def _reselect(self, router, nlri, sender, advert):
        best = None
        best_tag = None
        for neighbor, table in router.adj_in.items():
            entry = table.get(nlri)
            if entry is None:
                continue
            path, tag = entry
            route = Route(router.neighbor_class[neighbor], len(path), path)
            if best is None or route.rank() < best.rank():
                best, best_tag = route, tag
        old = router.loc_rib.get(nlri)
        new = None if best is None else (best, best_tag)
        if new == old:
            return False
        if new is None:
            del router.loc_rib[nlri]
        else:
            router.loc_rib[nlri] = new
        self.mutations += 1
        return True


def drive(run_class, scenario):
    """A run of ``run_class`` converged through ``scenario``, with the
    trace counters it emitted (``SimulatedInternet.converge``'s steps)."""
    world = SimulatedInternet(TEST_WORLD, start=START).world
    tracer = Tracer()
    with use_tracer(tracer):
        run = run_class(world)
        run.settle()
        run.run_to_quiescence()
        run.start_recording()
        run.scenario_start = run.now
        if scenario == RESET:
            vantage = min(asn for asn in run.routers if asn in run._vp_peers)
            neighbor = run.routers[vantage].neighbor_order[0]
            run.schedule(run.now + 30.0, run.reset_session, vantage, neighbor)
        else:
            apply_scenario(run, scenario)
        run.run_to_quiescence()
    return run, tracer.counters


def record_fields(run):
    return [
        (r.record_type, r.project, r.collector, r.peer_asn, r.peer_address,
         r.timestamp, r.elements)
        for r in run.update_records()
    ]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS) + [RESET])
def test_engine_matches_full_scan(scenario):
    ours, our_counters = drive(ConvergenceRun, scenario)
    spec, spec_counters = drive(FullScanRun, scenario)
    assert sorted(ours.routers) == sorted(spec.routers)
    for asn in sorted(spec.routers):
        assert ours.routers[asn].loc_rib == spec.routers[asn].loc_rib, asn
        assert ours.routers[asn].sent == spec.routers[asn].sent, asn
    assert ours.mutations == spec.mutations
    assert ours.now == spec.now
    assert ours._seq == spec._seq
    assert record_fields(ours) == record_fields(spec)
    # Every event, message and best-route change is the same; only the
    # engine scans (and counts its scans).
    scans = our_counters.pop("sim.selection_scans")
    assert our_counters == spec_counters
    assert our_counters["sim.events"] > 0
    assert 0 < scans < our_counters["sim.best_changes"]
    if scenario == RESET:
        assert our_counters["sim.session_resets"] == 1


# ----------------------------------------------------------------------
# One router, random offers
# ----------------------------------------------------------------------

HUB = 100
NEIGHBORS = {
    1: Relationship.CUSTOMER, 2: Relationship.CUSTOMER,
    3: Relationship.PEER, 4: Relationship.PEER,
    5: Relationship.PROVIDER, 6: Relationship.PROVIDER,
}
NLRIS = [(50, 0), (50, 1), (51, 0)]
TAGS = [None, Community(64500, 1), Community(64500, 2)]


class _StarGraph:
    """The hub and six neighbors, two of each relationship kind; only
    the hub's view matters."""

    nodes = {HUB: None, **{asn: None for asn in NEIGHBORS}}

    def neighbors(self, asn):
        if asn == HUB:
            return dict(NEIGHBORS)
        return {HUB: Relationship(-int(NEIGHBORS[asn]))}


def star_run(run_class):
    world = SimpleNamespace(
        params=SimpleNamespace(seed=7),
        current_time=0,
        transit_policies={},
        graph=_StarGraph(),
        origins=lambda family: {},
        layout=SimpleNamespace(peers=[]),
    )
    return run_class(world, family=AF_INET)


def random_step(rng):
    """One operation on the hub: an UPDATE from a neighbor or a clear."""
    sender = rng.choice(sorted(NEIGHBORS))
    if rng.random() < 0.08:
        return ("clear", sender)
    announcements, withdrawals = [], []
    for nlri in rng.sample(NLRIS, rng.randint(1, len(NLRIS))):
        if rng.random() < 0.3:
            withdrawals.append(nlri)
        else:
            # Short tails from a small pool: equal lengths (the tie
            # the first hop breaks) and repeated offers are common.
            tail = tuple(rng.choice((7, 8, 9)) for _ in range(rng.randint(0, 3)))
            path = (sender,) + tail + (nlri[0],)
            announcements.append((nlri, (path, rng.choice(TAGS))))
    return ("update", sender, tuple(announcements), tuple(withdrawals))


def apply_step(run, step):
    if step[0] == "clear":
        run._session_clear(HUB, step[1])
        return
    _, sender, announcements, withdrawals = step
    run._deliver(HUB, sender, run._epoch(HUB, sender), announcements,
                 withdrawals)


def full_scan(router: SimRouter):
    """Best route per NLRI straight from the Adj-RIB-Ins."""
    best = {}
    for neighbor, table in router.adj_in.items():
        for nlri, (path, tag) in table.items():
            route = Route(router.neighbor_class[neighbor], len(path), path)
            if nlri not in best or route.rank() < best[nlri][0].rank():
                best[nlri] = (route, tag)
    return best


@pytest.mark.parametrize("seed", range(6))
def test_random_offers_at_one_router(seed):
    rng = random.Random(seed)
    ours, spec = star_run(ConvergenceRun), star_run(FullScanRun)
    for _ in range(400):
        step = random_step(rng)
        apply_step(ours, step)
        apply_step(spec, step)
        hub = ours.routers[HUB]
        assert hub.loc_rib == full_scan(hub), step
        assert hub.loc_rib == spec.routers[HUB].loc_rib, step
        assert ours.mutations == spec.mutations
    assert ours._selection_scans > 0

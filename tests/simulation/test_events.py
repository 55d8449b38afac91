"""Tests for the discrete-event convergence engine.

The load-bearing gate is quiescence parity: once the event queue
drains, the rendered collector tables — and therefore the atom ids
computed from them — must be value-identical to the equilibrium
renderer's.  The property tests check what parity cannot: that the
*transient* states visited mid-convergence are internally consistent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import compute_policy_atoms
from repro.simulation.events import (
    CLASS_CUSTOMER,
    ConvergenceError,
    ConvergenceRun,
    quiescence_parity,
)
from repro.simulation.scenario import SCENARIOS, SimulatedInternet, apply_scenario
from repro.stream.live import LiveConfig, LivePipeline
from tests.conftest import TEST_WORLD

START = "2004-01-15 08:00"


def converged(scenario="quiet", **kwargs):
    """A fresh simulator plus a run converged through ``scenario``."""
    sim = SimulatedInternet(TEST_WORLD, start=START)
    run = sim.converge(START, scenario=scenario, **kwargs)
    run.run_to_quiescence()
    return sim, run


@pytest.fixture(scope="module")
def quiet():
    return converged("quiet")


class TestQuiescenceParity:
    def test_initial_convergence_matches_equilibrium(self, quiet):
        sim, run = quiet
        assert quiescence_parity(run, sim.engine) == []

    def test_atom_ids_identical(self, quiet):
        sim, run = quiet
        ours = compute_policy_atoms(list(run.rib_records()))
        moment = run.start_ts + int(run.now)
        reference = compute_policy_atoms(list(sim.rib_records(moment)))
        assert [
            (atom.atom_id, atom.prefixes, atom.paths) for atom in ours.atoms
        ] == [
            (atom.atom_id, atom.prefixes, atom.paths)
            for atom in reference.atoms
        ]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_parity_restored_after_every_scenario(self, name):
        sim, run = converged(name)
        assert quiescence_parity(run, sim.engine) == []

    def test_refuses_mid_convergence(self, quiet):
        _, run = quiet
        run.schedule(run.now + 5.0, lambda: None)
        try:
            problems = quiescence_parity(run)
            assert problems and "not drained" in problems[0]
        finally:
            run.run_to_quiescence()

    def test_unknown_scenario_rejected(self, quiet):
        _, run = quiet
        with pytest.raises(ValueError, match="unknown scenario"):
            apply_scenario(run, "nope")


class TestDeterminism:
    def test_same_seed_same_run(self):
        def build():
            sim = SimulatedInternet(TEST_WORLD, start=START)
            run = sim.converge(START, scenario="flap-storm",
                               record_updates=True)
            final = run.run_to_quiescence()
            return final, run.update_records()

        (final_a, updates_a), (final_b, updates_b) = build(), build()
        assert final_a == final_b
        assert len(updates_a) == len(updates_b)
        for left, right in zip(updates_a, updates_b):
            assert left.timestamp == right.timestamp
            assert left.peer_asn == right.peer_asn
            assert left.elements == right.elements

    def test_max_events_budget_raises(self):
        sim = SimulatedInternet(TEST_WORLD, start=START)
        run = ConvergenceRun(sim.world)
        run.settle()
        with pytest.raises(ConvergenceError):
            run.run_to_quiescence(max_events=3)


class TestInputValidation:
    """Inputs the engine cannot honour raise instead of running wrong."""

    @pytest.fixture(scope="class")
    def world(self):
        return SimulatedInternet(TEST_WORLD, start=START).world

    @pytest.mark.parametrize("mrai", [-5.0, float("nan"), float("inf")])
    def test_mrai_must_be_finite_and_non_negative(self, world, mrai):
        with pytest.raises(ValueError, match="mrai"):
            ConvergenceRun(world, mrai=mrai)

    @pytest.mark.parametrize("when", [float("nan"), float("inf")])
    def test_run_until_needs_a_finite_time(self, world, when):
        run = ConvergenceRun(world)
        run.settle()
        with pytest.raises(ValueError, match="finite"):
            run.run_until(when)
        assert run.now == 0.0 and not run.is_quiescent

    @pytest.mark.parametrize("when", [float("nan"), float("inf")])
    def test_schedule_needs_a_finite_time(self, world, when):
        run = ConvergenceRun(world)
        with pytest.raises(ValueError, match="finite"):
            run.schedule(when, run.withdraw_unit, 1, 0)
        assert run.is_quiescent

    def test_negative_event_budget_rejected(self, world):
        run = ConvergenceRun(world)
        run.settle()
        with pytest.raises(ValueError, match="max_events"):
            run.run_to_quiescence(max_events=-3)
        assert run.now == 0.0 and not run.is_quiescent

    def test_zero_event_budget_processes_nothing(self, world):
        run = ConvergenceRun(world)
        run.settle()
        with pytest.raises(ConvergenceError, match="after 0 events"):
            run.run_to_quiescence(max_events=0)
        run.run_to_quiescence()
        assert run.run_to_quiescence(max_events=0) == run.now


def assert_internally_consistent(run):
    """Every selected route is loop-free, export-legal, and anchored.

    Holds at *any* sim time (no leaks configured): relationships are
    static and each hop on a stored path was export-legal when sent —
    learned-route exports require a customer-class route or a customer
    importer, exactly the valley-free discipline.
    """
    for asn in sorted(run.routers):
        router = run.routers[asn]
        for (origin, unit_id), (route, _tag) in router.loc_rib.items():
            raw = (asn,) + route.path
            assert raw[-1] == origin, "path must end at the origin"
            # Origin prepending repeats the origin ASN consecutively;
            # compress those before the loop and legality checks.
            path = [raw[0]]
            for hop in raw[1:]:
                if hop != path[-1]:
                    path.append(hop)
            assert len(set(path)) == len(path), f"AS loop in {raw}"
            for here in range(len(path) - 1):
                importer, exporter = path[here], path[here + 1]
                exp = run.routers[exporter]
                assert importer in exp.neighbors()
                if exporter == origin:
                    assert (importer in exp.providers
                            or importer in exp.peers), (
                        f"origin AS{exporter} exported to its own customer"
                    )
                else:
                    learned_from = path[here + 2]
                    if exp.neighbor_class[learned_from] != CLASS_CUSTOMER:
                        assert importer in exp.customers, (
                            f"valley at AS{exporter}: non-customer route "
                            f"exported to non-customer AS{importer}"
                        )


class TestTransientConsistency:
    @settings(max_examples=8, deadline=None)
    @given(offsets=st.lists(st.integers(0, 420), min_size=1, max_size=4))
    def test_flap_storm_snapshots_are_valley_free(self, offsets):
        sim = SimulatedInternet(TEST_WORLD, start=START)
        run = sim.converge(START, scenario="flap-storm")
        for offset in sorted(set(offsets)):
            run.run_until(run.scenario_start + offset)
            assert_internally_consistent(run)
        run.run_to_quiescence()
        assert_internally_consistent(run)
        assert quiescence_parity(run, sim.engine) == []

    def test_no_ghost_routes_after_withdrawal(self):
        _, run = converged("quiet")
        victims = [
            asn for asn in sorted(run.routers)
            if run.routers[asn].local_units
        ]
        origin = victims[0]
        unit_id = sorted(run.routers[origin].local_units)[0]
        run.withdraw_unit(origin, unit_id)
        run.run_to_quiescence()
        nlri = (origin, unit_id)
        for asn, router in run.routers.items():
            assert nlri not in router.loc_rib, f"ghost route at AS{asn}"
            for neighbor, table in router.adj_in.items():
                assert nlri not in table, (
                    f"ghost adj-in at AS{asn} from AS{neighbor}"
                )
            for neighbor, sent in router.sent.items():
                assert nlri not in sent, (
                    f"ghost advert memory at AS{asn} toward AS{neighbor}"
                )


class TestLiveIntegration:
    def test_flap_storm_produces_window_churn(self):
        sim = SimulatedInternet(TEST_WORLD, start=START)
        run = sim.converge(START, scenario="flap-storm", record_updates=True)
        baseline = list(run.rib_records())
        run.run_to_quiescence()
        updates = run.update_records()
        assert updates, "flap storm must emit update records"
        times = [record.timestamp for record in updates]
        assert times == sorted(times)

        pipeline = LivePipeline(
            iter(baseline + updates),
            LiveConfig(window_seconds=60, parity="off"),
        )
        result = pipeline.run()
        assert result.windows
        churn = sum(w.created + w.removed for w in result.windows)
        moved = sum(w.key_changes for w in result.windows)
        assert churn > 0 or moved > 0, (
            "a flap storm must register as per-window churn"
        )

    def test_session_reset_emits_updates(self):
        _, run = converged("quiet", record_updates=True)
        vantage = sorted(
            asn for asn in run.routers if asn in run._vp_peers
        )[0]
        neighbor = sorted(run.routers[vantage].neighbors())[0]
        before = len(run.update_records())
        run.reset_session(vantage, neighbor)
        run.run_to_quiescence()
        assert len(run.update_records()) > before
        assert quiescence_parity(run) == []

"""Performance benchmarks for the core pipeline primitives.

Not paper experiments — these measure the library's own hot paths so
regressions show up in benchmark runs: route propagation per origin,
atom computation over a snapshot, stability matching, and sanitization.
"""

import pytest

from benchmarks.conftest import SNAPSHOT_WORLD
from repro.core.atoms import compute_atoms
from repro.core.intern import PathInternPool
from repro.core.kernel import columnar_atoms
from repro.core.sanitize import sanitize
from repro.core.stability import maximized_prefix_match
from repro.simulation.routing import propagate
from repro.simulation.scenario import SimulatedInternet
from tests.core.reference import compute_atoms_reference


@pytest.fixture(scope="module")
def perf_world():
    simulator = SimulatedInternet(SNAPSHOT_WORLD, start="2016-01-15 08:00")
    records = list(simulator.rib_records("2016-01-15 08:00"))
    dataset = sanitize(records)
    atoms = compute_atoms(
        dataset.snapshot,
        vantage_points=dataset.vantage_points,
        prefixes=dataset.prefixes,
    )
    return simulator, records, dataset, atoms


def test_perf_propagation_per_origin(benchmark, perf_world):
    simulator, _, _, _ = perf_world
    world = simulator.world
    targets = set(world.layout.vantage_asns())
    policies = sorted(world.origins(4).items())
    big = max(policies, key=lambda item: len(item[1].units))[1]

    result = benchmark(
        propagate, world.graph, big, world.transit_policies, targets
    )
    assert result, "propagation must reach the vantage points"


def test_perf_sanitize(benchmark, perf_world):
    _, records, _, _ = perf_world
    dataset = benchmark.pedantic(sanitize, args=(records,), rounds=3, iterations=1)
    assert dataset.prefixes


def test_perf_atom_computation(benchmark, perf_world):
    _, _, dataset, _ = perf_world
    atoms = benchmark.pedantic(
        compute_atoms,
        args=(dataset.snapshot,),
        kwargs={
            "vantage_points": dataset.vantage_points,
            "prefixes": dataset.prefixes,
        },
        rounds=3,
        iterations=1,
    )
    assert len(atoms) > 0


def test_perf_atom_reference_legacy(benchmark, perf_world):
    """The pre-kernel tuple-of-objects implementation, as the baseline."""
    _, _, dataset, _ = perf_world
    atoms = benchmark.pedantic(
        compute_atoms_reference,
        args=(dataset.snapshot,),
        kwargs={
            "vantage_points": dataset.vantage_points,
            "prefixes": dataset.prefixes,
        },
        rounds=3,
        iterations=1,
    )
    assert len(atoms) > 0


def test_perf_atom_kernel_warm_pool(benchmark, perf_world):
    """The kernel with a shared intern pool — how sweeps actually run:
    :class:`LongitudinalStudy` feeds every snapshot through one pool."""
    _, _, dataset, _ = perf_world
    pool = PathInternPool()
    columnar_atoms(  # prime the pool, as a sweep's first snapshot would
        dataset.snapshot,
        vantage_points=dataset.vantage_points,
        prefixes=dataset.prefixes,
        pool=pool,
    )
    atoms = benchmark.pedantic(
        columnar_atoms,
        args=(dataset.snapshot,),
        kwargs={
            "vantage_points": dataset.vantage_points,
            "prefixes": dataset.prefixes,
            "pool": pool,
        },
        rounds=3,
        iterations=1,
    )
    assert len(atoms) > 0


def test_kernel_parity_with_reference(perf_world):
    """Not a timing — the gate: kernel output identical to legacy."""
    _, _, dataset, _ = perf_world
    kwargs = {
        "vantage_points": dataset.vantage_points,
        "prefixes": dataset.prefixes,
    }
    reference = compute_atoms_reference(dataset.snapshot, **kwargs)
    kernel = columnar_atoms(dataset.snapshot, **kwargs)
    assert len(kernel) == len(reference)
    for ours, theirs in zip(kernel, reference):
        assert ours.atom_id == theirs.atom_id
        assert ours.prefixes == theirs.prefixes
        assert ours.paths == theirs.paths


def test_perf_stability_matching(benchmark, perf_world):
    _, _, _, atoms = perf_world
    score = benchmark.pedantic(
        maximized_prefix_match, args=(atoms, atoms), rounds=3, iterations=1
    )
    assert score == pytest.approx(1.0)


def test_perf_snapshot_rendering(benchmark, perf_world):
    simulator, _, _, _ = perf_world

    def render():
        return sum(1 for _ in simulator.rib_records(simulator.current_time))

    count = benchmark.pedantic(render, rounds=3, iterations=1)
    assert count > 0

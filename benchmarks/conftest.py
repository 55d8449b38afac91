"""Shared fixtures for the benchmark harness.

Every paper table and figure has a bench module; the expensive inputs
(simulated worlds walked through the paper's snapshot cadence) are
session-scoped so the whole harness builds each world once.

Scales
------
* ``SNAPSHOT_WORLD`` (1/100) for single-date experiments — the scale the
  generator is calibrated at;
* ``TREND_WORLD`` (1/200) for 20-year sweeps;
* ``DAILY_WORLD`` (1/300) for the daily-snapshot split study.

Rendered tables/figures are printed and also written to
``benchmarks/output/`` so EXPERIMENTS.md can be assembled from a run.
"""

import os
from pathlib import Path

import pytest

from repro.analysis.ipv6 import IPv6Study
from repro.engine.scheduler import ExecutionEngine
from repro.analysis.longitudinal import LongitudinalStudy
from repro.analysis.replication2002 import Replication2002
from repro.analysis.vantage import VantageStudy
from repro.simulation.scenario import SimulatedInternet
from repro.topology.evolution import WorldParams

OUTPUT_DIR = Path(__file__).parent / "output"

SNAPSHOT_WORLD = WorldParams(
    seed=42,
    as_scale=1 / 100.0,
    prefix_scale=1 / 100.0,
    peer_scale=0.05,
    collector_scale=0.3,
    min_fullfeed_peers=10,
)

TREND_WORLD = WorldParams(
    seed=20250416,
    as_scale=1 / 200.0,
    prefix_scale=1 / 200.0,
    peer_scale=0.04,
    collector_scale=0.3,
    min_fullfeed_peers=8,
)

DAILY_WORLD = WorldParams(
    seed=20250417,
    as_scale=1 / 300.0,
    prefix_scale=1 / 300.0,
    peer_scale=0.04,
    collector_scale=0.3,
    min_fullfeed_peers=8,
)


#: ``REPRO_BENCH_SMOKE=1`` shrinks the speedup benchmarks' fixtures (CI's
#: bench-smoke step), so their reports must not replace the committed
#: full-scale ones under ``benchmarks/output/``.
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def emit(name: str, text: str) -> None:
    """Print a rendered artifact and persist it under benchmarks/output.

    Smoke runs only print.
    """
    print()
    print(text)
    if SMOKE:
        return
    OUTPUT_DIR.mkdir(exist_ok=True)
    with open(OUTPUT_DIR / f"{name}.txt", "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


# ----------------------------------------------------------------------
# Single-date suites (Tables 1-3, Figures 1-3, Table 7, ablations)
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def suite_2004():
    simulator = SimulatedInternet(SNAPSHOT_WORLD, start="2004-01-15 08:00")
    study = LongitudinalStudy(simulator)
    return study.snapshot_suite(2004, 1, with_stability=True, with_updates=True)


@pytest.fixture(scope="session")
def internet_2024_bench():
    return SimulatedInternet(SNAPSHOT_WORLD, start="2024-10-15 08:00")


@pytest.fixture(scope="session")
def suite_2024(internet_2024_bench):
    study = LongitudinalStudy(internet_2024_bench)
    return study.snapshot_suite(2024, 10, with_stability=True, with_updates=True)


# ----------------------------------------------------------------------
# Longitudinal trends (Figures 4, 5, 12, 13)
# ----------------------------------------------------------------------

TREND_YEARS = list(range(2004, 2025, 2))


@pytest.fixture(scope="session")
def longitudinal_results():
    # The sweep goes through the execution engine; REPRO_BENCH_JOBS
    # controls the worker count (default 1 = the old serial walk, which
    # produces value-identical results by construction).
    engine = ExecutionEngine(jobs=int(os.environ.get("REPRO_BENCH_JOBS", "1")))
    simulator = SimulatedInternet(TREND_WORLD, start="2004-01-01")
    study = LongitudinalStudy(simulator, engine=engine)
    return study.run_years(TREND_YEARS, with_stability=True)


# ----------------------------------------------------------------------
# IPv6 (Table 4, Figures 8-11)
# ----------------------------------------------------------------------

V6_YEARS = list(range(2012, 2025, 2))


@pytest.fixture(scope="session")
def ipv6_world():
    return SimulatedInternet(TREND_WORLD, start="2011-01-01")


@pytest.fixture(scope="session")
def ipv6_study(ipv6_world):
    return IPv6Study(ipv6_world)


@pytest.fixture(scope="session")
def ipv6_comparison(ipv6_study):
    # Must run before the trend (time moves forward only in one world)…
    return ipv6_study.comparison(early_year=2011, recent_year=2012, month=1)


@pytest.fixture(scope="session")
def ipv6_trend(ipv6_study, ipv6_comparison):
    return ipv6_study.v6_trend(V6_YEARS, with_stability=True)


@pytest.fixture(scope="session")
def ipv6_recent_stats(ipv6_study, ipv6_trend):
    """Table 4's recent column, computed after the trend has advanced
    the world to 2024."""
    v4 = ipv6_study._v4.snapshot_suite(2024, 10, with_stability=False)
    v6 = ipv6_study._v6.snapshot_suite(2024, 10, with_stability=False)
    return v4, v6


# ----------------------------------------------------------------------
# 2002 replication (§3: Table 6, Figures 1, 14, 15)
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def replication():
    return Replication2002(scale=1 / 100.0)


@pytest.fixture(scope="session")
def replication_result(replication):
    return replication.run(with_updates=True)


# ----------------------------------------------------------------------
# Daily split study (Figures 6, 7, 16)
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def vantage_result():
    simulator = SimulatedInternet(DAILY_WORLD, start="2018-01-01 08:00")
    study = VantageStudy(simulator)
    return study.run(simulator.current_time, days=60)

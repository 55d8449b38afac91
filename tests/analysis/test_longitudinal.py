"""Tests for the longitudinal study driver."""

import pytest

from repro.analysis.longitudinal import (
    LongitudinalStudy,
    formation_trend_series,
    fullfeed_trend_series,
    stability_trend_series,
)
from repro.simulation.scenario import SimulatedInternet
from repro.topology.evolution import WorldParams

PARAMS = WorldParams(
    seed=31,
    as_scale=1 / 400.0,
    prefix_scale=1 / 400.0,
    peer_scale=0.03,
    collector_scale=0.3,
    min_fullfeed_peers=6,
)


@pytest.fixture(scope="module")
def study_results():
    simulator = SimulatedInternet(PARAMS, start="2006-01-01")
    study = LongitudinalStudy(simulator)
    return study.run_years([2006, 2010], with_stability=True)


class TestStudy:
    def test_runs_requested_years(self, study_results):
        assert [result.year for result in study_results] == [2006, 2010]

    def test_stats_populated(self, study_results):
        for result in study_results:
            assert result.stats.n_atoms > 0
            assert result.stats.n_prefixes >= result.stats.n_atoms

    def test_growth_between_years(self, study_results):
        assert study_results[1].stats.n_prefixes > study_results[0].stats.n_prefixes

    def test_formation_shares_normalised(self, study_results):
        for result in study_results:
            assert sum(result.formation_shares.values()) == pytest.approx(1.0, abs=0.01)

    def test_stability_pairs_present_and_ordered(self, study_results):
        for result in study_results:
            assert set(result.stability) == {"8h", "24h", "1w"}
            cam_8h = result.stability["8h"][0]
            cam_1w = result.stability["1w"][0]
            assert 0.5 < cam_1w <= cam_8h <= 1.0

    def test_feed_summary(self, study_results):
        for result in study_results:
            assert result.feed["full_feed"] >= PARAMS.min_fullfeed_peers

    def test_update_suite(self):
        simulator = SimulatedInternet(PARAMS, start="2006-01-01")
        study = LongitudinalStudy(simulator)
        suite = study.snapshot_suite(2006, with_stability=False, with_updates=True)
        assert suite.updates is not None
        assert suite.update_record_count > 0


class TestTrendSeries:
    def test_formation_series(self, study_results):
        series = formation_trend_series(study_results)
        # 5 distances x (solid + dashed)
        assert len(series) == 10
        for line in series:
            assert len(line.points) == 2

    def test_stability_series(self, study_results):
        series = stability_trend_series(study_results)
        assert len(series) == 4
        for line in series:
            values = [y for _, y in line.points if y is not None]
            assert all(0 <= value <= 100 for value in values)

    def test_fullfeed_series(self, study_results):
        threshold, peers = fullfeed_trend_series(study_results)
        assert threshold.last() >= threshold.points[0][1]  # table growth
        assert peers.last() >= PARAMS.min_fullfeed_peers

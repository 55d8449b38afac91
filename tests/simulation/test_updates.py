"""Tests for the update-stream generator."""

import pytest

from repro.net.prefix import AF_INET6
from repro.simulation.scenario import SimulatedInternet
from repro.simulation.updates import (
    MRT_TIME_MAX,
    UpdateStreamConfig,
    _poisson,
    update_window,
)
from repro.util.dates import HOUR
from repro.util.determinism import derive_rng
from tests.conftest import TEST_WORLD


@pytest.fixture(scope="module")
def update_stream():
    sim = SimulatedInternet(TEST_WORLD, start="2024-10-15 08:00")
    start = sim.current_time
    records = sim.update_records(start, hours=4.0)
    return sim, start, records


class TestStream:
    def test_nonempty_and_sorted(self, update_stream):
        _, _, records = update_stream
        assert records
        times = [record.timestamp for record in records]
        assert times == sorted(times)

    def test_within_window(self, update_stream):
        _, start, records = update_stream
        for record in records:
            assert start <= record.timestamp < start + int(4.5 * HOUR)

    def test_update_type_and_known_peers(self, update_stream):
        sim, _, records = update_stream
        peer_ids = {peer.peer_id for peer in sim.world.layout.peers}
        for record in records:
            assert record.record_type == "update"
            assert record.peer_id in peer_ids

    def test_multi_prefix_records_exist(self, update_stream):
        _, _, records = update_stream
        assert any(len(record) > 1 for record in records), (
            "atoms should sometimes travel whole in one record"
        )

    def test_single_prefix_records_exist(self, update_stream):
        _, _, records = update_stream
        assert any(len(record) == 1 for record in records)

    def test_v6_stream(self):
        sim = SimulatedInternet(TEST_WORLD, start="2024-10-15 08:00")
        records = sim.update_records(sim.current_time, hours=2.0, family=AF_INET6)
        for record in records[:20]:
            for element in record.elements:
                assert element.prefix.family == AF_INET6

    def test_stream_changes_selected_paths(self, update_stream):
        """Updates must *move* routes, not just refresh timestamps."""
        from collections import defaultdict

        from repro.bgp.messages import ElementType

        _, _, records = update_stream
        withdrawals = sum(
            1
            for record in records
            for element in record.elements
            if element.element_type == ElementType.WITHDRAWAL
        )
        assert withdrawals > 0, "flaps must include withdraw legs"
        paths = defaultdict(set)
        for record in records:
            for element in record.elements:
                if element.element_type == ElementType.ANNOUNCEMENT:
                    paths[(record.peer_asn, element.prefix)].add(
                        str(element.attributes.as_path)
                    )
        assert any(len(seen) > 1 for seen in paths.values()), (
            "some (peer, prefix) must see more than one AS path"
        )

    def test_determinism(self):
        def build():
            sim = SimulatedInternet(TEST_WORLD, start="2014-01-15 08:00")
            return sim.update_records(sim.current_time, hours=1.0)

        first, second = build(), build()
        assert len(first) == len(second)
        for left, right in zip(first, second):
            assert left.timestamp == right.timestamp
            assert left.prefixes() == right.prefixes()


class TestConfig:
    def test_pack_probability_declines_with_size(self):
        config = UpdateStreamConfig()
        assert config.pack_probability(2) >= config.pack_probability(5)
        assert config.pack_probability(50) == config.pack_full_floor

    def test_for_year_trend(self):
        early = UpdateStreamConfig.for_year(2004)
        late = UpdateStreamConfig.for_year(2024)
        assert early.pack_full_base > late.pack_full_base


class TestPoisson:
    def test_zero_rate(self):
        rng = derive_rng(1, "poisson")
        assert _poisson(rng, 0.0) == 0

    def test_mean_roughly_matches(self):
        rng = derive_rng(1, "poisson")
        samples = [_poisson(rng, 2.0) for _ in range(2000)]
        mean = sum(samples) / len(samples)
        assert 1.8 < mean < 2.2

    @pytest.mark.parametrize("lam", [1800.0, 12000.0])
    def test_mean_tracks_large_rates(self, lam):
        """One Knuth draw stops near 745 once ``e**-lam`` underflows;
        200 draws must average within four standard errors of lam."""
        rng = derive_rng(1, "poisson", lam)
        samples = [_poisson(rng, lam) for _ in range(200)]
        mean = sum(samples) / len(samples)
        assert abs(mean - lam) < 4 * (lam / len(samples)) ** 0.5

    @pytest.mark.parametrize("lam", [0.004, 0.7, 3.0, 45.5, 699.9, 700.0])
    def test_draws_up_to_the_chunk_are_unchanged(self, lam):
        """Every archive drawn at these rates stays byte-identical."""
        ours = derive_rng(7, "poisson", lam)
        theirs = derive_rng(7, "poisson", lam)
        for _ in range(50):
            assert _poisson(ours, lam) == _knuth_reference(theirs, lam)
        assert ours.random() == theirs.random()


def _knuth_reference(rng, lam):
    """The sampler before large means were chunked."""
    if lam <= 0:
        return 0
    level = 2.718281828459045 ** (-lam)
    count = 0
    product = rng.random()
    while product > level:
        count += 1
        product *= rng.random()
    return count


class TestWindow:
    def test_whole_seconds(self):
        assert update_window(1_000, 4.0) == 4 * HOUR
        assert update_window(1_000, 0.001) == 3

    @pytest.mark.parametrize("hours", [0.0, 0.0002, -1.0, float("nan")])
    def test_window_under_a_second_is_refused(self, hours):
        with pytest.raises(ValueError, match="rounds to 0 s"):
            update_window(1_000, hours)

    @pytest.mark.parametrize("hours", [1e306, float("inf"), 1.2e6])
    def test_window_past_the_mrt_clock_is_refused(self, hours):
        with pytest.raises(ValueError, match="ends after 4294967295"):
            update_window(1_728_979_200, hours)

    def test_last_mrt_second_is_allowed(self):
        assert update_window(MRT_TIME_MAX - HOUR, 1.0) == HOUR

    def test_refused_window_leaves_the_world_where_it_was(self):
        sim = SimulatedInternet(TEST_WORLD, start="2024-10-15 08:00")
        before = sim.current_time
        with pytest.raises(ValueError, match="rounds to 0 s"):
            sim.update_records(before + HOUR, hours=0.0)
        assert sim.current_time == before

    def test_session_reset_in_a_sub_second_window(self):
        """A drawn reset used to call ``randrange(0)``; the window check
        refuses first, and a one-second window draws resets fine."""
        sim = SimulatedInternet(TEST_WORLD, start="2024-10-15 08:00")
        resets = UpdateStreamConfig(
            unit_event_rate_volatile=0.0,
            unit_event_rate_stable=0.0,
            prefix_flap_rate=0.0,
            session_reset_prob=1.0,
        )
        with pytest.raises(ValueError, match="rounds to 0 s"):
            sim.update_records(sim.current_time, hours=0.0002, config=resets)
        records = sim.update_records(
            sim.current_time, hours=1 / HOUR, config=resets
        )
        peers = {peer.peer_id for peer in sim.world.layout.peers}
        assert {record.peer_id for record in records} <= peers
        assert len({record.peer_id for record in records}) > 1
        start = sim.current_time
        assert all(record.timestamp >= start for record in records)

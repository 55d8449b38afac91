"""Replay edge cases: the stream shapes real BGP feeds actually produce.

Collectors interleave dumps from many peers, so update timestamps are
only approximately ordered — records regularly arrive after a later
timestamp has already been seen (out-of-order across dump boundaries).
Peers also withdraw prefixes the collector never saw announced.  None
of these may change results or crash the incremental machinery.
"""

from repro.core.atoms import compute_atoms
from repro.core.incremental import AtomIndex
from repro.net.prefix import Prefix
from repro.stream.live import LiveConfig, LivePipeline

from tests.stream.test_live import (
    PEERS,
    W,
    assert_atoms_equal,
    cold_atoms,
    full_stream,
    prime_records,
    update_record,
)


def out_of_order_stream():
    """Updates whose timestamps regress after a boundary was crossed.

    The record at t=205 opens window 2 (closing window 1 at 200); the
    two that follow carry t=195 and t=120 — stragglers from a slower
    dump file of the same collector run.  They belong to window 2 by
    *arrival*, which is the only consistent choice for a pipeline that
    already refreshed the 200 boundary.
    """
    return prime_records() + [
        update_record(PEERS[0], 110, announced=[("10.0.2.0/24", "1 7 9")]),
        update_record(PEERS[1], 205, announced=[("10.0.3.0/24", "2 7 8")]),
        update_record(PEERS[2], 195, announced=[("10.0.4.0/24", "3 7 8")]),
        update_record(PEERS[0], 120, withdrawn=["10.0.5.0/24"]),
        update_record(PEERS[1], 290, announced=[("10.0.6.0/24", "2 7 8")]),
        update_record(PEERS[2], 310, announced=[("10.0.1.0/24", "3 7 9")]),
    ]


class TestOutOfOrderTimestamps:
    def test_late_records_fold_into_the_open_window(self):
        run = LivePipeline(
            out_of_order_stream(), LiveConfig(window_seconds=W)
        ).run()
        assert [w.index for w in run.windows] == [1, 2, 3]
        assert run.windows[0].late_records == 0
        # t=195 and t=120 arrived while window 2 ([200, 300)) was open
        assert run.windows[1].late_records == 2
        assert run.windows[1].records == 4

    def test_parity_holds_despite_reordering(self):
        stream = out_of_order_stream()
        run = LivePipeline(stream, LiveConfig(window_seconds=W)).run()
        assert run.parity_checks == len(run.windows)
        assert_atoms_equal(run.atoms, cold_atoms(stream))

    def test_resume_replays_by_position_not_timestamp(self, tmp_path):
        """Killing mid-run around a timestamp regression must not skip
        or double-apply the stragglers: position-based resume replays
        exactly the unconsumed suffix."""
        stream = out_of_order_stream()
        reference = LivePipeline(stream, LiveConfig(window_seconds=W)).run()

        killed = LivePipeline(stream, LiveConfig(
            window_seconds=W, checkpoint_dir=tmp_path / "c", max_windows=1
        )).run()
        assert killed.stopped_early
        resumed = LivePipeline(stream, LiveConfig(
            window_seconds=W, checkpoint_dir=tmp_path / "c"
        )).run()
        assert resumed.resumed
        combined = killed.windows + resumed.windows
        assert [w.as_dict(deterministic_only=True) for w in combined] == [
            w.as_dict(deterministic_only=True) for w in reference.windows
        ]
        assert_atoms_equal(resumed.atoms, reference.atoms)


class TestWithdrawBeforeAnnounce:
    def test_unseen_prefix_withdrawal_is_a_noop(self):
        """A withdrawal for a prefix the collector never saw announced
        (common right after a session reset) must not perturb atoms."""
        stream = full_stream()
        stream.insert(3, update_record(
            PEERS[2], 105, withdrawn=["198.51.100.0/24"]
        ))
        stream.insert(6, update_record(
            PEERS[1], 160, withdrawn=["198.51.100.0/24", "10.0.9.0/24"]
        ))
        run = LivePipeline(stream, LiveConfig(window_seconds=W)).run()
        assert run.parity_checks == len(run.windows)
        assert_atoms_equal(run.atoms, cold_atoms(full_stream()))

    def test_withdraw_from_unknown_peer_table_at_index_level(self):
        """RIBSnapshot.withdraw for a peer table that does not exist yet
        still fires the mutation hook; the refresh must cope."""
        from repro.bgp.rib import RIBSnapshot

        snapshot = RIBSnapshot()
        snapshot.apply_record(prime_records()[0])
        index = AtomIndex(snapshot, vantage_points=[PEERS[0], PEERS[1]])
        snapshot.withdraw(PEERS[1], Prefix.parse("10.0.1.0/24"))
        index.refresh()
        expected = compute_atoms(
            snapshot, vantage_points=[PEERS[0], PEERS[1]]
        )
        assert_atoms_equal(index.atoms(), expected)

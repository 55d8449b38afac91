"""Tests for the streaming atom-maintenance pipeline (repro.stream.live).

The simulator's update streams never change paths or withdraw routes,
so every stream here is hand-crafted: announcements that move prefixes
between atoms, withdrawals, out-of-order arrivals, and new prefixes —
the churn the incremental machinery exists for.
"""

import json
from itertools import chain

import pytest

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.bgp.rib import RIBSnapshot
from repro.core.atoms import compute_atoms
from repro.core.incremental import AtomIndex
from repro.engine.checkpoint import STATE_NAME, StreamCheckpointError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.store import AtomStore
from repro.stream import live
from repro.stream.archive import RecordArchive
from repro.stream.live import (
    LiveConfig,
    LiveError,
    LiveParityError,
    LivePipeline,
    _diff_atom_sets,
)

PEERS = [("rrc00", 1, "10.9.1.1"), ("rrc00", 2, "10.9.2.1"),
         ("rrc01", 3, "10.9.3.1")]

#: window width used throughout; timestamps below are chosen against it
W = 100


def rib_record(peer, entries, timestamp=50):
    collector, peer_asn, peer_address = peer
    elements = [
        RouteElement(
            ElementType.RIB, Prefix.parse(text),
            PathAttributes(ASPath.parse(path)),
        )
        for text, path in entries
    ]
    return RouteRecord(
        "rib", "ris", collector, peer_asn, peer_address, timestamp, elements
    )


def update_record(peer, timestamp, announced=(), withdrawn=()):
    collector, peer_asn, peer_address = peer
    elements = [
        RouteElement(
            ElementType.ANNOUNCEMENT, Prefix.parse(text),
            PathAttributes(ASPath.parse(path)),
        )
        for text, path in announced
    ]
    elements += [
        RouteElement(ElementType.WITHDRAWAL, Prefix.parse(text))
        for text in withdrawn
    ]
    return RouteRecord(
        "update", "ris", collector, peer_asn, peer_address, timestamp, elements
    )


def prime_records():
    """Three full-feed peers over six prefixes, two initial atoms."""
    return [
        rib_record(PEERS[0], [
            ("10.0.1.0/24", "1 5 9"), ("10.0.2.0/24", "1 5 9"),
            ("10.0.3.0/24", "1 6 8"), ("10.0.4.0/24", "1 6 8"),
            ("10.0.5.0/24", "1 5 9"), ("10.0.6.0/24", "1 6 8"),
        ]),
        rib_record(PEERS[1], [
            ("10.0.1.0/24", "2 5 9"), ("10.0.2.0/24", "2 5 9"),
            ("10.0.3.0/24", "2 6 8"), ("10.0.4.0/24", "2 6 8"),
            ("10.0.5.0/24", "2 5 9"), ("10.0.6.0/24", "2 6 8"),
        ]),
        rib_record(PEERS[2], [
            ("10.0.1.0/24", "3 5 9"), ("10.0.2.0/24", "3 5 9"),
            ("10.0.3.0/24", "3 6 8"), ("10.0.4.0/24", "3 6 8"),
            ("10.0.5.0/24", "3 5 9"), ("10.0.6.0/24", "3 6 8"),
        ]),
    ]


def churny_updates():
    """Three windows of genuine churn: path moves, withdrawals, births.

    Window 1 ([100, 200)): 10.0.2.0/24 changes path at peer 0 —
    splits it out of its atom.  Window 2 ([200, 300)): a brand-new
    prefix appears at every peer, and 10.0.4.0/24 is withdrawn at
    peer 1 (partial withdrawal: still visible elsewhere, new atom).
    Window 3 ([300, 400)): 10.0.1.0/24 withdrawn everywhere — the
    prefix leaves the partition entirely.
    """
    return [
        update_record(PEERS[0], 110, announced=[("10.0.2.0/24", "1 7 9")]),
        update_record(PEERS[1], 150, announced=[("10.0.5.0/24", "2 5 9")]),
        update_record(PEERS[0], 210, announced=[("10.0.9.0/24", "1 4 2")]),
        update_record(PEERS[1], 220, announced=[("10.0.9.0/24", "2 4 2")]),
        update_record(PEERS[2], 230, announced=[("10.0.9.0/24", "3 4 2")]),
        update_record(PEERS[1], 240, withdrawn=["10.0.4.0/24"]),
        update_record(PEERS[0], 310, withdrawn=["10.0.1.0/24"]),
        update_record(PEERS[1], 320, withdrawn=["10.0.1.0/24"]),
        update_record(PEERS[2], 330, withdrawn=["10.0.1.0/24"]),
    ]


def full_stream():
    return prime_records() + churny_updates()


def cold_atoms(records, vantage_points=None):
    """compute_atoms over the whole stream applied to a fresh RIB."""
    snapshot = RIBSnapshot()
    for record in records:
        snapshot.apply_record(record)
    if vantage_points is None:
        vantage_points = sorted(
            {r.peer_id for r in records if r.record_type == "rib"}
        )
    return compute_atoms(snapshot, vantage_points=vantage_points)


def assert_atoms_equal(ours, theirs):
    assert len(ours) == len(theirs)
    assert list(ours.vantage_points) == list(theirs.vantage_points)
    for mine, other in zip(ours.atoms, theirs.atoms):
        assert mine.atom_id == other.atom_id
        assert mine.prefixes == other.prefixes
        assert tuple(mine.paths) == tuple(other.paths)


class TestLiveConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LiveConfig(window_seconds=0)
        with pytest.raises(ValueError):
            LiveConfig(parity="sometimes")
        with pytest.raises(ValueError):
            LiveConfig(store_merge_every=-1)
        for cap in (0, -1):
            with pytest.raises(ValueError, match="correlation_max_size"):
                LiveConfig(correlation_max_size=cap)
            with pytest.raises(ValueError, match="max_windows"):
                LiveConfig(max_windows=cap)

    def test_payload_holds_only_result_affecting_knobs(self):
        """Cadence, parity and the window cap stay out of the payload,
        so a resumed run may change them; the four keys are the
        checkpoint format's config contract."""
        payload = LiveConfig(
            checkpoint_every=3, store_merge_every=2, parity="off",
            max_windows=5,
        ).payload()
        assert payload == {
            "window_seconds": 900,
            "family": None,
            "expand_singleton_sets": True,
            "strip_prepending": False,
        }


class TestLivePipeline:
    def test_windows_close_with_parity(self):
        run = LivePipeline(full_stream(), LiveConfig(window_seconds=W)).run()
        assert [w.index for w in run.windows] == [1, 2, 3]
        assert run.parity_checks == 3
        assert run.prime_records == 3
        # window 1: two announcements, one a genuine path change
        assert run.windows[0].announcements == 2
        assert run.windows[0].key_changes >= 1
        # window 2: new prefix is born, partial withdrawal splits an atom
        assert run.windows[1].withdrawals == 1
        assert run.windows[1].created >= 1
        # window 3: 10.0.1.0/24 disappears from the partition
        assert run.windows[2].withdrawals == 3
        assert run.windows[1].prefixes == 7
        assert run.windows[2].prefixes == 6

    def test_final_atoms_match_cold_compute(self):
        stream = full_stream()
        run = LivePipeline(stream, LiveConfig(window_seconds=W)).run()
        assert run.atoms is not None
        assert_atoms_equal(run.atoms, cold_atoms(stream))

    def test_prime_only_stream_still_yields_atoms(self):
        run = LivePipeline(prime_records(), LiveConfig(window_seconds=W)).run()
        assert run.windows == []
        assert run.atoms is not None
        assert_atoms_equal(run.atoms, cold_atoms(prime_records()))

    def test_no_dump_and_no_vps_is_an_error(self):
        with pytest.raises(LiveError, match="no leading RIB dump"):
            LivePipeline(churny_updates(), LiveConfig(window_seconds=W)).run()

    def test_explicit_vantage_points_without_dump(self):
        vps = [PEERS[0], PEERS[1]]
        stream = churny_updates()
        run = LivePipeline(
            stream, LiveConfig(window_seconds=W), vantage_points=vps
        ).run()
        assert run.vantage_points == vps
        assert run.atoms is not None
        expected = cold_atoms(
            [r for r in stream if r.peer_id in set(vps)], vantage_points=vps
        )
        assert_atoms_equal(run.atoms, expected)

    def test_foreign_peer_records_are_skipped(self):
        stranger = ("rrc09", 99, "10.9.9.9")
        stream = full_stream()
        stream.insert(5, update_record(
            stranger, 115, announced=[("10.0.2.0/24", "99 5 9")]
        ))
        run = LivePipeline(stream, LiveConfig(window_seconds=W)).run()
        assert run.records == len(churny_updates())
        assert stranger not in run.vantage_points
        assert_atoms_equal(run.atoms, cold_atoms(full_stream()))

    def test_max_windows_stops_early(self):
        run = LivePipeline(
            full_stream(), LiveConfig(window_seconds=W, max_windows=2)
        ).run()
        assert len(run.windows) == 2
        assert run.stopped_early

    def test_withdrawal_for_never_announced_prefix_is_harmless(self):
        stream = full_stream()
        stream.insert(4, update_record(
            PEERS[0], 120, withdrawn=["172.16.0.0/16"]
        ))
        run = LivePipeline(stream, LiveConfig(window_seconds=W)).run()
        assert run.parity_checks == 3
        assert_atoms_equal(run.atoms, cold_atoms(full_stream()))

    def test_on_window_sees_every_boundary(self):
        seen = []
        LivePipeline(full_stream(), LiveConfig(window_seconds=W)).run(
            on_window=seen.append
        )
        assert [w.index for w in seen] == [1, 2, 3]

    def test_parity_fires_when_the_index_misses_a_mutation(
        self, monkeypatch
    ):
        """A prefix whose mutations never mark it dirty is missing from
        the streamed partition; the first boundary must catch it."""
        hidden = Prefix.parse("10.0.2.0/24")
        mark_dirty = AtomIndex._on_mutation

        def forgetful(index, peer_id, prefix):
            if prefix != hidden:
                mark_dirty(index, peer_id, prefix)

        monkeypatch.setattr(AtomIndex, "_on_mutation", forgetful)
        with pytest.raises(LiveParityError, match=r"window end 200 \("):
            LivePipeline(full_stream(), LiveConfig(window_seconds=W)).run()

    def test_parity_fires_in_a_late_window(self, monkeypatch):
        """A mutation missed after two boundaries, with the parity pool
        already warm, still fails the boundary that follows it."""
        hidden = Prefix.parse("10.0.1.0/24")
        mark_dirty = AtomIndex._on_mutation
        closed = []

        def forgetful(index, peer_id, prefix):
            if len(closed) < 2 or prefix != hidden:
                mark_dirty(index, peer_id, prefix)

        monkeypatch.setattr(AtomIndex, "_on_mutation", forgetful)
        with pytest.raises(LiveParityError, match=r"window end 400 \("):
            LivePipeline(full_stream(), LiveConfig(window_seconds=W)).run(
                on_window=closed.append
            )
        assert [w.index for w in closed] == [1, 2]

    def test_warm_parity_pool_changes_nothing(self, monkeypatch):
        """The run-long pool gives, at every boundary, the partition a
        fresh pool gives, atom ids and path vectors included; it is
        never the index's pool."""
        pools = []
        indexes = []

        def both(snapshot, vantage_points, pool, **flags):
            warm = compute_atoms(snapshot, vantage_points, pool=pool, **flags)
            fresh = compute_atoms(snapshot, vantage_points, **flags)
            assert _diff_atom_sets(warm, fresh) == []
            pools.append(pool)
            return warm

        class RecordedIndex(AtomIndex):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                indexes.append(self)

        monkeypatch.setattr(live, "compute_atoms", both)
        monkeypatch.setattr(live, "AtomIndex", RecordedIndex)
        run = LivePipeline(full_stream(), LiveConfig(window_seconds=W)).run()
        assert run.parity_checks == len(pools) == 3
        assert all(pool is pools[0] for pool in pools)
        assert len(pools[0]) > 0
        assert len(indexes) == 1 and indexes[0].pool is not pools[0]


class TestCheckpointResume:
    def _reference(self):
        return LivePipeline(full_stream(), LiveConfig(window_seconds=W)).run()

    def _assert_resumes_like_reference(self, killed, resumed):
        reference = self._reference()
        indices = [w.index for w in killed.windows] + [
            w.index for w in resumed.windows
        ]
        assert indices == [w.index for w in reference.windows]
        combined = killed.windows + resumed.windows
        for ours, theirs in zip(combined, reference.windows):
            assert ours.as_dict(deterministic_only=True) == theirs.as_dict(
                deterministic_only=True
            )
        assert_atoms_equal(resumed.atoms, reference.atoms)

    def test_kill_and_resume_matches_uninterrupted_run(self, tmp_path):
        """A kill at every boundary but the last resumes exactly."""
        for kill_after in range(1, len(self._reference().windows)):
            ckpt = tmp_path / f"after-{kill_after}"
            killed = LivePipeline(full_stream(), LiveConfig(
                window_seconds=W, checkpoint_dir=ckpt, max_windows=kill_after
            )).run()
            assert killed.stopped_early and killed.checkpoints == kill_after

            resume = LiveConfig(window_seconds=W, checkpoint_dir=ckpt)
            resumed = LivePipeline(full_stream(), resume).run()
            assert resumed.resumed and resumed.resumed_from == kill_after
            assert resumed.skipped > len(prime_records())
            self._assert_resumes_like_reference(killed, resumed)

    def test_kill_via_on_window_exception(self, tmp_path):
        class Kill(Exception):
            pass

        config = LiveConfig(window_seconds=W, checkpoint_dir=tmp_path / "c")

        def bomb(window):
            if window.index == 1:
                raise Kill()

        with pytest.raises(Kill):
            LivePipeline(full_stream(), config).run(on_window=bomb)

        resumed = LivePipeline(full_stream(), config).run()
        assert resumed.resumed and resumed.resumed_from == 1
        assert [w.index for w in resumed.windows] == [2, 3]
        assert_atoms_equal(resumed.atoms, self._reference().atoms)

    def test_resuming_a_finished_stream_is_a_noop(self, tmp_path):
        config = LiveConfig(window_seconds=W, checkpoint_dir=tmp_path / "c")
        finished = LivePipeline(full_stream(), config).run()
        again = LivePipeline(full_stream(), config).run()
        assert again.resumed and again.windows == []
        assert again.skipped == finished.records + finished.prime_records
        assert_atoms_equal(again.atoms, finished.atoms)

    def test_dump_records_outside_the_panel_count_toward_the_cursor(
        self, tmp_path
    ):
        """The cursor counts every consumed record, so a resumed run
        re-applies none of them: PEERS[2]'s dump record is consumed but
        sits outside the explicit panel."""
        vps = PEERS[:2]
        reference = LivePipeline(
            full_stream(), LiveConfig(window_seconds=W), vantage_points=vps
        ).run()
        killed = LivePipeline(full_stream(), LiveConfig(
            window_seconds=W, checkpoint_dir=tmp_path / "c", max_windows=1
        ), vantage_points=vps).run()
        resumed = LivePipeline(
            full_stream(),
            LiveConfig(window_seconds=W, checkpoint_dir=tmp_path / "c"),
            vantage_points=vps,
        ).run()
        combined = killed.windows + resumed.windows
        assert [w.index for w in combined] == [1, 2, 3]
        assert [w.as_dict(deterministic_only=True) for w in combined] == [
            w.as_dict(deterministic_only=True) for w in reference.windows
        ]
        assert resumed.skipped == len(prime_records()) + 2
        assert_atoms_equal(resumed.atoms, reference.atoms)

    def test_withdrawn_vantage_point_stays_in_resumed_panel(self, tmp_path):
        """A feed whose routes were all withdrawn before the checkpoint
        keeps its place in the panel (and in every atom's path vector)."""
        everything = [f"10.0.{i}.0/24" for i in range(1, 7)]
        stream = prime_records() + [
            update_record(PEERS[2], 110, withdrawn=everything),
            update_record(PEERS[0], 210, announced=[("10.0.2.0/24", "1 7 9")]),
        ]
        reference = LivePipeline(stream, LiveConfig(window_seconds=W)).run()
        LivePipeline(stream, LiveConfig(
            window_seconds=W, checkpoint_dir=tmp_path / "c", max_windows=1
        )).run()
        resumed = LivePipeline(stream, LiveConfig(
            window_seconds=W, checkpoint_dir=tmp_path / "c"
        )).run()
        assert resumed.vantage_points == PEERS
        assert list(resumed.atoms.vantage_points) == PEERS
        assert_atoms_equal(resumed.atoms, reference.atoms)

    def test_stream_shorter_than_the_cursor_is_refused(self, tmp_path):
        config = LiveConfig(
            window_seconds=W, checkpoint_dir=tmp_path / "c", max_windows=2
        )
        LivePipeline(full_stream(), config).run()
        resume = LiveConfig(window_seconds=W, checkpoint_dir=tmp_path / "c")
        with pytest.raises(StreamCheckpointError, match="before the checkpoint"):
            LivePipeline(full_stream()[:6], resume).run()

    def test_leading_dump_past_the_cursor_is_refused(self, tmp_path):
        config = LiveConfig(
            window_seconds=W, checkpoint_dir=tmp_path / "c", max_windows=1
        )
        LivePipeline(full_stream(), config).run()
        longer_dump = prime_records() * 3 + churny_updates()
        with pytest.raises(StreamCheckpointError, match="differ"):
            LivePipeline(longer_dump, config).run()

    def test_state_without_a_cursor_is_refused(self, tmp_path):
        config = LiveConfig(
            window_seconds=W, checkpoint_dir=tmp_path / "c", max_windows=1
        )
        LivePipeline(full_stream(), config).run()
        state_path = tmp_path / "c" / STATE_NAME
        state = json.loads(state_path.read_text())
        del state["meta"]["stream_digest"]
        state_path.write_text(json.dumps(state))
        with pytest.raises(StreamCheckpointError, match="no valid cursor"):
            LivePipeline(full_stream(), config).run()

    def test_explicit_vps_must_match_checkpoint(self, tmp_path):
        config = LiveConfig(
            window_seconds=W, checkpoint_dir=tmp_path / "c", max_windows=1
        )
        LivePipeline(full_stream(), config).run()
        resume = LiveConfig(window_seconds=W, checkpoint_dir=tmp_path / "c")
        with pytest.raises(LiveError, match="disagree"):
            LivePipeline(
                full_stream(), resume, vantage_points=[PEERS[0]]
            ).run()


def archive_stream(archive):
    """The archive replayed the way ``repro live`` reads it."""
    return chain(
        archive.records(record_type="rib"),
        archive.records(record_type="update"),
    )


class TestResumeChecksTheStream:
    """A cursor means something only over the records it counted."""

    @pytest.mark.parametrize("edit", ["none", "timestamp", "delete-dump"])
    def test_archive_edited_between_kill_and_resume(self, tmp_path, edit):
        archive = RecordArchive(tmp_path / "archive")
        archive.write_dump(prime_records())
        for window in (1, 2, 3):
            archive.write_dump(
                [r for r in churny_updates() if r.timestamp // W == window]
            )
        reference = LivePipeline(
            archive_stream(archive), LiveConfig(window_seconds=W)
        ).run()
        ckpt = tmp_path / "c"
        killed = LivePipeline(archive_stream(archive), LiveConfig(
            window_seconds=W, checkpoint_dir=ckpt, max_windows=2
        )).run()

        # Window 1's dump lies wholly before the cursor.
        _, _, _, stamp, first_dump = archive.dumps(record_type="update")[0]
        if edit == "timestamp":
            first, *rest = archive.read_file(first_dump)
            moved = RouteRecord(
                first.record_type, first.project, first.collector,
                first.peer_asn, first.peer_address, first.timestamp + 10,
                first.elements,
            )
            assert archive.write_dump(
                [moved, *rest], dump_timestamp=stamp
            ) == [first_dump]
        elif edit == "delete-dump":
            first_dump.unlink()

        resume = LiveConfig(window_seconds=W, checkpoint_dir=ckpt)
        if edit == "none":
            resumed = LivePipeline(archive_stream(archive), resume).run()
            combined = killed.windows + resumed.windows
            assert [w.as_dict(deterministic_only=True) for w in combined] == [
                w.as_dict(deterministic_only=True) for w in reference.windows
            ]
            assert_atoms_equal(resumed.atoms, reference.atoms)
        else:
            with pytest.raises(StreamCheckpointError, match="differ"):
                LivePipeline(archive_stream(archive), resume).run()


class TestStoreSink:
    def test_window_snapshots_land_in_a_queryable_store(self, tmp_path):
        store_dir = tmp_path / "store"
        config = LiveConfig(window_seconds=W, store_dir=store_dir)
        run = LivePipeline(full_stream(), config).run()
        assert run.store_keys == ["w00000001", "w00000002", "w00000003"]
        with AtomStore(store_dir) as store:
            keys = [entry.key for entry in store.snapshots()]
            assert keys == run.store_keys
            for window, key in zip(run.windows, run.store_keys):
                atoms = store.atoms(key)
                assert len(atoms) == window.atoms
                assert atoms.prefix_count() == window.prefixes
            assert_atoms_equal(store.atoms(run.store_keys[-1]), run.atoms)

    def test_resume_appends_to_existing_store(self, tmp_path):
        store_dir = tmp_path / "store"
        first = LiveConfig(
            window_seconds=W, store_dir=store_dir,
            checkpoint_dir=tmp_path / "c", max_windows=2,
        )
        LivePipeline(full_stream(), first).run()
        second = LiveConfig(
            window_seconds=W, store_dir=store_dir,
            checkpoint_dir=tmp_path / "c",
        )
        resumed = LivePipeline(full_stream(), second).run()
        assert resumed.store_keys == [
            "w00000001", "w00000002", "w00000003"
        ]
        with AtomStore(store_dir) as store:
            assert [e.key for e in store.snapshots()] == resumed.store_keys

    def test_periodic_merge_cadence(self, tmp_path):
        store_dir = tmp_path / "store"
        config = LiveConfig(
            window_seconds=W, store_dir=store_dir, store_merge_every=1
        )
        run = LivePipeline(full_stream(), config).run()
        with AtomStore(store_dir) as store:
            assert len(store.snapshots()) == len(run.windows)

"""Tests for the transport-free atom query service and its history memo."""

import sys
import threading

import pytest

from repro.core.atoms import AtomSet, PolicyAtom
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.serve.cache import ResponseCache
from repro.serve.http import encode_body
from repro.serve.service import AtomQueryService, QueryError
from repro.store import AtomStore
from repro.store.writer import StoreWriter


def p(text):
    return Prefix.parse(text)


@pytest.fixture(scope="module")
def service(served_store):
    return AtomQueryService(served_store, cache=ResponseCache(64))


class TestPrefixQuery:
    def test_parity_with_direct_store_query(self, served_store, service):
        entry = served_store.snapshots()[0]
        for prefix in list(served_store.atoms(entry.key).by_prefix)[:25]:
            direct = served_store.query(prefix, key=entry.key)
            answer = service.prefix_query(str(prefix))
            assert answer["atom"]["id"] == direct.atom_id
            assert answer["location"] == {
                "shard": direct.shard,
                "row": direct.row,
            }
            paths = [row["path"] for row in answer["atom"]["paths"]]
            assert paths == [
                None if path is None else str(path) for path in direct.paths
            ]

    def test_absent_prefix(self, service):
        answer = service.prefix_query("203.0.113.0/24")
        assert answer["atom"] is None and answer["location"] is None
        assert answer["stability"]["present"] == 0

    def test_history_covers_every_snapshot(self, served_store, service):
        entries = served_store.snapshots()
        prefix = next(iter(served_store.atoms(entries[0].key).by_prefix))
        answer = service.prefix_query(str(prefix))
        assert [row["snapshot"] for row in answer["history"]] == [
            entry.key for entry in entries
        ]
        assert answer["stability"]["snapshots"] == len(entries)
        assert 0 < answer["stability"]["present"] <= len(entries)

    def test_snapshot_parameter(self, served_store, service):
        entry = served_store.snapshots()[-1]
        prefix = next(iter(served_store.atoms(entry.key).by_prefix))
        answer = service.prefix_query(str(prefix), snapshot=entry.key)
        assert answer["snapshot"] == entry.key
        direct = served_store.query(prefix, key=entry.key)
        assert answer["atom"]["id"] == direct.atom_id

    def test_invalid_prefix_is_400(self, service):
        with pytest.raises(QueryError) as info:
            service.prefix_query("banana")
        assert info.value.status == 400

    def test_unknown_snapshot_is_404(self, service):
        with pytest.raises(QueryError) as info:
            service.prefix_query("10.0.0.0/8", snapshot="nope")
        assert info.value.status == 404


def all_prefixes(store):
    found = set()
    for entry in store.snapshots():
        found.update(store.atoms(entry.key).by_prefix)
    return sorted(found, key=Prefix.key)


def expected_history(store, prefix):
    """``(atom ids, present, path_changes)`` from the rebuilt atom sets."""
    atom_ids, panels = [], []
    for entry in store.snapshots():
        atoms = store.atoms(entry.key)
        atom = atoms.by_prefix.get(prefix)
        atom_ids.append(None if atom is None else atom.atom_id)
        panels.append(
            None
            if atom is None
            else dict(zip(atoms.vantage_points, atom.paths))
        )
    changes = 0
    for before, after in zip(panels, panels[1:]):
        if before is not None and after is not None:
            common = before.keys() & after.keys()
            changes += any(
                str(before[peer]) != str(after[peer]) for peer in common
            )
    present = sum(panel is not None for panel in panels)
    return atom_ids, present, changes


class TestHistory:
    def test_every_prefix_under_every_key(self, served_store):
        prefixes = all_prefixes(served_store)
        service = AtomQueryService(
            served_store, cache=ResponseCache(len(prefixes))
        )
        for prefix in prefixes:
            atom_ids, present, changes = expected_history(served_store, prefix)
            for entry in served_store.snapshots():
                answer = service.prefix_query(str(prefix), snapshot=entry.key)
                assert [
                    row["atom_id"] for row in answer["history"]
                ] == atom_ids, (str(prefix), entry.key)
                assert answer["stability"]["present"] == present
                assert answer["stability"]["path_changes"] == changes

    def test_memo_answer_equals_fresh_service(self, served_store):
        entries = served_store.snapshots()
        prefix = str(all_prefixes(served_store)[0])
        service = AtomQueryService(served_store, cache=ResponseCache(16))
        service.prefix_query(prefix, snapshot=entries[0].key)
        hits = service._history.cache_info().hits
        memo = service.prefix_query(prefix, snapshot=entries[-1].key)
        assert service._history.cache_info().hits == hits + 1
        fresh = AtomQueryService(served_store).prefix_query(
            prefix, snapshot=entries[-1].key
        )
        assert encode_body(memo) == encode_body(fresh)

    def test_memo_is_bounded_by_cache_entries(self, served_store):
        service = AtomQueryService(served_store, cache=ResponseCache(4))
        prefixes = [str(prefix) for prefix in all_prefixes(served_store)[:10]]
        first = service.prefix_query(prefixes[0])
        for prefix in prefixes[1:]:
            service.prefix_query(prefix)
            assert service._history.cache_info().currsize <= 4
        assert service._history.cache_info().maxsize == 4
        misses = service._history.cache_info().misses
        again = service.prefix_query(prefixes[0])
        assert service._history.cache_info().misses == misses + 1
        assert encode_body(again) == encode_body(first)

    def test_concurrent_answers_equal_serial(self, served_store):
        entries = served_store.snapshots()
        requests = [
            (str(prefix), entry.key)
            for prefix in all_prefixes(served_store)[:12]
            for entry in (entries[0], entries[-1])
        ]
        serial = AtomQueryService(served_store)
        expected = [
            encode_body(serial.prefix_query(cidr, snapshot=key))
            for cidr, key in requests
        ]
        # A memo smaller than the working set keeps threads building and
        # evicting histories while others read them.
        shared = AtomQueryService(served_store, cache=ResponseCache(3))
        wrong = []

        def worker(offset):
            try:
                for _round in range(3):
                    for step in range(len(requests)):
                        index = (offset + step) % len(requests)
                        cidr, key = requests[index]
                        body = encode_body(
                            shared.prefix_query(cidr, snapshot=key)
                        )
                        if body != expected[index]:
                            wrong.append(requests[index])
            except Exception as error:  # reported below
                wrong.append(error)

        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


A = ("rrc00", 65001, "10.0.0.1")
B = ("rrc00", 65002, "10.0.0.2")
C = ("rrc01", 65003, "10.0.0.3")


class TestPanelChanges:
    """``path_changes`` matches vantage points by identity, not position."""

    def stability(self, tmp_path, panels):
        """Store one snapshot per ``{vantage point: hops}`` panel."""
        prefix = p("192.0.2.0/24")
        writer = StoreWriter(tmp_path / "store")
        for index, panel in enumerate(panels):
            paths = tuple(ASPath.from_asns(hops) for hops in panel.values())
            atoms = AtomSet(
                [PolicyAtom(0, frozenset([prefix]), paths)],
                list(panel),
                timestamp=index,
            )
            writer.add_snapshot(f"s{index}", atoms)
        writer.close()
        with AtomStore(tmp_path / "store") as store:
            answer = AtomQueryService(store).prefix_query(str(prefix))
        return answer["stability"]

    def test_dropped_vantage_point_is_no_change(self, tmp_path):
        stability = self.stability(tmp_path, [
            {A: [65001, 9], B: [65002, 9], C: [65003, 9]},
            {A: [65001, 9], C: [65003, 9]},
        ])
        assert stability == {"snapshots": 2, "present": 2, "path_changes": 0}

    def test_reordered_panel_is_no_change(self, tmp_path):
        stability = self.stability(tmp_path, [
            {A: [65001, 9], B: [65002, 9]},
            {B: [65002, 9], A: [65001, 9]},
        ])
        assert stability["path_changes"] == 0

    def test_common_vantage_point_change_counts(self, tmp_path):
        stability = self.stability(tmp_path, [
            {A: [65001, 9], B: [65002, 9]},
            {A: [65001, 7, 9], C: [65003, 9]},
            {A: [65001, 7, 9], C: [65003, 9]},
        ])
        assert stability == {"snapshots": 3, "present": 3, "path_changes": 1}


class TestAtomQuery:
    def test_members_match_store(self, served_store, service):
        entry = served_store.snapshots()[0]
        atoms = served_store.atoms(entry.key)
        atom = atoms.atoms[0]
        answer = service.atom_query(0)
        assert answer["atom"]["size"] == atom.size
        assert set(answer["atom"]["prefixes"]) == {
            str(prefix) for prefix in atom.prefixes
        }
        assert answer["atom"]["origins"] == sorted(atom.origins())

    def test_timeline_spans_base_snapshots(self, served_store, service):
        bases = [
            entry
            for entry in served_store.snapshots()
            if entry.role == "base"
        ]
        answer = service.atom_query(0)
        assert [row["snapshot"] for row in answer["timeline"]] == [
            entry.key for entry in bases
        ]
        # In its own snapshot the atom is by definition intact and
        # spans exactly one atom.
        own = next(
            row
            for row in answer["timeline"]
            if row["snapshot"] == answer["snapshot"]
        )
        assert own["intact"] and own["atoms_spanned"] == 1
        assert own["present"] == answer["atom"]["size"]

    def test_out_of_range_is_404(self, served_store, service):
        entry = served_store.snapshots()[0]
        for bad in (-1, entry.atom_count, entry.atom_count + 17):
            with pytest.raises(QueryError) as info:
                service.atom_query(bad)
            assert info.value.status == 404


class TestStats:
    def test_shape_matches_manifest(self, served_store, service):
        entries = served_store.snapshots()
        bases = [entry for entry in entries if entry.role == "base"]
        answer = service.stats()
        assert answer["store"]["version"] == served_store.manifest_digest()
        assert answer["store"]["snapshots"] == len(entries)
        assert answer["store"]["base_snapshots"] == len(bases)
        assert [row["key"] for row in answer["snapshots"]] == [
            entry.key for entry in entries
        ]
        for row, entry in zip(answer["snapshots"], entries):
            assert row["atoms"] == entry.atom_count
            assert row["prefixes"] == entry.prefixes

    def test_series(self, served_store, service):
        bases = [
            entry
            for entry in served_store.snapshots()
            if entry.role == "base"
        ]
        answer = service.stats()
        series = answer["series"]
        assert series["atom_counts"] == [
            [entry.year, entry.atom_count] for entry in bases
        ]
        assert len(series["splits"]) == len(bases) - 1
        assert len(series["merges"]) == len(bases) - 1
        for year, count in series["splits"] + series["merges"]:
            assert count >= 0 and year == bases[-1].year

    def test_deterministic(self, service):
        assert service.stats() == service.stats()


class TestVersion:
    def test_version_is_manifest_digest(self, served_store, service):
        assert service.version == served_store.manifest_digest()
        assert len(service.version) == 64

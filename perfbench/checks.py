"""Output checks, each computed apart from the layer it checks.

Every function returns a list of problem strings (empty means the
output is correct).  They take plain data so that the self-test can
plant an error in that data and show the check reports it.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.bgp.messages import ElementType, RouteRecord

Vector = Tuple[Optional[str], ...]


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def partition_problems(key: str, rows: Sequence[Tuple[Any, int, Vector]],
                       manifest_prefixes: int, manifest_atoms: int
                       ) -> List[str]:
    """One stored snapshot: atoms must be the classes of equal path columns.

    ``rows`` holds ``(prefix, atom id, per-VP path column)`` for every
    stored prefix.  Prefixes share an atom exactly when their columns
    are equal, and the manifest counts match that grouping.
    """
    problems: List[str] = []
    prefixes = [row[0] for row in rows]
    if len(set(prefixes)) != len(prefixes):
        problems.append(f"{key}: a prefix is stored twice")
    by_vector: Dict[Vector, set] = defaultdict(set)
    by_atom: Dict[int, set] = defaultdict(set)
    for prefix, atom_id, vector in rows:
        by_vector[vector].add(prefix)
        by_atom[atom_id].add(prefix)
    ours = {frozenset(group) for group in by_vector.values()}
    theirs = {frozenset(group) for group in by_atom.values()}
    if ours != theirs:
        problems.append(
            f"{key}: {len(theirs - ours)} atom(s) differ from the grouping "
            f"of equal path columns"
        )
    if manifest_prefixes != len(prefixes):
        problems.append(
            f"{key}: manifest says {manifest_prefixes} prefixes, "
            f"{len(prefixes)} stored"
        )
    if manifest_atoms != len(by_vector):
        problems.append(
            f"{key}: manifest says {manifest_atoms} atoms, grouping "
            f"gives {len(by_vector)}"
        )
    return problems


def store_rows(store, key: str) -> List[Tuple[Any, int, Vector]]:
    """``(prefix, atom id, path column)`` rows of one stored snapshot.

    The prefix list comes from the reconstructed atoms; each prefix's
    atom id and path column come from a point query of the columns.
    """
    rows = []
    for atom in store.atoms(key):
        for prefix in atom.prefixes:
            found = store.query(prefix, key=key)
            if found is None:
                rows.append((prefix, -1, ()))
                continue
            rows.append((
                prefix,
                found.atom_id,
                tuple(None if path is None else str(path)
                      for path in found.paths),
            ))
    return rows


def sweep_result_problems(results: Sequence[Any],
                          base_counts: Mapping[str, Tuple[int, int]]
                          ) -> List[List[str]]:
    """Trend rows: counts match the stored grouping, shares and fractions
    are well formed.  ``base_counts`` maps a quarter label to the
    (prefixes, atoms) of its stored base snapshot.  Returns the problems
    of each row, in order; a row with no stored quarter to match, or a
    quarter with no row, is one list of its own."""
    rows: List[List[str]] = []
    for result, (label, (prefixes, atoms)) in zip(results, base_counts.items()):
        problems: List[str] = []
        stats = result.stats
        if (stats.n_prefixes, stats.n_atoms) != (prefixes, atoms):
            problems.append(
                f"{label}: trend reports {stats.n_prefixes} prefixes / "
                f"{stats.n_atoms} atoms, store grouping has "
                f"{prefixes} / {atoms}"
            )
        total = sum(result.formation_shares.values())
        if stats.n_atoms and abs(total - 1.0) > 1e-9:
            problems.append(f"{label}: formation shares sum to {total!r}")
        for window, pair in result.stability.items():
            for value in pair:
                if not 0.0 <= value <= 1.0:
                    problems.append(
                        f"{label}: stability {window} value {value!r} "
                        "outside [0, 1]"
                    )
        rows.append(problems)
    for _ in range(abs(len(results) - len(base_counts))):
        rows.append([
            f"{len(results)} trend rows for {len(base_counts)} stored quarters"
        ])
    return rows


def snapshot_fingerprints(root: Path, entries: Sequence[Any]
                          ) -> Dict[str, Tuple[Any, ...]]:
    """What a later sweep must reproduce, snapshot by snapshot: the
    manifest entry, a SHA-256 of each of its shard files, and one of the
    store-wide segments every snapshot reads (the path pool)."""
    def digest(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    shared = tuple(digest(path) for path in sorted(root.glob("*.seg")))
    return {
        entry.key: (entry, shared,
                    tuple(digest(root / shard.file) for shard in entry.shards))
        for entry in entries
    }


# ----------------------------------------------------------------------
# live
# ----------------------------------------------------------------------

def normalised(path) -> Optional[str]:
    """A path as the atom definition compares it, or None when dropped.

    One-element AS_SETs become their member; a path with a larger set
    is dropped (§2.4.4).  Prepending is kept.
    """
    if path is None:
        return None
    asns: List[int] = []
    for segment in path.segments:
        members = tuple(segment.asns)
        if segment.is_set:
            if len(members) != 1:
                return None
        asns.extend(members)
    return " ".join(str(asn) for asn in asns)


def replay_partition(records: Iterable[RouteRecord]
                     ) -> Tuple[List[Tuple[str, int, str]], Dict[frozenset, Vector]]:
    """Replay an archive peer by peer and group prefixes by path vector.

    The leading RIB records fix the vantage points (sorted peer ids);
    update records from other peers are ignored.  Returns the vantage
    points and ``{prefix set: normalised vector}`` for the final state.
    """
    tables: Dict[Tuple[str, int, str], Dict[Any, Any]] = defaultdict(dict)
    vantage: set = set()
    priming = True
    for record in records:
        if priming and record.record_type != "rib":
            priming = False
        if priming:
            vantage.add(record.peer_id)
        elif record.peer_id not in vantage:
            continue
        table = tables[record.peer_id]
        for element in record.elements:
            if element.element_type == ElementType.WITHDRAWAL:
                table.pop(element.prefix, None)
            else:
                table[element.prefix] = element.attributes.as_path
    peers = sorted(vantage)
    universe = set()
    for peer in peers:
        universe.update(tables[peer])
    groups: Dict[Vector, set] = defaultdict(set)
    for prefix in universe:
        vector = tuple(normalised(tables[peer].get(prefix)) for peer in peers)
        groups[vector].add(prefix)
    return peers, {frozenset(group): vector for vector, group in groups.items()}


def live_partition_problems(atoms, vantage_points: Sequence,
                            expected_peers: Sequence,
                            expected: Mapping[frozenset, Vector]) -> List[str]:
    """The replay's final atoms against the benchmark's own replay."""
    problems: List[str] = []
    if list(vantage_points) != list(expected_peers):
        problems.append(
            f"pipeline primed {len(vantage_points)} vantage points, "
            f"archive has {len(expected_peers)}"
        )
    if atoms is None:
        return problems + ["pipeline produced no atoms"]
    ours = {
        frozenset(atom.prefixes): tuple(normalised(p) for p in atom.paths)
        for atom in atoms
    }
    if set(ours) != set(expected):
        problems.append(
            f"final partition differs: {len(set(ours) - set(expected))} "
            f"atom(s) not in the replay's grouping"
        )
    else:
        wrong = sum(1 for group, vector in ours.items()
                    if expected[group] != vector)
        if wrong:
            problems.append(f"{wrong} atom(s) carry the wrong path vector")
    return problems


def update_buckets(records: Iterable[RouteRecord], window: int
                   ) -> Dict[int, int]:
    """Update records of the primed vantage points per aligned window."""
    vantage: set = set()
    buckets: Dict[int, int] = defaultdict(int)
    for record in records:
        if record.record_type == "rib":
            vantage.add(record.peer_id)
        elif record.peer_id in vantage:
            buckets[record.timestamp // window] += 1
    return dict(buckets)


def window_failures(buckets: Mapping[int, int],
                    windows: Sequence[Tuple[int, int]]) -> List[str]:
    """Buckets the pipeline did not reproduce.

    ``windows`` holds ``(index, records)`` of every emitted window.  A
    bucket fails when no window carries its index or the window's
    record count differs from the bucket's.
    """
    emitted = dict(windows)
    failures = []
    for index in sorted(buckets):
        got = emitted.get(index)
        if got != buckets[index]:
            failures.append(
                f"window {index}: bucket holds {buckets[index]} records, "
                f"pipeline emitted {'none' if got is None else got}"
            )
    return failures


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def _paths_json(vantage_points, paths) -> List[Dict[str, Any]]:
    return [
        {"collector": collector, "asn": asn, "address": address,
         "path": None if path is None else str(path)}
        for (collector, asn, address), path in zip(vantage_points, paths)
    ]


def prefix_index(atom_sets: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """``{snapshot key: {cidr: atom}}`` over the in-memory atom sets."""
    return {
        key: {str(prefix): atom for atom in atoms for prefix in atom.prefixes}
        for key, atoms in atom_sets.items()
    }


def response_problems(request: Tuple[str, ...], status: int, body: bytes,
                      atom_sets: Mapping[str, Any],
                      index: Mapping[str, Mapping[str, Any]]) -> List[str]:
    """One response against the sweep's in-memory :class:`AtomSet`s.

    ``request`` is ``("prefix", key, cidr)``, ``("atom", key, id)`` or
    ``("stats",)``; ``atom_sets`` is in sweep order and ``index`` is its
    :func:`prefix_index`.
    """
    if status != 200:
        return [f"{request}: status {status}"]
    try:
        payload = json.loads(body)
    except ValueError:
        return [f"{request}: body is not JSON"]
    kind = request[0]
    if kind == "prefix":
        _, key, cidr = request
        atoms = atom_sets[key]
        atom = index[key][cidr]
        got = payload.get("atom") or {}
        problems = []
        if got.get("id") != atom.atom_id:
            problems.append(f"{request}: atom id {got.get('id')} != {atom.atom_id}")
        if got.get("paths") != _paths_json(atoms.vantage_points, atom.paths):
            problems.append(f"{request}: per-VP paths differ")
        history = [row.get("atom_id") for row in payload.get("history", [])]
        expected = [
            getattr(index[other].get(cidr), "atom_id", None)
            for other in atom_sets
        ]
        if history != expected:
            problems.append(f"{request}: history atom ids differ")
        return problems
    if kind == "atom":
        _, key, atom_id = request
        atoms = atom_sets[key]
        atom = atoms.atoms[int(atom_id)]
        got = payload.get("atom") or {}
        problems = []
        if got.get("id") != atom.atom_id:
            problems.append(f"{request}: atom id {got.get('id')} != {atom.atom_id}")
        if sorted(got.get("prefixes", [])) != sorted(str(p) for p in atom.prefixes):
            problems.append(f"{request}: member prefixes differ")
        if got.get("paths") != _paths_json(atoms.vantage_points, atom.paths):
            problems.append(f"{request}: per-VP paths differ")
        return problems
    snapshots = payload.get("snapshots", [])
    got = [(row.get("key"), row.get("prefixes"), row.get("atoms"))
           for row in snapshots]
    expected = [(key, atoms.prefix_count(), len(atoms))
                for key, atoms in atom_sets.items()]
    return [] if got == expected else [f"{request}: snapshot counts differ"]


# ----------------------------------------------------------------------
# converge
# ----------------------------------------------------------------------

def path_problems(routers: Mapping[int, Any], relationships) -> List[str]:
    """Every final path must be loop-free and valley-free.

    ``relationships(asn)`` returns ``{neighbor: Relationship}`` as the
    world's AS graph defines it (CUSTOMER -1, PEER 0, PROVIDER 1, from
    ``asn``'s point of view).  Walking from the router toward the
    origin a valley-free path climbs down: provider links first, at
    most one peer link, then customer links.
    """
    problems: List[str] = []
    for asn in sorted(routers):
        for nlri, (route, _tag) in sorted(routers[asn].loc_rib.items()):
            hops = [asn]
            for hop in route.path:
                if hop != hops[-1]:
                    hops.append(hop)
            if len(set(hops)) != len(hops):
                problems.append(f"AS{asn} {nlri}: loop in {route.path}")
                continue
            phase = 1  # 1: provider links allowed, 0: after peer, -1: down
            for left, right in zip(hops, hops[1:]):
                rel = relationships(left).get(right)
                if rel is None:
                    problems.append(
                        f"AS{asn} {nlri}: AS{left}-AS{right} is not a link")
                    break
                rel = int(rel)
                if rel == 1 and phase == 1:
                    continue
                if rel == 0 and phase == 1:
                    phase = 0
                    continue
                if rel == -1:
                    phase = -1
                    continue
                problems.append(f"AS{asn} {nlri}: valley in {route.path}")
                break
            if len(problems) > 20:
                return problems
    return problems

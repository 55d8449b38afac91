"""The kernel's oracle: atom computation the direct way.

:func:`compute_atoms_reference` builds, per prefix, a tuple of
normalised :class:`~repro.net.aspath.ASPath` objects and groups on it.
It is slower than the columnar kernel (:mod:`repro.core.kernel`) —
one Python-level hash per (prefix, VP) cell — but definitionally
transparent, so the kernel must match it value for value, atom ids
included: ``tests/core/test_kernel.py`` checks that over generated
worlds, and ``benchmarks/run_benchmarks.py`` re-checks it at benchmark
scale.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bgp.rib import PeerId, RIBSnapshot
from repro.core import atoms as _atoms
from repro.core.atoms import AtomSet, PolicyAtom
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


def compute_atoms_reference(
    snapshot: RIBSnapshot,
    vantage_points: Optional[Sequence[PeerId]] = None,
    prefixes: Optional[Iterable[Prefix]] = None,
    expand_singleton_sets: bool = True,
    strip_prepending: bool = False,
) -> AtomSet:
    """Group prefixes on their tuple of normalised paths across VPs.

    Groups are numbered in the order their first prefix appears in the
    sorted universe, as the kernel numbers them.
    """
    if vantage_points is None:
        vantage_points = sorted(snapshot.peers())
    else:
        vantage_points = list(vantage_points)
    if prefixes is None:
        universe: set = set()
        for peer_id in vantage_points:
            table = snapshot.table(peer_id)
            if table is not None:
                universe |= table.prefixes()
    else:
        universe = set(prefixes)
    prefix_list = sorted(universe, key=Prefix.key)

    tables = [snapshot.table(peer_id) for peer_id in vantage_points]
    groups: Dict[Tuple, List[Prefix]] = defaultdict(list)
    normalise_cache: Dict[ASPath, Optional[ASPath]] = {}
    unset = object()

    for prefix in prefix_list:
        vector: List[Optional[ASPath]] = []
        for table in tables:
            attributes = table.get(prefix) if table is not None else None
            if attributes is None:
                vector.append(None)
                continue
            raw = attributes.as_path
            cached = normalise_cache.get(raw, unset)
            if cached is unset:
                # Late-bound, so a test that patches ``_prepare_path``
                # sees the reference's calls too.
                cached = _atoms._prepare_path(
                    raw, expand_singleton_sets, strip_prepending
                )
                normalise_cache[raw] = cached
            vector.append(cached)  # type: ignore[arg-type]
        if all(path is None for path in vector):
            continue  # prefix effectively unseen after normalisation
        groups[tuple(vector)].append(prefix)

    atoms = [
        PolicyAtom(atom_id, frozenset(members), vector)
        for atom_id, (vector, members) in enumerate(groups.items())
    ]
    return AtomSet(atoms, vantage_points, snapshot.timestamp)

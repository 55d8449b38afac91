"""The columnar atom-computation kernel.

Grouping prefixes by their AS-path vector across all full-feed vantage
points (§2.3) is the hot path of every figure and table sweep, and at
real RouteViews/RIS scale (~1M prefixes × hundreds of vantage points)
it dominates wall time.  The direct implementation builds, per prefix,
a tuple of :class:`~repro.net.aspath.ASPath` *objects* and hashes it —
one Python-level ``__hash__`` call per (prefix, VP) cell, repeated for
every dict probe.

The kernel restates the same computation columnarly:

1. **Intern** every normalised path to a dense integer id through a
   shared :class:`~repro.core.intern.PathInternPool`
   (:data:`~repro.core.intern.ABSENT_ID` = 0 covers both "prefix unseen
   at this VP" and "path removed by normalisation", the two cases the
   atom definition treats as no-route);
2. build one **id column per vantage point**, aligned to the sorted
   prefix universe;
3. transpose and pack each prefix's id vector into a fixed-width,
   ``array('I')``-backed **bytes key**
   (:func:`~repro.core.intern.pack_key` layout), so grouping is a
   single dict pass over compact byte strings hashed and compared in C;
4. rebuild each group's canonical path-vector tuple from the pool's id
   table — the emitted :class:`~repro.core.atoms.AtomSet` is
   value-identical to the direct implementation, **atom ids and
   ordering included** (groups appear in first-prefix order of the
   sorted universe, exactly the order the direct walk discovers them
   in).

The direct tuple-of-objects implementation is the executable
specification and lives in the test tree
(``tests/core/reference.py``): the kernel is proven against it by
property tests over worlds exercising MOAS, AS_SETs, prepending and
partial visibility (``tests/core/test_kernel.py``) and by the
benchmark parity gate (``benchmarks/run_benchmarks.py``).
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bgp.rib import PeerId, RIBSnapshot
from repro.core.atoms import AtomSet, PolicyAtom
from repro.core.intern import ID_TYPECODE, KEY_WIDTH, PathInternPool, unpack_key
from repro.net.prefix import Prefix
from repro.obs import get_tracer


def _prefix_universe(
    snapshot: RIBSnapshot,
    vantage_points: Sequence[PeerId],
    prefixes: Optional[Iterable[Prefix]],
) -> List[Prefix]:
    """The sorted prefix universe the grouping runs over."""
    if prefixes is None:
        universe: set = set()
        for peer_id in vantage_points:
            table = snapshot.table(peer_id)
            if table is not None:
                universe |= table.prefixes()
        return sorted(universe, key=Prefix.key)
    return sorted(set(prefixes), key=Prefix.key)


def _id_columns(
    snapshot: RIBSnapshot,
    vantage_points: Sequence[PeerId],
    prefix_list: Sequence[Prefix],
    pool: PathInternPool,
) -> Tuple[List[List[int]], int, int]:
    """Per-VP columns of dense path ids, aligned to ``prefix_list``.

    Returns ``(columns, present_cells, misses)`` where ``present_cells``
    counts (prefix, VP) cells carrying a route and ``misses`` counts raw
    paths the pool had not interned yet — together they reproduce the
    reference implementation's normalisation-cache hit/miss counters.

    The snapshot layer interns both kinds of hot objects: every table
    keys its routes by the *same* :class:`Prefix` instances the universe
    holds, and one attribute object serves every prefix announced with
    that path.  The loop exploits both identities: rows are resolved
    through an ``id(prefix)`` -> row-index map while iterating each
    table's route dict directly (no ``Prefix.__hash__``, and absent
    cells cost nothing — columns start zero-filled), and paths through
    a per-call L1 keyed by ``id(attributes)`` (an int-dict hit replaces
    the ``ASPath``-keyed probe *and* the ``.as_path`` access).  Identity
    keys are safe here because prefix list and tables keep every such
    object alive for the duration of the call.
    """
    columns: List[List[int]] = []
    count = len(prefix_list)
    present = 0
    misses = 0
    # Row lookup is identity-first with a value-keyed fallback:
    # ``Prefix.parse`` interning makes table keys and universe entries
    # the same objects on the pipeline path, but equal-but-distinct
    # instances (directly constructed) must still resolve correctly.
    pos: Dict[int, int] = {
        id(prefix): row for row, prefix in enumerate(prefix_list)
    }
    pos_value: Dict[Prefix, int] = {
        prefix: row for row, prefix in enumerate(prefix_list)
    }
    id_get = pool._id_by_raw.get  # value-keyed; 0 means "dropped"
    intern_id = pool.path_id
    l1: Dict[int, int] = {}
    l1_get = l1.get
    for peer_id in vantage_points:
        table = snapshot.table(peer_id)
        column = [0] * count
        columns.append(column)
        if table is None or not len(table):
            continue
        routes = table._routes
        skipped = 0
        # Announcements cluster: a third of table cells repeat the
        # previous cell's attribute object, so one ``is`` check short-
        # circuits the id()+dict probe for them.
        last_attributes = None
        last_pid = 0
        for prefix, attributes in routes.items():
            try:  # zero-cost on the hot path; misses are rare
                row = pos[id(prefix)]
            except KeyError:
                value_row = pos_value.get(prefix)
                if value_row is None:
                    skipped += 1
                    continue  # outside the requested universe
                row = pos[id(prefix)] = value_row  # tables share keys
            if attributes is last_attributes:
                column[row] = last_pid
                continue
            pid = l1_get(id(attributes))
            if pid is None:
                raw = attributes.as_path
                pid = id_get(raw)
                if pid is None:
                    pid = intern_id(raw)
                    misses += 1
                l1[id(attributes)] = pid
            last_attributes = attributes
            last_pid = pid
            column[row] = pid
        present += len(routes) - skipped
    return columns, present, misses


def _group_packed(
    prefix_list: Sequence[Prefix], columns: Sequence[Sequence[int]]
) -> Dict[bytes, List[Prefix]]:
    """Group prefixes by their packed path-id key, in first-prefix order.

    The transposed id matrix is materialised as one flat ``array('I')``
    and sliced row-wise, so per prefix the loop does a bytes slice, one
    dict probe and a list append — no per-cell Python.  The all-zero key
    (unseen everywhere after normalisation) is skipped, mirroring the
    reference's all-``None`` vector check.
    """
    groups: Dict[bytes, List[Prefix]] = {}
    if not columns:
        return groups
    row_bytes = KEY_WIDTH * len(columns)
    packed = array(ID_TYPECODE, chain.from_iterable(zip(*columns))).tobytes()
    empty = bytes(row_bytes)
    start = 0
    for prefix in prefix_list:
        end = start + row_bytes
        key = packed[start:end]
        start = end
        if key == empty:
            continue
        members = groups.get(key)
        if members is None:
            groups[key] = [prefix]
        else:
            members.append(prefix)
    return groups


def columnar_atoms(
    snapshot: RIBSnapshot,
    vantage_points: Optional[Sequence[PeerId]] = None,
    prefixes: Optional[Iterable[Prefix]] = None,
    expand_singleton_sets: bool = True,
    strip_prepending: bool = False,
    pool: Optional[PathInternPool] = None,
) -> AtomSet:
    """Group prefixes into policy atoms via the columnar kernel.

    Parameters match :func:`~repro.core.atoms.compute_atoms` (which
    delegates here); ``pool`` optionally supplies a shared
    :class:`PathInternPool` so successive snapshots reuse interned ids
    — its normalisation options must match the keyword flags.
    """
    if vantage_points is None:
        vantage_points = sorted(snapshot.peers())
    else:
        vantage_points = list(vantage_points)
    if pool is None:
        pool = PathInternPool(expand_singleton_sets, strip_prepending)
    elif (pool.expand_singleton_sets != expand_singleton_sets
          or pool.strip_prepending != strip_prepending):
        raise ValueError("intern pool normalisation options mismatch")

    prefix_list = _prefix_universe(snapshot, vantage_points, prefixes)

    tracer = get_tracer()
    with tracer.span("atoms") as span:
        columns, present, misses = _id_columns(
            snapshot, vantage_points, prefix_list, pool
        )
        groups = _group_packed(prefix_list, columns)
        path_for = pool.path_table.__getitem__
        atoms = [
            PolicyAtom(
                atom_id,
                frozenset(members),
                tuple(map(path_for, unpack_key(key))),
            )
            for atom_id, (key, members) in enumerate(groups.items())
        ]
        if tracer.enabled:
            span.set(
                prefixes=len(prefix_list),
                vantage_points=len(vantage_points),
                atoms=len(atoms),
            )
            tracer.count("atoms.prefixes", len(prefix_list))
            tracer.count("atoms.atoms", len(atoms))
            tracer.count("atoms.normalise_cache_hits", present - misses)
            tracer.count("atoms.normalise_cache_misses", misses)
    return AtomSet(atoms, vantage_points, snapshot.timestamp)

"""The atom query service: store-backed answers for ``repro serve``.

:class:`AtomQueryService` is the transport-free core of the serve
subsystem — the HTTP layer (:mod:`repro.serve.http`) is a thin codec
around it, so every response can be checked for parity against direct
:class:`~repro.store.reader.AtomStore` reads without a socket.

Three endpoint families, all pure functions of the opened store:

* :meth:`~AtomQueryService.prefix_query` — which atom holds a prefix,
  the member path vector, and the prefix's stability history across
  every stored snapshot;
* :meth:`~AtomQueryService.atom_query` — one atom's member prefixes
  and its formation/churn timeline across the base snapshots;
* :meth:`~AtomQueryService.stats` — store-wide aggregates: per-snapshot
  atom counts plus the split/merge series between consecutive base
  snapshots.

A prefix's stability history depends only on the prefix, never on
the snapshot a request names, so the service builds it once per
prefix from :meth:`~repro.store.reader.AtomStore.query` and keeps it
in a bounded LRU sized like the response cache.  Each stored path's
text and each snapshot's vantage-point labels are likewise built once
per service.  The endpoint methods themselves are uncached payload
builders; the HTTP layer keeps their finished responses in the
service's :class:`~repro.serve.cache.ResponseCache`.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.bgp.rib import PeerId
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix, PrefixError
from repro.obs import get_tracer
from repro.serve.cache import ResponseCache
from repro.store.format import StoreError
from repro.store.reader import AtomStore, StoreSnapshot

#: One prefix's stability history: its atom id in each stored snapshot
#: (None where absent), how many snapshots carry it, and how many
#: consecutive-snapshot transitions changed its path vector.
History = Tuple[Tuple[Optional[int], ...], int, int]


class QueryError(ValueError):
    """A client-side query problem; ``status`` is the HTTP mapping."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def peer_label(peer: Tuple[str, int, str]) -> Dict[str, Any]:
    """JSON shape of one vantage point."""
    collector, asn, address = peer
    return {"collector": collector, "asn": asn, "address": address}


class AtomQueryService:
    """Answers prefix/atom/stats queries over one open :class:`AtomStore`.

    The service never mutates the store; every answer is deterministic
    given the store's :meth:`~AtomStore.manifest_digest`, which is why
    the response cache and the HTTP ETags both key on it.  ``cache``
    holds the HTTP layer's finished responses and bounds the history
    memo.
    """

    def __init__(
        self,
        store: AtomStore,
        cache: Optional[ResponseCache] = None,
    ):
        self.store = store
        self.cache = cache if cache is not None else ResponseCache()
        self.version = store.manifest_digest()
        self._prefix_sets: Dict[str, Set[FrozenSet[Prefix]]] = {}
        entries = store.snapshots()
        if not entries:
            raise StoreError("store holds no snapshots")
        self._entries = entries
        self._base_entries = [e for e in entries if e.role == "base"]
        self.default_key = entries[0].key
        self._labels = {
            entry.key: [peer_label(peer) for peer in entry.vantage_points]
            for entry in entries
        }
        # One text per path-table object, so bounded by the path table;
        # two threads racing on a path at worst both build its text.
        self._path_texts: Dict[ASPath, str] = {}
        # The snapshot list and manifest version are fixed above, so a
        # memoised history never goes stale; clients choose the keys, so
        # the memo is bounded like the response cache.
        self._history = functools.lru_cache(maxsize=self.cache.max_entries)(
            self._build_history
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _entry(self, key: Optional[str]) -> StoreSnapshot:
        if key is None:
            key = self.default_key
        try:
            return self.store.snapshot(key)
        except StoreError as error:
            raise QueryError(str(error), status=404) from None

    def _parse_prefix(self, text: str) -> Prefix:
        try:
            return Prefix.parse(text)
        except PrefixError as error:
            raise QueryError(f"invalid prefix {text!r}: {error}") from None

    def _path_rows(
        self, entry: StoreSnapshot, paths: Tuple[Optional[ASPath], ...]
    ) -> List[Dict[str, Any]]:
        """JSON rows of one path vector in ``entry``'s panel order."""
        texts = self._path_texts
        rows = []
        for label, path in zip(self._labels[entry.key], paths):
            text = None
            if path is not None:
                text = texts.get(path)
                if text is None:
                    text = texts[path] = str(path)
            rows.append({**label, "path": text})
        return rows

    def _prefix_set(self, key: str) -> Set[FrozenSet[Prefix]]:
        """The CAM comparison key of one snapshot, memoised."""
        found = self._prefix_sets.get(key)
        if found is None:
            found = self._prefix_sets[key] = self.store.atoms(
                key
            ).prefix_sets()
        return found

    def _build_history(self, prefix: Prefix) -> History:
        """``prefix``'s :data:`History`, from one store query per snapshot.

        Vantage points are matched by identity, not by tuple position:
        a transition where the prefix is present on both sides changes
        its path vector when some vantage point in both panels has a
        different path there; one in only one panel is not compared.
        Paths are compared as the store's path-table objects, never
        through ``str()``: there is one object per interned id, so an
        unchanged path is the same object and its segments compare by
        identity.
        """
        atom_ids: List[Optional[int]] = []
        panels: List[Optional[Dict[PeerId, Optional[ASPath]]]] = []
        for entry in self._entries:
            row = self.store.query(prefix, key=entry.key)
            if row is None:
                atom_ids.append(None)
                panels.append(None)
            else:
                atom_ids.append(row.atom_id)
                panels.append(dict(zip(entry.vantage_points, row.paths)))
        present = sum(1 for panel in panels if panel is not None)
        path_changes = sum(
            1
            for before, after in zip(panels, panels[1:])
            if before is not None
            and after is not None
            and any(
                peer in before and before[peer] != path
                for peer, path in after.items()
            )
        )
        return tuple(atom_ids), present, path_changes

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def prefix_query(
        self, cidr: str, snapshot: Optional[str] = None
    ) -> Dict[str, Any]:
        """``/v1/prefix/<cidr>``: atom id, member paths, stability history.

        ``history`` holds one row per stored snapshot (all roles, sweep
        order); ``stability`` summarises it: how many snapshots carry
        the prefix and how many consecutive-snapshot transitions changed
        its path vector.
        """
        prefix = self._parse_prefix(cidr)
        entry = self._entry(snapshot)
        tracer = get_tracer()
        with tracer.span(
            "serve-prefix", prefix=str(prefix), snapshot=entry.key
        ):
            found = self.store.query(prefix, key=entry.key)
            atom: Optional[Dict[str, Any]] = None
            location: Optional[Dict[str, Any]] = None
            if found is not None:
                atom = {
                    "id": found.atom_id,
                    "paths": self._path_rows(entry, found.paths),
                }
                location = {"shard": found.shard, "row": found.row}
            atom_ids, present, path_changes = self._history(prefix)
            history = [
                {
                    "snapshot": other.key,
                    "label": other.label,
                    "role": other.role,
                    "year": other.year,
                    "atom_id": atom_id,
                }
                for other, atom_id in zip(self._entries, atom_ids)
            ]
            return {
                "prefix": str(prefix),
                "snapshot": entry.key,
                "atom": atom,
                "location": location,
                "history": history,
                "stability": {
                    "snapshots": len(self._entries),
                    "present": present,
                    "path_changes": path_changes,
                },
            }

    def atom_query(
        self, atom_id: int, snapshot: Optional[str] = None
    ) -> Dict[str, Any]:
        """``/v1/atom/<id>``: member prefixes + formation/churn timeline.

        The timeline walks the base snapshots in sweep order and maps
        this atom's member prefixes through each one: ``present`` is
        how many members exist there, ``atoms_spanned`` how many atoms
        they are scattered across, ``intact`` whether an atom with this
        exact prefix set exists (the CAM criterion) — together, when
        the members condensed into one atom and when churn split them.
        """
        entry = self._entry(snapshot)
        if atom_id < 0 or atom_id >= entry.atom_count:
            raise QueryError(
                f"snapshot {entry.key!r} has no atom {atom_id} "
                f"(ids 0..{entry.atom_count - 1})",
                status=404,
            )

        tracer = get_tracer()
        with tracer.span("serve-atom", atom=atom_id, snapshot=entry.key):
            atoms = self.store.atoms(entry.key)
            atom = atoms.atoms[atom_id]
            members = sorted(atom.prefixes, key=Prefix.key)
            timeline: List[Dict[str, Any]] = []
            for base in self._base_entries:
                other = self.store.atoms(base.key)
                spanned = {
                    other.by_prefix[prefix].atom_id
                    for prefix in members
                    if prefix in other.by_prefix
                }
                timeline.append(
                    {
                        "snapshot": base.key,
                        "label": base.label,
                        "year": base.year,
                        "present": sum(
                            1 for prefix in members if prefix in other.by_prefix
                        ),
                        "atoms_spanned": len(spanned),
                        "intact": atom.prefixes in self._prefix_set(base.key),
                    }
                )
            return {
                "snapshot": entry.key,
                "atom": {
                    "id": atom.atom_id,
                    "size": atom.size,
                    "prefixes": [str(prefix) for prefix in members],
                    "origins": sorted(atom.origins()),
                    "paths": self._path_rows(entry, atom.paths),
                },
                "timeline": timeline,
            }

    def stats(self) -> Dict[str, Any]:
        """``/v1/stats``: store aggregates plus split/merge series.

        Between each consecutive pair of base snapshots, ``splits``
        counts atoms whose members scatter over several later atoms and
        ``merges`` counts later atoms drawing members from several
        earlier ones — the sweep's churn signature, computed from the
        reconstructed (memoised) atom sets.
        """
        tracer = get_tracer()
        with tracer.span("serve-stats", snapshots=len(self._entries)):
            atom_counts = [
                [base.year, base.atom_count] for base in self._base_entries
            ]
            prefix_counts = [
                [base.year, base.prefixes] for base in self._base_entries
            ]
            splits: List[List[Any]] = []
            merges: List[List[Any]] = []
            for before, after in zip(
                self._base_entries, self._base_entries[1:]
            ):
                first = self.store.atoms(before.key)
                second = self.store.atoms(after.key)
                targets: Dict[int, Set[int]] = {}
                sources: Dict[int, Set[int]] = {}
                for atom in first:
                    for prefix in atom.prefixes:
                        landed = second.by_prefix.get(prefix)
                        if landed is None:
                            continue
                        targets.setdefault(atom.atom_id, set()).add(
                            landed.atom_id
                        )
                        sources.setdefault(landed.atom_id, set()).add(
                            atom.atom_id
                        )
                splits.append(
                    [
                        after.year,
                        sum(1 for t in targets.values() if len(t) > 1),
                    ]
                )
                merges.append(
                    [
                        after.year,
                        sum(1 for s in sources.values() if len(s) > 1),
                    ]
                )
            return {
                "store": {
                    "version": self.version,
                    "snapshots": len(self._entries),
                    "base_snapshots": len(self._base_entries),
                    "segment_bytes": self.store.total_bytes(),
                    "paths": self.store.pool_options.get("path_count", 0),
                },
                "snapshots": [
                    {
                        "key": entry.key,
                        "label": entry.label,
                        "role": entry.role,
                        "year": entry.year,
                        "prefixes": entry.prefixes,
                        "atoms": entry.atom_count,
                    }
                    for entry in self._entries
                ],
                "series": {
                    "atom_counts": atom_counts,
                    "prefix_counts": prefix_counts,
                    "splits": splits,
                    "merges": merges,
                },
            }

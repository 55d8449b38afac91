"""Streaming atom maintenance: keep an :class:`AtomIndex` current forever.

The offline pipeline recomputes atoms per snapshot; this module keeps
the partition *continuously* current against a BGPStream-shaped update
feed, the way an operational deployment of the paper's measurement
would run.  One loop consumes the record stream and folds every route
element into one :class:`~repro.bgp.rib.RIBSnapshot`; an
:class:`~repro.core.incremental.AtomIndex` over that snapshot collects
the touched prefixes through its mutation hooks.

Time is cut into fixed, absolutely aligned windows (window ``k`` is
``[k*w, (k+1)*w)``).  At each boundary the index recomputes keys for
the dirty prefixes only, so per-window work is proportional to churn,
not to table size, and emits an :class:`~repro.core.atoms.AtomSet`
that is value-identical — atom ids and ordering included — to a cold
:func:`~repro.core.atoms.compute_atoms` over the same RIB;
``parity="window"`` proves exactly that at every boundary.  The cold
recompute regroups every RIB cell of every vantage point each time,
but through an intern pool of its own that lives for the run (never
the index's), so each distinct path is normalised once per run rather
than once per window.  Each window's ``Pr_full`` is read from the
entering partition's own prefix index
(:func:`~repro.stream.windows.window_correlation`).

Crash safety comes from
:class:`~repro.engine.checkpoint.StreamCheckpoint`: every
``checkpoint_every`` boundaries the pipeline saves its replay cursor —
records consumed, a SHA-256 of their identities, the vantage points —
atomically.  A killed pipeline resumes by *position*, not by
timestamp: it primes from the leading dump as a fresh run does, then
re-applies every record up to the cursor, which rebuilds the boundary
RIB exactly (out-of-order records across dump boundaries make
timestamp-based skipping diverge from an uninterrupted run, position
never does).  A stream whose records up to the cursor differ from the
saved digest fails with
:class:`~repro.engine.checkpoint.StreamCheckpointError`.  See
``docs/streaming.md``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bgp.messages import ElementType, RouteRecord
from repro.bgp.rib import PeerId, RIBSnapshot
from repro.core.atoms import AtomSet, compute_atoms
from repro.core.incremental import AtomIndex
from repro.core.intern import PathInternPool
from repro.engine.checkpoint import StreamCheckpoint, StreamCheckpointError
from repro.obs import TracerLike, get_tracer
from repro.store.writer import MANIFEST_NAME, PARTS_DIR, merge_parts, write_part
from repro.stream.windows import (
    WindowResult,
    window_churn,
    window_correlation,
)

__all__ = [
    "LiveConfig",
    "LiveError",
    "LiveParityError",
    "LivePipeline",
    "LiveRun",
]


class LiveError(RuntimeError):
    """The live pipeline cannot continue."""


class LiveParityError(LiveError):
    """The streamed atom partition diverged from the cold recompute."""


@dataclass
class LiveConfig:
    """Tuning knobs of one :class:`LivePipeline` run."""

    #: window width in seconds; windows are absolutely aligned
    window_seconds: int = 900
    #: checkpoint directory (None disables checkpointing)
    checkpoint_dir: Optional[Path] = None
    #: save a checkpoint every N closed windows (and at end of stream)
    checkpoint_every: int = 1
    #: store root for per-window snapshot parts (None disables the sink)
    store_dir: Optional[Path] = None
    #: merge parts into the queryable store every N windows (0: at end)
    store_merge_every: int = 0
    #: "window" proves streamed == cold recompute at every boundary
    parity: str = "window"
    #: compute the per-window update correlation (Pr_full)
    correlation: bool = True
    correlation_max_size: Optional[int] = None
    #: stop after closing this many windows (None: run the stream out)
    max_windows: Optional[int] = None
    #: restrict to one address family (None: both)
    family: Optional[int] = None
    expand_singleton_sets: bool = True
    strip_prepending: bool = False

    def __post_init__(self) -> None:
        if self.window_seconds < 1:
            raise ValueError("window_seconds must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.store_merge_every < 0:
            raise ValueError("store_merge_every must be >= 0")
        if self.parity not in ("off", "window"):
            raise ValueError(f"unknown parity mode {self.parity!r}")
        if self.correlation_max_size is not None and self.correlation_max_size < 1:
            raise ValueError("correlation_max_size must be >= 1 or None")
        if self.max_windows is not None and self.max_windows < 1:
            raise ValueError("max_windows must be >= 1 or None")
        if self.checkpoint_dir is not None:
            self.checkpoint_dir = Path(self.checkpoint_dir)
        if self.store_dir is not None:
            self.store_dir = Path(self.store_dir)

    def payload(self) -> Dict[str, Any]:
        """The result-affecting knobs a resumed run must repeat.

        Checkpoint and store cadence, parity and the window cap change
        only what is written or verified, never a window's contents,
        so a resumed run may pick them afresh.
        """
        return {
            "window_seconds": self.window_seconds,
            "family": self.family,
            "expand_singleton_sets": self.expand_singleton_sets,
            "strip_prepending": self.strip_prepending,
        }


@dataclass
class LiveRun:
    """What one :meth:`LivePipeline.run` produced."""

    windows: List[WindowResult]
    atoms: Optional[AtomSet]
    vantage_points: List[PeerId]
    #: stream records folded into windows (this run only)
    records: int = 0
    #: leading-dump records applied to the initial RIB (resumed or not)
    prime_records: int = 0
    #: records consumed before the checkpoint's cursor, prime included,
    #: re-applied while resuming
    skipped: int = 0
    resumed: bool = False
    #: window index of the checkpoint the run resumed from
    resumed_from: Optional[int] = None
    parity_checks: int = 0
    checkpoints: int = 0
    store_keys: List[str] = field(default_factory=list)
    #: True when max_windows stopped the run before the stream ended
    stopped_early: bool = False

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (the ``repro live --json`` payload)."""
        return {
            "windows": [w.as_dict(deterministic_only=True) for w in self.windows],
            "atoms": None if self.atoms is None else len(self.atoms),
            "prefixes": None if self.atoms is None else self.atoms.prefix_count(),
            "vantage_points": [list(vp) for vp in self.vantage_points],
            "records": self.records,
            "prime_records": self.prime_records,
            "skipped": self.skipped,
            "resumed": self.resumed,
            "resumed_from": self.resumed_from,
            "parity_checks": self.parity_checks,
            "checkpoints": self.checkpoints,
            "store_keys": list(self.store_keys),
            "stopped_early": self.stopped_early,
        }


class LivePipeline:
    """The streaming atom-maintenance pipeline.

    ``records`` is any iterable of :class:`RouteRecord` in arrival
    order — a :class:`~repro.stream.bgpstream.BGPStream`, an archive
    reader, a list in tests.  Leading ``rib`` records prime the initial
    table (the BGPStream convention: a dump precedes the update feed);
    pass ``vantage_points`` explicitly to run without a leading dump.
    """

    def __init__(
        self,
        records: Iterable[RouteRecord],
        config: Optional[LiveConfig] = None,
        vantage_points: Optional[Sequence[PeerId]] = None,
    ):
        self.records = records
        self.config = config if config is not None else LiveConfig()
        self._explicit_vps = (
            [tuple(vp) for vp in vantage_points] if vantage_points else None
        )
        self._vps: List[PeerId] = []
        self._snapshot = RIBSnapshot()
        #: the replay cursor: records consumed and a digest of them
        self._consumed = 0
        self._digest = hashlib.sha256()
        #: window parity's own intern pool for the run, never the index's
        self._parity_pool = PathInternPool(
            self.config.expand_singleton_sets, self.config.strip_prepending
        )

    def _consume(self, record: RouteRecord) -> None:
        """Advance the replay cursor past ``record``."""
        self._consumed += 1
        identity = (
            f"{record.record_type}\t{record.collector}\t{record.peer_asn}\t"
            f"{record.peer_address}\t{record.timestamp}\t{len(record.elements)}\n"
        )
        self._digest.update(identity.encode())

    def _apply(self, record: RouteRecord) -> int:
        """Fold one record's elements into the RIB; returns how many.

        Elements outside the configured address family are skipped.
        """
        family = self.config.family
        snapshot = self._snapshot
        peer_id = record.peer_id
        applied = 0
        for element in record.elements:
            if family is not None and element.prefix.family != family:
                continue
            if element.element_type == ElementType.WITHDRAWAL:
                snapshot.withdraw(peer_id, element.prefix)
            else:
                snapshot.announce(peer_id, element.prefix, element.attributes)
            applied += 1
        return applied

    # -- parity ---------------------------------------------------------

    def _check_parity(
        self,
        streamed: AtomSet,
        window_end: int,
        tracer: TracerLike,
    ) -> None:
        # The run-long pool normalises each distinct path once, while the
        # recompute still regroups every cell.
        with tracer.span("live-parity", window_end=window_end) as span:
            cold = compute_atoms(
                self._snapshot,
                vantage_points=self._vps,
                expand_singleton_sets=self.config.expand_singleton_sets,
                strip_prepending=self.config.strip_prepending,
                pool=self._parity_pool,
            )
            problems = _diff_atom_sets(streamed, cold)
            if tracer.enabled:
                span.set(atoms=len(cold), mismatches=len(problems))
                tracer.count("live.parity_checks")
            if problems:
                shown = "\n  ".join(problems[:5])
                raise LiveParityError(
                    f"streamed atoms diverged from cold recompute at "
                    f"window end {window_end} "
                    f"({len(problems)} mismatch(es)):\n  {shown}"
                )

    # -- checkpoint / store ---------------------------------------------

    def _save_checkpoint(
        self,
        checkpoint: StreamCheckpoint,
        window_index: int,
        window_end: int,
        tracer: TracerLike,
    ) -> None:
        with tracer.span("live-checkpoint", window_index=window_index):
            checkpoint.save(
                window_index,
                window_end,
                self.config.payload(),
                meta={
                    "records_consumed": self._consumed,
                    "stream_digest": self._digest.hexdigest(),
                    "vantage_points": [list(vp) for vp in self._vps],
                },
            )
            if tracer.enabled:
                tracer.count("live.checkpoints")

    def _fast_forward(
        self,
        source: Iterator[RouteRecord],
        vp_set: Set[PeerId],
        cursor: int,
        digest: str,
    ) -> None:
        """Re-apply the records a checkpointed run consumed before its
        cursor; the stream must be the one the checkpoint was saved on."""
        for record in islice(source, max(0, cursor - self._consumed)):
            self._consume(record)
            if record.peer_id in vp_set:
                self._apply(record)
        if self._consumed < cursor:
            raise StreamCheckpointError(
                f"stream ended after {self._consumed} records, before the "
                f"checkpoint's cursor at {cursor}"
            )
        if self._consumed != cursor or self._digest.hexdigest() != digest:
            raise StreamCheckpointError(
                f"the stream's first {cursor} records differ from those "
                "the checkpoint was saved on; resume over the same archive "
                "or start from a fresh --checkpoint-dir"
            )

    def _write_store_window(
        self,
        atoms: AtomSet,
        window_index: int,
        window_end: int,
        tracer: TracerLike,
    ) -> str:
        assert self.config.store_dir is not None
        key = f"w{window_index:08d}"
        write_part(
            self.config.store_dir,
            key,
            [
                {
                    "key": key,
                    "atoms": atoms,
                    "label": str(window_end),
                    "role": "window",
                    "family": self.config.family or 0,
                },
            ],
        )
        if tracer.enabled:
            tracer.count("live.store_windows")
        return key

    def _merge_store(self, keys: Sequence[str], tracer: TracerLike) -> None:
        assert self.config.store_dir is not None
        merge_parts(self.config.store_dir, sorted(keys))
        if tracer.enabled:
            tracer.count("live.store_merges")

    def _existing_store_keys(self) -> List[str]:
        if self.config.store_dir is None:
            return []
        parts = Path(self.config.store_dir) / PARTS_DIR
        if not parts.is_dir():
            return []
        return sorted(
            entry.name
            for entry in parts.iterdir()
            if entry.name.startswith("w") and (entry / MANIFEST_NAME).is_file()
        )

    # -- the run --------------------------------------------------------

    def run(
        self,
        on_window: Optional[Callable[[WindowResult], None]] = None,
    ) -> LiveRun:
        """Consume the stream; returns the closed windows and final atoms.

        ``on_window`` is invoked after each window closes (checkpoint
        and store sink included) — raise from it to stop the pipeline
        at a boundary, which is exactly what the soak harness does to
        simulate a kill.
        """
        config = self.config
        tracer = get_tracer()
        checkpoint = (
            StreamCheckpoint(config.checkpoint_dir)
            if config.checkpoint_dir is not None
            else None
        )

        # The span is managed by hand (not ``with``) so the resume and
        # prime phases — which already consume the traced source — sit
        # inside it; lazily opened mrt-decode spans then nest properly.
        run_span = tracer.span("live-run").__enter__()
        try:
            state = checkpoint.load(config=config.payload()) if checkpoint else None
            # Prime from the leading dump, resumed or not.
            iterator = iter(self.records)
            source: Iterator[RouteRecord] = iterator
            prime: List[RouteRecord] = []
            for record in iterator:
                if record.record_type != "rib":
                    source = _chain_one(record, iterator)
                    break
                prime.append(record)
            resumed_from: Optional[int] = None
            if state is not None:
                resumed_from, cursor, digest, self._vps = _cursor(state)
                if self._explicit_vps and self._explicit_vps != self._vps:
                    raise LiveError(
                        "explicit vantage points disagree with the "
                        "checkpoint's"
                    )
            elif self._explicit_vps is not None:
                self._vps = list(self._explicit_vps)
            else:
                self._vps = sorted({record.peer_id for record in prime})
            if not self._vps:
                raise LiveError(
                    "stream carries no leading RIB dump and no explicit "
                    "vantage points were given"
                )
            vp_set = set(self._vps)

            run = LiveRun(
                windows=[],
                atoms=None,
                vantage_points=list(self._vps),
                resumed=state is not None,
                resumed_from=resumed_from,
            )
            store_keys = self._existing_store_keys()
            run.store_keys = list(store_keys)
            unmerged = 0

            index = AtomIndex(
                self._snapshot,
                vantage_points=list(self._vps),
                expand_singleton_sets=config.expand_singleton_sets,
                strip_prepending=config.strip_prepending,
            )

            # Prime the RIB, bring a resumed run up to its cursor, and
            # take the initial partition.
            for record in prime:
                self._consume(record)
                if record.peer_id in vp_set:
                    self._apply(record)
                    run.prime_records += 1
            if tracer.enabled and run.prime_records:
                tracer.count("live.prime_records", run.prime_records)
            if state is not None:
                self._fast_forward(source, vp_set, cursor, digest)
                run.skipped = self._consumed
            previous_atoms = index.atoms()

            # Window state.
            window_start: Optional[int] = None
            window_end: Optional[int] = None
            stats = _WindowStats()
            stopped = False

            def close_window(boundary_end: int) -> None:
                nonlocal previous_atoms, unmerged
                assert window_start is not None
                window_index = window_start // config.window_seconds
                with tracer.span(
                    "live-window", index=window_index, end=boundary_end
                ) as span:
                    began = time.perf_counter()
                    dirty = index.dirty_count
                    changed = len(index.refresh_delta())
                    # atoms() stamps the set with the snapshot's time,
                    # which the store sink persists.
                    self._snapshot.timestamp = boundary_end
                    atoms = index.atoms()
                    created, removed = window_churn(previous_atoms, atoms)
                    pr_full = (
                        window_correlation(
                            previous_atoms,
                            stats.update_records,
                            max_size=config.correlation_max_size,
                        )
                        if config.correlation
                        else None
                    )
                    result = WindowResult(
                        index=window_index,
                        start=window_start,
                        end=boundary_end,
                        records=stats.records,
                        elements=stats.elements,
                        announcements=stats.announcements,
                        withdrawals=stats.withdrawals,
                        late_records=stats.late,
                        dirty=dirty,
                        key_changes=changed,
                        atoms=len(atoms),
                        prefixes=atoms.prefix_count(),
                        created=created,
                        removed=removed,
                        pr_full=pr_full,
                    )
                    if config.parity == "window":
                        self._check_parity(atoms, boundary_end, tracer)
                        run.parity_checks += 1
                    run.windows.append(result)
                    if config.store_dir is not None:
                        key = self._write_store_window(
                            atoms, window_index, boundary_end, tracer
                        )
                        store_keys.append(key)
                        run.store_keys.append(key)
                        unmerged += 1
                        if (
                            config.store_merge_every
                            and unmerged >= config.store_merge_every
                        ):
                            self._merge_store(store_keys, tracer)
                            unmerged = 0
                    if (
                        checkpoint is not None
                        and len(run.windows) % config.checkpoint_every == 0
                    ):
                        self._save_checkpoint(
                            checkpoint, window_index, boundary_end, tracer
                        )
                        run.checkpoints += 1
                    result.wall_seconds = time.perf_counter() - began
                    if tracer.enabled:
                        span.set(
                            records=stats.records,
                            dirty=dirty,
                            key_changes=changed,
                            atoms=len(atoms),
                            churn_created=created,
                            churn_removed=removed,
                            wall_seconds=result.wall_seconds,
                        )
                        tracer.count("live.windows")
                        tracer.count("live.records", stats.records)
                        tracer.count("live.elements", stats.elements)
                        tracer.count("live.announcements", stats.announcements)
                        tracer.count("live.withdrawals", stats.withdrawals)
                        if stats.late:
                            tracer.count("live.late_records", stats.late)
                        tracer.count("live.dirty", dirty)
                        tracer.count("live.key_changes", changed)
                        tracer.count("live.churn_created", created)
                        tracer.count("live.churn_removed", removed)
                    previous_atoms = atoms
                    run.atoms = atoms
                    stats.reset()
                    if on_window is not None:
                        on_window(result)

            # The stream proper.
            for record in source:
                if record.peer_id not in vp_set:
                    self._consume(record)
                    if tracer.enabled:
                        tracer.count("live.foreign_records")
                    continue
                timestamp = record.timestamp
                if window_end is not None and timestamp >= window_end:
                    close_window(window_end)
                    window_start = None
                    window_end = None
                    if (
                        config.max_windows is not None
                        and len(run.windows) >= config.max_windows
                    ):
                        stopped = True
                        break
                if window_end is None:
                    window_start = (
                        timestamp // config.window_seconds * config.window_seconds
                    )
                    window_end = window_start + config.window_seconds
                applied = self._apply(record)
                stats.fold(record, applied, window_start or 0)
                run.records += 1
                self._consume(record)

            if not stopped and window_end is not None:
                close_window(window_end)
            run.stopped_early = stopped

            if run.skipped and tracer.enabled:
                tracer.count("live.replay_skipped", run.skipped)

            # Finalisation: a clean stop checkpoints the last boundary
            # (so resuming a finished stream is a no-op) and merges any
            # store parts not yet folded in.
            if checkpoint is not None and run.windows:
                last = run.windows[-1]
                if len(run.windows) % config.checkpoint_every != 0:
                    self._save_checkpoint(checkpoint, last.index, last.end, tracer)
                    run.checkpoints += 1
            if config.store_dir is not None and store_keys and unmerged:
                self._merge_store(store_keys, tracer)
            elif (
                config.store_dir is not None
                and store_keys
                and not config.store_merge_every
            ):
                self._merge_store(store_keys, tracer)
            if tracer.enabled:
                run_span.set(windows=len(run.windows), records=run.records)
        finally:
            run_span.__exit__(None, None, None)
        if run.atoms is None and (run.prime_records or run.skipped):
            run.atoms = previous_atoms
        return run


class _WindowStats:
    """Accumulators for the window currently being filled."""

    __slots__ = (
        "records",
        "elements",
        "announcements",
        "withdrawals",
        "late",
        "update_records",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.records = 0
        self.elements = 0
        self.announcements = 0
        self.withdrawals = 0
        self.late = 0
        self.update_records: List[RouteRecord] = []

    def fold(self, record: RouteRecord, applied: int, window_start: int) -> None:
        self.records += 1
        self.elements += applied
        for element in record.elements:
            if element.element_type == ElementType.WITHDRAWAL:
                self.withdrawals += 1
            else:
                self.announcements += 1
        if record.timestamp < window_start:
            self.late += 1
        if record.record_type == "update":
            self.update_records.append(record)


def _cursor(state: Dict[str, Any]) -> Tuple[int, int, str, List[PeerId]]:
    """(window index, records consumed, stream digest, vantage points)
    of a loaded checkpoint state."""
    try:
        meta = state["meta"]
        return (
            int(state["window_index"]),
            int(meta["records_consumed"]),
            str(meta["stream_digest"]),
            [tuple(vp) for vp in meta["vantage_points"]],
        )
    except (KeyError, TypeError, ValueError) as error:
        raise StreamCheckpointError(
            f"checkpoint state has no valid cursor: {error!r}"
        ) from error


def _chain_one(
    first: RouteRecord, rest: Iterator[RouteRecord]
) -> Iterator[RouteRecord]:
    yield first
    yield from rest


def _diff_atom_sets(streamed: AtomSet, cold: AtomSet) -> List[str]:
    """Human-readable differences between two atom sets (empty: equal).

    Equality here is the strong form the parity gate promises: same
    vantage points, same atom count, and per index the same atom id,
    prefix set and path vector.
    """
    problems: List[str] = []
    if list(streamed.vantage_points) != list(cold.vantage_points):
        problems.append(
            f"vantage points differ: {streamed.vantage_points} "
            f"!= {cold.vantage_points}"
        )
        return problems
    if len(streamed) != len(cold):
        problems.append(
            f"atom count differs: streamed {len(streamed)} != cold {len(cold)}"
        )
    for mine, theirs in zip(streamed.atoms, cold.atoms):
        if mine.atom_id != theirs.atom_id:
            problems.append(
                f"atom id differs at position {theirs.atom_id}: "
                f"{mine.atom_id} != {theirs.atom_id}"
            )
        if mine.prefixes != theirs.prefixes:
            problems.append(
                f"atom {theirs.atom_id} prefixes differ "
                f"({len(mine.prefixes)} vs {len(theirs.prefixes)} members)"
            )
        if tuple(mine.paths) != tuple(theirs.paths):
            problems.append(f"atom {theirs.atom_id} path vector differs")
        if len(problems) >= 20:
            break
    return problems

"""Snapshot-level job specifications and the worker entry point.

A :class:`SnapshotJob` is a self-contained, picklable description of
one quarter's atom computation: the world recipe (params + birth
instant), the ``advance_to`` cadence that precedes the quarter, the
quarter's own snapshot instants, and the analysis flags.  A worker —
in-process for serial runs, a ``ProcessPoolExecutor`` child for
parallel ones — can therefore rebuild the exact world state the serial
study would have had, because world evolution is deterministic for a
fixed (seed, cadence) and rendering never mutates the world.

Workers keep a per-process world cache keyed by lineage (params +
birth instant).  When a worker receives jobs in chronological order —
the scheduler submits them that way — each job only advances the
cached world through the *gap* since the previous job instead of
replaying twenty years from scratch.

The result of a job is a :class:`QuarterResult`: the small, serializable
summary derived from the heavyweight ``AtomComputation`` (Table-1
stats, formation shares, stability pairs, feed summary, sanitization
report headline).  This is what the cache and checkpoint layers
persist.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.sanitize import SanitizationConfig
from repro.core.statistics import GeneralStats
from repro.net.prefix import AF_INET
from repro.obs import get_tracer
from repro.topology.evolution import WorldParams
from repro.util.dates import QUARTER_SNAPSHOT_OFFSETS, utc_timestamp

#: Serialization format version; bump together with cache.CACHE_SALT.
#: v2: results no longer carry incremental-maintenance counters.
RESULT_VERSION = 2


def suite_times(year: int, month: int, with_stability: bool) -> Tuple[int, ...]:
    """The ``advance_to`` instants one quarter's suite walks through.

    The base snapshot always, plus the three stability comparison
    snapshots when requested (:data:`repro.util.dates.QUARTER_SNAPSHOT_OFFSETS`).
    """
    offsets = QUARTER_SNAPSHOT_OFFSETS
    if not with_stability:
        offsets = offsets[:1]
    return tuple(utc_timestamp(year, month, day, hour) for day, hour in offsets)


@dataclass(frozen=True)
class SnapshotJob:
    """One quarter's atom computation, as a self-contained work unit."""

    params: WorldParams
    #: world birth instant (epoch seconds)
    start: int
    #: ``advance_to`` cadence of every earlier quarter in the sweep
    warmup: Tuple[int, ...]
    #: this quarter's own snapshot instants (base first)
    times: Tuple[int, ...]
    family: int = AF_INET
    sanitization: Optional[SanitizationConfig] = None
    with_updates: bool = False
    update_hours: float = 4.0
    #: display label, e.g. ``"2004-01"``
    label: str = ""
    #: calendar position of the quarter
    calendar_year: int = 0
    month: int = 1
    #: reporting x-coordinate (fractional for quarterly sweeps)
    report_year: float = 0.0
    #: atom-store sink: workers persist this job's snapshots as a
    #: self-contained part under ``<store_dir>/parts/<job digest>``.
    #: Deliberately NOT part of :meth:`spec`: where columns land on
    #: disk does not change what is computed, so cache keys stay
    #: stable whether or not a sweep persists a store.
    store_dir: Optional[str] = None
    #: world-lineage checkpoint directory: workers restore the nearest
    #: saved warmup prefix instead of replaying from birth, and save
    #: new boundaries as they pass them.  Like ``store_dir``, excluded
    #: from :meth:`spec` — checkpoints change how fast a world state is
    #: reached, never which state.
    world_checkpoint_dir: Optional[str] = None
    #: save a world snapshot every N applied ``advance_to`` instants
    world_checkpoint_stride: int = 4

    @property
    def with_stability(self) -> bool:
        return len(self.times) > 1

    @property
    def cadence(self) -> Tuple[int, ...]:
        """Full ``advance_to`` sequence this job requires."""
        return self.warmup + self.times

    def spec(self) -> Dict[str, Any]:
        """Canonical content dict (the cache-key payload)."""
        return {
            "params": asdict(self.params),
            "start": self.start,
            "warmup": list(self.warmup),
            "times": list(self.times),
            "family": self.family,
            "sanitization": (
                None if self.sanitization is None else asdict(self.sanitization)
            ),
            "with_updates": self.with_updates,
            "update_hours": self.update_hours,
        }


@dataclass
class QuarterResult:
    """The persisted summary of one executed :class:`SnapshotJob`."""

    label: str
    year: float
    month: int
    family: int
    stats: GeneralStats
    formation_shares: Dict[int, float]
    formation_shares_no_single: Dict[int, float]
    stability: Dict[str, Tuple[float, float]]
    feed: Dict[str, Any]
    #: sanitization report headline (cmd_atoms output, Table 5 input)
    report: Dict[str, Any] = field(default_factory=dict)
    update_record_count: int = 0
    #: Pr_full(k) atom curve of the update stream, when computed
    update_pr_full: Dict[int, Optional[float]] = field(default_factory=dict)
    #: raw route records consumed (metrics input)
    record_count: int = 0


# ----------------------------------------------------------------------
# JSON round-trip (cache + checkpoint storage format)
# ----------------------------------------------------------------------

def result_to_payload(result: QuarterResult) -> Dict[str, Any]:
    """``QuarterResult`` -> JSON-safe dict."""
    return {
        "version": RESULT_VERSION,
        "label": result.label,
        "year": result.year,
        "month": result.month,
        "family": result.family,
        "stats": asdict(result.stats),
        "formation_shares": sorted(result.formation_shares.items()),
        "formation_shares_no_single": sorted(
            result.formation_shares_no_single.items()
        ),
        "stability": {k: list(v) for k, v in result.stability.items()},
        "feed": dict(result.feed),
        "report": dict(result.report),
        "update_record_count": result.update_record_count,
        "update_pr_full": sorted(result.update_pr_full.items()),
        "record_count": result.record_count,
    }


def result_from_payload(payload: Dict[str, Any]) -> QuarterResult:
    """JSON dict -> ``QuarterResult``; raises on malformed payloads."""
    if payload.get("version") != RESULT_VERSION:
        raise ValueError(f"unsupported result version {payload.get('version')!r}")
    report = dict(payload.get("report", {}))
    if "removed_peers" in report:
        report["removed_peers"] = {
            int(asn): reason for asn, reason in report["removed_peers"].items()
        }
    return QuarterResult(
        label=payload["label"],
        year=payload["year"],
        month=payload["month"],
        family=payload["family"],
        stats=GeneralStats(**payload["stats"]),
        formation_shares={int(k): v for k, v in payload["formation_shares"]},
        formation_shares_no_single={
            int(k): v for k, v in payload["formation_shares_no_single"]
        },
        stability={k: tuple(v) for k, v in payload["stability"].items()},
        feed=dict(payload["feed"]),
        report=report,
        update_record_count=payload["update_record_count"],
        update_pr_full={int(k): v for k, v in payload["update_pr_full"]},
        record_count=payload["record_count"],
    )


# ----------------------------------------------------------------------
# Worker execution
# ----------------------------------------------------------------------

#: Per-process world cache: lineage -> [SimulatedInternet, applied cadence].
#: Lives at module scope so pool workers (and the serial in-process
#: path) amortize world evolution across chronologically ordered jobs.
_WORLDS: Dict[Tuple, List] = {}


def _lineage_key(job: SnapshotJob) -> Tuple:
    # WorldParams holds only scalars, so its item tuple is hashable.
    return (tuple(sorted(asdict(job.params).items())), job.start)


def clear_worker_state() -> None:
    """Drop cached worlds (tests, or to bound worker memory)."""
    _WORLDS.clear()


def _world_for(job: SnapshotJob):
    """A simulator whose applied cadence is a prefix of the job's.

    Reuses the process-cached world when the job continues its
    timeline; otherwise restores the nearest world-lineage checkpoint
    (when the job carries a checkpoint directory) and only as a last
    resort rebuilds from birth (time only moves forward, so a world
    past the job's warmup cannot be rewound).
    """
    from repro.simulation.scenario import SimulatedInternet

    key = _lineage_key(job)
    cadence = list(job.cadence)
    entry = _WORLDS.get(key)
    if entry is not None:
        internet, applied = entry
        if len(applied) <= len(job.warmup) and applied == cadence[: len(applied)]:
            return internet, applied
    if job.world_checkpoint_dir is not None and job.warmup:
        from repro.engine.checkpoint import WorldCheckpoint

        checkpoint = WorldCheckpoint(job.world_checkpoint_dir)
        restored = checkpoint.restore(job.params, job.start, job.warmup)
        tracer = get_tracer()
        if restored is not None:
            internet, applied = restored
            _WORLDS[key] = [internet, applied]
            if tracer.enabled:
                tracer.count("engine.world_restores")
                tracer.count("engine.world_restored_instants", len(applied))
            return internet, applied
        if tracer.enabled:
            tracer.count("engine.world_restore_misses")
    internet = SimulatedInternet(job.params, start=job.start)
    entry = [internet, []]
    _WORLDS[key] = entry
    return entry[0], entry[1]


def _maybe_checkpoint_world(job: SnapshotJob, internet, applied) -> None:
    """Save the world when the job ends exactly on a stride boundary.

    The applied cadence fully determines the state, so the save is
    skipped (inside :meth:`WorldCheckpoint.save`) when another worker
    already wrote the same boundary.  I/O failures are swallowed: a
    full disk slows the next cold start, it must not fail this job.
    """
    from repro.engine.checkpoint import WorldCheckpoint

    stride = max(1, job.world_checkpoint_stride)
    if len(applied) % stride:
        return
    checkpoint = WorldCheckpoint(job.world_checkpoint_dir)
    try:
        path = checkpoint.save(internet, applied)
    except OSError:  # pragma: no cover - disk trouble
        return
    if path is not None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("engine.world_saves")


def execute_snapshot_job(job: SnapshotJob) -> QuarterResult:
    """Run one job to completion in the current process."""
    from repro.analysis.longitudinal import LongitudinalStudy, SnapshotSuite

    internet, applied = _world_for(job)
    for when in job.warmup[len(applied):]:
        internet.advance_to(when)
        applied.append(when)
    study = LongitudinalStudy(
        internet, family=job.family, sanitization=job.sanitization
    )
    if job.calendar_year:
        suite = study.snapshot_suite(
            job.calendar_year,
            job.month,
            with_stability=job.with_stability,
            with_updates=job.with_updates,
            update_hours=job.update_hours,
        )
    else:
        # Ad-hoc instant (``repro atoms``): one base snapshot at an
        # arbitrary timestamp, outside the paper's quarter cadence.
        suite = SnapshotSuite(
            year=0,
            month=job.month,
            family=job.family,
            base=study._compute(job.times[0]),
        )
    applied.extend(job.times)
    if job.world_checkpoint_dir is not None:
        _maybe_checkpoint_world(job, internet, applied)
    if job.store_dir is not None:
        persist_suite_part(job, suite)
    return summarize_suite(job, suite)


def persist_suite_part(job: SnapshotJob, suite) -> None:
    """Write the job's snapshots as an atom-store part.

    Every computed :class:`~repro.core.atoms.AtomSet` of the suite
    (base plus whichever stability snapshots exist) lands under
    ``<store_dir>/parts/<job digest>``, alongside the feed summary and
    sanitization headline the trend series need but columns cannot
    carry.  The part key is the job digest, so a re-run overwrites
    nothing: an already complete part short-circuits inside
    :func:`repro.store.writer.write_part`.
    """
    from repro.engine.cache import job_digest
    from repro.store.writer import write_part

    report = suite.base.report
    headline = {
        "fullfeed_peers": report.fullfeed_peers,
        "partial_peers": report.partial_peers,
        "removed_peers": dict(report.removed_peers),
        "prefixes_total": report.prefixes_total,
        "prefixes_kept": report.prefixes_kept,
    }
    label = job.label or f"t{job.times[0]}"
    computations = [("base", suite.base)]
    computations.extend(
        (role, computation)
        for role, computation in (
            ("8h", suite.after_8h),
            ("24h", suite.after_24h),
            ("1w", suite.after_week),
        )
        if computation is not None
    )
    snapshots = [
        {
            "key": f"{label}:{role}",
            "atoms": computation.atoms,
            "label": label,
            "role": role,
            "year": job.report_year,
            "month": job.month,
            "family": job.family,
            "feed": suite.feed() if role == "base" else None,
            "report": headline if role == "base" else None,
        }
        for role, computation in computations
    ]
    write_part(job.store_dir, job_digest(job), snapshots)


def execute_snapshot_batch(jobs: Sequence[SnapshotJob]) -> Dict[str, Any]:
    """Pool entry point: run a chronological chunk of jobs as one task.

    Batching amortizes pool overhead two ways: the chunk's jobs share
    this worker's cached world lineage back to back (no other task can
    interleave and reset it), and each result crosses the process
    boundary compactly as its :func:`result_to_payload` dict (the JSON
    codec the cache persists).  Per-job wall times are measured here,
    worker-side, so the scheduler can report them exactly as the
    unbatched path did.
    """
    items: List[Dict[str, Any]] = []
    for job in jobs:
        started = time.perf_counter()
        result = execute_snapshot_job(job)
        items.append(
            {
                "payload": result_to_payload(result),
                "seconds": time.perf_counter() - started,
            }
        )
    return {"worker": os.getpid(), "items": items}


def summarize_suite(job: SnapshotJob, suite) -> QuarterResult:
    """Reduce a :class:`SnapshotSuite` to its persistable summary."""
    formation = suite.formation()
    report = suite.base.report
    pr_full: Dict[int, Optional[float]] = {}
    if suite.updates is not None:
        pr_full = dict(suite.updates.curve("atom"))
    return QuarterResult(
        label=job.label,
        year=job.report_year,
        month=job.month,
        family=job.family,
        stats=suite.stats(),
        formation_shares=formation.distance_shares(),
        formation_shares_no_single=formation.shares_excluding_single_origins(
            suite.atoms
        ),
        stability=suite.stability(),
        feed=suite.feed(),
        report={
            "fullfeed_peers": report.fullfeed_peers,
            "partial_peers": report.partial_peers,
            "removed_peers": dict(report.removed_peers),
            "prefixes_total": report.prefixes_total,
            "prefixes_kept": report.prefixes_kept,
        },
        update_record_count=suite.update_record_count,
        update_pr_full=pr_full,
        record_count=sum(audit.records for audit in report.audits.values()),
    )


def build_jobs(
    params: WorldParams,
    start: int,
    quarters: Sequence[Tuple[int, int, float]],
    family: int = AF_INET,
    sanitization: Optional[SanitizationConfig] = None,
    with_stability: bool = True,
    with_updates: bool = False,
    update_hours: float = 4.0,
    store_dir: Optional[str] = None,
    world_checkpoint_dir: Optional[str] = None,
    world_checkpoint_stride: int = 4,
) -> List[SnapshotJob]:
    """The job graph of a sweep.

    ``quarters`` is an ordered sequence of (calendar year, month,
    reporting year).  Each job's warmup is the concatenated cadence of
    every earlier quarter, so any job alone reproduces the world state
    of a serial chronological run.  ``store_dir`` makes every job
    persist its snapshots as an atom-store part there;
    ``world_checkpoint_dir`` lets workers restore/save world-lineage
    checkpoints instead of replaying warmups from birth.
    """
    jobs: List[SnapshotJob] = []
    warmup: List[int] = []
    for calendar_year, month, report_year in quarters:
        times = suite_times(calendar_year, month, with_stability)
        jobs.append(
            SnapshotJob(
                params=params,
                start=start,
                warmup=tuple(warmup),
                times=times,
                family=family,
                sanitization=sanitization,
                with_updates=with_updates,
                update_hours=update_hours,
                label=f"{calendar_year}-{month:02d}",
                calendar_year=calendar_year,
                month=month,
                report_year=report_year,
                store_dir=store_dir,
                world_checkpoint_dir=world_checkpoint_dir,
                world_checkpoint_stride=world_checkpoint_stride,
            )
        )
        warmup.extend(times)
    return jobs

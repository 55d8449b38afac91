"""The longitudinal study (§4): quarterly/annual atom analyses 2004-2024.

For each analysed quarter the paper takes four RIB snapshots (15th 8am,
15th 4pm, 16th 8am, 22nd 8am) plus the 4-hour update stream after the
first one.  :class:`SnapshotSuite` computes atoms for all four and
derives every §4 metric; :class:`LongitudinalStudy` walks a year range
and collects the trend series behind Figures 4, 5, 12 and 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.atoms import AtomSet
from repro.core.formation import FormationResult, formation_distances
from repro.core.fullfeed import feed_summary
from repro.core.intern import PathInternPool
from repro.core.pipeline import AtomComputation, compute_policy_atoms
from repro.core.sanitize import SanitizationConfig
from repro.core.stability import stability_pair
from repro.core.statistics import GeneralStats, general_stats
from repro.core.update_correlation import UpdateCorrelation, update_correlation
from repro.net.prefix import AF_INET
from repro.obs import get_tracer, traced_records
from repro.reporting.series import Series
from repro.simulation.scenario import SimulatedInternet
from repro.simulation.snapshot import RenderMemo
from repro.util.dates import QUARTER_MONTHS, QUARTER_SNAPSHOT_OFFSETS, utc_timestamp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.scheduler import ExecutionEngine


@dataclass
class SnapshotSuite:
    """Atoms for one quarter's four snapshots plus derived metrics."""

    year: int
    month: int
    family: int
    base: AtomComputation
    after_8h: Optional[AtomComputation] = None
    after_24h: Optional[AtomComputation] = None
    after_week: Optional[AtomComputation] = None
    updates: Optional[UpdateCorrelation] = None
    update_record_count: int = 0

    @property
    def atoms(self) -> AtomSet:
        return self.base.atoms

    def stats(self) -> GeneralStats:
        """Table-1 statistics of the base snapshot."""
        return general_stats(self.base.atoms)

    def formation(self, **kwargs) -> FormationResult:
        """Formation distances of the base snapshot's atoms."""
        return formation_distances(self.base.atoms, **kwargs)

    def stability(self) -> Dict[str, Tuple[float, float]]:
        """{"8h"/"24h"/"1w": (CAM, MPM)} for available pairs."""
        pairs = {}
        for label, later in (
            ("8h", self.after_8h),
            ("24h", self.after_24h),
            ("1w", self.after_week),
        ):
            if later is not None:
                pairs[label] = stability_pair(self.base.atoms, later.atoms)
        return pairs

    def feed(self) -> Dict[str, object]:
        """Full-feed summary of the base snapshot (Fig. 12/13 input)."""
        return feed_summary(self.base.dataset.snapshot)


@dataclass
class YearResult:
    """One row of the longitudinal trend.

    ``suite`` holds the full in-memory computation on the legacy
    serial path; engine-backed runs return the persistable summary
    only, so ``suite`` is None there.
    """

    year: float
    suite: Optional[SnapshotSuite]
    stats: GeneralStats
    formation_shares: Dict[int, float]
    formation_shares_no_single: Dict[int, float]
    stability: Dict[str, Tuple[float, float]]
    feed: Dict[str, object]


class LongitudinalStudy:
    """Drives a simulator through the paper's snapshot cadence.

    The study object owns one evolving world, so consecutive quarters
    share topology and the propagation cache — the same economy the
    paper gets from processing its archive chronologically.
    """

    def __init__(
        self,
        simulator: SimulatedInternet,
        family: int = AF_INET,
        sanitization: Optional[SanitizationConfig] = None,
        engine: Optional["ExecutionEngine"] = None,
        store_dir: Optional[str] = None,
    ):
        self.simulator = simulator
        self.family = family
        self.sanitization = sanitization
        #: when set, run_years/run_quarters build a job graph and
        #: submit it instead of computing inline
        self.engine = engine
        #: when set, every sweep job persists its snapshots as an
        #: atom-store part here and the sweep finalizes the merged
        #: store (requires ``engine``)
        self.store_dir = None if store_dir is None else str(store_dir)
        if self.store_dir is not None and engine is None:
            raise ValueError("store_dir persistence requires an engine")
        #: study-lifetime intern pool: consecutive snapshots share most
        #: of their paths, so each normalised path is interned (and
        #: hashed) once for the whole sweep
        self._pool: Optional[PathInternPool] = None

    def _ensure_pool(self) -> PathInternPool:
        if self._pool is None:
            self._pool = PathInternPool()
        return self._pool

    # ------------------------------------------------------------------
    # Engine submission
    # ------------------------------------------------------------------

    def _run_engine(
        self,
        quarters: Sequence[Tuple[int, int, float]],
        with_stability: bool,
        with_updates: bool,
    ) -> List[YearResult]:
        """Build the sweep's job graph and submit it to the engine.

        Jobs are self-contained (world params + advance cadence), so
        they require a pristine simulator: the cadence they replay
        starts at the simulator's birth instant.  With ``store_dir``
        set, workers persist per-job parts as they compute and the
        sweep ends by merging them into the final store — a cached job
        whose part is missing (say, from a killed sweep resumed through
        the engine's cache) is recomputed by the scheduler, so the
        merge never lacks columns.
        """
        from repro.engine.jobs import build_jobs

        assert self.engine is not None
        if self.simulator.current_time != self.simulator.start:
            raise ValueError(
                "engine-backed runs need a freshly built simulator; "
                "this one was already advanced past its start instant"
            )
        jobs = build_jobs(
            self.simulator.params,
            self.simulator.start,
            quarters,
            family=self.family,
            sanitization=self.sanitization,
            with_stability=with_stability,
            with_updates=with_updates,
            store_dir=self.store_dir,
        )
        quarters_out = self.engine.run(jobs)
        if self.store_dir is not None:
            from repro.engine.cache import job_digest
            from repro.store.writer import merge_parts

            merge_parts(self.store_dir, [job_digest(job) for job in jobs])
        return [result_from_quarter(q) for q in quarters_out]

    def _update_records(self, start: int, hours: float):
        """The post-snapshot update stream, as a traced ingest stage."""
        tracer = get_tracer()
        with tracer.span("mrt-decode", source="simulated-updates") as span:
            records = self.simulator.update_records(
                start, hours=hours, family=self.family
            )
            if tracer.enabled:
                span.set(records=len(records))
                tracer.count("decode.records", len(records))
        return records

    def _compute(
        self, when: int, memo: Optional[RenderMemo] = None
    ) -> AtomComputation:
        records = traced_records(
            self.simulator.rib_records(when, family=self.family, memo=memo),
            source="simulated",
        )
        return compute_policy_atoms(
            records, config=self.sanitization, pool=self._ensure_pool()
        )

    def snapshot_suite(
        self,
        year: int,
        month: int = 1,
        with_stability: bool = True,
        with_updates: bool = False,
        update_hours: float = 4.0,
    ) -> SnapshotSuite:
        """Compute one quarter's suite (timestamps per §2.4.1).

        The suite's renders share one :class:`RenderMemo`, so each
        peer's (path, tag) bundle is built once per quarter.  The memo
        is local to this call: it never outlives the quarter.
        """
        times = [
            utc_timestamp(year, month, day, hour)
            for day, hour in QUARTER_SNAPSHOT_OFFSETS
        ]
        memo = RenderMemo()
        base = self._compute(times[0], memo)
        suite = SnapshotSuite(year=year, month=month, family=self.family, base=base)
        if with_updates:
            records = self._update_records(times[0], update_hours)
            suite.update_record_count = len(records)
            suite.updates = update_correlation(base.atoms, records, max_size=7)
        if with_stability:
            suite.after_8h = self._compute(times[1], memo)
            suite.after_24h = self._compute(times[2], memo)
            suite.after_week = self._compute(times[3], memo)
        return suite

    def run_years(
        self,
        years: Sequence[int],
        month: int = 1,
        with_stability: bool = True,
        with_updates: bool = False,
    ) -> List[YearResult]:
        """One suite per year (the cadence behind Figures 4/5/12/13)."""
        if self.engine is not None:
            return self._run_engine(
                [(year, month, float(year)) for year in years],
                with_stability,
                with_updates,
            )
        results: List[YearResult] = []
        for year in years:
            suite = self.snapshot_suite(
                year, month, with_stability=with_stability, with_updates=with_updates
            )
            results.append(self._result_from_suite(year, suite, with_stability))
        return results

    def run_quarters(
        self,
        first_year: int,
        last_year: int,
        with_stability: bool = True,
        with_updates: bool = False,
    ) -> List[YearResult]:
        """The paper's full cadence: one suite per quarter (§2.4.1).

        Results carry fractional years (2004.0, 2004.25, ...) so trend
        series plot directly.
        """
        if self.engine is not None:
            return self._run_engine(
                [
                    (year, month, year + index / 4.0)
                    for year in range(first_year, last_year + 1)
                    for index, month in enumerate(QUARTER_MONTHS)
                ],
                with_stability,
                with_updates,
            )
        results: List[YearResult] = []
        for year in range(first_year, last_year + 1):
            for index, month in enumerate(QUARTER_MONTHS):
                suite = self.snapshot_suite(
                    year,
                    month,
                    with_stability=with_stability,
                    with_updates=with_updates,
                )
                result = self._result_from_suite(year, suite, with_stability)
                result = YearResult(
                    year=year + index / 4.0,
                    suite=result.suite,
                    stats=result.stats,
                    formation_shares=result.formation_shares,
                    formation_shares_no_single=result.formation_shares_no_single,
                    stability=result.stability,
                    feed=result.feed,
                )
                results.append(result)
        return results

    def _result_from_suite(
        self, year: int, suite: SnapshotSuite, with_stability: bool
    ) -> YearResult:
        formation = suite.formation()
        return YearResult(
            year=year,
            suite=suite,
            stats=suite.stats(),
            formation_shares=formation.distance_shares(),
            formation_shares_no_single=formation.shares_excluding_single_origins(
                suite.atoms
            ),
            stability=suite.stability() if with_stability else {},
            feed=suite.feed(),
        )


def result_from_quarter(quarter) -> YearResult:
    """Adapt an engine :class:`~repro.engine.jobs.QuarterResult` to the
    trend-series row shape (``suite`` is not materialised)."""
    return YearResult(
        year=quarter.year,
        suite=None,
        stats=quarter.stats,
        formation_shares=quarter.formation_shares,
        formation_shares_no_single=quarter.formation_shares_no_single,
        stability=quarter.stability,
        feed=quarter.feed,
    )


def trend_results_from_store(store) -> List[YearResult]:
    """Recompute the trend rows from a persisted atom store.

    ``store`` is an open :class:`~repro.store.reader.AtomStore` built
    by a ``--store-dir`` sweep.  Every metric that derives from atoms
    — Table-1 stats, formation shares, CAM/MPM stability — is
    recomputed from the reconstructed :class:`AtomSet` values; the
    feed summary (which needs the raw snapshot) comes from the
    snapshot metadata persisted alongside the columns.  Because store
    reconstruction is value-identical to ``compute_atoms`` (atom ids
    and ordering included), the rows equal what the in-memory sweep
    produced (asserted in ``tests/store/test_store_pipeline.py``).
    """
    by_label: Dict[str, Dict[str, object]] = {}
    order: List[str] = []
    for entry in store.snapshots():
        group = by_label.setdefault(entry.label, {})
        if not group:
            order.append(entry.label)
        group[entry.role] = entry
    results: List[YearResult] = []
    for label in order:
        group = by_label[label]
        base_entry = group.get("base")
        if base_entry is None:
            raise ValueError(f"store quarter {label!r} has no base snapshot")
        base_atoms = store.atoms(base_entry.key)
        formation = formation_distances(base_atoms)
        stability: Dict[str, Tuple[float, float]] = {}
        for role in ("8h", "24h", "1w"):
            later = group.get(role)
            if later is not None:
                stability[role] = stability_pair(
                    base_atoms, store.atoms(later.key)
                )
        results.append(
            YearResult(
                year=base_entry.year,
                suite=None,
                stats=general_stats(base_atoms),
                formation_shares=formation.distance_shares(),
                formation_shares_no_single=(
                    formation.shares_excluding_single_origins(base_atoms)
                ),
                stability=stability,
                feed=dict(base_entry.feed or {}),
            )
        )
    return results


# ----------------------------------------------------------------------
# Trend series builders (Figures 4, 5, 12, 13 and their IPv6 twins)
# ----------------------------------------------------------------------

def formation_trend_series(
    results: Sequence[YearResult], max_distance: int = 5
) -> List[Series]:
    """Figure 4: % atoms formed at each distance, per year, with the
    single-atom-AS-excluded variant as dashed twins."""
    series: List[Series] = []
    for distance in range(1, max_distance + 1):
        solid = Series(f"distance {distance}")
        dashed = Series(f"distance {distance} (excl. single-atom ASes)")
        for result in results:
            solid.add(result.year, result.formation_shares.get(distance, 0.0) * 100)
            dashed.add(
                result.year,
                result.formation_shares_no_single.get(distance, 0.0) * 100,
            )
        series.append(solid)
        series.append(dashed)
    return series


def stability_trend_series(results: Sequence[YearResult]) -> List[Series]:
    """Figure 5: CAM/MPM after 8 hours and after a week, per year."""
    names = [
        ("8h", 0, "Complete atom match (after 8 hours)"),
        ("8h", 1, "Maximized prefix match (after 8 hours)"),
        ("1w", 0, "Complete atom match (after 1 week)"),
        ("1w", 1, "Maximized prefix match (after 1 week)"),
    ]
    series = []
    for key, index, label in names:
        line = Series(label)
        for result in results:
            pair = result.stability.get(key)
            line.add(result.year, pair[index] * 100 if pair else None)
        series.append(line)
    return series


def fullfeed_trend_series(results: Sequence[YearResult]) -> Tuple[Series, Series]:
    """Figures 12 and 13: the full-feed threshold (max unique prefixes)
    and the number of full-feed peers, per year."""
    threshold = Series("max unique prefixes per peer")
    peers = Series("full-feed peers")
    for result in results:
        threshold.add(result.year, float(result.feed["max_prefixes"]))
        peers.add(result.year, float(result.feed["full_feed"]))
    return threshold, peers

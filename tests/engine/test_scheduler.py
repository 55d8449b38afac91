"""Scheduler behavior: parallel determinism, ordering, trace, progress.

Includes the headline acceptance check: a 2004-2012 trend sweep with
``jobs=4`` is value-identical to the serial run, and a second
invocation of the same sweep is answered almost entirely from cache.
"""

import io

import pytest

from repro.analysis.longitudinal import (
    LongitudinalStudy,
    formation_trend_series,
    fullfeed_trend_series,
    stability_trend_series,
)
from repro.engine.cache import ResultCache
from repro.engine.jobs import build_jobs, clear_worker_state
from repro.engine.metrics import sweep_summary
from repro.engine.scheduler import ExecutionEngine
from repro.obs import NULL_TRACER, Tracer, use_tracer
from repro.simulation.scenario import SimulatedInternet
from repro.util.dates import utc_timestamp

from tests.engine.conftest import ENGINE_WORLD

SWEEP_YEARS = list(range(2004, 2013))


def run_sweep(jobs: int, cache=None, tracer=NULL_TRACER, with_stability=True,
              batch=1):
    """One 2004-2012 yearly trend sweep through the engine, reporting
    to ``tracer`` (for :func:`sweep_summary`)."""
    clear_worker_state()
    engine = ExecutionEngine(jobs=jobs, cache=cache, batch=batch)
    study = LongitudinalStudy(
        SimulatedInternet(ENGINE_WORLD, start="2004-01-01"), engine=engine
    )
    with use_tracer(tracer):
        return study.run_years(SWEEP_YEARS, with_stability=with_stability)


def all_series(results):
    """Every trend Series the paper's figures draw from these results."""
    series = list(formation_trend_series(results))
    series.extend(stability_trend_series(results))
    series.extend(fullfeed_trend_series(results))
    return series


@pytest.fixture(scope="module")
def serial_results():
    return run_sweep(jobs=1)


class TestParallelDeterminism:
    def test_jobs4_series_identical_to_serial(self, serial_results):
        """Acceptance: --jobs 4 Series values exactly equal serial."""
        parallel = run_sweep(jobs=4)
        for line_s, line_p in zip(all_series(serial_results), all_series(parallel)):
            assert line_s.name == line_p.name
            assert line_s.points == line_p.points  # exact, not approx

    def test_result_rows_identical(self, serial_results):
        parallel = run_sweep(jobs=2)
        assert len(parallel) == len(serial_results)
        for a, b in zip(serial_results, parallel):
            assert a.year == b.year
            assert a.stats == b.stats
            assert a.formation_shares == b.formation_shares
            assert a.formation_shares_no_single == b.formation_shares_no_single
            assert a.stability == b.stability
            assert a.feed == b.feed


class TestCachedSweep:
    def test_second_invocation_hits_cache(self, tmp_path, serial_results):
        """Acceptance: repeat sweep completes with >= 90% cache hits,
        verified through the trace, with identical values."""
        cache = ResultCache(tmp_path)
        first = run_sweep(jobs=1, cache=cache)
        tracer = Tracer()
        second = run_sweep(jobs=1, cache=cache, tracer=tracer)

        summary = sweep_summary(tracer)
        assert summary["hit_rate"] >= 0.9
        assert summary["cache_hits"] == len(SWEEP_YEARS)
        assert summary["computed"] == 0
        for line_a, line_b in zip(all_series(first), all_series(second)):
            assert line_a.points == line_b.points
        # The cached sweep must also equal the never-cached baseline.
        for line_a, line_b in zip(all_series(serial_results), all_series(second)):
            assert line_a.points == line_b.points

    def test_parallel_reads_and_fills_same_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(jobs=2, cache=cache, with_stability=False)
        tracer = Tracer()
        run_sweep(jobs=2, cache=cache, tracer=tracer, with_stability=False)
        assert sweep_summary(tracer)["hit_rate"] == 1.0


class TestOrderingAndEvents:
    def test_results_in_submission_order(self):
        jobs = build_jobs(
            ENGINE_WORLD,
            utc_timestamp(2004, 1, 1),
            [(2004, 1, 2004.0), (2004, 4, 2004.25), (2004, 7, 2004.5)],
            with_stability=False,
        )
        clear_worker_state()
        results = ExecutionEngine(jobs=2).run(jobs)
        assert [r.label for r in results] == ["2004-01", "2004-04", "2004-07"]
        assert [r.year for r in results] == [2004.0, 2004.25, 2004.5]

    def test_event_stream_shape(self):
        """One ``engine-sweep`` span holds one computed ``engine-job``
        span per job, and the engine counters add up."""
        jobs = build_jobs(
            ENGINE_WORLD,
            utc_timestamp(2004, 1, 1),
            [(2004, 1, 2004.0), (2004, 4, 2004.25)],
            with_stability=False,
        )
        clear_worker_state()
        tracer = Tracer()
        with use_tracer(tracer):
            ExecutionEngine(jobs=1).run(jobs)
        (sweep,) = [s for s in tracer.spans if s.name == "engine-sweep"]
        assert sweep.attrs == {"jobs": 2, "workers": 1}
        done = [s for s in tracer.spans if s.name == "engine-job"]
        assert [s.attrs["label"] for s in done] == ["2004-01", "2004-04"]
        assert all(s.parent_id == sweep.span_id for s in done)
        assert all(s.attrs["source"] == "computed" for s in done)
        assert all(s.attrs["records"] > 0 for s in done)
        assert all(s.seconds > 0 for s in done)
        assert tracer.counters["engine.jobs.computed"] == 2
        assert tracer.counters["engine.records"] == sum(
            s.attrs["records"] for s in done
        )

    def test_progress_hook_narrates(self, tmp_path):
        """``progress=`` narrates the sweep, computed jobs and hits."""
        jobs = build_jobs(
            ENGINE_WORLD,
            utc_timestamp(2004, 1, 1),
            [(2004, 1, 2004.0)],
            with_stability=False,
        )
        cache = ResultCache(tmp_path)
        lines = []
        for _ in range(2):
            clear_worker_state()
            stream = io.StringIO()
            ExecutionEngine(jobs=1, cache=cache, progress=stream).run(jobs)
            lines.append(stream.getvalue().splitlines())
        computed, cached = lines
        assert computed[0] == "[engine] 1 job(s) on 1 worker(s)"
        assert computed[1].startswith("[engine] 2004-01: computed (")
        records = computed[1].split("s, ", 1)[1]
        assert records.endswith(" records)")
        assert cached[1] == f"[engine] 2004-01: cache (0.00s, {records}"
        for narration in lines:
            assert len(narration) == 3
            assert narration[2].startswith("[engine] sweep done in ")


class TestMetricsSummary:
    def test_summary_fields(self):
        jobs = build_jobs(
            ENGINE_WORLD,
            utc_timestamp(2004, 1, 1),
            [(2004, 1, 2004.0), (2004, 4, 2004.25)],
            with_stability=False,
        )
        clear_worker_state()
        tracer = Tracer()
        with use_tracer(tracer):
            ExecutionEngine(jobs=1).run(jobs)
        summary = sweep_summary(tracer)
        assert summary["jobs"] == 2
        assert summary["computed"] == 2
        assert summary["cache_hits"] == 0
        assert summary["records"] > 0
        assert summary["busy_seconds"] > 0
        assert summary["wall_seconds"] >= summary["busy_seconds"]
        assert summary["workers"] == 1
        assert 0 < summary["worker_utilization"] <= 1

    def test_engine_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ExecutionEngine(jobs=0)

"""The sweep summary read from a tracer.

Regression focus: cache hits are recorded as zero-second ``engine-job``
spans; they must not count as worker time, or busy seconds and worker
utilization deflate toward zero on warm-cache sweeps.
"""

import pytest

from repro.engine.metrics import SOURCE_CACHE, SOURCE_COMPUTED, sweep_summary
from repro.obs import Tracer


def feed(jobs, workers=2, wall=3.0, records=10):
    """A tracer holding one sweep of ``wall`` seconds over ``jobs``.

    Each job is a ``(source, seconds)`` pair, recorded the way the
    scheduler records it: an ``engine-job`` span under the sweep plus
    its ``engine.jobs.<source>`` and ``engine.records`` counts.
    """
    tracer = Tracer()
    for source, seconds in jobs:
        tracer.record_span("engine-job", seconds, source=source)
        tracer.count(f"engine.jobs.{source}")
        tracer.count("engine.records", records)
    tracer.record_span("engine-sweep", wall, jobs=len(jobs), workers=workers)
    return tracer


def computed(seconds):
    return (SOURCE_COMPUTED, seconds)


HIT = (SOURCE_CACHE, 0.0)


class TestSummaryExcludesNonComputedJobs:
    """The regression: hits are answered at submission, not by workers."""

    @pytest.fixture
    def mixed(self):
        return sweep_summary(feed([computed(2.0), computed(4.0), HIT]))

    def test_busy_seconds_counts_computed_only(self, mixed):
        assert mixed["busy_seconds"] == pytest.approx(6.0)

    def test_utilization_uses_computed_busy_time(self, mixed):
        # 6.0 busy / (3.0 wall * 2 workers) = 1.0
        assert mixed["worker_utilization"] == pytest.approx(1.0)

    def test_hits_still_counted_as_jobs(self, mixed):
        assert mixed["jobs"] == 3
        assert mixed["computed"] == 2
        assert mixed["cache_hits"] == 1
        assert mixed["hit_rate"] == pytest.approx(1 / 3)
        assert mixed["records"] == 30
        assert mixed["wall_seconds"] == pytest.approx(3.0)
        assert mixed["workers"] == 2

    def test_hits_do_not_dilute_existing_averages(self):
        """Adding hits must leave every busy-time figure unchanged."""
        baseline = sweep_summary(feed([computed(2.0), computed(4.0)]))
        warmed = sweep_summary(
            feed([computed(2.0), computed(4.0), *[HIT] * 50])
        )
        for key in ("busy_seconds", "worker_utilization"):
            assert baseline[key] == pytest.approx(warmed[key]), key


class TestAllHitSweep:
    def test_fully_cached_sweep_reports_zero_busy(self):
        summary = sweep_summary(feed([HIT, HIT], wall=1.0))
        assert summary["busy_seconds"] == 0.0
        assert summary["worker_utilization"] == 0.0
        assert summary["hit_rate"] == 1.0


def test_untraced_summary_is_empty():
    """A tracer that saw no sweep reports no jobs and no time."""
    summary = sweep_summary(Tracer())
    assert summary["jobs"] == 0 and summary["hit_rate"] == 0.0
    assert summary["wall_seconds"] == 0.0
    assert summary["worker_utilization"] == 0.0

"""Resume: a killed sweep restarts from its finished quarters.

The result cache is the engine's one resume path: every job's result
is put the moment it finishes, so a rerun answers the finished
quarters from disk and computes only the rest.  Each case "kills" a
sweep by running only its first two quarters against the cache.
"""

import json

import pytest

from repro.engine.cache import ResultCache, job_digest
from repro.engine.jobs import build_jobs, clear_worker_state
from repro.engine.metrics import sweep_summary
from repro.engine.scheduler import ExecutionEngine
from repro.obs import Tracer, use_tracer
from repro.util.dates import utc_timestamp

from tests.engine.conftest import ENGINE_WORLD

QUARTERS = [
    (2004, 1, 2004.0),
    (2004, 4, 2004.25),
    (2004, 7, 2004.5),
    (2004, 10, 2004.75),
]


def sweep_jobs():
    return build_jobs(
        ENGINE_WORLD,
        utc_timestamp(2004, 1, 1),
        QUARTERS,
        with_stability=False,
    )


def traced_run(jobs, workers=1, cache=None):
    """Run ``jobs`` from a cold worker state; (results, summary)."""
    clear_worker_state()
    tracer = Tracer()
    with use_tracer(tracer):
        results = ExecutionEngine(jobs=workers, cache=cache).run(jobs)
    return results, sweep_summary(tracer)


@pytest.fixture(scope="module")
def uninterrupted():
    return traced_run(sweep_jobs())[0]


def assert_same_results(resumed, uninterrupted):
    assert [r.label for r in resumed] == [r.label for r in uninterrupted]
    for a, b in zip(resumed, uninterrupted):
        assert a.stats == b.stats
        assert a.formation_shares == b.formation_shares
        assert a.feed == b.feed
        assert a.record_count == b.record_count


def test_full_restore_from_checkpoint(tmp_path, uninterrupted):
    """A rerun of a finished sweep computes nothing."""
    cache = ResultCache(tmp_path)
    traced_run(sweep_jobs(), cache=cache)
    restored, summary = traced_run(sweep_jobs(), cache=cache)
    assert summary["cache_hits"] == len(QUARTERS)
    assert summary["computed"] == 0
    assert_same_results(restored, uninterrupted)


def killed_and_resumed(tmp_path, workers):
    """Kill a sweep after two of its four quarters, then rerun it."""
    jobs = sweep_jobs()
    cache = ResultCache(tmp_path)
    traced_run(jobs[:2], workers=workers, cache=cache)  # "killed" here
    return traced_run(jobs, workers=workers, cache=cache)


def test_partial_resume_continues_from_last_quarter(tmp_path, uninterrupted):
    """The rerun answers the two finished quarters from the cache,
    computes the other two, and equals an uninterrupted run."""
    resumed, summary = killed_and_resumed(tmp_path, workers=1)
    assert summary["cache_hits"] == 2
    assert summary["computed"] == 2
    assert_same_results(resumed, uninterrupted)


def test_parallel_resume_continues_from_last_quarter(tmp_path, uninterrupted):
    """The same kill and resume with two worker processes."""
    resumed, summary = killed_and_resumed(tmp_path, workers=2)
    assert summary["cache_hits"] == 2
    assert summary["computed"] == 2
    assert_same_results(resumed, uninterrupted)


def test_truncated_final_line_dropped(tmp_path, uninterrupted):
    """A torn entry for the last finished quarter loses only that
    quarter: it is recomputed, the other finished one is a hit."""
    jobs = sweep_jobs()
    cache = ResultCache(tmp_path)
    traced_run(jobs[:2], cache=cache)
    torn = cache._path(job_digest(jobs[1]))
    torn.write_bytes(torn.read_bytes()[:100])

    resumed, summary = traced_run(jobs, cache=cache)
    assert summary["cache_hits"] == 1
    assert summary["computed"] == 3
    assert_same_results(resumed, uninterrupted)


def test_unparseable_middle_line_skipped(tmp_path, uninterrupted):
    """An unparseable entry among good ones is skipped and rewritten."""
    jobs = sweep_jobs()
    cache = ResultCache(tmp_path)
    traced_run(jobs[:2], cache=cache)
    cache._path(job_digest(jobs[0])).write_text("not json at all\n")

    resumed, summary = traced_run(jobs, cache=cache)
    assert summary["cache_hits"] == 1
    assert summary["computed"] == 3
    assert_same_results(resumed, uninterrupted)
    assert cache.get(job_digest(jobs[0])) is not None


def test_log_lines_carry_labels(tmp_path):
    """Each entry names its quarter, so the cache shows which quarters
    a killed sweep finished."""
    cache = ResultCache(tmp_path)
    traced_run(sweep_jobs()[:2], cache=cache)
    labels = sorted(
        json.loads(path.read_text(encoding="utf-8"))["result"]["label"]
        for path in tmp_path.glob("*/*.json")
    )
    assert labels == ["2004-01", "2004-04"]

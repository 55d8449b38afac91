"""Batched fan-out and the missing-result guard.

``batch > 1`` ships chronological chunks of jobs per pool task; it must
be a pure throughput knob — results value-identical to ``jobs=1``.  The
scheduler must also refuse to return fewer results than jobs were
submitted (an engine bug, a worker that produced nothing) instead of
silently dropping slots.
"""

import pytest

from repro.engine.jobs import build_jobs, execute_snapshot_batch
from repro.engine.scheduler import EngineError, ExecutionEngine
from repro.util.dates import utc_timestamp

from tests.engine.conftest import ENGINE_WORLD
from tests.engine.test_scheduler import all_series, run_sweep


def two_quarter_jobs():
    return build_jobs(
        ENGINE_WORLD,
        utc_timestamp(2004, 1, 1),
        [(2004, 1, 2004.0), (2004, 4, 2004.25)],
        with_stability=False,
    )


class TestBatchedSweep:
    def test_batched_series_identical_to_serial(self):
        serial = run_sweep(jobs=1)
        batched = run_sweep(jobs=2, batch=2)
        for line_s, line_b in zip(all_series(serial), all_series(batched)):
            assert line_s.name == line_b.name
            assert line_s.points == line_b.points  # exact, not approx

    def test_batch_worker_returns_one_payload_per_job(self):
        jobs = two_quarter_jobs()
        payload = execute_snapshot_batch(jobs)
        assert len(payload["items"]) == len(jobs)
        assert isinstance(payload["worker"], int)
        for item in payload["items"]:
            assert item["seconds"] >= 0.0
            assert item["payload"]["label"]

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionEngine(batch=0)


class TestMissingResultGuard:
    def test_dropped_slots_raise_engine_error_with_labels(self, monkeypatch):
        """A sweep that produces nothing must name the missing jobs."""
        jobs = two_quarter_jobs()
        engine = ExecutionEngine(jobs=1)
        monkeypatch.setattr(
            engine, "_run_serial", lambda *args, **kwargs: None
        )
        with pytest.raises(EngineError) as excinfo:
            engine.run(jobs)
        message = str(excinfo.value)
        assert "2 of 2" in message
        for job in jobs:
            assert job.label in message

"""Parallel, cached, resumable execution engine for atom computations.

The engine turns snapshot-level atom computations into explicit,
content-addressed jobs:

* :mod:`repro.engine.jobs` — job specs, the worker entry point, and
  the persistable :class:`QuarterResult` summary;
* :mod:`repro.engine.scheduler` — :class:`ExecutionEngine`, fanning
  jobs across a process pool with deterministic result ordering;
* :mod:`repro.engine.cache` — the on-disk content-addressed cache,
  which is also how a killed sweep resumes;
* :mod:`repro.engine.checkpoint` — the live pipeline's window-boundary
  :class:`StreamCheckpoint` and the world-lineage
  :class:`WorldCheckpoint` snapshots;
* :mod:`repro.engine.metrics` — the sweep summary, read from the
  tracer's engine spans and counters.

See ``docs/engine.md`` for the architecture and the cache-key scheme.
"""

from repro.engine.cache import CACHE_SALT, ResultCache, job_digest
from repro.engine.checkpoint import (
    StreamCheckpoint,
    StreamCheckpointError,
    WorldCheckpoint,
)
from repro.engine.jobs import (
    QuarterResult,
    SnapshotJob,
    build_jobs,
    clear_worker_state,
    execute_snapshot_batch,
    execute_snapshot_job,
    suite_times,
)
from repro.engine.metrics import sweep_summary
from repro.engine.scheduler import EngineError, ExecutionEngine

__all__ = [
    "CACHE_SALT",
    "EngineError",
    "ExecutionEngine",
    "QuarterResult",
    "ResultCache",
    "SnapshotJob",
    "StreamCheckpoint",
    "StreamCheckpointError",
    "WorldCheckpoint",
    "build_jobs",
    "clear_worker_state",
    "execute_snapshot_batch",
    "execute_snapshot_job",
    "job_digest",
    "suite_times",
    "sweep_summary",
]

"""The sweep summary, read from the tracer.

:class:`~repro.engine.scheduler.ExecutionEngine` reports every sweep
to the current tracer: one ``engine-sweep`` span (attrs ``jobs``,
``workers``), one ``engine-job`` span per job (attr ``source``:
``computed`` or ``cache``) and the ``engine.jobs.<source>`` and
``engine.records`` counters.  :func:`sweep_summary` rolls those up into
the figures the CLI's ``--progress`` line and the engine benchmark
print; nothing else records them a second time.
"""

from __future__ import annotations

from typing import Any, Dict, cast

from repro.obs.trace import Tracer

#: ``engine-job`` span sources, also the ``engine.jobs.<source>`` names
SOURCE_COMPUTED = "computed"
SOURCE_CACHE = "cache"


def sweep_summary(tracer: Tracer) -> Dict[str, Any]:
    """Job counts, records and worker time of every sweep ``tracer`` saw.

    Busy seconds and utilization cover *computed* jobs only: a cache
    hit is answered at submission, occupies no worker, and would drag
    both toward zero on a warm sweep.
    """
    sweeps = [span for span in tracer.spans if span.name == "engine-sweep"]
    busy = sum(
        span.seconds
        for span in tracer.spans
        if span.name == "engine-job"
        and span.attrs.get("source") == SOURCE_COMPUTED
    )
    wall = sum(span.seconds for span in sweeps)
    workers = cast(int, sweeps[-1].attrs["workers"]) if sweeps else 1
    computed = tracer.counters.get(f"engine.jobs.{SOURCE_COMPUTED}", 0)
    cache_hits = tracer.counters.get(f"engine.jobs.{SOURCE_CACHE}", 0)
    jobs = computed + cache_hits
    return {
        "jobs": jobs,
        "computed": computed,
        "cache_hits": cache_hits,
        "hit_rate": 1.0 - computed / jobs if jobs else 0.0,
        "records": tracer.counters.get("engine.records", 0),
        "busy_seconds": busy,
        "wall_seconds": wall,
        "workers": workers,
        "worker_utilization": (
            min(1.0, busy / (wall * workers)) if wall > 0 else 0.0
        ),
    }

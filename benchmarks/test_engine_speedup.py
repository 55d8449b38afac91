"""Engine throughput: serial vs parallel vs cached sweep timings.

Not a paper experiment — this records how the execution engine behaves
on the current machine so regressions (and wins on multi-core boxes)
show up in benchmark runs.  No speedup is *asserted*: on a single-core
container the process pool is pure overhead and the honest numbers say
so; the recorded table is the artifact.
"""

import os
import time

from benchmarks.conftest import emit
from repro.engine.cache import ResultCache
from repro.engine.jobs import build_jobs, clear_worker_state
from repro.engine.metrics import sweep_summary
from repro.engine.scheduler import ExecutionEngine
from repro.obs import Tracer, use_tracer
from repro.topology.evolution import WorldParams
from repro.util.dates import utc_timestamp

#: ``REPRO_BENCH_SMOKE=1`` shrinks the sweep to a CI-sized fixture.
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

SPEEDUP_WORLD = WorldParams(
    seed=20250806,
    as_scale=1 / (400.0 if SMOKE else 300.0),
    prefix_scale=1 / (400.0 if SMOKE else 300.0),
    peer_scale=0.04,
    collector_scale=0.3,
    min_fullfeed_peers=8,
)

SWEEP_YEARS = list(range(2004, 2006 if SMOKE else 2013))


def sweep_jobs():
    quarters = [(year, 1, float(year)) for year in SWEEP_YEARS]
    return build_jobs(
        SPEEDUP_WORLD,
        utc_timestamp(SWEEP_YEARS[0], 1, 1),
        quarters,
        with_stability=True,
    )


def timed_run(workers, cache=None):
    clear_worker_state()
    tracer = Tracer()
    engine = ExecutionEngine(jobs=workers, cache=cache)
    started = time.perf_counter()
    with use_tracer(tracer):
        results = engine.run(sweep_jobs())
    elapsed = time.perf_counter() - started
    return results, elapsed, sweep_summary(tracer)


def test_engine_speedup(tmp_path):
    serial_results, serial_s, serial_m = timed_run(1)
    parallel_results, parallel_s, parallel_m = timed_run(4)

    cache = ResultCache(tmp_path / "cache")
    _, cold_s, _ = timed_run(1, cache=cache)
    cached_results, cached_s, cached_m = timed_run(1, cache=cache)

    lines = [
        f"Execution engine: {SWEEP_YEARS[0]}-{SWEEP_YEARS[-1]} yearly sweep "
        f"({len(SWEEP_YEARS)} quarters, stability suites)",
        "=" * 72,
        f"host CPUs: {os.cpu_count()}",
        "",
        f"{'mode':<22}{'wall (s)':>10}{'computed':>10}{'reuse':>8}"
        f"{'utilization':>13}",
        "-" * 63,
        f"{'serial (jobs=1)':<22}{serial_s:>10.2f}"
        f"{serial_m['computed']:>10}{serial_m['hit_rate']:>8.0%}"
        f"{serial_m['worker_utilization']:>13.0%}",
        f"{'parallel (jobs=4)':<22}{parallel_s:>10.2f}"
        f"{parallel_m['computed']:>10}{parallel_m['hit_rate']:>8.0%}"
        f"{parallel_m['worker_utilization']:>13.0%}",
        f"{'cached rerun (jobs=1)':<22}{cached_s:>10.2f}"
        f"{cached_m['computed']:>10}{cached_m['hit_rate']:>8.0%}"
        f"{cached_m['worker_utilization']:>13.0%}",
        "",
        f"parallel/serial wall ratio: {parallel_s / serial_s:.2f}x",
        f"cached/cold wall ratio:     {cached_s / cold_s:.3f}x",
    ]
    emit("engine_speedup", "\n".join(lines))

    # Correctness invariants (always asserted; timing never is).
    assert len(parallel_results) == len(serial_results)
    for a, b in zip(serial_results, parallel_results):
        assert a.stats == b.stats and a.stability == b.stability
    assert cached_m["hit_rate"] == 1.0
    for a, b in zip(serial_results, cached_results):
        assert a.stats == b.stats

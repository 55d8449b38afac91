"""Benchmark command: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` directory.  Every time metric is the fastest of several
repetitions inside the run, each repetition starting from fresh program
objects, scaled to a reference host speed by a fixed loop timed just
before and just after it: this host's speed switches by tens of percent
for minutes at a time, which no choice of repetition removes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs
the per-layer wrappers (:mod:`perfbench.layers`), prints the per-layer
metrics and writes the spans to ``.perfbench_spans/<workload>-<seed>*``.
``--smoke`` runs reduced inputs (the self-test's scale).  See
``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
clock = time.monotonic

#: repetitions every run makes, however long each takes
MIN_REPETITIONS = 2
#: operation outputs kept after a repetition's checks
EXTRA_KEYS = ("window", "latencies", "hits", "checkpoint_bytes")
#: fixed pure-Python loop timed as ``host.probe_ms``
PROBE_LOOP = 100_000
#: probe time of this loop on the reference host, in its fast state
PROBE_REFERENCE_MS = 7.0


def scaled(seconds: float, probe_ms: float) -> float:
    """``seconds`` at the reference host speed (see README, Steadiness)."""
    return seconds * PROBE_REFERENCE_MS / probe_ms


def host_probe_ms(calls: int = 5) -> float:
    """Fastest of ``calls`` runs of a fixed loop, in milliseconds."""
    best = float("inf")
    for _ in range(calls):
        started = time.perf_counter()
        total = 0
        for value in range(PROBE_LOOP):
            total += value * value
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


class Tracing:
    """Layer wrappers plus the program's own tracer, per repetition."""

    def __init__(self) -> None:
        from perfbench.layers import SpanRecorder

        self.recorder = SpanRecorder()
        self.installation = None
        self._begun: Optional[Tuple[int, Counter, Any, Any]] = None

    def install(self) -> None:
        from perfbench.layers import install

        self.installation = install(self.recorder)
        for target in self.installation.missing:
            print(f"perfbench: no layer target {target}", file=sys.stderr)

    def remove(self) -> None:
        if self.installation is not None:
            self.installation.remove()
            self.installation = None

    def begin(self) -> None:
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        scope = use_tracer(tracer)
        scope.__enter__()
        start, counts = self.recorder.mark()
        self._begun = (start, counts, tracer, scope)

    def end(self) -> Dict[str, Any]:
        assert self._begun is not None
        start, counts, tracer, scope = self._begun
        scope.__exit__(None, None, None)
        self._begun = None
        until, now = self.recorder.mark()
        return {
            "times": self.recorder.self_times(start, until),
            "counts": now - counts,
            "program": Counter(tracer.counters),
        }


def _merge(*segments: Dict[str, Any]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {"times": Counter(), "counts": Counter(),
                              "program": Counter()}
    for segment in segments:
        for key in merged:
            merged[key].update(segment[key])
    return merged


def repeat(workload, budget: float, tracing: Optional[Tracing] = None
           ) -> List[Dict[str, Any]]:
    """Repetitions until ``budget`` seconds are used (whole ones only).

    A repetition starts only if the fastest one so far would still end
    inside the budget, and every run makes at least
    :data:`MIN_REPETITIONS`.
    """
    reps: List[Dict[str, Any]] = []
    started = clock()
    while True:
        gc.collect()
        if tracing is not None:
            tracing.begin()
        setup_s = None
        state = None
        before = host_probe_ms()
        if workload.per_repetition_setup:
            began = clock()
            state = workload.setup()
            setup_s = clock() - began
        began = clock()
        output = workload.operation(state)
        op_s = clock() - began
        probe = (before + host_probe_ms()) / 2
        segment = tracing.end() if tracing is not None else None
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdict = workload.verify(output)
        reps.append({"setup_s": setup_s, "op_s": op_s, "verdict": verdict,
                     "probe_ms": probe, "segment": segment, "rss_mb": rss_mb,
                     "extra": {k: output[k] for k in EXTRA_KEYS if k in output}})
        workload.release(output)
        fastest = min(rep["op_s"] + (rep["setup_s"] or 0.0) for rep in reps)
        if (len(reps) >= MIN_REPETITIONS
                and clock() - started + fastest > budget):
            return reps


def _totals(reps: List[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    attempted = sum(rep["verdict"].attempted for rep in reps)
    failed = sum(rep["verdict"].failed for rep in reps)
    problems = [p for rep in reps for p in rep["verdict"].problems]
    return attempted, failed, problems


def _setups(workload, count: int) -> List[Tuple[float, float]]:
    """(seconds, probe ms) of ``count`` set-ups.

    The previous set-up's server and files are removed before the clock
    starts, so a set-up's time holds no teardown.
    """
    times = []
    for _ in range(count):
        workload.teardown()
        gc.collect()
        before = host_probe_ms()
        began = clock()
        workload.setup()
        seconds = clock() - began
        times.append((seconds, (before + host_probe_ms()) / 2))
    return times


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def layer_metrics(segment: Dict[str, Any], extra: Dict[str, float]
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from a merged trace segment."""
    from perfbench.layers import SELF_TIME_METRICS

    times, counts, program = (segment["times"], segment["counts"],
                              segment["program"])
    metrics: Dict[str, Tuple[float, str]] = {
        metric: (float(times.get(span, 0.0)), "s")
        for span, metric in SELF_TIME_METRICS.items()
    }
    calls = "calls:repro.simulation.routing:"
    counted = {
        "simulation.route_lookups": counts.get(calls + "PropagationEngine.routes", 0),
        "simulation.propagations": counts.get(calls + "propagate", 0),
        "simulation.records": counts.get("simulation.records", 0),
        "events.events": program.get("sim.events", 0),
        "events.messages": program.get("sim.messages", 0),
        "core.prefixes_kept": program.get("sanitize.prefixes_kept", 0),
        "core.normalise_hits": program.get("atoms.normalise_cache_hits", 0),
        "core.normalise_misses": program.get("atoms.normalise_cache_misses", 0),
        "core.dirty_refreshed": program.get("incremental.dirty_refreshed", 0),
        "core.key_changes": program.get("live.key_changes", 0),
        "stream.records": counts.get("stream.records", 0),
        "live.late_records": program.get("live.late_records", 0),
        "store.bytes_written": program.get("store.bytes_written", 0),
    }
    for name, value in counted.items():
        metrics[name] = (float(value), "count")
    metrics["store.bytes_written"] = (metrics["store.bytes_written"][0], "bytes")
    defaults = {
        "live.checkpoint_bytes": "bytes", "serve.requests": "count",
        "serve.cache_hits": "count", "serve.latency_samples": "count",
        "serve.p50_ms": "ms", "serve.p99_ms": "ms",
        "obs.overhead_s": "s", "host.probe_ms": "ms",
    }
    for name, unit in defaults.items():
        metrics[name] = (float(extra.get(name, 0.0)), unit)
    return metrics


def end_to_end(reps: List[Dict[str, Any]], setups: List[Tuple[float, float]],
               rss_mb: float) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics, times at the reference host speed."""
    fastest = min(reps, key=lambda rep: scaled(rep["op_s"], rep["probe_ms"]))
    setup = statistics.median(scaled(s, p) for s, p in setups)
    print(f"perfbench: {len(reps)} repetitions, seconds (probe ms): "
          + " ".join(f"{rep['op_s']:.4f} ({rep['probe_ms']:.2f})" for rep in reps)
          + f"; fastest measured {min(rep['op_s'] for rep in reps):.4f} s; "
          f"set-ups: " + " ".join(f"{s:.4f} ({p:.2f})" for s, p in setups),
          file=sys.stderr)
    return {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_s": (scaled(fastest["op_s"], fastest["probe_ms"]), "s"),
    }


def run_in_process(workload, seconds: float, setups: int, trace: bool
                   ) -> Dict[str, Any]:
    """sweep, live and converge: the program runs in this process."""
    if not trace:
        setup_times: List[Tuple[float, float]] = []
        if not workload.per_repetition_setup:
            setup_times = _setups(workload, setups)
        reps = repeat(workload, seconds)
        if workload.per_repetition_setup:
            setup_times = [(rep["setup_s"], rep["probe_ms"]) for rep in reps]
        attempted, failed, problems = _totals(reps)
        return {
            "attempted": attempted, "failed": failed, "problems": problems,
            "metrics": end_to_end(reps, setup_times, reps[0]["rss_mb"]),
        }

    probe = host_probe_ms()
    tracing = Tracing()
    setup_segment = None
    if not workload.per_repetition_setup:
        tracing.install()
        tracing.begin()
        workload.setup()
        setup_segment = tracing.end()
        tracing.remove()
    plain = repeat(workload, seconds / 2)
    tracing.install()
    try:
        traced = repeat(workload, seconds / 2, tracing)
    finally:
        tracing.remove()
    best = min(traced, key=lambda rep: rep["op_s"])
    print("perfbench: untraced " + " ".join(f"{rep['op_s']:.4f}" for rep in plain)
          + "; traced " + " ".join(f"{rep['op_s']:.4f}" for rep in traced),
          file=sys.stderr)
    segment = best["segment"] if setup_segment is None else _merge(
        setup_segment, best["segment"])
    extra = {
        "obs.overhead_s": best["op_s"] - min(rep["op_s"] for rep in plain),
        "host.probe_ms": min(probe, host_probe_ms()),
    }
    if workload.name == "live":
        extra["live.checkpoint_bytes"] = best["extra"].get("checkpoint_bytes", 0)
    attempted, failed, problems = _totals(plain + traced)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": layer_metrics(segment, extra), "tracing": tracing}


def _pass_metrics(reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    best = min(reps, key=lambda rep: rep["op_s"])
    latencies = [seconds * 1000.0 for seconds in best["extra"]["latencies"]]
    return {"best": best, "p50": statistics.median(latencies),
            "p99": _percentile(latencies, 0.99), "samples": len(latencies)}


def run_serve(workload, seconds: float, setups: int, trace: bool,
              work: Path) -> Dict[str, Any]:
    """serve: ``repro serve`` is a child process; this one is the client."""
    try:
        if not trace:
            setup_times = _setups(workload, setups)
            workload.prepare()
            reps = repeat(workload, seconds)
            rss = workload.server.peak_rss_mb()
            attempted, failed, problems = _totals(reps)
            print(f"perfbench: {len(workload.paths)} requests per pass; cache "
                  "hits per pass: " + " ".join(str(rep["extra"]["hits"])
                                              for rep in reps),
                  file=sys.stderr)
            return {
                "attempted": attempted, "failed": failed, "problems": problems,
                "metrics": end_to_end(reps, setup_times, rss),
            }

        from perfbench.layers import SpanRecorder

        probe = host_probe_ms()
        tracing = Tracing()
        tracing.install()
        tracing.begin()
        workload.setup()
        setup_segment = tracing.end()
        tracing.remove()
        workload.prepare()
        plain = repeat(workload, seconds / 2)
        spans = work / "serve-spans.jsonl"
        workload.restart(spans)
        traced = repeat(workload, seconds / 2)
        workload.close()
        server = SpanRecorder.load(spans)
        fast = _pass_metrics(plain)
        best = min(traced, key=lambda rep: rep["op_s"])
        print("perfbench: untraced passes "
              + " ".join(f"{rep['op_s']:.4f}" for rep in plain)
              + "; traced passes " + " ".join(f"{rep['op_s']:.4f}" for rep in traced),
              file=sys.stderr)
        startup = [i for i, span in enumerate(server.spans)
                   if span[0] == "store.open"]
        times = Counter(server.self_times(window=best["extra"]["window"]))
        if startup:
            times.update(server.self_times(startup[0], startup[-1] + 1))
        segment = _merge(setup_segment, {"times": times, "counts": Counter(),
                                         "program": Counter()})
        extra = {
            "obs.overhead_s": best["op_s"] - fast["best"]["op_s"],
            "host.probe_ms": min(probe, host_probe_ms()),
            "serve.requests": len(workload.paths),
            "serve.cache_hits": fast["best"]["extra"]["hits"],
            "serve.latency_samples": fast["samples"],
            "serve.p50_ms": fast["p50"],
            "serve.p99_ms": fast["p99"],
        }
        attempted, failed, problems = _totals(plain + traced)
        return {"attempted": attempted, "failed": failed, "problems": problems,
                "metrics": layer_metrics(segment, extra), "tracing": tracing,
                "server": server}
    finally:
        workload.close()


def export_spans(result: Dict[str, Any], path: Path) -> None:
    """Write the in-memory spans of a traced run as JSON lines."""
    result["tracing"].recorder.export(path)
    server = result.get("server")
    if server is not None:
        server.export(path.with_name(path.stem + "-serve" + path.suffix))


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "live", "serve", "converge"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs and one set-up (self-test)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # The work, the `repro serve` child and the host probe share one
    # CPU, so the probe times the CPU the work ran on (README, Steadiness).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # SIGTERM unwinds like an error: the serve child is stopped, the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro.cli  # noqa: F401  (load every layer before wrapping)

    from perfbench.workloads import FULL, SMOKE, build

    scale = SMOKE if args.smoke else FULL
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = build(args.workload, args.seed, work, scale, ROOT)
        if args.workload == "serve":
            result = run_serve(workload, args.seconds, scale.setups,
                               bool(args.trace), work)
        else:
            result = run_in_process(workload, args.seconds, scale.setups,
                                    bool(args.trace))
        if args.trace:
            spans = ROOT / ".perfbench_spans"
            spans.mkdir(exist_ok=True)
            export_spans(result, spans / f"{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for problem in result["problems"][:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

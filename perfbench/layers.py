"""Per-layer attribution for the traced run.

The benchmark wraps the public entry points of each program layer
(:data:`TARGETS`) with spans recorded in memory by a
:class:`SpanRecorder`.  A layer metric is the *self time* of its spans:
each span's duration minus the spans of wrapped calls made inside it,
so a sweep's ``core.sanitize_s`` never also counts the rendering that
feeds it.

Generators (RIB rendering, archive decoding) are timed per ``next()``
call only.  The program's own ``mrt-decode`` span wraps a lazily
consumed generator, so its interval also covers the consumer's work
between records; timing ``next()`` keeps that work with the consumer.

Spans opened by a thread with no open span of its own (the live
pipeline's shard worker) are parented to the main thread's innermost
open span.  The coordinator blocks at each window barrier while the
worker refreshes, so subtracting the worker's spans from the
coordinator's interval removes time it spent waiting for that work.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

clock = time.monotonic

#: (module, attribute path, span name or None, item counter or None).
#: A span name of None installs a call counter without a span.  The
#: attribute path names a module-level function or a ``Class.method``.
TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[str]], ...] = (
    ("repro.topology.world", "World.advance_to", "topology.advance", None),
    ("repro.simulation.routing", "PropagationEngine.routes",
     "simulation.routes", None),
    ("repro.simulation.routing", "propagate", None, None),
    ("repro.simulation.snapshot", "render_rib_records",
     "simulation.render", "simulation.records"),
    ("repro.simulation.events", "ConvergenceRun.run_to_quiescence",
     "events.run", None),
    ("repro.simulation.events", "ConvergenceRun.run_until", "events.run", None),
    ("repro.simulation.events", "quiescence_parity", "events.parity", None),
    ("repro.core.sanitize", "sanitize", "core.sanitize", None),
    ("repro.core.atoms", "compute_atoms", "core.atoms", None),
    ("repro.core.stability", "stability_pair", "core.stability", None),
    ("repro.core.formation", "formation_distances", "core.formation", None),
    ("repro.core.incremental", "AtomIndex.refresh", "core.refresh", None),
    ("repro.core.incremental", "AtomIndex.refresh_delta", "core.refresh", None),
    ("repro.stream.archive", "RecordArchive.records",
     "stream.decode", "stream.records"),
    ("repro.stream.live", "LivePipeline.run", "live.window", None),
    ("repro.stream.live", "LivePipeline._check_parity", "live.parity", None),
    ("repro.stream.live", "LivePipeline._save_checkpoint",
     "live.checkpoint", None),
    ("repro.engine.scheduler", "ExecutionEngine.run", "engine.run", None),
    ("repro.engine.jobs", "execute_snapshot_job", "engine.job", None),
    ("repro.store.writer", "write_part", "store.write", None),
    ("repro.store.writer", "merge_parts", "store.write", None),
    ("repro.store.reader", "AtomStore.__init__", "store.open", None),
    ("repro.store.reader", "AtomStore.query", "store.query", None),
    ("repro.store.reader", "AtomStore.atoms", "store.atoms", None),
    ("repro.serve.http", "AtomServer._respond", "serve.service", None),
    ("repro.serve.http", "encode_body", "serve.encode", None),
    ("repro.serve.http", "etag_for", "serve.encode", None),
    ("repro.serve.service", "AtomQueryService.prefix_query",
     "serve.payload", None),
    ("repro.serve.service", "AtomQueryService.atom_query",
     "serve.payload", None),
    ("repro.serve.service", "AtomQueryService.stats", "serve.payload", None),
)

#: Span name -> reported metric (self seconds).  ``engine.job`` spans
#: are recorded only so that ``engine.overhead_s`` excludes the jobs.
SELF_TIME_METRICS: Dict[str, str] = {
    "topology.advance": "topology.advance_s",
    "simulation.routes": "simulation.routes_s",
    "simulation.render": "simulation.render_s",
    "events.run": "events.run_s",
    "events.parity": "events.parity_s",
    "core.sanitize": "core.sanitize_s",
    "core.atoms": "core.atoms_s",
    "core.stability": "core.stability_s",
    "core.formation": "core.formation_s",
    "core.refresh": "core.refresh_s",
    "stream.decode": "stream.decode_s",
    "live.window": "live.window_s",
    "live.parity": "live.parity_s",
    "live.checkpoint": "live.checkpoint_s",
    "engine.run": "engine.overhead_s",
    "store.write": "store.write_s",
    "store.open": "store.open_s",
    "store.query": "store.query_s",
    "store.atoms": "store.atoms_s",
    "serve.service": "serve.service_s",
    "serve.encode": "serve.encode_s",
    "serve.payload": "serve.payload_s",
}


class SpanRecorder:
    """In-memory spans (name, start, end, parent) and counts."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: List[int] = []

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, clock(), None, parent])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def mark(self) -> Tuple[int, Counter]:
        """A position to later take the spans and counts recorded since."""
        with self._lock:
            return len(self.spans), Counter(self.counts)

    def self_times(self, since: int = 0, until: Optional[int] = None,
                   window: Optional[Tuple[float, float]] = None
                   ) -> Dict[str, float]:
        """Self seconds per span name over ``spans[since:until]``.

        ``window`` keeps only spans that started inside that clock
        interval (the serve process's spans during one client pass).
        """
        spans = self.spans[since:until]
        child_time: Dict[int, float] = {}
        for _name, start, end, parent in spans:
            if end is None or parent < 0:
                continue
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: Dict[str, float] = {}
        for offset, (name, start, end, _parent) in enumerate(spans):
            if end is None:
                continue
            if window is not None and not window[0] <= start <= window[1]:
                continue
            own = (end - start) - child_time.get(since + offset, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def export(self, path: Path) -> None:
        """Write spans and counts as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent,
                }) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    @classmethod
    def load(cls, path: Path) -> "SpanRecorder":
        recorder = cls()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                if "counts" in row:
                    recorder.counts.update(row["counts"])
                else:
                    recorder.spans.append(
                        [row["name"], row["start"], row["end"], row["parent"]]
                    )
        return recorder


def _timed_iterator(recorder: SpanRecorder, name: str, iterator: Iterator,
                    counter: Optional[str]) -> Iterator:
    """Re-yield ``iterator``, spanning only the time inside ``next()``."""
    try:
        while True:
            index = recorder.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.close(index)
            if counter is not None:
                recorder.count(counter)
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


def _wrap(recorder: SpanRecorder, original: Callable, span: Optional[str],
          counter: Optional[str], call_counter: str) -> Callable:
    def wrapper(*args, **kwargs):
        recorder.count(call_counter)
        if span is None:
            return original(*args, **kwargs)
        index = recorder.open(span)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if counter is not None and hasattr(result, "__next__"):
            return _timed_iterator(recorder, span, result, counter)
        return result

    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(original, "__name__", "wrapped")
    return wrapper


class Installation:
    """The wrappers currently installed; :meth:`remove` restores all."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every :data:`TARGETS` entry; returns the undo handle.

    A module-level function is replaced in its own module and in every
    ``repro`` module that imported it by name.  A target that no longer
    exists is listed in ``missing`` and reads as zero.
    """
    done = Installation()
    for module_name, path, span, counter in TARGETS:
        try:
            module = importlib.import_module(module_name)
            owner: Any = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attribute = parts[-1]
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            done.missing.append(f"{module_name}:{path}")
            continue
        call_counter = f"calls:{module_name}:{path}"
        wrapper = _wrap(recorder, original, span, counter, call_counter)
        if owner is module:
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not name.startswith(("repro", "perfbench")):
                    continue
                if getattr(loaded, attribute, None) is original:
                    done._undo.append((loaded, attribute, original))
                    setattr(loaded, attribute, wrapper)
        else:
            done._undo.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
    return done

"""Spans, counters, and the tracer they land on.

One :class:`Tracer` instance observes one pipeline run.  Instrumented
code asks :func:`repro.obs.get_tracer` for the current tracer and

* opens a :meth:`~Tracer.span` around a timed stage (a context
  manager; spans nest, forming the run's call tree),
* bumps named :meth:`~Tracer.count` counters (cheap integers —
  records decoded, cache hits, prefixes dropped), or
* :meth:`~Tracer.record_span`-s a stage that was timed elsewhere
  (e.g. inside a pool worker that only shipped the duration home).

The default tracer is the :class:`NullTracer` singleton: every
operation is a no-op, so untraced runs pay one attribute lookup and a
call per instrumentation point and produce byte-identical output.

Timing uses a single monotonic clock (``time.perf_counter``) anchored
at tracer creation, so span intervals are mutually comparable; the
export carries the wall-clock anchor separately.  See
``docs/observability.md`` for the JSONL schema.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import IO, Dict, Iterable, Iterator, List, Optional, Union

#: Schema version of the JSONL export; bump on breaking changes.
TRACE_VERSION = 1


@dataclass
class SpanRecord:
    """One completed (or still open) span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    #: counter increments attributed to this span while it was innermost
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_json(self) -> Dict[str, object]:
        """The span as a JSON-safe dict (one ``span`` JSONL line)."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "attrs": self.attrs,
            "counters": self.counters,
        }


class Span:
    """Handle for an open span: a context manager with attribute setters."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self._record = record

    def set(self, **attrs: object) -> "Span":
        """Attach attributes to the span (merged into existing ones)."""
        self._record.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close(self._record)


class _NullSpan:
    """Shared no-op stand-in for :class:`Span`."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: observes nothing, costs (almost) nothing."""

    __slots__ = ()

    enabled = False

    def span(self, name: str, **attrs: object) -> _NullSpan:
        """No-op; returns the shared null span."""
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        """No-op."""
        return None

    def record_span(self, name: str, seconds: float, **attrs: object) -> None:
        """No-op."""
        return None


#: Module-level singleton; ``repro.obs.get_tracer`` hands it out.
NULL_TRACER = NullTracer()


class Tracer:
    """Recording tracer: collects spans and counters for one run."""

    enabled = True

    def __init__(self) -> None:
        self.created_unix = time.time()
        self._origin = time.perf_counter()
        #: completed spans, in close order
        self.spans: List[SpanRecord] = []
        #: global counter totals
        self.counters: Dict[str, int] = {}
        self._stack: List[SpanRecord] = []
        self._next_id = 1

    # -- clock ----------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    # -- spans ----------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        """Open a nested span; close it by exiting the context."""
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            start=self._now(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(record)
        return Span(self, record)

    def _close(self, record: SpanRecord) -> None:
        record.end = self._now()
        # Spans close LIFO in straight-line code; a generator-held span
        # abandoned mid-iteration may close late, so tolerate any
        # stack position instead of asserting the top.
        try:
            self._stack.remove(record)
        except ValueError:
            pass
        self.spans.append(record)

    def record_span(self, name: str, seconds: float, **attrs: object) -> SpanRecord:
        """Record an already-timed stage as a completed span.

        The span is parented to the currently open span and placed so
        that it *ends* now — the shape parallel workers need when only
        the duration crossed the process boundary.
        """
        end = self._now()
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            start=end - max(0.0, seconds),
            end=end,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(record)
        return record

    # -- counters -------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (and to the innermost span's)."""
        self.counters[name] = self.counters.get(name, 0) + n
        if self._stack:
            span_counters = self._stack[-1].counters
            span_counters[name] = span_counters.get(name, 0) + n

    # -- export ---------------------------------------------------------

    def lines(self) -> Iterator[Dict[str, object]]:
        """The export, as JSON-safe dicts (one per JSONL line)."""
        yield {
            "type": "meta",
            "version": TRACE_VERSION,
            "created_unix": self.created_unix,
            "spans": len(self.spans),
            "counters": len(self.counters),
        }
        for record in sorted(self.spans, key=lambda r: (r.start, r.span_id)):
            yield record.to_json()
        for name in sorted(self.counters):
            yield {"type": "counter", "name": name, "value": self.counters[name]}

    def export(self, target: Union[str, os.PathLike, IO[str]]) -> None:
        """Write the JSONL export to a path or an open text stream."""
        if hasattr(target, "write"):
            stream: IO[str] = target  # type: ignore[assignment]
            for line in self.lines():
                stream.write(json.dumps(line, separators=(",", ":")) + "\n")
            return
        with open(os.fspath(target), "w", encoding="utf-8") as handle:
            for line in self.lines():
                handle.write(json.dumps(line, separators=(",", ":")) + "\n")


TracerLike = Union[Tracer, NullTracer]

# ----------------------------------------------------------------------
# Current-tracer management
# ----------------------------------------------------------------------

_current: TracerLike = NULL_TRACER


def get_tracer() -> TracerLike:
    """The tracer instrumented code should report to (NullTracer by
    default)."""
    return _current


def set_tracer(tracer: TracerLike) -> TracerLike:
    """Install ``tracer`` as current; returns the previous one."""
    global _current
    previous = _current
    _current = tracer
    return previous


class use_tracer:
    """Context manager installing a tracer for the enclosed block."""

    def __init__(self, tracer: TracerLike):
        self.tracer = tracer
        self._previous: Optional[TracerLike] = None

    def __enter__(self) -> TracerLike:
        self._previous = set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc_info: object) -> None:
        set_tracer(self._previous if self._previous is not None else NULL_TRACER)


# ----------------------------------------------------------------------
# Ingest helper
# ----------------------------------------------------------------------

def traced_records(
    records: Iterable,
    source: str,
    tracer: Optional[TracerLike] = None,
) -> Iterator:
    """Wrap a route-record iterable in a ``mrt-decode`` stage span.

    The span opens lazily on first consumption and closes when the
    iterable is exhausted (or the generator is discarded), counting
    ``decode.records`` and ``decode.corrupt_records`` on the way
    through.  With the NullTracer current this adds one truthiness
    check per record and yields the records unchanged.
    """
    active = tracer if tracer is not None else get_tracer()
    if not active.enabled:
        yield from records
        return
    produced = 0
    corrupt = 0
    with active.span("mrt-decode", source=source) as span:
        try:
            for record in records:
                produced += 1
                if getattr(record, "is_corrupt", False):
                    corrupt += 1
                yield record
        finally:
            span.set(records=produced, corrupt_records=corrupt)
            active.count("decode.records", produced)
            if corrupt:
                active.count("decode.corrupt_records", corrupt)

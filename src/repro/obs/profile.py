"""Trace-file analysis: load, validate, and roll up exported traces.

The functions here consume the JSONL files :meth:`repro.obs.Tracer.export`
writes (see ``docs/observability.md``) and power both the
``repro profile`` command and the CI counter-regression gate — which is
why everything returns plain data structures rather than rendered text.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union


@dataclass
class TraceData:
    """One parsed trace export."""

    meta: Dict[str, object] = field(default_factory=dict)
    spans: List[Dict[str, object]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)


def _is_int(value: object) -> bool:
    """True for a JSON integer; ``true``/``false`` load as ``bool``, an
    ``int`` subclass, and are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return _is_int(value) or isinstance(value, float)


def _entry_problem(entry: object) -> Optional[str]:
    """Why one parsed line is not a well-shaped trace entry, or None.

    Checks every field the loader, :func:`validate_spans` and the
    rollups read, so a trace that loads never fails in them.
    """
    if not isinstance(entry, dict):
        return f"expected an object, got {type(entry).__name__}"
    kind = entry.get("type")
    if kind == "meta":
        return None
    if kind == "counter":
        if not isinstance(entry.get("name"), str):
            return "counter name is not a string"
        if not _is_int(entry.get("value")):
            return f"counter {entry['name']!r}: value is not an integer"
        return None
    if kind != "span":
        return f"unknown entry type {kind!r}"
    if not _is_int(entry.get("id")):
        return "span id is not an integer"
    label = f"span {entry['id']}"
    if not isinstance(entry.get("name"), str):
        return f"{label}: name is not a string"
    for key in ("start", "seconds"):
        if not _is_number(entry.get(key)):
            return f"{label}: {key} is not a number"
    end, parent = entry.get("end"), entry.get("parent")
    if end is not None and not _is_number(end):
        return f"{label}: end is neither a number nor null"
    if parent is not None and not _is_int(parent):
        return f"{label}: parent is neither an integer nor null"
    counters = entry.get("counters", {})
    if not isinstance(counters, dict) or not all(map(_is_int, counters.values())):
        return f"{label}: counters is not an object of integers"
    return None


def load_trace(source: Union[str, os.PathLike, IO[str]]) -> TraceData:
    """Parse a JSONL trace export.

    Raises ValueError (``line N: ...``) on a line that is not JSON or
    not a well-shaped entry.
    """
    if hasattr(source, "read"):
        lines = list(source)  # type: ignore[arg-type]
    else:
        with open(os.fspath(source), "r", encoding="utf-8") as handle:
            lines = list(handle)
    trace = TraceData()
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {number}: not JSON ({error})") from error
        problem = _entry_problem(entry)
        if problem is not None:
            raise ValueError(f"line {number}: {problem}")
        kind = entry["type"]
        if kind == "meta":
            trace.meta = entry
        elif kind == "span":
            trace.spans.append(entry)
        else:
            trace.counters[entry["name"]] = entry["value"]
    return trace


def validate_spans(spans: Iterable[Dict[str, object]]) -> List[str]:
    """Structural checks on exported spans; returns a list of problems.

    A well-formed trace has: every span closed (``end`` set), durations
    non-negative, every ``parent`` id resolving to a real span, each
    child's interval contained in its parent's (parents close after
    children).
    """
    problems: List[str] = []
    by_id: Dict[int, Dict[str, object]] = {}
    for span in spans:
        by_id[int(span["id"])] = span
    for span in by_id.values():
        label = f"span {span['id']} ({span['name']})"
        if span.get("end") is None:
            problems.append(f"{label}: never closed")
            continue
        start, end = float(span["start"]), float(span["end"])
        if end < start:
            problems.append(f"{label}: ends before it starts")
        parent_id = span.get("parent")
        if parent_id is None:
            continue
        parent = by_id.get(int(parent_id))
        if parent is None:
            problems.append(f"{label}: dangling parent {parent_id}")
            continue
        if parent.get("end") is None:
            continue  # already reported on the parent
        if float(parent["start"]) > start or float(parent["end"]) < end:
            problems.append(
                f"{label}: escapes parent span {parent['id']} "
                f"({parent['name']})"
            )
    return problems


@dataclass
class StageRollup:
    """Aggregate of every span sharing one name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    #: total minus time spent in child spans (any name)
    self_seconds: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)


def stage_rollups(spans: Iterable[Dict[str, object]]) -> List[StageRollup]:
    """Per-stage wall-time/counter aggregation, largest total first.

    Self time charges each span for its own interval minus the summed
    intervals of its direct children, so nested stages (decode inside
    sanitize inside an engine job) don't double-count.
    """
    spans = [span for span in spans if span.get("end") is not None]
    child_seconds: Dict[int, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            child_seconds[int(parent)] = (
                child_seconds.get(int(parent), 0.0) + float(span["seconds"])
            )
    rollups: Dict[str, StageRollup] = {}
    for span in spans:
        name = str(span["name"])
        rollup = rollups.setdefault(name, StageRollup(name))
        seconds = float(span["seconds"])
        rollup.count += 1
        rollup.total_seconds += seconds
        child_time = child_seconds.get(int(span["id"]), 0.0)
        rollup.self_seconds += max(0.0, seconds - child_time)
        for counter, value in (span.get("counters") or {}).items():
            rollup.counters[counter] = rollup.counters.get(counter, 0) + int(value)
    return sorted(rollups.values(), key=lambda r: (-r.total_seconds, r.name))


def profile_rows(trace: TraceData) -> List[Tuple[object, ...]]:
    """``repro profile`` stage-table rows: one per span name."""
    rows: List[Tuple[object, ...]] = []
    for rollup in stage_rollups(trace.spans):
        rows.append(
            (
                rollup.name,
                rollup.count,
                f"{rollup.total_seconds:.3f}",
                f"{rollup.self_seconds:.3f}",
            )
        )
    return rows


def counter_rows(
    trace: TraceData, prefix: Optional[str] = None
) -> List[Tuple[str, str]]:
    """``repro profile`` counter-table rows, sorted by name."""
    return [
        (name, f"{value:,}")
        for name, value in sorted(trace.counters.items())
        if prefix is None or name.startswith(prefix)
    ]

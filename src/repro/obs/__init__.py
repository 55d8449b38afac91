"""Pipeline-wide observability: tracing spans, counters, JSONL export.

``repro.obs`` is dependency-free (stdlib only) and sits below every
other subsystem: the MRT decoder, the sanitizer, atom computation, the
incremental index and the execution engine all report to the *current
tracer* (:func:`get_tracer`).  By default that is :data:`NULL_TRACER`,
whose operations are no-ops — untraced runs stay byte-identical and pay
one call per instrumentation point.

Typical use::

    from repro import obs

    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        run_pipeline()
    tracer.export("trace.jsonl")

``repro trend --trace trace.jsonl`` does exactly this around a sweep,
and ``repro profile trace.jsonl`` renders the per-stage rollup.  The
JSONL schema is documented in ``docs/observability.md``; CI's
counter-regression gate consumes the same files.
"""

from repro.obs.profile import (
    StageRollup,
    TraceData,
    counter_rows,
    load_trace,
    profile_rows,
    stage_rollups,
    validate_spans,
)
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_VERSION,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
    TracerLike,
    get_tracer,
    set_tracer,
    traced_records,
    use_tracer,
)

__all__ = [
    "NULL_TRACER",
    "TRACE_VERSION",
    "NullTracer",
    "Span",
    "SpanRecord",
    "StageRollup",
    "TraceData",
    "Tracer",
    "TracerLike",
    "counter_rows",
    "get_tracer",
    "load_trace",
    "profile_rows",
    "set_tracer",
    "stage_rollups",
    "traced_records",
    "use_tracer",
    "validate_spans",
]

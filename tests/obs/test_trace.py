"""Unit tests for the repro.obs tracing core."""

import io
import json

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    load_trace,
    set_tracer,
    stage_rollups,
    traced_records,
    use_tracer,
    validate_spans,
)


class TestSpans:
    def test_nested_spans_record_parentage(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None

    def test_span_intervals_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {span.name: span for span in tracer.spans}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert inner.seconds >= 0

    def test_span_attrs_via_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("stage", source="x") as span:
            span.set(records=7)
        (span,) = tracer.spans
        assert span.attrs == {"source": "x", "records": 7}

    def test_record_span_parents_to_open_span(self):
        tracer = Tracer()
        with tracer.span("sweep"):
            tracer.record_span("job", 1.5, label="a")
        job = next(s for s in tracer.spans if s.name == "job")
        sweep = next(s for s in tracer.spans if s.name == "sweep")
        assert job.parent_id == sweep.span_id
        assert job.seconds == pytest.approx(1.5)

    def test_abandoned_generator_span_tolerated(self):
        tracer = Tracer()

        def stage():
            with tracer.span("gen"):
                yield 1
                yield 2

        iterator = stage()
        next(iterator)
        with tracer.span("other"):
            iterator.close()  # closes "gen" while "other" is innermost
        names = [span.name for span in tracer.spans]
        assert set(names) == {"gen", "other"}
        assert all(span.end is not None for span in tracer.spans)


class TestCounters:
    def test_counts_aggregate_globally_and_per_span(self):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.count("records", 3)
        with tracer.span("b"):
            tracer.count("records", 2)
        tracer.count("records")  # outside any span
        assert tracer.counters == {"records": 6}
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["a"].counters == {"records": 3}
        assert by_name["b"].counters == {"records": 2}

    def test_counter_attributed_to_innermost_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.count("hits")
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["inner"].counters == {"hits": 1}
        assert by_name["outer"].counters == {}


class TestExport:
    def test_export_round_trips_through_load_trace(self):
        tracer = Tracer()
        with tracer.span("stage", source="test"):
            tracer.count("records", 5)
        buffer = io.StringIO()
        tracer.export(buffer)
        buffer.seek(0)
        trace = load_trace(buffer)
        assert trace.meta["version"] == 1
        assert trace.counters == {"records": 5}
        (span,) = trace.spans
        assert span["name"] == "stage"
        assert span["attrs"] == {"source": "test"}
        assert validate_spans(trace.spans) == []

    def test_export_is_valid_jsonl_on_disk(self, tmp_path):
        tracer = Tracer()
        with tracer.span("stage"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.export(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # meta + one span
        for line in lines:
            json.loads(line)

    def test_load_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            load_trace(path)

    @pytest.mark.parametrize("entry, problem", [
        ("[1, 2]", "expected an object, got list"),
        ('{"type": "counter", "value": 3}', "counter name is not a string"),
        ('{"type": "span", "name": "s", "start": 0.0, "seconds": 1.0}',
         "span id is not an integer"),
        ('{"type": "span", "id": 1, "name": "s", "start": 0.0}',
         "span 1: seconds is not a number"),
        ('{"type": "span", "id": 1, "name": "s", "start": 0.0, "end": 1.0,'
         ' "seconds": 1.0, "parent": "zz"}',
         "span 1: parent is neither an integer nor null"),
    ], ids=["list", "nameless-counter", "span-without-id",
            "span-without-seconds", "string-parent"])
    def test_load_trace_rejects_misshapen_entries(self, entry, problem):
        source = io.StringIO('{"type": "meta", "version": 1}\n' + entry + "\n")
        with pytest.raises(ValueError) as error:
            load_trace(source)
        assert str(error.value) == f"line 2: {problem}"

    def test_validate_flags_unclosed_and_escaping_spans(self):
        spans = [
            {"id": 1, "parent": None, "name": "open", "start": 0.0,
             "end": None, "seconds": 0.0},
            {"id": 2, "parent": None, "name": "parent", "start": 1.0,
             "end": 2.0, "seconds": 1.0},
            {"id": 3, "parent": 2, "name": "escapee", "start": 1.5,
             "end": 2.5, "seconds": 1.0},
        ]
        problems = validate_spans(spans)
        assert any("never closed" in p for p in problems)
        assert any("escapes parent" in p for p in problems)


class TestRollups:
    def test_self_time_excludes_children(self):
        spans = [
            {"id": 1, "parent": None, "name": "outer", "start": 0.0,
             "end": 10.0, "seconds": 10.0, "counters": {}},
            {"id": 2, "parent": 1, "name": "inner", "start": 2.0,
             "end": 6.0, "seconds": 4.0, "counters": {"n": 3}},
        ]
        rollups = {r.name: r for r in stage_rollups(spans)}
        assert rollups["outer"].self_seconds == pytest.approx(6.0)
        assert rollups["outer"].total_seconds == pytest.approx(10.0)
        assert rollups["inner"].counters == {"n": 3}

    def test_rollup_sorted_by_total_descending(self):
        spans = [
            {"id": 1, "parent": None, "name": "small", "start": 0.0,
             "end": 1.0, "seconds": 1.0, "counters": {}},
            {"id": 2, "parent": None, "name": "big", "start": 0.0,
             "end": 5.0, "seconds": 5.0, "counters": {}},
        ]
        assert [r.name for r in stage_rollups(spans)] == ["big", "small"]


class TestCurrentTracer:
    def test_default_is_null_tracer(self):
        assert isinstance(get_tracer(), NullTracer)

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        before = get_tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is before

    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(previous)

    def test_null_tracer_operations_are_noops(self):
        with NULL_TRACER.span("anything", attr=1) as span:
            span.set(more=2)
        NULL_TRACER.count("whatever", 3)
        NULL_TRACER.record_span("x", 1.0)
        assert NULL_TRACER.enabled is False


class TestTracedRecords:
    class _Record:
        def __init__(self, corrupt=False):
            self.is_corrupt = corrupt

    def test_counts_records_and_corruption(self):
        tracer = Tracer()
        records = [self._Record(), self._Record(True), self._Record()]
        produced = list(traced_records(iter(records), "test", tracer=tracer))
        assert produced == records
        assert tracer.counters["decode.records"] == 3
        assert tracer.counters["decode.corrupt_records"] == 1
        (span,) = tracer.spans
        assert span.name == "mrt-decode"
        assert span.attrs["source"] == "test"

    def test_null_tracer_passthrough(self):
        records = [self._Record()]
        assert list(traced_records(iter(records), "test")) == records

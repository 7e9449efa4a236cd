"""Unit tests for spans, deterministic ids, and trace export."""

import json

import pytest

from repro.telemetry import (
    NULL_SPAN,
    NullTracer,
    Tracer,
    format_span_tree,
    span_tree,
    spans_to_jsonl,
    write_spans_jsonl,
)


class TestSpanLifecycle:
    def test_parent_child_inherits_trace(self):
        tracer = Tracer()
        root = tracer.start_span("event", trace_id=17)
        child = tracer.start_span("match", parent=root)
        assert child.trace_id == 17
        assert child.parent_id == root.span_id

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("x")
        span.finish(time=5.0)
        span.finish(time=99.0, status="error")
        assert span.end == 5.0
        assert span.status == "ok"
        assert len(tracer.spans) == 1

    def test_attributes_chain(self):
        span = Tracer().start_span("x")
        assert span.set_attribute("a", 1).set_attribute("b", 2) is span
        assert span.attributes == {"a": 1, "b": 2}

    def test_context_manager_records_error_status(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.spans[-1].status == "error"

    def test_event_is_instant(self):
        tracer = Tracer()
        marker = tracer.event("retry", attempt=2)
        assert marker.end == marker.start
        assert marker.attributes["attempt"] == 2

    def test_injected_clock_drives_timestamps(self):
        times = iter([10.0, 20.0])
        tracer = Tracer(clock=lambda: next(times))
        span = tracer.start_span("x")
        span.finish()
        assert (span.start, span.end) == (10.0, 20.0)


class TestDeterministicIds:
    def test_same_seed_same_ids(self):
        def run(seed):
            tracer = Tracer(seed=seed)
            root = tracer.start_span("event", trace_id=0)
            tracer.start_span("match", parent=root).finish()
            root.finish()
            return [s.span_id for s in tracer.spans]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_ids_never_collide_within_a_run(self):
        tracer = Tracer(seed=3)
        ids = {tracer.start_span("s").span_id for _ in range(5000)}
        assert len(ids) == 5000

    def test_no_wall_clock_by_default(self):
        # The default logical clock ticks 0, 1, 2, ... — fully
        # deterministic without any time source.
        tracer = Tracer()
        a = tracer.start_span("a")
        b = tracer.start_span("b")
        assert (a.start, b.start) == (0.0, 1.0)


class TestRetention:
    def test_cap_drops_oldest(self):
        tracer = Tracer(max_spans=10)
        for index in range(25):
            tracer.start_span("s", trace_id=index).finish()
        assert len(tracer.spans) <= 10
        assert tracer.dropped > 0
        # The newest spans survive.
        assert tracer.spans[-1].trace_id == 24

    def test_clear(self):
        tracer = Tracer()
        tracer.start_span("s").finish()
        tracer.clear()
        assert tracer.spans == []
        assert tracer.dropped == 0


class TestJsonlExport:
    def _sample_tracer(self):
        tracer = Tracer(seed=5)
        root = tracer.start_span("event", trace_id=3, publisher=9)
        child = tracer.start_span("deliver", parent=root)
        child.finish(time=2.5)
        root.finish(time=3.0)
        return tracer

    def test_round_trip(self):
        tracer = self._sample_tracer()
        lines = list(spans_to_jsonl(tracer.spans))
        decoded = [json.loads(line) for line in lines]
        assert [d["name"] for d in decoded] == ["deliver", "event"]
        assert decoded[0]["parent_id"] == decoded[1]["span_id"]
        assert decoded[1]["attributes"] == {"publisher": 9}
        # Stable key order makes reruns diffable.
        assert lines[0].index('"attributes"') < lines[0].index('"name"')

    def test_write_to_path(self, tmp_path):
        tracer = self._sample_tracer()
        path = tmp_path / "spans.jsonl"
        count = write_spans_jsonl(tracer.spans, str(path))
        assert count == 2
        assert len(path.read_text().strip().splitlines()) == 2

    def test_span_tree_orders_parents_first(self):
        tracer = Tracer()
        root = tracer.start_span("event", trace_id=1)
        a = tracer.start_span("route", parent=root)
        leaf = tracer.start_span("deliver", parent=a)
        leaf.finish()
        a.finish()
        root.finish()
        other = tracer.start_span("event", trace_id=2)
        other.finish()
        ordered = span_tree(tracer.spans, 1)
        assert [s.name for s in ordered] == ["event", "route", "deliver"]

    def test_span_tree_keeps_orphans(self):
        tracer = Tracer()
        root = tracer.start_span("event", trace_id=1)
        child = tracer.start_span("deliver", parent=root)
        child.finish()
        # Root never finished (e.g. evicted): the child must still
        # appear, promoted to a root.
        ordered = span_tree(tracer.spans, 1)
        assert [s.name for s in ordered] == ["deliver"]

    def test_format_span_tree_indents(self):
        tracer = self._sample_tracer()
        rendered = format_span_tree(span_tree(tracer.spans, 3))
        lines = rendered.splitlines()
        assert lines[0].startswith("event ")
        assert lines[1].startswith("  deliver ")


class TestNullTracer:
    def test_all_calls_return_the_shared_inert_span(self):
        tracer = NullTracer()
        span = tracer.start_span("x", trace_id=1, a=2)
        assert span is NULL_SPAN
        assert not span.is_recording
        assert span.set_attribute("k", "v") is span
        assert span.attributes == {}
        assert tracer.event("y") is NULL_SPAN
        with tracer.span("z") as managed:
            assert managed is NULL_SPAN
        assert tracer.spans == []

    def test_null_span_never_parents(self):
        live = Tracer()
        child = live.start_span("c", parent=NULL_SPAN, trace_id=4)
        assert child.parent_id is None
        assert child.trace_id == 4

"""Tracer: span nesting, ordering, ring buffer, summary, no-op path."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import NULL_TRACER, NullTracer, Tracer
from repro.obs.trace import _NULL_SPAN, Span
from repro.sources.clock import SimulatedClock


class TestSpanNesting:
    def test_parent_links_and_depths(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert outer.parent_id is None
        assert outer.depth == 0
        assert middle.parent_id == outer.span_id
        assert middle.depth == 1
        assert inner.parent_id == middle.span_id
        assert inner.depth == 2

    def test_siblings_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("first") as first:
                pass
            with tracer.span("second") as second:
                pass
        assert first.parent_id == parent.span_id
        assert second.parent_id == parent.span_id
        assert first.span_id < second.span_id

    def test_finish_order_is_children_before_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["inner", "outer"]

    def test_span_ids_increase_in_start_order(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            with tracer.span("c") as c:
                pass
        assert a.span_id < b.span_id < c.span_id

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(ObservabilityError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_exception_is_recorded_and_span_finishes(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.finished_spans()
        assert span.attributes["error"] == "ValueError"


class TestDurations:
    def test_wall_duration_is_positive(self):
        tracer = Tracer()
        with tracer.span("work"):
            sum(range(1000))
        (span,) = tracer.finished_spans()
        assert span.wall_s > 0

    def test_virtual_duration_tracks_the_clock(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        with tracer.span("remote"):
            clock.advance(1.25)
        (span,) = tracer.finished_spans()
        assert span.virtual_s == pytest.approx(1.25)

    def test_no_clock_means_no_virtual_duration(self):
        tracer = Tracer()
        with tracer.span("local"):
            pass
        (span,) = tracer.finished_spans()
        assert span.virtual_s is None


class TestRingBuffer:
    def test_capacity_evicts_oldest(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["s2", "s3", "s4"]
        assert tracer.dropped == 2
        assert tracer.started == 5

    def test_reset_clears_finished(self):
        tracer = Tracer()
        with tracer.span("gone"):
            pass
        tracer.reset()
        assert tracer.finished_spans() == []

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ObservabilityError):
            Tracer(capacity=0)


class TestRecordAndSummary:
    def test_record_emits_a_finished_span_with_given_durations(self):
        tracer = Tracer()
        parent = tracer.record("parent", wall_s=0.5)
        child = tracer.record("child", wall_s=0.25, virtual_s=1.0,
                              parent=parent, rows=3)
        assert child.parent_id == parent.span_id
        assert child.depth == parent.depth + 1
        assert child.wall_s == 0.25
        assert child.virtual_s == 1.0
        assert child.attributes["rows"] == 3

    def test_summary_aggregates_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("repeated"):
                pass
        summary = tracer.summary()
        assert summary["repeated"]["count"] == 3
        assert summary["repeated"]["wall_s"] > 0


class TestNullTracer:
    def test_span_is_the_shared_singleton(self):
        assert NULL_TRACER.span("anything") is _NULL_SPAN
        assert NULL_TRACER.span("other", key="value") is _NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_TRACER.span("noop") as span:
            span.set("rows", 1)
        assert NULL_TRACER.finished_spans() == []

    def test_disabled_flag(self):
        assert NullTracer.enabled is False
        assert Tracer.enabled is True


class TestNoOpPathAllocatesNoSpans:
    def test_query_execution_with_default_tracer_never_builds_a_span(
            self, monkeypatch):
        """The regression guard for the disabled path: with the default
        NullTracer installed, running the fully instrumented stack
        (integration + queries + EXPLAIN ANALYZE operator spans) must
        not construct a single Span object."""
        from repro import obs
        from repro.core import QueryEngine
        from repro.workloads import DatasetConfig, build_dataset

        assert obs.get_tracer() is NULL_TRACER

        def forbidden_init(self, *args, **kwargs):
            raise AssertionError("Span allocated on the no-op path")

        monkeypatch.setattr(Span, "__init__", forbidden_init)
        dataset = build_dataset(DatasetConfig(n_leaves=8, n_ligands=12,
                                              seed=11))
        drugtree = dataset.drugtree()
        engine = QueryEngine(drugtree)
        result = engine.execute("SELECT count(*) FROM bindings")
        assert len(result.rows) == 1
        engine.explain_analyze("SELECT count(*) FROM bindings")

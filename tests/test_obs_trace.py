"""Units for the observability substrate: tracers, metrics, rewrite traces."""

import pytest

from repro.obs import (
    METRICS,
    MetricsRegistry,
    NULL_TRACER,
    RecordingTracer,
    RewriteTrace,
    spans_by_node,
)

pytestmark = pytest.mark.usefixtures("isolated_metrics")


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", kind="operator", x=1) as span:
            span.set(pages=3)
            span.event("fetch", url="u")
        NULL_TRACER.event("orphan")  # no-op, no error

    def test_span_is_a_shared_singleton(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestRecordingTracer:
    def test_nesting_and_roots(self):
        tracer = RecordingTracer()
        with tracer.span("outer", kind="query") as outer:
            with tracer.span("inner", kind="operator") as inner:
                inner.set(tuples_out=7)
                tracer.event("cache_hit", url="u1")
            assert tracer.current is outer
        assert tracer.current is None
        assert [s.name for s in tracer.spans()] == ["outer", "inner"]
        assert tracer.spans(kind="operator") == [outer.children[0]]
        assert tracer.events("cache_hit")[0].attrs["url"] == "u1"

    def test_orphan_events_kept(self):
        tracer = RecordingTracer()
        tracer.event("stray", n=1)
        assert [e.name for e in tracer.orphan_events] == ["stray"]

    def test_render_mentions_spans_and_attrs(self):
        tracer = RecordingTracer()
        with tracer.span("op", kind="operator", pages=4):
            tracer.event("fetch", url="u")
        text = tracer.render()
        assert "op" in text and "pages=4" in text and "fetch" in text

    def test_spans_by_node_first_wins(self):
        tracer = RecordingTracer()
        with tracer.span("a", kind="operator", node_id=1, tag="first"):
            pass
        with tracer.span("b", kind="operator", node_id=1, tag="second"):
            pass
        assert spans_by_node(tracer)[1].attrs["tag"] == "first"


class TestMetrics:
    def test_counter_labels_and_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "help text")
        counter.inc(scheme="A")
        counter.inc(2, scheme="B")
        assert counter.value(scheme="A") == 1
        assert counter.value(scheme="B") == 2
        assert counter.total() == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            hist.observe(v, scheme="A")
        snap = hist.snapshot()["series"][0]
        assert snap["count"] == 3
        assert snap["bucket_counts"] == [1, 1, 1]  # last is +Inf overflow
        assert snap["min"] == 0.05 and snap["max"] == 5.0

    def test_observe_each_is_observe_in_order(self):
        """Past ``max_samples`` too, where the series decimates."""
        values = [((i * 7919) % 1000) / 97 for i in range(50)]
        one_by_one = MetricsRegistry().histogram("t", max_samples=8)
        batched = MetricsRegistry().histogram("t", max_samples=8)
        for value in values:
            one_by_one.observe(value, scheme="A")
        batched.observe_each(values[:13], scheme="A")
        batched.observe_each(values[13:], scheme="A")
        assert batched.snapshot() == one_by_one.snapshot()

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_render_is_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "things").inc(3, mode="m")
        text = registry.render()
        assert "# TYPE t_total counter" in text
        assert 't_total{mode="m"} 3' in text

    def test_default_registry_records_fetches(self, small_env):
        before = METRICS.counter("repro_fetch_total").total()
        small_env.query("SELECT DName FROM Dept")
        assert METRICS.counter("repro_fetch_total").total() > before


class TestRewriteTrace:
    def test_lineage_and_strategy(self):
        trace = RewriteTrace()
        trace.record("expansion (rule 1)", "DefaultNavigation", "e1")
        trace.record("join rules (8/9)", "PointerJoin", "e2", parent="e1")
        assert trace.producer("e2").rule == "PointerJoin"
        assert [s.result for s in trace.lineage("e2")] == ["e1", "e2"]
        described = trace.describe("e2")
        assert "pointer-join (rule 8)" in described
        assert trace.summary() == {"DefaultNavigation": 1, "PointerJoin": 1}

    def test_first_producer_wins(self):
        trace = RewriteTrace()
        trace.record("p", "RuleA", "same")
        trace.record("p", "RuleB", "same")
        assert trace.producer("same").rule == "RuleA"

    def test_no_strategy_fallback(self):
        trace = RewriteTrace()
        trace.record("expansion (rule 1)", "DefaultNavigation", "e1")
        assert "direct navigation" in trace.describe("e1")

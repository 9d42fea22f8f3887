"""Unit tests for the telemetry subsystem (:mod:`repro.obs`).

Covers the tracer (nesting, sampling, the slow-query log, retention),
the metrics registry (instruments, label children, quantiles,
collectors), the three exporters, the :class:`Telemetry` facade wired
into a real mediator, and the ``health_snapshot()`` deprecation shim.
"""

import io
import json
import pathlib
import re

import pytest

from repro.datasets import (
    JOE_CHUNG_QUERY,
    build_scaled_scenario,
    build_scenario,
)
from repro.exec import AnswerCache
from repro.governor.budget import QueryBudget
from repro.mediator import Mediator
from repro.mediator.engine import ExecutionContext
from repro.obs import (
    ConsoleTreeExporter,
    JsonLinesExporter,
    MetricsRegistry,
    PrometheusTextExporter,
    Telemetry,
    Tracer,
)
from repro.obs.metrics import Sample
from repro.obs.span import (
    NOOP_TRACER,
    SPAN_KINDS,
    STATUSES,
    current_span,
    status_of_exception,
)
from repro.reliability import (
    AdaptiveTimeoutConfig,
    ManualClock,
    ResilienceConfig,
)
from repro.serving import QueryRejected


def traced_mediator(**kwargs):
    scenario = build_scenario()
    return Mediator(
        "med",
        scenario.mediator.specification,
        scenario.registry,
        scenario.externals,
        register=False,
        telemetry=True,
        **kwargs,
    )


class TestTracer:
    def test_root_and_child_nesting(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.start_query("Q")
        with tracer.use(root):
            assert current_span() is root
            with tracer.span("plan-stage", "stage 1") as stage:
                assert current_span() is stage
                assert stage.parent_id == root.span_id
                assert stage.query_id == root.query_id
                with tracer.span("plan-node", "extract") as node:
                    assert node.parent_id == stage.span_id
            assert current_span() is root
        tracer.finish_span(root)
        assert current_span() is None
        spans = tracer.spans()
        assert [s.kind for s in spans] == ["plan-node", "plan-stage", "query"]

    def test_span_timing_uses_injected_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        root = tracer.start_query("Q")
        clock.advance(0.25)
        tracer.finish_span(root)
        assert root.duration == pytest.approx(0.25)

    def test_exception_sets_error_status_and_propagates(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.start_query("Q")
        with pytest.raises(RuntimeError):
            with tracer.use(root):
                with tracer.span("plan-node", "boom"):
                    raise RuntimeError("nope")
        failed = tracer.spans()[0]
        assert failed.status == "error"
        assert failed.end is not None

    def test_set_status_validates(self):
        tracer = Tracer(clock=ManualClock())
        span = tracer.start_query("Q")
        for status in STATUSES:
            span.set_status(status)
        with pytest.raises(ValueError):
            span.set_status("bogus")

    def test_status_of_exception_maps_cancellation(self):
        from repro.governor import QueryCancelled

        assert status_of_exception(QueryCancelled("stop")) == "cancelled"
        assert status_of_exception(ValueError("x")) == "error"

    def test_sample_rate_zero_drops_children_keeps_root_timing(self):
        clock = ManualClock()
        tracer = Tracer(sample_rate=0.0, clock=clock)
        root = tracer.start_query("Q")
        assert root.sampled is False
        with tracer.use(root):
            child = tracer.start_span("plan-stage", "stage 1")
        assert child.sampled is False
        # mutators on the shared no-op span are inert
        child.set_attribute("rows", 5)
        child.set_status("error")
        assert child.attributes == {}
        assert child.status == "ok"
        clock.advance(1.0)
        tracer.finish_span(root)
        assert root.duration == pytest.approx(1.0)
        assert tracer.spans() == []  # unsampled, not slow: not retained

    def test_sampling_is_seeded_and_head_based(self):
        decisions = [
            [
                Tracer(sample_rate=0.5, seed=7).start_query("Q").sampled
                for _ in range(1)
            ]
            for _ in range(2)
        ]
        assert decisions[0] == decisions[1]
        tracer = Tracer(sample_rate=0.5, seed=7)
        kept = sum(
            tracer.start_query("Q").sampled for _ in range(200)
        )
        assert 50 < kept < 150
        assert tracer.stats()["queries_sampled"] == kept

    def test_slow_query_log_retains_unsampled_roots(self):
        clock = ManualClock()
        tracer = Tracer(sample_rate=0.0, slow_query_ms=100.0, clock=clock)
        fast = tracer.start_query("fast")
        clock.advance(0.05)
        tracer.finish_span(fast)
        slow = tracer.start_query("slow")
        clock.advance(0.2)
        tracer.finish_span(slow)
        assert tracer.slow_queries == [slow]
        assert slow.attributes["slow"] is True
        assert [s.name for s in tracer.spans()] == ["slow"]

    def test_retention_cap_counts_drops(self):
        tracer = Tracer(max_spans=2, clock=ManualClock())
        for _ in range(4):
            tracer.finish_span(tracer.start_query("Q"))
        assert len(tracer.spans()) == 2
        assert tracer.stats()["spans_dropped"] == 2

    def test_clear_keeps_counters(self):
        tracer = Tracer(clock=ManualClock())
        tracer.finish_span(tracer.start_query("Q"))
        tracer.clear()
        assert tracer.spans() == []
        assert tracer.stats()["queries_started"] == 1

    def test_forest_groups_by_query(self):
        tracer = Tracer(clock=ManualClock())
        for name in ("a", "b"):
            root = tracer.start_query(name)
            with tracer.use(root):
                with tracer.span("view-expansion", "expand"):
                    pass
            tracer.finish_span(root)
        forest = tracer.forest()
        assert len(forest) == 2
        assert all(len(spans) == 2 for spans in forest.values())

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(slow_query_ms=-1)
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_noop_tracer_is_inert(self):
        assert NOOP_TRACER.enabled is False
        span = NOOP_TRACER.start_query("Q")
        with NOOP_TRACER.span("plan-node", "n") as inner:
            assert inner is span
        NOOP_TRACER.finish_span(span)
        assert NOOP_TRACER.spans() == []
        assert NOOP_TRACER.stats() == {"enabled": False}

    def test_span_kinds_catalog_matches_hierarchy(self):
        assert SPAN_KINDS == (
            "query", "view-expansion", "plan-stage", "plan-node",
            "source-call", "pattern-match", "external-predicate",
        )


class TestMetrics:
    def test_counter_labels_and_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", labelnames=("s",))
        counter.inc(s="a")
        counter.inc(2, s="a")
        counter.inc(s="b")
        assert counter.value(s="a") == 3
        assert counter.value(s="b") == 1
        with pytest.raises(ValueError):
            counter.inc(-1, s="a")
        with pytest.raises(ValueError):
            counter.inc(wrong="a")

    def test_bound_children_share_the_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labelnames=("s",))
        child = counter.labels(s="a")
        child.inc()
        child.inc(4)
        counter.inc(s="a")
        assert counter.value(s="a") == 6

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(-3)
        assert gauge.value() == 7

    def test_histogram_quantiles_are_interpolated(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1, 2, 4, 8))
        for value in (0.5, 1.5, 1.5, 3.0, 6.0, 20.0):
            hist.observe(value)
        stats = hist.series_stats()
        assert stats["count"] == 6
        assert stats["sum"] == pytest.approx(32.5)
        assert 1.0 <= stats["p50"] <= 3.0
        # the +Inf bucket reports the observed maximum, never infinity
        assert stats["p99"] <= 20.0
        assert hist.quantile(1.0) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_histogram_bound_child_matches_direct_observe(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", labelnames=("n",), buckets=(1, 10))
        child = hist.labels(n="x")
        child.observe(0.5)
        hist.observe(5.0, n="x")
        assert hist.series_stats(n="x")["count"] == 2

    def test_registry_is_idempotent_and_type_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total")
        assert registry.counter("c_total") is first
        with pytest.raises(ValueError):
            registry.gauge("c_total")

    def test_collectors_feed_snapshot_and_survive_errors(self):
        registry = MetricsRegistry()
        registry.register_collector(
            lambda: [Sample("ext_total", "counter", 42)]
        )
        registry.register_collector(lambda: 1 / 0)  # must be skipped
        snapshot = registry.snapshot()
        assert snapshot["ext_total"]["series"][""] == 42

    def test_prometheus_rendering_shape(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "things", labelnames=("s",))
        counter.inc(s='with"quote')
        registry.histogram("h_seconds", "times", buckets=(0.1, 1)).observe(0.5)
        text = registry.render_prometheus()
        assert "# HELP c_total things" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{s="with\\"quote"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_sum 0.5" in text
        assert "h_seconds_count 1" in text


class TestExporters:
    def _tracer_with_tree(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.start_query("Q")
        with tracer.use(root):
            with tracer.span("source-call", "cs") as call:
                call.set_attribute("objects", 3)
        tracer.finish_span(root)
        return tracer

    def test_jsonl_round_trip(self):
        tracer = self._tracer_with_tree()
        registry = MetricsRegistry()
        registry.counter("c_total").inc(5)
        buffer = io.StringIO()
        written = JsonLinesExporter().export(
            buffer, tracer=tracer, registry=registry
        )
        records = [
            json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        assert written == len(records) == 3
        spans = [r for r in records if r["record"] == "span"]
        metrics = [r for r in records if r["record"] == "metric"]
        assert {s["kind"] for s in spans} == {"query", "source-call"}
        assert metrics == [
            {
                "record": "metric",
                "name": "c_total",
                "type": "counter",
                "labels": "",
                "value": 5,
            }
        ]

    def test_jsonl_export_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        JsonLinesExporter().export_path(
            str(path), tracer=self._tracer_with_tree()
        )
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["record"] == "span" for line in lines)

    def test_prometheus_exporter_writes_render(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c_total", "help").inc()
        path = tmp_path / "metrics.prom"
        PrometheusTextExporter().export_path(str(path), registry)
        assert path.read_text() == registry.render_prometheus()

    def test_console_tree_renders_nesting_and_attributes(self):
        text = ConsoleTreeExporter().render(self._tracer_with_tree())
        lines = text.splitlines()
        assert lines[0].startswith("[q")
        assert lines[1].startswith("query: Q")
        assert lines[2].startswith("  source-call: cs")
        assert "(objects=3)" in lines[2]

    def test_console_tree_flags_orphans(self):
        tracer = Tracer(max_spans=1, clock=ManualClock())
        root = tracer.start_query("Q")
        with tracer.use(root):
            with tracer.span("plan-stage", "stage 1"):
                pass
        tracer.finish_span(root)  # dropped by the cap: child is orphaned
        assert "(orphan)" in ConsoleTreeExporter().render(tracer)

    def test_console_tree_empty(self):
        tracer = Tracer(clock=ManualClock())
        assert ConsoleTreeExporter().render(tracer) == "no spans recorded"


class TestTelemetryFacade:
    def test_disabled_costs_nothing_visible(self):
        telemetry = Telemetry.disabled()
        assert telemetry.enabled is False
        assert telemetry.tracer is NOOP_TRACER
        telemetry.record_operation("ok", 0.1, [], None)
        telemetry.record_run(self._run(cs=(1, 3)))
        assert telemetry.describe() == "telemetry: disabled"

    @staticmethod
    def _run(**sources):
        """A finished run's context: ``source=(calls, objects)``."""
        context = ExecutionContext(sources=None, externals=None)
        for source, (calls, objects) in sources.items():
            context.queries_sent[source] = calls
            context.objects_received[source] = objects
        return context

    def test_record_source_call_counts(self):
        # one flush per finished run: a run's per-source totals at once
        telemetry = Telemetry()
        telemetry.record_run(self._run(cs=(1, 3)))
        telemetry.record_run(self._run(cs=(1, 0), whois=(2, 5)))
        assert telemetry.source_calls_total.value(source="cs") == 2
        assert telemetry.source_objects_total.value(source="cs") == 3
        assert telemetry.source_calls_total.value(source="whois") == 2

    def test_record_operation_rolls_status_and_latency(self):
        telemetry = Telemetry()
        telemetry.record_operation("ok", 0.05, [], None)
        telemetry.record_operation("degraded", 0.2, [], None)
        assert telemetry.queries_total.value(status="ok") == 1
        assert telemetry.queries_total.value(status="degraded") == 1
        assert telemetry.query_seconds.series_stats()["count"] == 2


class TestMediatorIntegration:
    def test_traced_query_produces_single_rooted_tree(self):
        mediator = traced_mediator()
        result = mediator.answer(JOE_CHUNG_QUERY)
        assert result
        spans = mediator.telemetry.tracer.spans()
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1
        assert roots[0].kind == "query"
        ids = {s.span_id for s in spans}
        assert all(
            s.parent_id in ids for s in spans if s.parent_id is not None
        )
        kinds = {s.kind for s in spans}
        assert {"query", "plan-stage", "plan-node", "source-call"} <= kinds

    def test_a_misestimated_node_carries_its_estimate(self):
        # 60 persons behind a discounted estimate: the node's own span
        # shows both numbers; no span of its own marks the miss
        scenario = build_scaled_scenario(60)
        mediator = Mediator(
            "med",
            scenario.mediator.specification,
            scenario.registry,
            scenario.externals,
            register=False,
            telemetry=True,
        )
        mediator.answer("ALL :- ALL:<cs_person {}>@med")
        spans = mediator.telemetry.tracer.spans()
        assert {s.kind for s in spans} <= set(SPAN_KINDS)
        estimated = [
            s.attributes for s in spans if "estimated_rows" in s.attributes
        ]
        assert estimated
        assert any(
            a["rows_out"] > 4 * a["estimated_rows"] for a in estimated
        )

    def test_stage_spans_are_real_intervals_at_one_worker(self):
        # sequential execution is the one-worker case of the stage
        # loop: a stage's span closes before the next stage opens (not
        # "logically", when the plan ends) and brackets its own nodes
        mediator = traced_mediator()
        assert mediator.parallelism == 1
        mediator.answer(JOE_CHUNG_QUERY)
        spans = mediator.telemetry.tracer.spans()
        stages = sorted(
            (s for s in spans if s.kind == "plan-stage"),
            key=lambda s: s.start,
        )
        assert len(stages) >= 2
        for before, after in zip(stages, stages[1:]):
            assert before.end <= after.start
        by_id = {s.span_id: s for s in stages}
        nodes = [s for s in spans if s.kind == "plan-node"]
        assert nodes
        for node in nodes:
            stage = by_id[node.parent_id]
            assert stage.start <= node.start <= node.end <= stage.end

    def test_metrics_text_reports_query_counters(self):
        mediator = traced_mediator()
        mediator.answer(JOE_CHUNG_QUERY)
        text = mediator.metrics_text()
        assert 'repro_queries_total{status="ok"} 1' in text
        assert "repro_query_seconds_count 1" in text
        assert 'repro_source_calls_total{source="cs"}' in text

    def test_metrics_text_works_when_telemetry_disabled(self):
        scenario = build_scenario()
        text = scenario.mediator.metrics_text()
        assert "repro_dispatcher_parallelism" in text

    def test_explain_includes_telemetry_section(self):
        mediator = traced_mediator()
        assert "-- telemetry --" in mediator.explain(JOE_CHUNG_QUERY)


class TestHealthSnapshotShim:
    def test_namespaced_shape(self):
        mediator = traced_mediator()
        mediator.answer(JOE_CHUNG_QUERY)
        snapshot = mediator.health_snapshot()
        assert set(snapshot) == {"sources", "execution", "profile"}
        assert snapshot["profile"]["nodes"]

    def test_legacy_keys_removed(self):
        # the pre-namespacing compatibility shim (underscore-prefixed
        # and bare-source keys with a DeprecationWarning) is gone: the
        # old spellings now raise KeyError like any other missing key
        mediator = traced_mediator()
        mediator.answer(JOE_CHUNG_QUERY)
        snapshot = mediator.health_snapshot()
        assert type(snapshot) is dict
        for legacy in ("_profile", "_execution", "whois", "no-such-source"):
            with pytest.raises(KeyError):
                snapshot[legacy]


class TestMetricCatalog:
    """``docs/observability.md`` lists every metric the registry can
    hold, one row per name, and nothing else: the catalog cannot drift
    from the code in either direction."""

    @staticmethod
    def documented():
        text = (
            pathlib.Path(__file__).parents[2] / "docs" / "observability.md"
        ).read_text()
        section = text.split("## The metric catalog", 1)[1].split("\n## ", 1)[0]
        return set(re.findall(r"^\| `(repro_[a-z0-9_]+)` \|", section, re.M))

    @staticmethod
    def registered():
        """Every subsystem on, one query answered, one shed."""
        scenario = build_scenario()
        mediator = Mediator(
            "med",
            scenario.mediator.specification,
            scenario.registry,
            scenario.externals,
            register=False,
            telemetry=True,
            resilience=ResilienceConfig(adaptive=AdaptiveTimeoutConfig()),
            cache=AnswerCache(),
            hedge=True,
            admission=True,
            bulkheads=2,
            parallelism=2,
            budget=QueryBudget(deadline=30.0),
        )
        assert mediator.answer(JOE_CHUNG_QUERY)
        mediator.close()
        with pytest.raises(QueryRejected):
            mediator.answer(JOE_CHUNG_QUERY)
        return set(mediator.telemetry.metrics.snapshot())

    def test_catalog_and_registry_agree(self):
        documented, registered = self.documented(), self.registered()
        assert documented - registered == set(), "documented, never registered"
        assert registered - documented == set(), "registered, not documented"
        assert len(documented) == 50

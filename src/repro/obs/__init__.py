"""Unified telemetry: hierarchical query spans, metrics, exporters.

PRs 1–4 each grew their own introspection surface — ``TraceEntry``
tables, ``explain()`` text sections, ``health_snapshot()``, the
``Profiler``, cache and dispatcher stats.  This package is the one
subsystem they all emit into:

* :mod:`repro.obs.span` — a thread-safe :class:`Tracer` producing
  hierarchical spans (query → view-expansion → plan-stage →
  plan-node → source-call / pattern-match / external-predicate) with
  head-based sampling and a slow-query log; span context propagates
  across :class:`~repro.exec.dispatcher.SourceDispatcher` worker
  threads via :mod:`contextvars`;
* :mod:`repro.obs.metrics` — a central :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket histograms, with pull-time
  collectors that absorb counters living in other layers at zero
  query-path cost;
* :mod:`repro.obs.exporters` — :class:`JsonLinesExporter` (jq-able
  span/metric rows), :class:`PrometheusTextExporter` (text exposition
  via ``Mediator.metrics_text()``), :class:`ConsoleTreeExporter`
  (indented span trees);
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade a
  :class:`~repro.mediator.mediator.Mediator` owns; disabled (the
  default) neither it nor its tracer subscribes to a run's events.

See ``docs/observability.md`` for the span model, the metric catalog
and the exporter formats.
"""

from repro.obs.exporters import (
    ConsoleTreeExporter,
    JsonLinesExporter,
    PrometheusTextExporter,
)
from repro.obs.insight import AnalyzeReport, NodeObservation, QueryInsight
from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_QERROR_BUCKETS,
    DEFAULT_ROWS_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
)
from repro.obs.span import (
    NOOP_TRACER,
    NoopTracer,
    Span,
    SPAN_KINDS,
    Tracer,
    current_span,
)
from repro.obs.telemetry import Telemetry

__all__ = [
    "AnalyzeReport",
    "ConsoleTreeExporter",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_QERROR_BUCKETS",
    "DEFAULT_ROWS_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonLinesExporter",
    "MetricsRegistry",
    "NOOP_TRACER",
    "NodeObservation",
    "NoopTracer",
    "PrometheusTextExporter",
    "QueryInsight",
    "Sample",
    "Span",
    "SPAN_KINDS",
    "Telemetry",
    "Tracer",
    "current_span",
]

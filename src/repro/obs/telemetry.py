"""The :class:`Telemetry` facade: one tracer + one metrics registry.

A mediator owns exactly one ``Telemetry``.  Disabled (the default) it
costs nothing on the query path: the tracer is the shared
:class:`~repro.obs.span.NoopTracer`, no event-driven instruments are
bound, and the only live wiring is pull-time collectors — callables the
registry invokes at scrape time, never during a query.

Enabled, it is the single sink for everything PRs 1–4 measured in
separate places:

* the tracer receives the span hierarchy (query → view-expansion →
  plan-stage → plan-node → source-call / pattern-match /
  external-predicate), the engine's part of it as a subscriber of the
  run's event stream (:mod:`repro.mediator.events`);
* the facade subscribes to the same stream for the per-node row
  histogram, the estimate q-error and the misestimate counter (a node
  whose actual rows exceed its estimate by more than
  :data:`~repro.obs.insight.MISESTIMATE_FACTOR`), and
  reads a run's per-source call and sharding totals off its execution
  context once, when the operation ends;
* the registry absorbs the scattered counters — answer-cache hits,
  single-flight dedups, compile-cache hits, breaker states and
  transitions, retry attempts, governor truncations and quarantines —
  and grows per-source latency and per-node row histograms whose
  p50/p95/p99 replace the health layer's bespoke percentile window as
  the reported figures.

The metric catalog (names, types, labels) is documented in
``docs/observability.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.insight import q_error, underestimated
from repro.obs.metrics import (
    DEFAULT_QERROR_BUCKETS,
    DEFAULT_ROWS_BUCKETS,
    MetricsRegistry,
    Sample,
)
from repro.obs.span import NOOP_TRACER, NoopTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.dispatcher import SourceDispatcher
    from repro.governor.budget import QueryGovernor
    from repro.msl.compile import CompileCache
    from repro.reliability.clock import Clock
    from repro.reliability.resilient import ResilienceManager

__all__ = ["Telemetry"]

#: Numeric encoding of breaker states for the state gauge.
_BREAKER_STATES = {"closed": 0, "half_open": 1, "open": 2}


class Telemetry:
    """A tracer and a metrics registry, wired to mediator components."""

    kinds = frozenset({"plan-node", "pipeline-stage"})
    opens = frozenset()

    def __init__(
        self,
        trace_sample_rate: float = 1.0,
        slow_query_ms: float | None = None,
        max_spans: int = 100_000,
        seed: int = 0,
        clock: "Clock | None" = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.tracer: Tracer | NoopTracer
        if enabled:
            self.tracer = Tracer(
                sample_rate=trace_sample_rate,
                slow_query_ms=slow_query_ms,
                max_spans=max_spans,
                seed=seed,
                clock=clock,
            )
            metrics = self.metrics
            self.queries_total = metrics.counter(
                "repro_queries_total",
                "Completed mediator operations by terminal status.",
                labelnames=("status",),
            )
            self.query_seconds = metrics.histogram(
                "repro_query_seconds",
                "Wall-clock seconds per mediator operation.",
            )
            self.warnings_total = metrics.counter(
                "repro_warnings_total",
                "Structured warnings attached to answers, by class.",
                labelnames=("type",),
            )
            self.source_calls_total = metrics.counter(
                "repro_source_calls_total",
                "Queries actually shipped to a source (cache misses).",
                labelnames=("source",),
            )
            self.source_objects_total = metrics.counter(
                "repro_source_objects_total",
                "Top-level objects received from a source.",
                labelnames=("source",),
            )
            self.semijoin_batches_total = metrics.counter(
                "repro_semijoin_batches_total",
                "Batched semi-join filters shipped to sources.",
            )
            self.semijoin_probes_saved_total = metrics.counter(
                "repro_semijoin_probes_saved_total",
                "Per-tuple probe queries avoided by semi-join shipping.",
            )
            self.shards_pruned_total = metrics.counter(
                "repro_shards_pruned_total",
                "Shards skipped by partition pruning.",
            )
            self.governor_rows_clipped_total = metrics.counter(
                "repro_governor_rows_clipped_total",
                "Rows refused by truncate-mode budgets.",
            )
            self.governor_truncations_total = metrics.counter(
                "repro_governor_truncations_total",
                "Budget violations recorded in truncate mode.",
            )
            self.quarantined_objects_total = metrics.counter(
                "repro_quarantined_objects_total",
                "Malformed sub-objects quarantined from source answers.",
            )
            self.plan_node_rows = metrics.histogram(
                "repro_plan_node_rows",
                "Rows produced per plan-node execution.",
                labelnames=("node",),
                buckets=DEFAULT_ROWS_BUCKETS,
            )
            self.estimate_qerror = metrics.histogram(
                "repro_estimate_qerror",
                "Optimizer estimate q-error max(est/act, act/est) per"
                " (source, label) and decision kind (scan or join).",
                labelnames=("source", "label", "kind"),
                buckets=DEFAULT_QERROR_BUCKETS,
            )
            self.misestimate_events_total = metrics.counter(
                "repro_misestimate_events_total",
                "Mid-query misestimate events (actual exceeded estimate"
                " by the configured factor).",
                labelnames=("source",),
            )
            # label-bound children caches for the per-operation and
            # per-node paths: skip per-call label resolution there
            self._status_children: dict[str, object] = {}
            self._rows_children: dict[str, object] = {}
            self._qerror_children: dict[tuple, object] = {}
        else:
            self.tracer = NOOP_TRACER

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A per-mediator telemetry with tracing off and no instruments.

        Collectors may still be bound — they only run at scrape time,
        so ``metrics_text()`` keeps working on a disabled mediator.
        """
        return cls(enabled=False)

    # -- component wiring (pull-time collectors) ---------------------------

    def bind_dispatcher(self, dispatcher: "SourceDispatcher") -> None:
        """Absorb dispatcher fan-out counters and answer-cache stats."""

        def collect():
            samples = [
                Sample(
                    "repro_dispatcher_parallelism", "gauge",
                    dispatcher.parallelism,
                    help="Configured worker threads.",
                ),
                Sample(
                    "repro_dispatcher_dispatched_total", "counter",
                    dispatcher.dispatched,
                    help="Requests that led a single-flight group.",
                ),
                Sample(
                    "repro_dispatcher_shared_total", "counter",
                    dispatcher.shared,
                    help="Requests answered by another request's flight.",
                ),
            ]
            hedging = getattr(dispatcher, "hedging", None)
            if hedging is not None:
                hstats = hedging.stats()
                samples.extend(
                    [
                        Sample(
                            "repro_hedge_attempts_total", "counter",
                            hstats["hedges_issued"],
                            help="Speculative duplicate calls issued.",
                        ),
                        Sample(
                            "repro_hedge_wins_total", "counter",
                            hstats["hedge_wins"],
                            help="Hedged calls where the duplicate won.",
                        ),
                        Sample(
                            "repro_hedge_cancelled_total", "counter",
                            hstats["cancelled"],
                            help="Losing attempts signalled to abandon.",
                        ),
                        Sample(
                            "repro_hedge_outstanding", "gauge",
                            hstats["outstanding"],
                            help="Hedged attempts not yet settled.",
                        ),
                    ]
                )
            cache = dispatcher.cache
            if cache is not None:
                stats = cache.stats()
                for key, name in (
                    ("hits", "repro_answer_cache_hits_total"),
                    ("misses", "repro_answer_cache_misses_total"),
                    ("evictions", "repro_answer_cache_evictions_total"),
                    ("expirations", "repro_answer_cache_expirations_total"),
                    ("invalidations",
                     "repro_answer_cache_invalidations_total"),
                ):
                    samples.append(Sample(name, "counter", stats[key]))
                samples.append(
                    Sample(
                        "repro_answer_cache_entries", "gauge",
                        stats["entries"],
                        help="Answers currently cached.",
                    )
                )
            return samples

        self.metrics.register_collector(collect)

    def bind_compile_caches(self, cache: "CompileCache", sources) -> None:
        """Absorb the compiled-matcher memo counters: the mediator's own
        memo (``cache="mediator"``) and the one every registered wrapper
        keeps for the queries shipped to it (``cache="source:<name>"``,
        shards by their qualified names) — read from ``stats()``, so a
        decorated source reports its wrapper's."""

        def collect():
            held = [("mediator", cache.stats())] + [
                (f"source:{name}", stats)
                for name, stats in sources.compile_cache_stats()
            ]
            samples = []
            for label, stats in held:
                labels = (("cache", label),)
                samples.append(
                    Sample(
                        "repro_compile_cache_hits_total", "counter",
                        stats["hits"], labels=labels,
                        help="Compiled rule/pattern cache hits.",
                    )
                )
                samples.append(
                    Sample(
                        "repro_compile_cache_misses_total", "counter",
                        stats["misses"], labels=labels,
                    )
                )
                samples.append(
                    Sample(
                        "repro_compile_cache_rules", "gauge",
                        stats["rules"], labels=labels,
                        help="Compiled rules held.",
                    )
                )
                if "patterns" in stats:
                    samples.append(
                        Sample(
                            "repro_compile_cache_patterns", "gauge",
                            stats["patterns"], labels=labels,
                        )
                    )
            return samples

        self.metrics.register_collector(collect)

    def bind_plan_cache(self, plans) -> None:
        """Absorb the plan cache's counters
        (:class:`repro.mediator.plancache.PlanCache`)."""

        def collect():
            stats = plans.stats()
            return [
                Sample(
                    "repro_plan_cache_hits_total", "counter", stats["hits"],
                    help="Queries run on a remembered plan.",
                ),
                Sample(
                    "repro_plan_cache_misses_total", "counter",
                    stats["misses"],
                ),
                Sample(
                    "repro_plan_cache_replans_total", "counter",
                    stats["replans"],
                ),
                Sample(
                    "repro_plan_cache_entries", "gauge", stats["entries"],
                    help="Query shapes remembered.",
                ),
            ]

        self.metrics.register_collector(collect)

    def bind_resilience(self, manager: "ResilienceManager") -> None:
        """Absorb breaker states as a gauge and, when telemetry is
        enabled, bind the health registry's event stream (attempt and
        retry counters, the per-source latency histogram, breaker
        transition counts)."""

        def collect():
            samples = []
            for name, record in manager.health.snapshot().items():
                samples.append(
                    Sample(
                        "repro_breaker_state", "gauge",
                        _BREAKER_STATES.get(record.breaker_state, -1),
                        labels=(("source", name),),
                        help="Circuit state: 0 closed, 1 half-open, 2 open.",
                    )
                )
            return samples

        self.metrics.register_collector(collect)
        if self.enabled:
            manager.health.bind_metrics(self.metrics)

    def bind_admission(self, controller) -> None:
        """Absorb admission-gate counters and the brownout level.

        ``controller`` is a
        :class:`~repro.serving.admission.AdmissionController`; the type
        stays untyped here to keep :mod:`repro.obs` import-light.
        """

        def collect():
            snapshot = controller.snapshot()
            samples = [
                Sample(
                    "repro_admission_submitted_total", "counter",
                    snapshot["submitted"],
                    help="Queries that reached the admission gate.",
                ),
                Sample(
                    "repro_admission_admitted_total", "counter",
                    snapshot["admitted"],
                    help="Queries granted an execution slot.",
                ),
                Sample(
                    "repro_admission_completed_total", "counter",
                    snapshot["completed"],
                    help="Admitted queries that finished (ok or not).",
                ),
                Sample(
                    "repro_admission_queue_depth", "gauge",
                    snapshot["queue_depth"],
                    help="Queries currently waiting for a slot.",
                ),
                Sample(
                    "repro_admission_inflight", "gauge",
                    snapshot["inflight"],
                    help="Queries currently executing.",
                ),
                Sample(
                    "repro_admission_concurrency_limit", "gauge",
                    snapshot["limit"],
                    help="Current adaptive in-flight ceiling.",
                ),
            ]
            for reason, count in sorted(snapshot["rejected"].items()):
                samples.append(
                    Sample(
                        "repro_admission_rejected_total", "counter",
                        count,
                        labels=(("reason", reason),),
                        help="Queries shed at the gate, by reason.",
                    )
                )
            brownout = snapshot.get("brownout")
            if brownout is not None:
                samples.append(
                    Sample(
                        "repro_brownout_level", "gauge",
                        brownout["level"],
                        help="Brownout rung: 0 full service,"
                        " N first N ladder features shed.",
                    )
                )
            return samples

        self.metrics.register_collector(collect)

    # -- per-operation recording ------------------------------------------

    def record_operation(
        self,
        status: str,
        seconds: float,
        warnings: list,
        governor: "QueryGovernor | None",
    ) -> None:
        """Roll one finished mediator operation into the registry."""
        if not self.enabled:
            return
        child = self._status_children.get(status)
        if child is None:
            child = self._status_children[status] = (
                self.queries_total.labels(status=status)
            )
        child.inc()
        self.query_seconds.observe(seconds)
        quarantined = 0
        for warning in warnings:
            kind = type(warning).__name__
            self.warnings_total.inc(count_of(warning), type=kind)
            if getattr(warning, "error", None) == "MalformedAnswer":
                quarantined += count_of(warning)
        if quarantined:
            self.quarantined_objects_total.inc(quarantined)
        if governor is not None:
            if governor.rows_clipped:
                self.governor_rows_clipped_total.inc(governor.rows_clipped)
            truncations = sum(
                count_of(w)
                for w in warnings
                if type(w).__name__ == "BudgetWarning"
            )
            if truncations:
                self.governor_truncations_total.inc(truncations)

    def record_run(self, context) -> None:
        """Roll one finished run's buffered totals into the registry.

        The execution context counts shipped calls and received objects
        per source (cache hits never ship, so never count), batched
        semi-join filters and pruned shards as the run goes; reading
        them once per operation costs two increments per *source*
        instead of two per *call*.
        """
        if not self.enabled:
            return
        for source, count in context.queries_sent.items():
            self.source_calls_total.inc(count, source=source)
            received = context.objects_received.get(source, 0)
            if received:
                self.source_objects_total.inc(received, source=source)
        if context.semijoin_batches:
            self.semijoin_batches_total.inc(context.semijoin_batches)
        if context.semijoin_probes_saved:
            self.semijoin_probes_saved_total.inc(
                context.semijoin_probes_saved
            )
        if context.shards_pruned:
            self.shards_pruned_total.inc(context.shards_pruned)

    def end(self, event) -> None:
        """One finished node run off the event stream."""
        # label-bound children: this is the hottest metric path
        rows = event.attributes["rows_out"]
        child = self._rows_children.get(event.name)
        if child is None:
            child = self._rows_children[event.name] = (
                self.plan_node_rows.labels(node=event.name)
            )
        child.observe(rows)
        node = event.subject
        estimated = node.estimated_rows
        if estimated is None:
            return
        key = node.estimate_key
        if key is not None:
            child = self._qerror_children.get(key)
            if child is None:
                child = self._qerror_children[key] = (
                    self.estimate_qerror.labels(
                        source=key[0], label=key[1], kind=key[2]
                    )
                )
            child.observe(q_error(estimated, rows))
        if underestimated(estimated, rows):
            self.misestimate_events_total.inc(source=key[0] if key else "")

    # -- views -------------------------------------------------------------

    def metrics_text(self) -> str:
        """The Prometheus text exposition of the whole registry."""
        return self.metrics.render_prometheus()

    def describe(self) -> str:
        """One-paragraph summary for ``Mediator.explain``."""
        if not self.enabled:
            return "telemetry: disabled"
        stats = self.tracer.stats()
        slow = (
            f"{stats['slow_query_ms']:g}ms"
            if stats["slow_query_ms"] is not None
            else "off"
        )
        return (
            f"telemetry: on; sample_rate={stats['sample_rate']:g},"
            f" slow-query log {slow};"
            f" {stats['queries_sampled']}/{stats['queries_started']}"
            f" queries sampled, {stats['spans_retained']} span(s) retained"
            f" ({stats['spans_dropped']} dropped,"
            f" {stats['slow_queries']} slow)"
        )

    def __repr__(self) -> str:
        return f"Telemetry(enabled={self.enabled})"


def count_of(warning: object) -> int:
    """A warning's fold count (aggregated warnings carry ``count``)."""
    return int(getattr(warning, "count", 1) or 1)

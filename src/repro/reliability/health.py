"""Per-source health accounting and structured degradation warnings.

The reliability layer records every attempt against every source here;
:meth:`HealthRegistry.snapshot` gives mediators, benchmarks and the CLI
one consistent view of who is healthy, who is flapping, and whose
breaker is open — the operational counterpart of the optimizer's
statistics store.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from repro.reliability.policy import CLOSED, CircuitBreaker

__all__ = [
    "SourceHealth",
    "SourceWarning",
    "HealthRegistry",
    "aggregate_warnings",
]


@dataclass(frozen=True)
class SourceWarning:
    """A structured note that a source's answer is missing or partial.

    Produced in ``degrade`` mode when a source exhausts its retry
    budget (or its breaker is open) and the mediator substitutes an
    empty answer.  Carried on :class:`~repro.client.result.ResultSet`
    so clients can tell a complete answer from a degraded one.
    ``count`` reports how many identical warnings (same source, same
    error class) were folded into this one by
    :func:`aggregate_warnings`.
    """

    source: str
    message: str
    attempts: int = 0
    error: str | None = None
    count: int = 1

    def signature(self) -> tuple:
        """Aggregation key: same source + same error class collapse."""
        return (type(self).__name__, self.source, self.error)

    def render(self) -> str:
        suffix = f" after {self.attempts} attempt(s)" if self.attempts else ""
        repeat = f" [x{self.count}]" if self.count > 1 else ""
        return (
            f"source {self.source!r} degraded{suffix}:"
            f" {self.message}{repeat}"
        )


def aggregate_warnings(warnings) -> list:
    """Fold repeated identical warnings into one record with a count.

    Warnings sharing a ``signature()`` (same source + error class for
    :class:`SourceWarning`, same budget + node for the governor's
    ``BudgetWarning``) collapse to the first occurrence with ``count``
    set to the total and, where present, ``attempts`` summed — so a
    50-row degrade run renders one line, not 50.  Objects without a
    ``signature`` pass through untouched; insertion order is kept.
    """
    grouped: dict[object, list] = {}
    order: list[object] = []
    for warning in warnings:
        signature = getattr(warning, "signature", None)
        key = signature() if callable(signature) else id(warning)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(warning)
    result = []
    for key in order:
        group = grouped[key]
        first = group[0]
        if len(group) == 1:
            result.append(first)
            continue
        updates: dict[str, object] = {"count": sum(w.count for w in group)}
        if hasattr(first, "attempts"):
            updates["attempts"] = sum(w.attempts for w in group)
        result.append(replace(first, **updates))
    return result


#: Latency samples kept per source for percentile estimation.  A small
#: sliding window keeps memory bounded while tracking recent behaviour.
LATENCY_WINDOW = 512


@dataclass
class SourceHealth:
    """Mutable per-source counters; snapshots hand out frozen copies."""

    source: str
    attempts: int = 0
    successes: int = 0
    failures: int = 0
    rejections: int = 0
    retries: int = 0
    total_latency: float = 0.0
    last_latency: float = 0.0
    last_error: str | None = None
    breaker_state: str = CLOSED
    latencies: list[float] = field(default_factory=list)

    @property
    def failure_rate(self) -> float:
        return self.failures / self.attempts if self.attempts else 0.0

    def observe_latency(self, latency: float) -> None:
        """Record one attempt's latency in the sliding sample window."""
        self.total_latency += latency
        self.last_latency = latency
        self.latencies.append(latency)
        if len(self.latencies) > LATENCY_WINDOW:
            del self.latencies[: len(self.latencies) - LATENCY_WINDOW]

    def latency_percentile(self, quantile: float) -> float:
        """The ``quantile`` (0..1) latency over the sample window.

        Nearest-rank on the sorted window — deterministic and exact for
        the samples held; 0.0 before any attempt was observed.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = max(1, -(-int(quantile * 10000) * len(ordered) // 10000))
        rank = min(rank, len(ordered))
        return ordered[rank - 1]

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(0.50)

    @property
    def p95_latency(self) -> float:
        return self.latency_percentile(0.95)

    @property
    def max_latency(self) -> float:
        return max(self.latencies) if self.latencies else 0.0

    def render(self) -> str:
        error = f" last_error={self.last_error!r}" if self.last_error else ""
        latency = (
            f" p50={self.p50_latency:.4f}s p95={self.p95_latency:.4f}s"
            f" max={self.max_latency:.4f}s"
            if self.latencies
            else ""
        )
        return (
            f"{self.source}: breaker={self.breaker_state}"
            f" attempts={self.attempts} ok={self.successes}"
            f" failed={self.failures} rejected={self.rejections}"
            f"{latency}{error}"
        )


class HealthRegistry:
    """Name-keyed health records, fed by :class:`ResilientSource`.

    All mutation happens under one lock: with the parallel dispatcher,
    worker threads record events for many sources concurrently, and the
    counters must stay exact (they are what the determinism tests
    compare between sequential and parallel runs).
    """

    def __init__(self) -> None:
        self._records: dict[str, SourceHealth] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()
        # telemetry mirrors, set by bind_metrics (None = not bound);
        # recording methods guard on them, so an unbound registry adds
        # one attribute check per event
        self._metric_latency = None
        self._metric_attempts = None
        self._metric_failures = None
        self._metric_retries = None
        self._metric_rejections = None
        self._metric_transitions = None

    def record_for(self, source: str) -> SourceHealth:
        with self._lock:
            record = self._records.get(source)
            if record is None:
                record = self._records[source] = SourceHealth(source)
            return record

    def bind_metrics(self, registry) -> None:
        """Mirror health events into a telemetry metrics registry.

        The sliding-window percentiles above stay (tests and existing
        callers pin them), but once bound, the histogram-derived
        p50/p95/p99 of ``repro_source_latency_seconds`` become the
        reported latency figures.  Breakers already attached (and any
        attached later) get an ``on_transition`` observer feeding the
        transition counter.
        """
        from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS

        self._metric_latency = registry.histogram(
            "repro_source_latency_seconds",
            "Per-attempt source latency (successes and failures).",
            labelnames=("source",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._metric_attempts = registry.counter(
            "repro_source_attempts_total",
            "Source call attempts, retries included.",
            labelnames=("source",),
        )
        self._metric_failures = registry.counter(
            "repro_source_failures_total",
            "Failed source call attempts.",
            labelnames=("source",),
        )
        self._metric_retries = registry.counter(
            "repro_retry_attempts_total",
            "Retries scheduled after a failed attempt.",
            labelnames=("source",),
        )
        self._metric_rejections = registry.counter(
            "repro_breaker_rejections_total",
            "Calls refused because a breaker was open.",
            labelnames=("source",),
        )
        self._metric_transitions = registry.counter(
            "repro_breaker_transitions_total",
            "Circuit breaker state changes.",
            labelnames=("source", "to"),
        )
        with self._lock:
            breakers = dict(self._breakers)
        for name, breaker in breakers.items():
            self._observe_breaker(name, breaker)

    def _observe_breaker(self, source: str, breaker: CircuitBreaker) -> None:
        transitions = self._metric_transitions

        def on_transition(old: str, new: str, _source=source) -> None:
            transitions.inc(source=_source, to=new)

        breaker.on_transition = on_transition

    def attach_breaker(self, source: str, breaker: CircuitBreaker) -> None:
        """Associate ``breaker`` so snapshots report its live state."""
        with self._lock:
            self._breakers[source] = breaker
        if self._metric_transitions is not None:
            self._observe_breaker(source, breaker)

    # -- event recording ---------------------------------------------------

    def record_attempt(self, source: str) -> None:
        record = self.record_for(source)
        with self._lock:
            record.attempts += 1
        if self._metric_attempts is not None:
            self._metric_attempts.inc(source=source)

    def record_success(self, source: str, latency: float) -> None:
        record = self.record_for(source)
        with self._lock:
            record.successes += 1
            record.observe_latency(latency)
        if self._metric_latency is not None:
            self._metric_latency.observe(latency, source=source)

    def record_failure(self, source: str, error: str, latency: float) -> None:
        record = self.record_for(source)
        with self._lock:
            record.failures += 1
            record.observe_latency(latency)
            record.last_error = error
        if self._metric_failures is not None:
            self._metric_failures.inc(source=source)
            self._metric_latency.observe(latency, source=source)

    def record_retry(self, source: str) -> None:
        record = self.record_for(source)
        with self._lock:
            record.retries += 1
        if self._metric_retries is not None:
            self._metric_retries.inc(source=source)

    def record_rejection(self, source: str) -> None:
        record = self.record_for(source)
        with self._lock:
            record.rejections += 1
        if self._metric_rejections is not None:
            self._metric_rejections.inc(source=source)

    # -- introspection ------------------------------------------------------

    def latency_quantile(
        self, source: str, quantile: float, min_samples: int = 1
    ) -> float | None:
        """The ``quantile`` latency over the source's sample window.

        ``None`` while the window holds fewer than ``min_samples``
        observations — adaptive timeout and hedge policies use that to
        fall back to their static cold-start values instead of acting
        on noise.
        """
        with self._lock:
            record = self._records.get(source)
            if record is None or len(record.latencies) < max(1, min_samples):
                return None
            return record.latency_percentile(quantile)

    def status(self, source: str) -> SourceHealth:
        """A frozen-in-time copy of one source's record."""
        record = self.record_for(source)
        with self._lock:
            breaker = self._breakers.get(source)
            return replace(
                record,
                breaker_state=(
                    breaker.state if breaker else record.breaker_state
                ),
                latencies=list(record.latencies),
            )

    def snapshot(self) -> dict[str, SourceHealth]:
        """Copies of every record, with live breaker states folded in."""
        with self._lock:
            names = sorted(self._records)
        return {name: self.status(name) for name in names}

    def render(self) -> str:
        return "\n".join(
            record.render() for record in self.snapshot().values()
        )

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
            breakers = list(self._breakers.values())
        for breaker in breakers:
            breaker.reset()

"""Hierarchical query spans: the tracing half of the telemetry subsystem.

A :class:`Span` is one timed unit of mediator work.  Spans form a tree
per user-visible query::

    query
    ├── view-expansion
    └── plan-stage 1..N
        └── plan-node
            ├── source-call
            ├── pattern-match
            └── external-predicate

Every span carries the ``query_id`` of its root, its parent's
``span_id``, start/end timestamps on an injectable monotonic
:class:`~repro.reliability.clock.Clock`, a status (``ok`` /
``degraded`` / ``cancelled`` / ``error``), the recording thread's name,
and a dict of typed attributes (rows in/out, cache hits, retry
attempts, breaker state, budget consumption — whatever the emitting
layer knows).

The *current* span travels in a :mod:`contextvars` context variable —
the same mechanism the execution layer's
:class:`~repro.exec.dispatcher.TaskScope` uses — so spans emitted from
:class:`~repro.exec.dispatcher.SourceDispatcher` worker threads parent
correctly without any plumbing through call signatures: the dispatcher
submits tasks with a copied context, and the copy carries the parent
span along.

Sampling is *head-based*: the keep/drop decision is made once, when the
root query span starts, from a seeded RNG — children of an unsampled
root are never materialized (creation returns a shared no-op span), so
an unsampled query costs a handful of attribute reads.  The one
exception is the **slow-query log**: the root span itself is always
timed, and a root that exceeds ``slow_query_ms`` is retained (and
listed in :attr:`Tracer.slow_queries`) even when sampling dropped it.
"""

from __future__ import annotations

import contextvars
import itertools
import random
import threading

from repro.reliability.clock import Clock, MonotonicClock

__all__ = [
    "Span",
    "SPAN_KINDS",
    "STATUSES",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "current_span",
]

#: The span kinds the mediator emits, from root to leaf.
SPAN_KINDS = (
    "query",
    "view-expansion",
    "plan-stage",
    "plan-node",
    "source-call",
    "pattern-match",
    "external-predicate",
)

#: The terminal statuses a span may carry.
STATUSES = ("ok", "degraded", "cancelled", "error")

#: The span the current thread of control is inside (None outside one).
_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_span", default=None
)


def current_span() -> "Span | None":
    """The span new child spans would parent to (None outside a trace)."""
    span = _CURRENT.get()
    return None if span is _NOOP_SPAN else span


class Span:
    """One timed, attributed unit of work inside a query trace."""

    __slots__ = (
        "kind",
        "name",
        "span_id",
        "parent_id",
        "query_id",
        "start",
        "end",
        "status",
        "attributes",
        "thread",
        "sampled",
    )

    def __init__(
        self,
        kind: str,
        name: str,
        span_id: int,
        parent_id: int | None,
        query_id: str,
        start: float,
        sampled: bool = True,
    ) -> None:
        self.kind = kind
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.query_id = query_id
        self.start = start
        self.end: float | None = None
        self.status = "ok"
        self.attributes: dict[str, object] = {}
        self.thread = threading.current_thread().name
        self.sampled = sampled

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def set_status(self, status: str) -> None:
        if status not in STATUSES:
            raise ValueError(f"unknown span status {status!r}")
        self.status = status

    def to_dict(self) -> dict[str, object]:
        """A JSON-serializable record (the JSONL exporter's row)."""
        return {
            "record": "span",
            "query_id": self.query_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "thread": self.thread,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.kind} {self.name!r} id={self.span_id}"
            f" parent={self.parent_id} status={self.status})"
        )


class _NoopSpan(Span):
    """The shared do-nothing span handed out under an unsampled root.

    Mutators are no-ops, so emission sites never need to distinguish a
    real span from a dropped one; ``sampled`` is False, so children of
    a no-op span are no-op spans too.
    """

    def __init__(self) -> None:
        super().__init__("query", "<unsampled>", -1, None, "", 0.0, False)

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def set_status(self, status: str) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _SpanScope:
    """``with tracer.span(...)`` — install, yield, auto-close.

    A plain class (not a generator context manager): span scopes open
    on every traced plan node, and the generator protocol costs ~3x a
    slotted class on entry/exit.
    """

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        span = self._span
        if exc is not None:
            self._tracer.finish_span(
                span, status=status_of_exception(exc)
            )
        elif span.end is None:
            self._tracer.finish_span(span)
        return False


class _UseScope:
    """``with tracer.use(span)`` — install as current, never close."""

    __slots__ = ("_span", "_token")

    def __init__(self, span: Span) -> None:
        self._span = span

    def __enter__(self) -> Span:
        self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        return False


class _NoopScope:
    """The shared scope for unsampled/disabled spans: pure no-op."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NOOP_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SCOPE = _NoopScope()


class Tracer:
    """Thread-safe producer and store of finished spans.

    * ``sample_rate`` — fraction of queries whose full span tree is
      kept (head-based, decided at the root; seeded, so runs are
      reproducible);
    * ``slow_query_ms`` — root spans at least this slow are always
      retained and listed in :attr:`slow_queries`, sampled or not;
    * ``max_spans`` — retention cap; once full, new spans are counted
      in :attr:`dropped` instead of stored (the trace stays a forest:
      only whole finished spans are dropped, never rewritten).
    """

    enabled = True

    #: The engine events (:mod:`repro.mediator.events`) the tracer turns
    #: into spans: every kind that has one, each opened when the work
    #: starts so the spans underneath parent to it.
    kinds = opens = frozenset(SPAN_KINDS)

    def __init__(
        self,
        sample_rate: float = 1.0,
        slow_query_ms: float | None = None,
        max_spans: int = 100_000,
        seed: int = 0,
        clock: Clock | None = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate!r}"
            )
        if slow_query_ms is not None and slow_query_ms < 0:
            raise ValueError(
                f"slow_query_ms must be non-negative, got {slow_query_ms!r}"
            )
        if max_spans < 1:
            raise ValueError(f"max_spans must be positive, got {max_spans!r}")
        self.sample_rate = sample_rate
        self.slow_query_ms = slow_query_ms
        self.max_spans = max_spans
        self.clock = clock or MonotonicClock()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        # span ids come from an itertools counter: next() on one is
        # atomic under the GIL, so the per-span hot path takes no lock
        self._span_ids = itertools.count(1)
        self._next_query = 1
        self.queries_started = 0
        self.queries_sampled = 0
        self.dropped = 0
        self.slow_queries: list[Span] = []

    # -- span production ---------------------------------------------------

    def start_query(self, name: str) -> Span:
        """Open the root span of a new query trace.

        The sampling decision is made here and inherited by every
        child.  The returned span is real even when unsampled — it must
        be timed for the slow-query log — but ``sampled`` is False, so
        all its descendants are no-ops.
        """
        with self._lock:
            query_id = f"q{self._next_query:06d}"
            self._next_query += 1
            self.queries_started += 1
            if self.sample_rate >= 1.0:
                sampled = True
            elif self.sample_rate <= 0.0:
                sampled = False
            else:
                sampled = self._rng.random() < self.sample_rate
            if sampled:
                self.queries_sampled += 1
        span = Span(
            "query", name, next(self._span_ids), None, query_id,
            self.clock.now(), sampled=sampled,
        )
        span.set_attribute("sampled", sampled)
        return span

    def start_span(
        self,
        kind: str,
        name: str,
        parent: Span | None = None,
    ) -> Span:
        """Open a child span under ``parent`` (default: the current span).

        Outside any query trace — or under an unsampled root — this
        returns the shared no-op span; emission sites treat it exactly
        like a real one.
        """
        if parent is None:
            parent = _CURRENT.get()
        if parent is None or not parent.sampled:
            return _NOOP_SPAN
        return Span(
            kind,
            name,
            next(self._span_ids),
            parent.span_id,
            parent.query_id,
            self.clock.now(),
        )

    def finish_span(self, span: Span, status: str | None = None) -> None:
        """Close ``span`` and retain it (subject to the retention cap)."""
        if span is _NOOP_SPAN:
            return
        span.end = self.clock.now()
        if status is not None:
            span.set_status(status)
        slow = (
            span.parent_id is None
            and self.slow_query_ms is not None
            and span.duration * 1000.0 >= self.slow_query_ms
        )
        if slow:
            span.set_attribute("slow", True)
        if not span.sampled and not slow:
            return
        with self._lock:
            if slow:
                self.slow_queries.append(span)
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span)

    def span(
        self, kind: str, name: str, parent: Span | None = None
    ) -> "_SpanScope | _NoopScope":
        """``with tracer.span(...) as s:`` — open, install, auto-close.

        The span becomes the current span for the block, so nested
        emissions parent to it; an exception closes it with status
        ``error`` (``cancelled`` for a cooperative cancellation) and
        propagates.
        """
        opened = self.start_span(kind, name, parent=parent)
        if opened is _NOOP_SPAN:
            return _NOOP_SCOPE
        return _SpanScope(self, opened)

    def use(self, span: Span) -> _UseScope:
        """Install an already-open span as current for a ``with`` block."""
        return _UseScope(span)

    # -- the engine's event stream -----------------------------------------

    def begin(self, event) -> None:
        """Open the span of an engine event, current while its work runs."""
        span = self.start_span(event.kind, event.name)
        event.span = (span, _CURRENT.set(span))

    def end(self, event) -> None:
        """Close an event's span with the event's attributes and status:
        the exception's when the work raised, ``degraded`` when the
        event says so."""
        span, token = event.span
        _CURRENT.reset(token)
        if span is _NOOP_SPAN:
            return
        span.attributes.update(event.attributes)
        status = "degraded" if event.attributes.get("degraded") else None
        if event.error is not None:
            status = status_of_exception(event.error)
        self.finish_span(span, status)

    # -- introspection -----------------------------------------------------

    def spans(self) -> list[Span]:
        """A snapshot of every retained finished span, in finish order."""
        with self._lock:
            return list(self._spans)

    def forest(self) -> dict[str, list[Span]]:
        """Retained spans grouped by ``query_id`` (insertion-ordered)."""
        grouped: dict[str, list[Span]] = {}
        for span in self.spans():
            grouped.setdefault(span.query_id, []).append(span)
        return grouped

    def clear(self) -> None:
        """Drop retained spans and the slow-query log (counters kept)."""
        with self._lock:
            self._spans.clear()
            self.slow_queries.clear()

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "enabled": True,
                "sample_rate": self.sample_rate,
                "slow_query_ms": self.slow_query_ms,
                "queries_started": self.queries_started,
                "queries_sampled": self.queries_sampled,
                "spans_retained": len(self._spans),
                "spans_dropped": self.dropped,
                "slow_queries": len(self.slow_queries),
            }

    def __repr__(self) -> str:
        return (
            f"Tracer(sample_rate={self.sample_rate},"
            f" {len(self.spans())} span(s))"
        )


class NoopTracer:
    """The disabled tracer: every operation is a cheap no-op.

    The mediator opens its root and view-expansion spans through it
    and never subscribes it to the engine's events, so a disabled
    mediator pays a handful of no-op calls per query — asserted "within
    noise" by ``benchmarks/bench_obs.py``.
    """

    enabled = False
    sample_rate = 0.0
    slow_query_ms = None

    def start_query(self, name: str) -> Span:
        return _NOOP_SPAN

    def start_span(
        self, kind: str, name: str, parent: Span | None = None
    ) -> Span:
        return _NOOP_SPAN

    def finish_span(self, span: Span, status: str | None = None) -> None:
        pass

    def span(
        self, kind: str, name: str, parent: Span | None = None
    ) -> _NoopScope:
        return _NOOP_SCOPE

    def use(self, span: Span) -> _NoopScope:
        return _NOOP_SCOPE

    def spans(self) -> list[Span]:
        return []

    def forest(self) -> dict[str, list[Span]]:
        return {}

    def clear(self) -> None:
        pass

    @property
    def slow_queries(self) -> list[Span]:
        return []

    def stats(self) -> dict[str, object]:
        return {"enabled": False}

    def __repr__(self) -> str:
        return "NoopTracer()"


#: The shared disabled tracer (stateless, safe to share everywhere).
NOOP_TRACER = NoopTracer()


def status_of_exception(exc: BaseException) -> str:
    """The span status an exception maps to.

    Cooperative cancellation is ``cancelled``; everything else is
    ``error``.  Matching is by class name, keeping this module free of
    upward dependencies on the governor.
    """
    for klass in type(exc).__mro__:
        if klass.__name__ == "QueryCancelled":
            return "cancelled"
    return "error"

"""The engine's event stream: one event per node run and per source call.

Everything that *watches* a query — the span tracer, the profiler, the
EXPLAIN ANALYZE recorder, the Figure 3.6 trace, the telemetry metrics —
subscribes to one stream instead of being called by hand where the
work happens.  The engine raises an :class:`Event` around each unit of
work; an :class:`~repro.mediator.engine.ExecutionContext` carries the
tuple of subscribers its mediator chose for the operation, and each
subscriber names the kinds it consumes, so an event nobody listens to
costs its raise site one constructor call and nothing else.

The kinds are the span vocabulary: ``plan-stage``, ``plan-node`` /
``pipeline-stage`` (``subject`` the node; ``rows_in``, ``attempts``,
``latency`` and ``table`` slots), ``source-call`` (``name`` the source,
``subject`` the query), ``pattern-match`` and ``external-predicate``.
``attributes`` holds what a span of the event shows;
``docs/observability.md`` has the table of payloads, raise sites and
readers.

A subscriber is any object with ``kinds`` (the kinds it wants at the
end of the interval), ``opens`` (the kinds it also wants at the start —
only the tracer, whose span must be current while the work runs) and
``end(event)`` / ``begin(event)`` to match.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mediator.plan import PlanNode
    from repro.mediator.tables import BindingTable

__all__ = ["Event", "TraceEntry", "TraceRecorder"]


class Event:
    """One interval of engine work, raised where the work happens."""

    __slots__ = (
        "kind", "name", "subject", "attributes", "error", "seconds", "heard",
        "rows_in", "attempts", "latency", "table",  # of a node run
        "span",  # the tracer's, between begin and end
        "_subscribers", "_started",
    )

    def __init__(
        self, subscribers: tuple, kind: str, name: str, subject=None
    ) -> None:
        self.kind = kind
        self.name = name
        self.subject = subject
        self.attributes: dict[str, object] = {}
        self._subscribers = subscribers
        heard = False
        for subscriber in subscribers:
            if kind in subscriber.kinds:
                heard = True
                if kind in subscriber.opens:
                    subscriber.begin(self)
        #: False when no subscriber consumes this kind: the raise site
        #: skips building the payload, and :meth:`end` does nothing
        self.heard = heard
        if heard:
            self._started = perf_counter()

    def end(self, error: BaseException | None = None) -> None:
        """Close the interval and hand the event to its subscribers.

        Work that raised is reported, with ``error``, only to the
        subscribers that saw it begin: the others count finished work.
        """
        if not self.heard:
            return
        self.seconds = perf_counter() - self._started
        self.error = error
        kind = self.kind
        for subscriber in self._subscribers:
            told = subscriber.kinds if error is None else subscriber.opens
            if kind in told:
                subscriber.end(self)


@dataclass
class TraceEntry:
    """One executed node with its output table.

    ``attempts`` counts the source calls made while the node ran
    (retries included); ``latency`` is the clock time those calls took.
    Both stay zero for nodes that never touch a source.  ``params`` are
    the constants of the run, which a template's node is described
    under.
    """

    node: "PlanNode"
    table: "BindingTable"
    attempts: int = 0
    latency: float = 0.0
    params: "Mapping[str, object] | None" = None

    def render(self) -> str:
        return f"{self.node.describe(self.params)}\n{self.table.render()}"


class TraceRecorder:
    """The Figure 3.6 subscriber: every executed node with its table,
    appended to ``trace`` as the nodes finish (the engine puts a
    plan's entries in plan order when the plan ends), with the
    constants of the run."""

    kinds = frozenset({"plan-node"})
    opens = frozenset()

    def __init__(
        self, trace: list[TraceEntry], params: "Mapping[str, object]"
    ) -> None:
        self.trace = trace
        self.params = params

    def end(self, event: Event) -> None:
        self.trace.append(
            TraceEntry(
                event.subject,
                event.table,
                event.attempts,
                event.latency,
                self.params,
            )
        )

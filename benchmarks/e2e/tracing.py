"""Outside-in tracing for the e2e suite.

Nothing here is called from ``src/``: spans are recorded by the
benchmark's own files around the calls *into* each layer.  Two
instruments do that:

* :class:`TimedSource` — a :class:`~repro.wrappers.base.Source` proxy
  put around every registered wrapper, every shard, and the store
  inside every fault injector, so one source call yields one span per
  decorator level (the outermost carries injected latency, the
  innermost is the wrapper's own work);
* :func:`staged_answer` / :func:`staged_export` — replays of what
  ``Mediator._run_query`` / ``Mediator.export`` compose, one span per
  stage, through the mediator's public collaborators.

Spans are kept in memory as (name, start, end, parent, op) records and
written out by the caller when the run ends.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter
from typing import Sequence

from repro.mediator.fusion import fuse_objects, has_semantic_oids
from repro.mediator.logical import LogicalRule
from repro.mediator.mediator import Mediator
from repro.mediator.pipeline import fuse_plan
from repro.msl.analysis import check_rule
from repro.msl.parser import parse_query
from repro.oem.compare import eliminate_duplicates
from repro.reliability.faults import FaultInjectingSource
from repro.wrappers.base import Source, Wrapper
from repro.wrappers.registry import SourceRegistry
from repro.wrappers.sharding import ShardedSource

#: Stage spans of a staged replay, in pipeline order.  Each is a direct
#: child of the op's root span; together with the residual they
#: partition the root's wall time.
STAGES = (
    "msl.parser",
    "mediator.view_expander",
    "mediator.optimizer",
    "mediator.pipeline",
    "mediator.engine",
    "oem.compare",
    "mediator.fusion",
)


#: Fields of a finished span.  Spans are plain tuples of numbers and
#: strings: the collector stops tracking those, so a long traced run
#: does not slow down under the weight of its own trace.
ID, NAME, START, END, PARENT, OP, OBJECTS = range(7)
NO_PARENT = -1
#: ``OBJECTS`` of a span that is not a source call.
NOT_A_CALL = -1


class _SpanScope:
    """``with recorder.span(name) as scope``; ``scope.seconds`` after."""

    __slots__ = ("recorder", "name", "open", "id", "seconds")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_SpanScope":
        self.open = self.recorder.begin(self.name)
        self.id = self.open[ID]
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = self.recorder.end(self.open)


class SpanRecorder:
    """In-memory span store for one closed-loop client.

    The client thread's open spans form one stack.  A span begun on
    any other thread (a dispatcher worker) with nothing open on that
    thread parents to the client's innermost open span: with one
    client, that is the stage that is blocked waiting for the worker.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = False
        self.op = -1
        #: When a list, leaf-wrapper proxies append ``(wrapper, query)``
        #: for every call, for the candidate census taken after timing.
        self.captured: list[tuple[Wrapper, object]] | None = None
        self._ids = itertools.count()
        self._client = threading.get_ident()
        self._client_stack: list[list] = []
        self._workers = threading.local()

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._workers, "stack", None)
        if stack is None:
            stack = self._workers.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][ID]
        elif self._client_stack:
            parent = self._client_stack[-1][ID]
        else:
            parent = NO_PARENT
        span = [next(self._ids), name, 0.0, parent]
        stack.append(span)
        span[START] = perf_counter()
        return span

    def end(self, span: list, objects: int = NOT_A_CALL) -> float:
        ended = perf_counter()
        self._stack().pop()
        identity, name, started, parent = span
        self.spans.append(
            (identity, name, started, ended, parent, self.op, objects)
        )
        return ended - started

    def span(self, name: str) -> _SpanScope:
        return _SpanScope(self, name)

    def rows(self) -> list[dict]:
        """The spans as JSON-ready records."""
        return [
            {
                "id": span[ID],
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "parent": None if span[PARENT] == NO_PARENT else span[PARENT],
                "op": span[OP],
            }
            for span in self.spans
        ]


def layer_name(source: Source) -> str:
    """``repro.wrappers.oem_wrapper.OEMStoreWrapper`` -> ``wrappers.oem_wrapper``."""
    return type(source).__module__.removeprefix("repro.")


class TimedSource(Source):
    """A transparent proxy recording one span per source call."""

    def __init__(self, inner: Source, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.name = inner.name
        self.recorder = recorder
        self.span_name = layer_name(inner)
        self._leaf = isinstance(inner, Wrapper)

    @property
    def capability(self):
        return self.inner.capability

    @property
    def schema_facts(self):
        return self.inner.schema_facts

    def stats(self) -> dict[str, object]:
        return self.inner.stats()

    def reset_counters(self) -> None:
        self.inner.reset_counters()

    def answer(self, query):
        recorder = self.recorder
        if not recorder.enabled:
            return self.inner.answer(query)
        if self._leaf and recorder.captured is not None:
            recorder.captured.append((self.inner, query))
        return self._timed(self.inner.answer, query)

    def export(self) -> Sequence:
        if not self.recorder.enabled:
            return self.inner.export()
        return self._timed(self.inner.export)

    def _timed(self, call, *args):
        span = self.recorder.begin(self.span_name)
        objects = NOT_A_CALL
        try:
            result = call(*args)
            objects = len(result)
            return result
        finally:
            self.recorder.end(span, objects)


def _wrap(source: Source, recorder: SpanRecorder) -> Source:
    if isinstance(source, ShardedSource):
        # the optimizer addresses shards by qualified name, so the
        # proxies go around each shard and the router stays a router
        return ShardedSource(
            source.name,
            [_wrap(shard, recorder) for shard in source.shards],
            source.partition,
        )
    if isinstance(source, FaultInjectingSource):
        source.inner = _wrap(source.inner, recorder)
    return TimedSource(source, recorder)


def install_proxies(registry: SourceRegistry, recorder: SpanRecorder) -> None:
    """Re-register every non-mediator source behind a :class:`TimedSource`."""
    for source in list(registry):
        if isinstance(source, Mediator):
            continue
        registry.deregister(source.name)
        registry.register(_wrap(source, recorder))


# -- staged replays -------------------------------------------------------


def _plan_and_run(mediator, recorder, make_plan, context, counts):
    with recorder.span("mediator.optimizer"):
        plan = make_plan()
    counts["plan_nodes"] += len(plan.nodes())
    if mediator.fuse:
        with recorder.span("mediator.pipeline"):
            plan, decisions = fuse_plan(plan)
        counts["fused_operators"] += sum(
            len(d.nodes) for d in decisions if d.fused
        )
    with recorder.span("mediator.engine"):
        return mediator.engine.execute_to_objects(plan, context)


def staged_answer(mediator: Mediator, text: str, recorder: SpanRecorder):
    """``Mediator.answer(text)`` minus the facade, one span per stage.

    Returns ``(objects, context, counts)``.  The execution context
    comes from the mediator (it alone knows its own execution
    settings); its construction lands in the residual.
    """
    counts = {"logical_rules": 0, "plan_nodes": 0, "fused_operators": 0}
    with recorder.span("msl.parser"):
        query = parse_query(text)
        check_rule(query, is_query=True)
    with recorder.span("mediator.view_expander"):
        program = mediator.expander.expand(query)
    counts["logical_rules"] = len(program)
    context = mediator._context()
    objects = _plan_and_run(
        mediator,
        recorder,
        lambda: mediator.optimizer.plan_program(program),
        context,
        counts,
    )
    with recorder.span("mediator.fusion"):
        if has_semantic_oids(objects):
            objects = fuse_objects(objects)
    return objects, context, counts


def staged_export(mediator: Mediator, recorder: SpanRecorder):
    """``Mediator.export()`` minus the facade, one span per stage."""
    counts = {
        "logical_rules": len(mediator.specification.rules),
        "plan_nodes": 0,
        "fused_operators": 0,
    }
    context = mediator._context()
    objects: list = []
    for rule in mediator.specification.rules:
        objects.extend(
            _plan_and_run(
                mediator,
                recorder,
                lambda: mediator.optimizer.plan_rule(LogicalRule(rule)),
                context,
                counts,
            )
        )
    with recorder.span("oem.compare"):
        objects = eliminate_duplicates(objects)
    with recorder.span("mediator.fusion"):
        if has_semantic_oids(objects):
            objects = fuse_objects(objects)
    return objects, context, counts


# -- span arithmetic --------------------------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def account(root_id: int, spans: list[tuple]) -> dict[str, float]:
    """Where one staged op's wall time went, in seconds.

    Stage spans are the root's direct children and never overlap.
    Source calls may (dispatcher workers), so the engine is charged
    its span minus the *union* of the outermost source-call intervals
    (``wait``): stages + ``wait`` + ``residual`` equals ``wall``.
    Beside that partition: ``busy`` is the plain sum of the outermost
    source calls, ``layer:<name>`` sums each proxy level, and
    ``wrappers`` sums the levels that are wrappers (injected latency is
    the fault injector's, not theirs).
    """
    by_id = {span[ID]: span for span in spans}
    root = by_id[root_id]
    out = {stage: 0.0 for stage in STAGES}
    out.update(
        wall=root[END] - root[START],
        busy=0.0,
        calls=0.0,
        objects=0.0,
        wrappers=0.0,
    )
    outermost: list[tuple[float, float]] = []
    for span in spans:
        seconds = span[END] - span[START]
        if span[PARENT] == root_id:
            out[span[NAME]] += seconds
        if span[OBJECTS] == NOT_A_CALL:
            continue
        key = f"layer:{span[NAME]}"
        out[key] = out.get(key, 0.0) + seconds
        if span[NAME].startswith("wrappers."):
            out["wrappers"] += seconds
        if by_id[span[PARENT]][OBJECTS] == NOT_A_CALL:
            # not nested in another source call
            outermost.append((span[START], span[END]))
            out["busy"] += seconds
            out["calls"] += 1
            out["objects"] += span[OBJECTS]
    out["wait"] = union_length(outermost)
    out["residual"] = out["wall"] - sum(out[stage] for stage in STAGES)
    out["engine_self"] = out["mediator.engine"] - out["wait"]
    return out

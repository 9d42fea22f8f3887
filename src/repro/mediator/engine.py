"""The datamerge engine: bottom-up execution of physical graphs.

Third stage of the MSI pipeline (Figure 2.5): "the datamerge engine
executes the plan and produces the required result objects".  Execution
is bottom-up over the plan's topological order, exactly as the paper
walks Figure 3.6 ("the datamerge engine executes the graph in a
bottom-up fashion; first, the lower query node is executed ...").

The :class:`ExecutionContext` carries everything nodes need: the source
registry for shipping queries, the external-function registry, an oid
generator for constructed objects, optional statistics feedback, and —
when tracing is on — the intermediate table of every node, which is how
tests and benchmarks replay the figure's tables.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING

from repro.exec.dispatcher import TaskScope, current_scope, scope_active
from repro.mediator.plan import PhysicalPlan, PlanNode, QueryNode
from repro.mediator.tables import BindingTable
from repro.msl.ast import PatternCondition, Rule
from repro.obs.span import Span, status_of_exception
from repro.oem.model import OEMObject
from repro.oem.oid import OidGenerator
from repro.reliability.deadline import call_allowance_scope
from repro.reliability.health import SourceWarning
from repro.reliability.hedging import current_hedge_role
from repro.wrappers.base import SourceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.dispatcher import SourceDispatcher
    from repro.exec.profile import Profiler
    from repro.external.registry import ExternalRegistry
    from repro.governor.budget import QueryGovernor
    from repro.mediator.statistics import SourceStatistics
    from repro.msl.compile import CompileCache
    from repro.obs.insight import QueryInsight
    from repro.obs.span import Tracer
    from repro.obs.telemetry import Telemetry
    from repro.reliability.deadline import DeadlineSlicer
    from repro.reliability.resilient import ResilienceManager
    from repro.wrappers.registry import SourceRegistry

__all__ = ["ExecutionContext", "DatamergeEngine", "TraceEntry"]


@dataclass
class TraceEntry:
    """One executed node with its output table.

    ``attempts`` counts the source calls made while the node ran
    (retries included); ``latency`` is the clock time those calls took.
    Both stay zero for nodes that never touch a source.
    """

    node: PlanNode
    table: BindingTable
    attempts: int = 0
    latency: float = 0.0

    def render(self) -> str:
        return f"{self.node.describe()}\n{self.table.render()}"


@dataclass
class ExecutionContext:
    """Shared state for one plan execution."""

    sources: "SourceRegistry"
    externals: "ExternalRegistry"
    oidgen: OidGenerator = field(default_factory=lambda: OidGenerator("&m"))
    statistics: "SourceStatistics | None" = None
    trace: list[TraceEntry] | None = None
    queries_sent: dict[str, int] = field(default_factory=dict)
    objects_received: dict[str, int] = field(default_factory=dict)
    resilience: "ResilienceManager | None" = None
    on_source_failure: str = "fail"
    warnings: list[SourceWarning] = field(default_factory=list)
    attempts_made: int = 0
    source_latency: float = 0.0
    governor: "QueryGovernor | None" = None
    dispatcher: "SourceDispatcher | None" = None
    compiler: "CompileCache | None" = None
    profiler: "Profiler | None" = None
    # telemetry: None when disabled, so every emission site is one
    # ``is not None`` check on the hot path; per-source call counts are
    # buffered in queries_sent/objects_received and rolled into the
    # registry once per run by flush_telemetry()
    tracer: "Tracer | None" = None
    telemetry: "Telemetry | None" = None
    # deadline propagation: when a slicer is attached, every source
    # call runs under a per-call time allowance (its stage's share of
    # the remaining wall-clock budget), enforced by the resilient layer
    slicer: "DeadlineSlicer | None" = None
    # brownout rung 3: run this query's stages inline even when the
    # dispatcher has worker threads — per-query fan-out competes with
    # *other* queries for the pool under overload (caching, dedup, and
    # bulkheads still apply through dispatcher.fetch)
    force_sequential: bool = False
    # stage number of the node currently executing (set by the engine
    # when a deadline slicer is attached); a fused pipeline node reads
    # it as the base for its constituents' per-stage slicer advances
    stage_base: int = 1
    # semi-join shipping: when on, a parameterized-query batch against
    # a batch-capable source ships one value filter per probe group and
    # target instead of one probe per distinct tuple
    semijoin: bool = True
    # sharding/semi-join accounting for explain() and telemetry
    semijoin_batches: int = 0
    semijoin_probes: int = 0
    shards_scanned: int = 0
    shards_pruned: int = 0
    # plan observability: when an EXPLAIN ANALYZE insight rides along,
    # every executed operator folds its rows/time into it; q-errors on
    # annotated nodes always feed statistics + telemetry, insight or not
    insight: "QueryInsight | None" = None
    # mid-query adaptivity: an operator whose actual rows exceed its
    # estimate by this factor raises a misestimate event, records a
    # correction ratio for its (source, label) bucket, and lets the
    # staged executor re-rank not-yet-dispatched stages; 0 disables
    misestimate_factor: float = 4.0
    misestimate_events: int = 0
    estimate_corrections: dict[tuple[str, str], float] = field(
        default_factory=dict
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    def record_semijoin(self, batches: int, probes: int) -> None:
        """Account one batched shipping round: ``batches`` filters went
        to the wire in place of ``probes`` distinct per-tuple queries."""
        with self._lock:
            self.semijoin_batches += batches
            self.semijoin_probes += probes

    def record_shard_fanout(self, scanned: int, pruned: int) -> None:
        """Account one sharded leaf fan-out (shards probed vs pruned)."""
        with self._lock:
            self.shards_scanned += scanned
            self.shards_pruned += pruned

    @property
    def semijoin_probes_saved(self) -> int:
        """Wire queries avoided by batching: distinct probes that would
        have shipped individually, minus the filters actually sent."""
        return max(0, self.semijoin_probes - self.semijoin_batches)

    def observe_node(
        self,
        node: PlanNode,
        rows_in: int,
        rows_out: int,
        seconds: float,
        latency: float = 0.0,
    ) -> None:
        """Fold one executed operator into the observability loop.

        Three consumers, each optional: the EXPLAIN ANALYZE insight
        (rows/time per node), the q-error trackers (statistics +
        telemetry, for nodes carrying an optimizer estimate key), and
        the misestimate detector.  Unannotated nodes without an insight
        attached make this a cheap no-op, so the hook is safe on every
        operator of every run.
        """
        if self.insight is not None:
            self.insight.observe_node(
                node, rows_in, rows_out, seconds, latency
            )
        estimated = node.estimated_rows
        if estimated is None:
            return
        key = node.estimate_key
        if key is not None:
            from repro.mediator.statistics import qerror

            error = qerror(estimated, rows_out)
            source, label, kind = key
            if self.statistics is not None:
                self.statistics.record_qerror(source, label, kind, error)
            if self.telemetry is not None:
                self.telemetry.record_qerror(source, label, kind, error)
        factor = self.misestimate_factor
        if factor and rows_out > max(estimated, 0.5) * factor:
            self._record_misestimate(node, estimated, rows_out)

    def _record_misestimate(
        self, node: PlanNode, estimated: float, actual: int
    ) -> None:
        """One underestimate big enough to react to mid-query."""
        correction = actual / max(estimated, 0.5)
        key = node.estimate_key
        with self._lock:
            self.misestimate_events += 1
            if key is not None:
                bucket = (key[0], key[1])
                if correction > self.estimate_corrections.get(bucket, 1.0):
                    self.estimate_corrections[bucket] = correction
        if self.telemetry is not None:
            self.telemetry.record_misestimate(key[0] if key else "")
        tracer = self.tracer
        if tracer is not None:
            span = tracer.start_span("misestimate", type(node).__name__)
            span.set_attribute("estimated_rows", estimated)
            span.set_attribute("actual_rows", actual)
            span.set_attribute("correction", correction)
            tracer.finish_span(span)
        if self.insight is not None:
            if key is not None:
                action = (
                    f"recorded {correction:.1f}x correction for"
                    f" {key[0]}/{key[1]}; undispatched stages re-rank"
                    " against it"
                )
            else:
                action = "noted (no statistics bucket to correct)"
            self.insight.record_misestimate(node, estimated, actual, action)

    def corrected_estimate(self, node: PlanNode) -> "float | None":
        """``estimated_rows`` adjusted by any recorded correction."""
        estimated = node.estimated_rows
        if estimated is None:
            return None
        key = node.estimate_key
        if key is None:
            return estimated
        with self._lock:
            ratio = self.estimate_corrections.get((key[0], key[1]), 1.0)
        return estimated * ratio

    def send_query(self, source_name: str, query: Rule) -> list[OEMObject]:
        """Ship ``query`` to a source, with accounting and statistics.

        With a :class:`ResilienceManager` attached, the source is
        called through its resilient wrapper (timeout + retry +
        breaker).  In ``degrade`` mode a source that still fails
        contributes an empty answer and a :class:`SourceWarning`
        instead of aborting the whole datamerge run.

        With a :class:`QueryGovernor` attached, the run-level deadline
        and cancellation token are checked *before* the call is shipped
        (so the engine cannot burn unbounded time between calls), and
        the answer passes through the governor's sanitizer before it
        may enter a binding table.

        With a :class:`~repro.exec.dispatcher.SourceDispatcher`
        attached (and active), the call routes through the answer
        cache and the single-flight dedup layer; only cache misses
        without an identical in-flight request actually ship.
        """
        if self.governor is not None and not self.governor.allow_source_call(
            source_name
        ):
            # truncate mode past the deadline: contribute nothing,
            # warned once by the governor
            return []
        dispatcher = self.dispatcher
        if dispatcher is not None and dispatcher.active:
            if dispatcher.hedging is not None and current_scope() is None:
                # hedged attempts record into fresh scopes and the
                # dispatcher merges the winner's back into the current
                # one — guarantee a scope exists (the sequential path
                # has none) so winner warnings aren't dropped
                scope = TaskScope()
                with scope_active(scope):
                    result = dispatcher.fetch(
                        source_name,
                        str(query),
                        lambda: self._ship(source_name, query),
                    )
                self.warnings.extend(scope.warnings)
                return result
            return dispatcher.fetch(
                source_name,
                str(query),
                lambda: self._ship(source_name, query),
            )
        return self._ship(source_name, query)[0]

    def _ship(
        self, source_name: str, query: Rule
    ) -> tuple[list[OEMObject], bool]:
        """One source call under its deadline slice (see `_ship_now`)."""
        slicer = self.slicer
        if slicer is None:
            return self._ship_now(source_name, query)
        with call_allowance_scope(slicer.call_allowance(source_name)):
            return self._ship_now(source_name, query)

    def _ship_now(
        self, source_name: str, query: Rule
    ) -> tuple[list[OEMObject], bool]:
        """The real source call (reliability-wrapped), with accounting.

        Returns ``(answer, cacheable)`` — a degraded answer is an
        absence, not an observation, so it is never cacheable.  Safe to
        run on a dispatcher worker thread: run-wide counters mutate
        under the context lock, and per-call warnings/attempts go to
        the active :class:`TaskScope` (when one is installed) so the
        coordinator can merge them back in deterministic order.
        """
        source = self.sources.resolve(source_name)
        resilient = None
        if self.resilience is not None:
            source = resilient = self.resilience.wrap(source)
        scope = current_scope()
        sink = scope.warnings if scope is not None else self.warnings
        tracer = self.tracer
        span = (
            tracer.start_span("source-call", source_name)
            if tracer is not None
            else None
        )
        degraded = False
        try:
            result = source.answer(query)
            if self.governor is not None:
                # strict sanitation raises MalformedAnswerError, which
                # is a SourceError: degrade mode treats a malformed
                # source like an unavailable one
                result = self.governor.sanitize_answer(
                    source_name, result, sink=sink
                )
        except SourceError as exc:
            if self.on_source_failure != "degrade":
                if span is not None:
                    span.set_attribute("error", type(exc).__name__)
                    tracer.finish_span(span, status="error")
                raise
            degraded = True
            attempts = (
                resilient.last_call_stats()[0] if resilient is not None else 1
            )
            sink.append(
                SourceWarning(
                    source=source_name,
                    message=str(exc),
                    attempts=attempts,
                    error=type(exc).__name__,
                )
            )
            result = []
        if resilient is not None:
            attempts, elapsed = resilient.last_call_stats()
        else:
            attempts, elapsed = 1, 0.0
        if span is not None:
            span.set_attribute("attempts", attempts)
            span.set_attribute("objects", len(result))
            span.set_attribute("cacheable", not degraded)
            role = current_hedge_role()
            if role is not None:
                span.set_attribute("hedge_role", role)
            if degraded:
                span.set_attribute("degraded", True)
            if resilient is not None:
                span.set_attribute("breaker", resilient.breaker.state)
            tracer.finish_span(
                span, status="degraded" if degraded else "ok"
            )
        if scope is not None:
            scope.attempts += attempts
            scope.latency += elapsed
        with self._lock:
            self.attempts_made += attempts
            self.source_latency += elapsed
            self.queries_sent[source_name] = (
                self.queries_sent.get(source_name, 0) + 1
            )
            self.objects_received[source_name] = (
                self.objects_received.get(source_name, 0) + len(result)
            )
            if (
                self.statistics is not None
                and not degraded
                and not getattr(query, "is_semijoin", False)
            ):
                # degraded answers are absences, not observations —
                # feeding them to the optimizer would teach it the
                # source is empty.  Semi-join batches are skipped here:
                # one answer spans many probe tuples, so the shipping
                # node records a per-probe mean once it has
                # demultiplexed the answer.
                for condition in query.tail:
                    if isinstance(condition, PatternCondition):
                        self.statistics.record(
                            source_name, condition.pattern, len(result)
                        )
        return result, not degraded

    def flush_telemetry(self) -> None:
        """Roll this run's buffered source-call totals into the registry.

        ``_ship`` buffers per-source call and object counts in
        ``queries_sent`` / ``objects_received`` (under the context lock
        it already takes); flushing once per run costs two counter
        increments per *source* instead of two per *call* — the
        difference between ~2% and ~0 overhead on fan-out queries.
        Cache hits never reach ``_ship``, so the flushed totals count
        exactly the queries that shipped.
        """
        if self.telemetry is not None and self.queries_sent:
            with self._lock:
                calls = dict(self.queries_sent)
                received = dict(self.objects_received)
            self.telemetry.record_source_calls(calls, received)
        if self.telemetry is not None and (
            self.semijoin_batches or self.shards_scanned
        ):
            with self._lock:
                batches = self.semijoin_batches
                saved = self.semijoin_probes_saved
                pruned = self.shards_pruned
            self.telemetry.record_sharding(batches, saved, pruned)

    @property
    def total_queries(self) -> int:
        return sum(self.queries_sent.values())

    @property
    def total_objects(self) -> int:
        return sum(self.objects_received.values())


def _traced_execute(
    node: PlanNode,
    inputs: list[BindingTable],
    context: ExecutionContext,
    stage_span: "Span | None",
) -> BindingTable:
    """Run one node inside a plan-node span.

    The span is current while the node executes, so source-call,
    pattern-match and external-predicate spans emitted underneath
    parent to it — including spans from dispatcher workers, which
    inherit the node span through their copied context.  With
    ``stage_span=None`` the parent is taken from the calling context
    (the stage span a worker inherited).  Untraced runs fall straight
    through to ``node.execute``.
    """
    tracer = context.tracer
    if tracer is None:
        return node.execute(inputs, context)
    span = tracer.start_span(
        "plan-node", type(node).__name__, parent=stage_span
    )
    try:
        with tracer.use(span):
            table = node.execute(inputs, context)
    except BaseException as exc:
        tracer.finish_span(span, status=status_of_exception(exc))
        raise
    span.set_attribute("rows_out", len(table))
    tracer.finish_span(span)
    return table


def _rerank_stage(
    stage_index: int,
    stage: list[PlanNode],
    context: ExecutionContext,
) -> list[PlanNode]:
    """Re-order a not-yet-dispatched stage after a misestimate.

    Within a stage every node is independent of the others, so order
    only affects dispatch sequence (and warning interleaving), never
    the answer.  Cheapest-corrected-estimate-first mirrors the
    optimizer's smallest-first join ordering; nodes without estimates
    keep their relative position at the end.  Runs only when at least
    one node in the stage is touched by a recorded correction, and
    records the decision into the analyze output when the order
    actually changes.
    """
    if len(stage) < 2:
        return stage
    affected = False
    for node in stage:
        key = node.estimate_key
        if key is not None and (key[0], key[1]) in context.estimate_corrections:
            affected = True
            break
    if not affected:
        return stage
    estimates = [context.corrected_estimate(node) for node in stage]
    order = sorted(
        range(len(stage)),
        key=lambda i: (estimates[i] is None, estimates[i] or 0.0, i),
    )
    if order == list(range(len(stage))):
        return stage
    reranked = [stage[i] for i in order]
    insight = context.insight
    if insight is not None:
        insight.record_rerank(
            stage_index,
            [insight.key_of(n) or type(n).__name__ for n in stage],
            [insight.key_of(n) or type(n).__name__ for n in reranked],
        )
    return reranked


class DatamergeEngine:
    """Executes physical datamerge plans."""

    def __init__(self, trace: bool = False) -> None:
        self.trace_enabled = trace
        self.last_trace: list[TraceEntry] = []

    def execute(
        self, plan: PhysicalPlan, context: ExecutionContext
    ) -> BindingTable:
        """Run ``plan`` bottom-up; return the root's output table.

        With a governor attached, every node boundary is a cooperative
        checkpoint: the cancellation token and the run deadline are
        checked before each node executes, and the governor learns
        which node is running so budget violations can name it.
        """
        if self.trace_enabled and context.trace is None:
            context.trace = []
        governor = context.governor
        if governor is not None:
            governor.start()
        slicer = context.slicer
        if slicer is not None:
            # depth() counts every constituent of a fused pipeline
            # node, so the slicer sees the same stage count with or
            # without operator fusion
            slicer.begin_plan(plan.depth())
        dispatcher = context.dispatcher
        if (
            dispatcher is not None
            and dispatcher.parallel
            and not context.force_sequential
        ):
            return self._execute_staged(plan, context, dispatcher)
        outputs: dict[int, BindingTable] = {}
        tracer = context.tracer
        # stage spans are *logical* here: the sequential executor walks
        # nodes in DFS order (stages interleave), so each stage's span
        # opens at its first node and closes when the plan finishes —
        # the tree shape matches the staged executor's, not the timing
        stage_spans: dict[int, Span] = {}
        stage_of: dict[int, int] = {}
        if tracer is not None or slicer is not None:
            for index, stage in plan.stage_starts():
                for node in stage:
                    stage_of[id(node)] = index
        try:
            for node in plan.nodes():
                if governor is not None:
                    governor.enter_node(node)
                if slicer is not None:
                    index = stage_of[id(node)]
                    slicer.enter_stage(index)
                    context.stage_base = index
                inputs = [outputs[id(child)] for child in node.inputs]
                attempts_before = context.attempts_made
                latency_before = context.source_latency
                rows_in = sum(len(table) for table in inputs)
                profiler = context.profiler
                started = perf_counter()
                stage_span = None
                if tracer is not None:
                    index = stage_of[id(node)]
                    stage_span = stage_spans.get(index)
                    if stage_span is None:
                        stage_span = stage_spans[index] = tracer.start_span(
                            "plan-stage", f"stage-{index}"
                        )
                table = _traced_execute(node, inputs, context, stage_span)
                elapsed = perf_counter() - started
                if profiler is not None:
                    profiler.record_node(
                        type(node).__name__,
                        len(table),
                        elapsed,
                        context.source_latency - latency_before,
                    )
                context.observe_node(
                    node,
                    rows_in,
                    len(table),
                    elapsed,
                    context.source_latency - latency_before,
                )
                outputs[id(node)] = table
                if context.trace is not None:
                    context.trace.append(
                        TraceEntry(
                            node,
                            table,
                            attempts=context.attempts_made - attempts_before,
                            latency=context.source_latency - latency_before,
                        )
                    )
        except BaseException as exc:
            if tracer is not None:
                status = status_of_exception(exc)
                for span in stage_spans.values():
                    if span.end is None:
                        tracer.finish_span(span, status=status)
            raise
        if tracer is not None:
            for span in stage_spans.values():
                tracer.finish_span(span)
        if context.trace is not None:
            self.last_trace = context.trace
        return outputs[id(plan.root)]

    def _execute_staged(
        self,
        plan: PhysicalPlan,
        context: ExecutionContext,
        dispatcher: "SourceDispatcher",
    ) -> BindingTable:
        """Stage-parallel execution: fan out each stage's leaf queries.

        Nodes are grouped by topological depth; within a stage every
        node is independent of the others.  Leaf :class:`QueryNode`\\ s
        of a stage run concurrently on the dispatcher's worker pool;
        everything else (including :class:`ParameterizedQueryNode`,
        which fans out its own per-tuple batch) runs inline on this
        thread, so only the coordinating thread ever blocks on futures
        — no nested-pool deadlock.  Warnings and trace figures are
        merged back in topological order, which keeps parallel runs'
        reporting deterministic.
        """
        governor = context.governor
        tracer = context.tracer
        slicer = context.slicer
        outputs: dict[int, BindingTable] = {}
        entries: dict[int, TraceEntry] = {}
        for stage_index, stage in plan.stage_starts():
            if context.estimate_corrections:
                stage = _rerank_stage(stage_index, stage, context)
            if slicer is not None:
                slicer.enter_stage(stage_index)
                context.stage_base = stage_index
            stage_span = (
                tracer.start_span("plan-stage", f"stage-{stage_index}")
                if tracer is not None
                else None
            )
            try:
                self._run_stage(
                    stage, context, dispatcher, outputs, entries, stage_span
                )
            except BaseException as exc:
                if stage_span is not None and stage_span.end is None:
                    tracer.finish_span(
                        stage_span, status=status_of_exception(exc)
                    )
                raise
            if stage_span is not None:
                tracer.finish_span(stage_span)
        if context.trace is not None:
            context.trace.extend(
                entries[id(node)]
                for node in plan.nodes()
                if id(node) in entries
            )
            self.last_trace = context.trace
        return outputs[id(plan.root)]

    @staticmethod
    def _run_stage(
        stage: list[PlanNode],
        context: ExecutionContext,
        dispatcher: "SourceDispatcher",
        outputs: dict[int, BindingTable],
        entries: dict[int, TraceEntry],
        stage_span: "Span | None",
    ) -> None:
        """Run one stage: fan out its leaf queries, inline the rest.

        When tracing, the dispatcher submission happens inside the
        stage span's context, so worker threads (which run tasks in a
        copied :mod:`contextvars` context) parent their plan-node spans
        to the stage automatically.
        """
        governor = context.governor
        tracer = context.tracer
        leaves = [node for node in stage if isinstance(node, QueryNode)]
        leaf_ids = {id(node) for node in leaves}
        if leaves:
            if governor is not None:
                for node in leaves:
                    governor.enter_node(node)
            thunks = [
                (lambda n=node: _traced_execute(n, [], context, None))
                for node in leaves
            ]
            if tracer is not None:
                with tracer.use(stage_span):
                    outcomes = dispatcher.run_tasks(thunks)
            else:
                outcomes = dispatcher.run_tasks(thunks)
            first_error: BaseException | None = None
            for node, outcome in zip(leaves, outcomes):
                context.warnings.extend(outcome.scope.warnings)
                if outcome.error is not None:
                    if first_error is None:
                        first_error = outcome.error
                    continue
                table = outcome.value
                assert isinstance(table, BindingTable)
                outputs[id(node)] = table
                if context.profiler is not None:
                    context.profiler.record_node(
                        type(node).__name__,
                        len(table),
                        outcome.scope.latency,
                        outcome.scope.latency,
                    )
                context.observe_node(
                    node,
                    0,
                    len(table),
                    outcome.scope.latency,
                    outcome.scope.latency,
                )
                if context.trace is not None:
                    entries[id(node)] = TraceEntry(
                        node,
                        table,
                        attempts=outcome.scope.attempts,
                        latency=outcome.scope.latency,
                    )
            if first_error is not None:
                raise first_error
        for node in stage:
            if id(node) in leaf_ids:
                continue
            if governor is not None:
                governor.enter_node(node)
            inputs = [outputs[id(child)] for child in node.inputs]
            rows_in = sum(len(table) for table in inputs)
            scope = TaskScope()
            profiler = context.profiler
            started = perf_counter()
            with scope_active(scope):
                table = _traced_execute(node, inputs, context, stage_span)
            elapsed = perf_counter() - started
            if profiler is not None:
                profiler.record_node(
                    type(node).__name__, len(table), elapsed, scope.latency
                )
            context.observe_node(
                node, rows_in, len(table), elapsed, scope.latency
            )
            context.warnings.extend(scope.warnings)
            outputs[id(node)] = table
            if context.trace is not None:
                entries[id(node)] = TraceEntry(
                    node,
                    table,
                    attempts=scope.attempts,
                    latency=scope.latency,
                )

    def execute_to_objects(
        self, plan: PhysicalPlan, context: ExecutionContext
    ) -> list[OEMObject]:
        """Run ``plan`` and return the result objects of the root table."""
        table = self.execute(plan, context)
        column = table.position(table.columns[0])
        objects: list[OEMObject] = []
        for row in table.rows:
            value = row[column]
            if isinstance(value, OEMObject):
                objects.append(value)
        return objects

    def render_trace(self) -> str:
        """The Figure 3.6 walkthrough: every node with its table."""
        return "\n\n".join(entry.render() for entry in self.last_trace)

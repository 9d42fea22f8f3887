"""The datamerge engine: bottom-up execution of physical graphs.

Third stage of the MSI pipeline (Figure 2.5): "the datamerge engine
executes the plan and produces the required result objects".  Execution
is bottom-up, exactly as the paper walks Figure 3.6 ("the datamerge
engine executes the graph in a bottom-up fashion; first, the lower
query node is executed ...").

There is one executor and one bookkeeping site.
:meth:`DatamergeEngine.execute` is a single loop over the plan's
topological stages; a stage's leaf queries run on the dispatcher's
worker pool when there is one and inline otherwise, so sequential
execution is the one-worker case of the same loop, not a second code
path.  Every node — pooled, inline, or a constituent of a fused
pipeline — goes through :func:`run_node`, the only place a node meets
the governor, the tracer, the clock, the profiler, the observability
loop and the trace.

The :class:`ExecutionContext` carries everything nodes need: the source
registry for shipping queries, the external-function registry, an oid
generator for constructed objects, optional statistics feedback, and —
when tracing is on — the intermediate table of every node, which is how
tests and benchmarks replay the figure's tables.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING

from repro.exec.dispatcher import TaskScope, current_scope, scope_active
from repro.mediator.plan import PhysicalPlan, PlanNode, QueryNode
from repro.mediator.statistics import qerror
from repro.mediator.tables import BindingTable
from repro.msl.ast import PatternCondition, Rule
from repro.msl.compile import CompileCache
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
    from repro.obs.insight import QueryInsight
    from repro.obs.span import Tracer
    from repro.obs.telemetry import Telemetry
    from repro.reliability.deadline import DeadlineSlicer
    from repro.reliability.resilient import ResilienceManager
    from repro.wrappers.registry import SourceRegistry

__all__ = ["ExecutionContext", "DatamergeEngine", "TraceEntry", "run_node"]


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
    # the mediator hands in its memo; a bare context builds its own
    compiler: CompileCache = field(default_factory=CompileCache)
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
    # engine re-rank not-yet-dispatched stages; 0 disables
    misestimate_factor: float = 4.0
    misestimate_events: int = 0
    estimate_corrections: dict[tuple[str, str], float] = field(
        default_factory=dict
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    def run_scope(self) -> TaskScope:
        """The scope the coordinating thread runs this plan's nodes in:
        its warnings *are* the context's (recorded at once, in call
        order); attempts and latency are read as per-node deltas."""
        scope = TaskScope()
        scope.warnings = self.warnings
        return scope

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
        if current_scope() is None:
            # the engine runs every node under a scope; only a bare
            # call from outside it (a unit test or tool driving a node
            # or this method directly, which is supported) has none —
            # lend it one that records straight into this context, so
            # nothing below has to ask whether a scope exists
            with scope_active(self.run_scope()):
                return self.send_query(source_name, query)
        if self.governor is not None and not self.governor.allow_source_call(
            source_name
        ):
            # truncate mode past the deadline: contribute nothing,
            # warned once by the governor
            return []
        dispatcher = self.dispatcher
        if dispatcher is not None and dispatcher.active:
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
        the active :class:`TaskScope` so the coordinator can merge them
        back in deterministic order.
        """
        source = self.sources.resolve(source_name)
        resilient = None
        if self.resilience is not None:
            source = resilient = self.resilience.wrap(source)
        scope = current_scope()
        sink = scope.warnings
        tracer = self.tracer
        span = (
            tracer.start_span("source-call", source_name)
            if tracer is not None
            else None
        )
        degraded = False
        started = perf_counter()
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
            attempts, elapsed = 1, perf_counter() - started
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


def run_node(
    node: PlanNode,
    context: ExecutionContext,
    rows_in: int,
    run,
    args: tuple,
    entries: "dict[int, TraceEntry] | None" = None,
    kind: str = "plan-node",
):
    """Run one operator — ``run(*args)`` — with all its bookkeeping.

    The one place a node meets the governor (cooperative checkpoint;
    budget violations name ``node``), the tracer, the clock, the
    profiler, the observability loop and the Figure 3.6 trace — shared
    by nodes the engine runs inline, leaf queries it runs on a pool
    worker, and the constituents of a fused pipeline node
    (``kind="pipeline-stage"``).  Time is taken where the node runs and
    source attempts/latency are deltas of the active task scope, so a
    node's figures mean the same whichever thread ran it.

    The span is current while the node runs, so source-call,
    pattern-match and external-predicate spans emitted underneath
    parent to it; its own parent is the calling context's span (the
    stage span — workers inherit it through their copied context).
    """
    governor = context.governor
    if governor is not None:
        governor.enter_node(node)
    scope = current_scope()
    attempts_before = scope.attempts
    latency_before = scope.latency
    tracer = context.tracer
    started = perf_counter()
    if tracer is None:
        result = run(*args)
        rows_out = len(result)
    else:
        with tracer.span(kind, type(node).__name__) as span:
            result = run(*args)
            rows_out = len(result)
            span.set_attribute("rows_out", rows_out)
    seconds = perf_counter() - started
    latency = scope.latency - latency_before
    if context.profiler is not None:
        context.profiler.record_node(
            type(node).__name__, rows_out, seconds, latency
        )
    context.observe_node(node, rows_in, rows_out, seconds, latency)
    if entries is not None:
        entries[id(node)] = TraceEntry(
            node, result, scope.attempts - attempts_before, latency
        )
    return result


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
        """Run ``plan`` bottom-up, stage by stage; return the root table.

        Nodes are grouped by topological depth; within a stage every
        node is independent of the others, and a stage finishes before
        the next begins.  Sequential execution is the one-worker case
        of the same loop.  With a governor attached, every node
        boundary is a cooperative checkpoint (see :func:`run_node`).
        Trace entries are reported in the plan's topological order
        whatever order the stages ran them in.
        """
        if self.trace_enabled and context.trace is None:
            context.trace = []
        if context.governor is not None:
            context.governor.start()
        slicer = context.slicer
        if slicer is not None:
            # depth() counts every constituent of a fused pipeline
            # node, so the slicer sees the same stage count with or
            # without operator fusion
            slicer.begin_plan(plan.depth())
        dispatcher = context.dispatcher
        pool = (
            dispatcher
            if dispatcher is not None
            and dispatcher.parallel
            and not context.force_sequential
            else None
        )
        tracer = context.tracer
        outputs: dict[int, BindingTable] = {}
        entries: "dict[int, TraceEntry] | None" = (
            {} if context.trace is not None else None
        )
        with scope_active(context.run_scope()):
            for stage_index, stage in plan.stage_starts():
                if context.estimate_corrections:
                    stage = _rerank_stage(stage_index, stage, context)
                if slicer is not None:
                    slicer.enter_stage(stage_index)
                    context.stage_base = stage_index
                if tracer is None:
                    self._run_stage(stage, context, pool, outputs, entries)
                else:
                    with tracer.span("plan-stage", f"stage-{stage_index}"):
                        self._run_stage(
                            stage, context, pool, outputs, entries
                        )
        if entries is not None:
            context.trace.extend(entries[id(node)] for node in plan.nodes())
            self.last_trace = context.trace
        return outputs[id(plan.root)]

    @staticmethod
    def _run_stage(
        stage: list[PlanNode],
        context: ExecutionContext,
        pool: "SourceDispatcher | None",
        outputs: dict[int, BindingTable],
        entries: "dict[int, TraceEntry] | None",
    ) -> None:
        """Run one stage: its leaf queries on ``pool``, the rest inline.

        Only leaf :class:`QueryNode`\\ s go to the worker pool;
        everything else (including :class:`ParameterizedQueryNode`,
        which fans out its own batch) runs on this thread, so only the
        coordinating thread ever blocks on futures — no nested-pool
        deadlock.  Worker warnings merge back in stage order, which
        keeps parallel runs' reporting deterministic.  Without a pool
        (no dispatcher, one worker, or ``force_sequential``) every node
        takes the inline path.
        """
        if pool is not None:
            leaves = [node for node in stage if isinstance(node, QueryNode)]
            outcomes = pool.run_tasks(
                [
                    partial(
                        run_node, node, context, 0,
                        node.execute, ([], context), entries,
                    )
                    for node in leaves
                ]
            )
            first_error: BaseException | None = None
            for node, outcome in zip(leaves, outcomes):
                context.warnings.extend(outcome.scope.warnings)
                if outcome.error is None:
                    outputs[id(node)] = outcome.value
                elif first_error is None:
                    first_error = outcome.error
            if first_error is not None:
                raise first_error
        for node in stage:
            if id(node) in outputs:
                continue  # a leaf the pool already ran
            inputs = [outputs[id(child)] for child in node.inputs]
            outputs[id(node)] = run_node(
                node,
                context,
                sum(len(table) for table in inputs),
                node.execute,
                (inputs, context),
                entries,
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

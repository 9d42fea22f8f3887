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
the governor and the one place its run is raised as an event; every
source call, whole-source exports included, goes through
:meth:`ExecutionContext.send_query`, which is also where an OEM answer
to a projection query is matched for its bindings (Figure 3.6's
extractor).  Whoever watches a query
subscribes to those events (:mod:`repro.mediator.events`); the engine
knows none of them by name.

The :class:`ExecutionContext` carries everything nodes need: the source
registry for shipping queries, the external-function registry, an oid
generator for constructed objects, optional statistics feedback, the
operation's subscribers, and — when tracing is on — the intermediate
table of every node, which is how tests and benchmarks replay the
figure's tables.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Mapping

from repro.exec.dispatcher import TaskScope, current_scope, scope_active
from repro.mediator.events import Event, TraceEntry, TraceRecorder
from repro.mediator.plan import PhysicalPlan, PlanNode, QueryNode
from repro.mediator.tables import BindingTable, TableError
from repro.msl.ast import PatternCondition, Rule
from repro.msl.compile import CompileCache
from repro.obs.insight import q_error
from repro.oem.model import OEMObject
from repro.oem.oid import OidGenerator
from repro.reliability.deadline import call_allowance_scope
from repro.reliability.health import SourceWarning
from repro.reliability.hedging import current_hedge_role
from repro.wrappers.base import BindingRows, Carrier, SourceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.dispatcher import SourceDispatcher
    from repro.external.registry import ExternalRegistry
    from repro.governor.budget import QueryGovernor
    from repro.mediator.statistics import SourceStatistics
    from repro.reliability.deadline import DeadlineSlicer
    from repro.reliability.resilient import ResilienceManager
    from repro.wrappers.registry import SourceRegistry

__all__ = ["EXPORT", "ExecutionContext", "DatamergeEngine", "run_node"]

#: Passed to :meth:`ExecutionContext.send_query` in place of a query
#: (compared by identity): ship the source's whole view.
EXPORT = "export"


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
    # who watches this run (repro.mediator.events), chosen once per
    # operation by the mediator; nobody, for a bare context
    subscribers: tuple = ()
    # the constants of the call being run, by placeholder name, when
    # the plan is a query template's (repro.msl.lift): set by whoever
    # hands the plan to the engine, read by every node that holds a
    # placeholder; empty for a plan made from a query as written
    params: "Mapping[str, object]" = field(default_factory=dict)
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
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

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

    def observe_node(self, node: PlanNode, rows_out: int) -> None:
        """Feed one executed operator's q-error to the statistics
        database, under the ``(source, label, kind)`` key its estimate
        came from.  Nodes without one make this a cheap no-op, so it is
        safe on every operator of every run."""
        estimated = node.estimated_rows
        if estimated is None:
            return
        key = node.estimate_key
        if key is not None and self.statistics is not None:
            source, label, kind = key
            self.statistics.record_qerror(
                source, label, kind, q_error(estimated, rows_out)
            )

    def send_query(
        self, source_name: str, query: Rule, carrier: Carrier | None = None
    ) -> list:
        """Ship ``query`` to a source, with accounting and statistics.

        The one source-call site: :data:`EXPORT` in place of a query
        ships the source's whole view through the same gates (the
        materialization routes), and comes back as objects.  A query
        is a projection query whose head is ``carrier``, and comes
        back as the carrier's binding rows: the source's own
        :meth:`~repro.wrappers.base.Source.answer_bindings` rows, or
        the rows matched out of its OEM answer here.

        With a :class:`ResilienceManager` attached, the source is
        called through its resilient wrapper (timeout + retry +
        breaker).  In ``degrade`` mode a source that still fails
        contributes an empty answer and a :class:`SourceWarning`
        instead of aborting the whole datamerge run.  With a
        :class:`QueryGovernor` attached, the run-level deadline and
        cancellation token are checked *before* the call is shipped,
        and the answer passes through the governor's sanitizer before
        it may enter a binding table.  With an active
        :class:`~repro.exec.dispatcher.SourceDispatcher`, the call
        routes through the answer cache and the single-flight dedup
        layer; only cache misses without an identical in-flight
        request actually ship.
        """
        if current_scope() is None:
            # only a call from outside the engine (a test or tool
            # driving a node or this method directly) has no scope: lend
            # it one that records straight into this context
            with scope_active(self.run_scope()):
                return self.send_query(source_name, query, carrier)
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
                lambda: self._ship(source_name, query, carrier),
            )
        return self._ship(source_name, query, carrier)[0]

    def _ship(
        self, source_name: str, query: Rule, carrier: Carrier | None
    ) -> tuple[list, bool]:
        """One source call under its deadline slice (see `_ship_now`)."""
        slicer = self.slicer
        if slicer is None:
            return self._ship_now(source_name, query, carrier)
        with call_allowance_scope(slicer.call_allowance(source_name)):
            return self._ship_now(source_name, query, carrier)

    def _ship_now(
        self, source_name: str, query: Rule, carrier: Carrier | None
    ) -> tuple[list, bool]:
        """The real source call (reliability-wrapped), raised as one
        ``source-call`` event, with accounting.

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
        event = Event(self.subscribers, "source-call", source_name, query)
        degraded = False
        started = perf_counter()
        try:
            if query is EXPORT:
                result = list(source.export())
            else:
                result = source.answer_bindings(query)
            if self.governor is not None:
                # strict sanitation raises MalformedAnswerError, which
                # is a SourceError: degrade mode treats a malformed
                # source like an unavailable one
                result = self.governor.sanitize_answer(
                    source_name, result, sink=sink
                )
        except SourceError as exc:
            if self.on_source_failure != "degrade":
                event.attributes["error"] = type(exc).__name__
                event.end(exc)
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
        if event.heard:
            attributes = event.attributes
            if query is EXPORT:
                attributes["export"] = True
            attributes.update(
                attempts=attempts, objects=len(result), cacheable=not degraded
            )
            role = current_hedge_role()
            if role is not None:
                attributes["hedge_role"] = role
            if degraded:
                attributes["degraded"] = True
            if resilient is not None:
                attributes["breaker"] = resilient.breaker.state
            event.end()
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
                and query is not EXPORT
                and not getattr(query, "is_semijoin", False)
            ):
                # degraded answers are absences, not observations —
                # feeding them to the optimizer would teach it the
                # source is empty.  Semi-join batches are skipped here:
                # one answer spans many probe tuples, so the shipping
                # node records a per-probe mean once it has
                # demultiplexed the answer.  An export matches no
                # pattern the optimizer estimates.
                for condition in query.tail:
                    if isinstance(condition, PatternCondition):
                        self.statistics.record(
                            source_name, condition.pattern, len(result)
                        )
        if (
            carrier is not None
            and not degraded
            and not isinstance(result, BindingRows)
        ):
            result = self._match(result, carrier)
        return result, not degraded

    def _match(self, objects: list, carrier: Carrier) -> list[tuple]:
        """The rows of an OEM answer to a projection query: one per
        match of the carrier's extractor pattern on each object, in
        answer order (Figure 3.6's extractor ``epw``)."""
        event = Event(self.subscribers, "pattern-match", carrier.text)
        compiled = self.compiler.pattern(carrier.pattern)
        index = compiled.layout.index
        registers = tuple(index[name] for name in carrier.columns)
        empty = compiled.layout.empty_frame
        match_keyed = compiled.match_keyed
        rows = []
        for obj in objects:
            if not isinstance(obj, OEMObject):
                raise TableError(f"answer holds non-object {obj!r}")
            for frame, _key in match_keyed(obj, empty):
                rows.append(tuple(frame[r] for r in registers))
        if event.heard:
            event.attributes["objects"] = len(objects)
            event.attributes["matches"] = len(rows)
            event.end()
        return rows

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
    kind: str = "plan-node",
):
    """Run one operator — ``run(*args)`` — with all its bookkeeping.

    The one place a node meets the governor (cooperative checkpoint;
    budget violations name ``node``) and the one place its run becomes
    an event — shared by nodes the engine runs inline, leaf queries it
    runs on a pool worker, and the constituents of a fused pipeline
    node (``kind="pipeline-stage"``).  Time is taken where the node
    runs and source attempts/latency are deltas of the active task
    scope, so a node's figures mean the same whichever thread ran it.

    The event is open while the node runs, so the source-call,
    pattern-match and external-predicate events raised underneath nest
    inside it (a tracer parents their spans to this node's).
    """
    governor = context.governor
    if governor is not None:
        governor.enter_node(node, context.params)
    scope = current_scope()
    attempts_before = scope.attempts
    latency_before = scope.latency
    event = Event(context.subscribers, kind, type(node).__name__, node)
    try:
        result = run(*args)
    except BaseException as exc:
        event.end(exc)
        raise
    rows_out = len(result)
    if event.heard:
        event.attributes["rows_out"] = rows_out
        if node.estimated_rows is not None:
            event.attributes["estimated_rows"] = node.estimated_rows
        event.rows_in = rows_in
        event.attempts = scope.attempts - attempts_before
        event.latency = scope.latency - latency_before
        event.table = result
        event.end()
    context.observe_node(node, rows_out)
    return result


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
        Trace entries (appended as nodes finish) are put in the plan's
        topological order whatever order the stages ran them in.
        """
        trace = context.trace
        if self.trace_enabled and trace is None:
            # a context runs one operation's plans, under one call's
            # constants: the entries are described with them
            trace = context.trace = []
            context.subscribers += (TraceRecorder(trace, context.params),)
        traced = 0 if trace is None else len(trace)
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
        outputs: dict[int, BindingTable] = {}
        with scope_active(context.run_scope()):
            for stage_index, stage in plan.stage_starts():
                if slicer is not None:
                    slicer.enter_stage(stage_index)
                    context.stage_base = stage_index
                event = Event(
                    context.subscribers, "plan-stage", f"stage-{stage_index}"
                )
                try:
                    self._run_stage(stage, context, pool, outputs)
                except BaseException as exc:
                    event.end(exc)
                    raise
                event.end()
        if trace is not None:
            position = {id(node): at for at, node in enumerate(plan.nodes())}
            trace[traced:] = sorted(
                trace[traced:], key=lambda entry: position[id(entry.node)]
            )
            self.last_trace = trace
        return outputs[id(plan.root)]

    @staticmethod
    def _run_stage(
        stage: list[PlanNode],
        context: ExecutionContext,
        pool: "SourceDispatcher | None",
        outputs: dict[int, BindingTable],
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
                        run_node, node, context, 0, node.execute, ([], context)
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
            )

    def execute_to_objects(
        self, plan: PhysicalPlan, context: ExecutionContext
    ) -> list[OEMObject]:
        """Run ``plan`` and return the result objects of the root table."""
        table = self.execute(plan, context)
        column = table.position(table.columns[0])
        return [
            row[column]
            for row in table.rows
            if isinstance(row[column], OEMObject)
        ]

    def render_trace(self) -> str:
        """The Figure 3.6 walkthrough: every node with its table."""
        return "\n\n".join(entry.render() for entry in self.last_trace)

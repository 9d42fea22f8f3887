"""The Mediator facade: MedMaker's user-visible object.

A :class:`Mediator` is constructed from an MSL specification (text or
parsed), a :class:`~repro.wrappers.registry.SourceRegistry`, and an
external-function registry.  It is itself a
:class:`~repro.wrappers.base.Source`, so mediators stack (Figure 1.1).

``answer(query)`` runs the full MSI pipeline of Figure 2.5:

1. the View Expander & Algebraic Optimizer rewrites the query into a
   logical datamerge program (:mod:`repro.mediator.view_expander`);
2. the cost-based optimizer builds a physical datamerge graph
   (:mod:`repro.mediator.optimizer`);
3. the datamerge engine executes it (:mod:`repro.mediator.engine`).

Steps 1 and 2 depend on the query's *shape*, not on its constants, so
they run once per shape: the query is parsed, its constants are lifted
out (:mod:`repro.msl.lift`), the shape's plan is looked up or made
(:meth:`Mediator._planned`, the one place the expander, the optimizer
and the fusion pass are called from — :mod:`repro.mediator.plancache`
says when a remembered plan is made again), and the engine runs it with
the call's constants bound (``ExecutionContext.params``).

Three query classes bypass the pipeline, all by *materializing* the
view and matching locally:

* queries using descendant (``..``) wildcard items against the mediator —
  static pushdown of "match at any depth" has no sound rewriting into
  the rule tails, so the mediator does the honest expensive thing (the
  paper: "without appropriate index structures, wildcard searches may be
  expensive");
* queries constraining a *type* slot of the view — specification heads
  carry none (view-object types follow from the bound values), so only
  the matcher, over the materialized view, can check one;
* queries against a *recursive* specification (a rule tail that
  references the mediator itself).  MSL "allows the specification of
  recursive views"; these are evaluated by naive fixpoint iteration.

All routes run inside one *operation*: it owns the run's governor, its
warnings, its root ``query`` span and one execution context, and every
source call any route makes — shipped queries and whole-source
exports alike — goes through that context's ``send_query``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from time import perf_counter
from typing import Iterator, Sequence

from repro.client.result import ResultSet
from repro.exec.cache import AnswerCache
from repro.exec.dispatcher import SourceDispatcher
from repro.exec.profile import Profiler
from repro.external.registry import ExternalRegistry, default_registry
from repro.governor.budget import (
    CancellationToken,
    QueryBudget,
    QueryGovernor,
)
from repro.governor.sanitizer import AnswerSanitizer, DEFAULT_MAX_DEPTH
from repro.mediator.engine import EXPORT, DatamergeEngine, ExecutionContext
from repro.mediator.logical import LogicalDatamergeProgram, LogicalRule
from repro.mediator.optimizer import CostBasedOptimizer
from repro.mediator.pipeline import (
    FusionDecision,
    describe_operators,
    fuse_plan,
    plan_operators,
)
from repro.mediator.plan import ParameterizedQueryNode
from repro.mediator.plancache import PlanCache, Planned, Shape
from repro.mediator.statistics import SourceStatistics
from repro.mediator.view_expander import ViewExpander
from repro.msl.analysis import check_rule, check_specification_rule
from repro.msl.ast import PatternCondition, Rule, Specification
from repro.msl.compile import CompileCache
from repro.msl.errors import MSLError, MSLSemanticError, MSLSyntaxError
from repro.msl.lift import (
    ValueDependent,
    lift,
    scan_shape,
    text_shape_is_liftable,
)
from repro.msl.parser import parse_query, parse_specification
from repro.msl.substitute import substitute_params
from repro.msl.walk import TYPE, descendants, slots
from repro.obs.insight import AnalyzeReport, QueryInsight
from repro.obs.span import current_span, status_of_exception
from repro.obs.telemetry import Telemetry
from repro.oem.compare import finish, structural_key
from repro.oem.model import OEMObject
from repro.oem.oid import OidGenerator
from repro.reliability.clock import Clock, MonotonicClock
from repro.reliability.deadline import DeadlineSlicer
from repro.reliability.health import SourceWarning
from repro.reliability.hedging import HedgeCoordinator, HedgePolicy
from repro.reliability.resilient import ResilienceConfig, ResilienceManager
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.bulkhead import BulkheadRegistry
from repro.wrappers.base import Source, SourceError
from repro.wrappers.registry import SourceRegistry
from repro.wrappers.sharding import ShardedSource

__all__ = ["Mediator", "MediatorError"]

#: Floor for a deadline after queue wait is charged — the governor
#: still runs (and truncates/aborts deterministically) rather than
#: receiving a zero or negative budget.
_MIN_DEADLINE = 0.001

#: Rounds after which a recursive view that has not reached a fixpoint
#: is declared divergent (a recursive OEM view can be genuinely
#: infinite — e.g. ever-deeper nesting).
MAX_FIXPOINT_ITERATIONS = 50


class MediatorError(SourceError):
    """The mediator could not be built or could not serve a query."""


class _Operation:
    """Per-thread state of one top-level mediator operation.

    Concurrent ``query()`` calls on a shared mediator each get their
    own operation (held in a ``threading.local``), so warnings,
    governors, and execution contexts never mix between callers.  An
    operation runs everything — nested materialization included — in
    one execution context, built on first use.  The mediator's
    ``last_warnings`` / ``last_governor`` / ``last_program`` /
    ``last_context`` attributes are published from the operation when
    it finishes (last-writer-wins), purely for introspection compat.
    """

    __slots__ = ("warnings", "governor", "program", "context", "insight")

    def __init__(self, insight: QueryInsight | None) -> None:
        self.warnings: list[SourceWarning] = []
        self.governor: QueryGovernor | None = None
        # (the shape's program, this call's constants): bound on demand
        self.program: "tuple[LogicalDatamergeProgram, dict] | None" = None
        self.context: ExecutionContext | None = None
        # the EXPLAIN ANALYZE recorder, when this operation is one
        self.insight = insight


class Mediator(Source):
    """A declaratively specified integration view over registered sources."""

    def __init__(
        self,
        name: str,
        specification: str | Specification,
        sources: SourceRegistry,
        externals: ExternalRegistry | None = None,
        push_mode: str = "complete",
        strategy: str = "heuristic",
        trace: bool = False,
        register: bool = True,
        on_source_failure: str = "fail",
        resilience: ResilienceConfig | ResilienceManager | None = None,
        clock: Clock | None = None,
        budget: QueryBudget | None = None,
        budget_mode: str = "strict",
        on_malformed_answer: str = "error",
        cancellation: CancellationToken | None = None,
        parallelism: int = 1,
        cache: AnswerCache | None = None,
        fuse: bool = True,
        telemetry: "Telemetry | bool | None" = None,
        hedge: "HedgePolicy | bool | None" = None,
        admission: "AdmissionConfig | AdmissionController | bool | None" = None,
        bulkheads: "BulkheadRegistry | int | None" = None,
        semijoin: bool = True,
    ) -> None:
        if not name or not name.isidentifier():
            raise MediatorError(f"invalid mediator name {name!r}")
        if on_source_failure not in ("fail", "degrade"):
            raise MediatorError(
                "on_source_failure must be 'fail' or 'degrade',"
                f" got {on_source_failure!r}"
            )
        if budget_mode not in ("strict", "truncate"):
            raise MediatorError(
                "budget_mode must be 'strict' or 'truncate',"
                f" got {budget_mode!r}"
            )
        if on_malformed_answer not in ("error", "quarantine"):
            raise MediatorError(
                "on_malformed_answer must be 'error' or 'quarantine',"
                f" got {on_malformed_answer!r}"
            )
        self.name = name
        if isinstance(specification, str):
            specification = parse_specification(specification)
        if not specification.rules:
            raise MediatorError("a mediator specification needs rules")
        for rule in specification.rules:
            check_specification_rule(rule)
        self.specification = specification
        self.sources = sources

        registry = (externals or default_registry()).copy()
        for decl in specification.externals:
            registry.declare(decl.predicate, decl.adornment, decl.function)
        self.externals = registry

        self.statistics = SourceStatistics()
        self.expander = ViewExpander(name, specification, push_mode)
        self.optimizer = CostBasedOptimizer(
            sources, self.statistics, strategy
        )
        self.optimizer.bind_external_registry(registry)
        self.engine = DatamergeEngine(trace)
        self._oidgen = OidGenerator(f"&{name}_")

        # the pattern matcher: rules and patterns are lowered to closures
        # once and memoized (repro.msl.matcher/evaluate are the reference
        # implementation the tests check it against)
        self._compile_cache = CompileCache(registry)
        # whole-plan operator fusion (repro.mediator.pipeline): merge
        # straight-line plan segments into single pipeline nodes;
        # fuse=False keeps the node-per-operator reference path.
        # Trace mode implies the reference path — the Figure 3.6
        # walkthrough needs every intermediate table.
        self.fuse = fuse
        self.last_fusion: list[FusionDecision] = []
        self.profiler = Profiler()
        # plan once, run many: what is remembered per query shape
        self._plans = PlanCache()

        # semi-join shipping: batch-capable sources receive one value
        # filter per probe group and target per parameterized stage
        # instead of one probe per distinct input tuple
        self.semijoin = bool(semijoin)

        self.on_source_failure = on_source_failure
        if isinstance(resilience, ResilienceConfig):
            resilience = ResilienceManager(resilience, clock=clock)
        self.resilience: ResilienceManager | None = resilience

        self.last_warnings: list[SourceWarning] = []
        # one _Operation per thread: concurrent queries on a shared
        # mediator never see each other's warnings or governor
        self._ops = threading.local()

        self.budget = budget
        self.budget_mode = budget_mode
        self.on_malformed_answer = on_malformed_answer
        self.cancellation = cancellation
        self._clock = clock or MonotonicClock()
        self.last_governor: QueryGovernor | None = None

        # tail-latency controls: adaptive per-source timeouts are a
        # field of the resilience configuration (deadline slicing
        # follows them); hedging gets its own coordinator
        self.hedging: HedgeCoordinator | None = None
        if hedge:
            try:
                policy = (
                    hedge if isinstance(hedge, HedgePolicy) else HedgePolicy()
                )
            except ValueError as exc:
                raise MediatorError(str(exc)) from exc
            self.hedging = HedgeCoordinator(
                policy,
                clock=self._governor_clock(),
                health=(
                    self.resilience.health
                    if self.resilience is not None
                    else None
                ),
            )
        # overload resilience: admission control in front of query(),
        # per-source bulkheads under the dispatcher, brownout between
        self.admission: AdmissionController | None = None
        if admission:
            if isinstance(admission, AdmissionController):
                self.admission = admission
            else:
                try:
                    config = (
                        admission
                        if isinstance(admission, AdmissionConfig)
                        else AdmissionConfig()
                    )
                    self.admission = AdmissionController(
                        config, clock=self._governor_clock()
                    )
                except ValueError as exc:
                    raise MediatorError(str(exc)) from exc
        if bulkheads is not None and not isinstance(
            bulkheads, BulkheadRegistry
        ):
            try:
                bulkheads = BulkheadRegistry(max_per_source=bulkheads)
            except (TypeError, ValueError) as exc:
                raise MediatorError(str(exc)) from exc
        try:
            self.dispatcher = SourceDispatcher(
                parallelism=parallelism,
                cache=cache,
                hedging=self.hedging,
                bulkheads=bulkheads,
            )
        except ValueError as exc:
            raise MediatorError(str(exc)) from exc
        self.parallelism = parallelism
        self.cache = cache
        brownout = (
            self.admission.brownout if self.admission is not None else None
        )
        if brownout is not None and self.hedging is not None:
            # brownout rung 1: hedging off under pressure, back when calm
            self.dispatcher.hedge_gate = lambda: brownout.allows("hedging")
        self._closed = False

        # telemetry: pass a configured Telemetry (sampling rate,
        # slow-query log), or True for an enabled default; anything
        # else leaves a disabled facade whose pull-time collectors
        # still serve metrics_text()
        if isinstance(telemetry, Telemetry):
            self.telemetry = telemetry
        elif telemetry:
            self.telemetry = Telemetry(clock=self._clock)
        else:
            self.telemetry = Telemetry.disabled()
        self.telemetry.bind_dispatcher(self.dispatcher)
        self.telemetry.bind_compile_caches(self._compile_cache, sources)
        self.telemetry.bind_plan_cache(self._plans)
        if self.resilience is not None:
            self.telemetry.bind_resilience(self.resilience)
        if self.admission is not None:
            self.telemetry.bind_admission(self.admission)

        self.is_recursive = any(
            condition.source == name
            for rule in specification.rules
            for condition in rule.tail
            if isinstance(condition, PatternCondition)
        )

        self._last_program: "tuple[LogicalDatamergeProgram, dict] | None" = None
        self.last_context: ExecutionContext | None = None

        if register:
            sources.register(self)

    # -- the Source interface --------------------------------------------

    def answer(
        self,
        query: str | Rule,
        *,
        tenant: str | None = None,
        priority: int = 0,
    ) -> list[OEMObject]:
        """Answer an MSL query against this mediator's view.

        With an admission controller configured the call first clears
        the gate: it may queue (the wait is charged against the query's
        deadline budget) or be shed with a structured
        :class:`~repro.serving.QueryRejected`.  ``tenant`` attributes
        the query to a quota; higher ``priority`` admits first.
        """
        objects, _ = self._run_query(query, tenant, priority)
        return objects

    def query(
        self,
        query: str | Rule,
        *,
        tenant: str | None = None,
        priority: int = 0,
    ) -> ResultSet:
        """Like :meth:`answer`, materialized as a :class:`ResultSet`.

        The result set carries any :class:`SourceWarning`\\ s produced
        in ``degrade`` mode, so callers can tell a complete answer from
        a partial one.
        """
        objects, op_warnings = self._run_query(query, tenant, priority)
        return ResultSet(objects, warnings=op_warnings)

    def _run_query(
        self,
        query: str | Rule,
        tenant: str | None,
        priority: int,
        insight: QueryInsight | None = None,
    ) -> tuple[list[OEMObject], list[SourceWarning]]:
        shape, constants = self._shape_of(query)
        # the root span's name is the query's text; nobody reads it
        # with telemetry off
        name = (
            str(self._concrete(shape, constants))
            if self.telemetry.enabled
            else ""
        )
        with self._operation(name, tenant, priority, insight) as op:
            if shape.materialize is not None:
                objects = self._answer_by_materialization(
                    self._concrete(shape, constants)
                )
            else:
                with self.telemetry.tracer.span(
                    "view-expansion", self.name
                ) as span:
                    planned, params = self._planned(shape, constants)
                    op.program = (planned.program, params)
                    span.set_attribute("rules", len(planned.program))
                objects = self._execute(planned, params, op)
            objects = finish(objects)
            if op.governor is not None:
                # final guard: covers the materialization paths, which
                # never run a constructor node
                objects = op.governor.enforce_result_limit(objects)
            root = current_span()
            if root is not None:
                root.set_attribute("result_objects", len(objects))
            return objects, list(op.warnings)

    def _execute(
        self, planned: Planned, params: dict, op: _Operation
    ) -> list[OEMObject]:
        """Run a (remembered) plan with one call's constants bound."""
        self.last_fusion = planned.decisions
        if planned.fused[0]:
            # the profile reports how much of each run ran fused
            self.profiler.record_fusion(*planned.fused)
        if op.insight is not None:
            op.insight.attach_plan(planned.plan, params)
        context = self._context()
        context.params = params
        return self.engine.execute_to_objects(planned.plan, context)

    # -- shapes and plans --------------------------------------------------

    def _shape_of(self, query: str | Rule) -> tuple[Shape, tuple]:
        """``query`` as ``(its shape, its constants)``.

        Raw lexer/parser/semantic exceptions never leak: syntax errors
        surface as :class:`MediatorError` with the source position the
        MSL layer reported, semantic problems with their explanation.

        Text whose shape was seen before is not parsed: its skeleton
        and literal values come from one regex scan
        (:func:`repro.msl.lift.scan_shape`), which is also how the
        tokenizer itself classifies them.  A rule is lifted and looked
        up by its template.  A shape seen for the first time is checked
        (the static checks read variables and structure only, so their
        verdict holds for every query of the shape); a rejected query
        remembers nothing.
        """
        if isinstance(query, str):
            key, constants = scan_shape(query)
            shape = self._plans.text_shape(key)
            if shape is not None:
                return shape, constants
            try:
                rule = parse_query(query)
            except MSLSyntaxError as exc:
                error = MediatorError(f"invalid MSL query: {exc}")
                error.position = exc.position
                error.line = exc.line
                error.column = exc.column
                raise error from exc
            except MSLError as exc:
                raise MediatorError(f"invalid MSL query: {exc}") from exc
            shape, lifted = self._shape_of(rule)
            if lifted == constants and text_shape_is_liftable(key):
                self._plans.store_text(key, shape)
            return shape, lifted
        template, constants = lift(query)
        shape = self._plans.shape(template)
        if shape is None:
            try:
                check_rule(query, is_query=True)
            except MSLSemanticError as exc:
                raise MediatorError(f"invalid MSL query: {exc}") from exc
            shape = self._plans.store(
                template,
                Shape(
                    template,
                    len(constants),
                    self._materialization_reason(template),
                ),
            )
        return shape, constants

    @staticmethod
    def _concrete(shape: Shape, constants: tuple) -> Rule:
        """The query a shape stands for under one call's constants."""
        if not constants:
            return shape.template
        return substitute_params(
            shape.template, dict(zip(shape.names, constants))
        )

    def _planned(
        self, shape: Shape, constants: tuple = ()
    ) -> tuple[Planned, dict]:
        """The plan to run for ``shape`` and the constants to bind.

        The one planning call site: ``answer``, ``query``, ``explain``,
        ``explain_analyze`` and ``export`` all come through here.  A
        remembered plan is reused while its stamp is current, the
        sources it ships to still advertise the capabilities it was
        split against, and the statistics it was costed with have not
        drifted by more than ``MISESTIMATE_FACTOR``; otherwise the shape
        is planned again (see :mod:`repro.mediator.plancache`).
        A shape whose planning must read a constant is planned per
        query, under the query as written.
        """
        plans = self._plans
        if shape.per_query is not None:
            concrete = self._concrete(shape, constants)
            shape = plans.shape(concrete) or plans.store(
                concrete, Shape(concrete, 0, None)
            )
            constants = ()
        stamp = (
            self.sources.generation,
            self.statistics.generation,
            self.externals.generation,
            self.optimizer.strategy,
            self.expander.push_mode,
            self.semijoin,
            self._fusion_active(),
        )
        planned = shape.planned
        if planned is not None:
            cause = self._invalid(planned, stamp)
            if cause is None:
                plans.count("hit")
                return planned, dict(zip(shape.names, constants))
            plans.count("replan", cause)
        else:
            plans.count("miss")
        try:
            planned = shape.planned = self._plan(shape.template, stamp)
        except ValueDependent as exc:
            shape.per_query = str(exc)
            return self._planned(shape, constants)
        except Exception:
            if shape.names:
                # let the error quote the query as written
                self._plan(self._concrete(shape, constants), stamp)
            raise
        return planned, dict(zip(shape.names, constants))

    def _invalid(self, planned: Planned, stamp: tuple) -> str | None:
        """Why ``planned`` may not be reused (None when it may)."""
        if planned.stamp != stamp:
            for was, now, what in zip(
                planned.stamp,
                stamp,
                (
                    "a source was registered or deregistered",
                    "statistics were sampled or restored, or a breaker"
                    " changed state",
                    "an external predicate was declared",
                    "strategy was assigned",
                    "push_mode was assigned",
                    "semijoin was assigned",
                    "fuse was assigned",
                ),
            ):
                if was != now:
                    return what
        for source, capability in planned.capabilities:
            now = source.capability
            if now is not capability and now != capability:
                return f"the capability of {source.name!r} changed"
        return planned.drift(self.statistics)

    def _plan(self, template: "Rule | int", stamp: tuple) -> Planned:
        """Expand, optimize and fuse: a query template, or (by index)
        one rule of the specification for :meth:`export`."""
        if isinstance(template, int):
            program = None
            rule = self.specification.rules[template]
            plan = self.optimizer.plan_rule(LogicalRule(rule))
            rules = (rule,)
        else:
            program = self.expander.expand(template)
            plan = self.optimizer.plan_program(program)
            rules = tuple(logical.rule for logical in program)
        decisions: list[FusionDecision] = []
        if self._fusion_active():
            plan, decisions = fuse_plan(plan)
        sources = {
            condition.source: None
            for rule in rules
            for condition in rule.tail
            if isinstance(condition, PatternCondition)
        }
        capabilities = tuple(
            (source, source.capability)
            for source in map(self.sources.resolve, sources)
        )
        return Planned(
            program, plan, decisions, stamp, capabilities, self.statistics
        )

    def _materialization_reason(self, query: Rule) -> str | None:
        """Why ``query`` bypasses the pipeline (None when it does not):
        see the module docstring.  Wildcards and type constraints count
        at any depth of a condition addressed to this view."""
        if self.is_recursive:
            return "the view is recursive"
        conditions = tuple(
            condition
            for condition in query.tail
            if isinstance(condition, PatternCondition)
            and condition.source in (None, self.name)
        )
        if any(kind is TYPE for kind, _, _ in slots(conditions)):
            return "the query constrains a type slot"
        if descendants(conditions):
            return "the query uses descendant (..) wildcards"
        return None

    def _fusion_active(self) -> bool:
        return self.fuse and not self.engine.trace_enabled

    def export(self) -> Sequence[OEMObject]:
        """Materialize the whole view (all rules, no conditions)."""
        with self._operation(f"export {self.name}") as op:
            if self.is_recursive:
                results = self._fixpoint_materialize(self._context())
            else:
                results = []
                for index in range(len(self.specification.rules)):
                    shape = self._plans.shape(index) or self._plans.store(
                        index, Shape(index, 0, None)
                    )
                    planned, params = self._planned(shape)
                    results.extend(self._execute(planned, params, op))
                results = finish(results)
            if op.governor is not None:
                results = op.governor.enforce_result_limit(list(results))
            return results

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the mediator down deterministically (idempotent).

        New operations are rejected (``MediatorError``, or a
        ``QueryRejected`` with reason ``closed`` when admission is on),
        queued waiters are shed, and the dispatcher's worker pool and
        hedge pools are stopped — no thread outlives the mediator.
        """
        if self._closed:
            return
        self._closed = True
        if self.admission is not None:
            self.admission.close()
        self.dispatcher.shutdown()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Mediator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- per-operation state -----------------------------------------------

    def _op(self) -> _Operation | None:
        """This thread's active operation (None between operations)."""
        return getattr(self._ops, "current", None)

    # -- introspection -----------------------------------------------------

    def explain_analyze(
        self,
        query: str | Rule,
        *,
        tenant: str | None = None,
        priority: int = 0,
    ) -> AnalyzeReport:
        """Execute ``query`` while recording per-node actuals.

        The returned :class:`~repro.obs.insight.AnalyzeReport` carries
        the answer plus, for every plan node (fused-chain constituents
        included), the optimizer's estimated cardinality next to the
        observed rows in/out, wall time, and source-call latency, and
        the nodes whose actual rows exceeded the estimate by more than
        ``MISESTIMATE_FACTOR``.  ``report.render()`` is the annotated plan
        tree; ``report.to_json()`` the structured export.  Recording is
        observation-only: the answer is bit-for-bit the one
        :meth:`answer` returns.
        """
        parsed = self._concrete(*self._shape_of(query))
        insight = QueryInsight()
        started = perf_counter()
        objects, op_warnings = self._run_query(
            parsed, tenant, priority, insight
        )
        return AnalyzeReport(
            str(parsed),
            insight,
            objects,
            warnings=op_warnings,
            seconds=perf_counter() - started,
        )

    @property
    def last_program(self) -> LogicalDatamergeProgram | None:
        """The logical datamerge program of the last query the pipeline
        answered, with that query's constants in it."""
        if self._last_program is None:
            return None
        program, params = self._last_program
        return program.bound(params)

    def statistics_snapshot(self) -> dict:
        """The statistics database as a JSON-serialisable dict.

        Persist it (``--stats-out``) and feed it to a fresh mediator
        (``--stats-in`` / :meth:`restore_statistics`) so warm estimates
        — observed cardinalities, sampled selectivities, per-source
        cost observations — survive restarts.
        """
        return self.statistics.snapshot_dict()

    def restore_statistics(self, snapshot: dict) -> None:
        """Merge a :meth:`statistics_snapshot` payload back in."""
        try:
            self.statistics.restore_dict(snapshot)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise MediatorError(
                f"invalid statistics snapshot: {exc}"
            ) from exc

    def _feed_statistics(self) -> None:
        """Close the telemetry→optimizer loop after one operation.

        Observed cardinalities already stream in per source call (the
        engine's ``record``); this adds the *cost* half: per-source
        latency medians from the resilience health window and current
        breaker states, which :meth:`SourceStatistics.cost_weight`
        turns into the join-order multiplier.
        """
        if self.resilience is None:
            return
        health = self.resilience.health
        for name, record in health.snapshot().items():
            latency = health.latency_quantile(name, 0.5, min_samples=3)
            self.statistics.observe_source(
                name,
                latency=latency,
                breaker_state=record.breaker_state,
            )

    def explain(self, query: str | Rule) -> str:
        """The logical program and physical plan for ``query`` as text.

        A query the pipeline does not answer (see the module docstring)
        says so instead of showing a plan that would never run.  When a
        resilience policy is configured (or degrade mode is on) a
        ``-- resilience --`` section reports the policy and the current
        per-source health, including breaker states.
        """
        shape, constants = self._shape_of(query)
        operators: list = []
        if shape.materialize is not None:
            text = (
                "-- answered by materialization --\n"
                f"{shape.materialize}: the view is exported (recursive"
                " rules to a fixpoint over whole-source exports) and the"
                " query is matched against it; no datamerge graph is run"
            )
        else:
            # the plan a call of this query runs, shown with the call's
            # constants where the remembered template has placeholders
            planned, params = self._planned(shape, constants)
            program = planned.program.bound(params)
            operators = plan_operators(planned.plan)
            text = (
                f"-- logical datamerge program ({len(program)} rule(s)) --\n"
                f"{program}\n\n"
                f"-- physical datamerge graph --\n"
                f"{describe_operators(planned.plan, params)}"
            )
            if operators and self._fusion_active():
                lines = [planned.plan.describe(params), "", "decisions:"]
                lines.extend(
                    f"  {decision.render(params)}"
                    for decision in planned.decisions
                )
                text += "\n\n-- operator fusion --\n" + "\n".join(lines)
        if self.resilience is not None or self.on_source_failure != "fail":
            lines = [f"mode: on_source_failure={self.on_source_failure}"]
            if self.resilience is not None:
                lines.append(self.resilience.describe())
                health = self.resilience.health.render()
                if health:
                    lines.append(health)
            text += "\n\n-- resilience --\n" + "\n".join(lines)
        sharded = [
            source for source in self.sources
            if isinstance(source, ShardedSource)
        ]
        batched = sum(
            isinstance(node, ParameterizedQueryNode)
            and node.batch_query is not None
            for node in operators
        )
        if sharded or batched or not self.semijoin:
            lines = [
                f"semijoin: {'on' if self.semijoin else 'off'}"
                f" ({batched} param-query node(s) can ship batched)"
            ]
            for source in sharded:
                lines.append(source.describe())
            text += "\n\n-- sharding --\n" + "\n".join(lines)
        governor = self._make_governor([])
        if governor is not None:
            text += "\n\n-- governor --\n" + governor.describe()
        if self.dispatcher.active:
            text += "\n\n-- execution --\n" + self.dispatcher.describe()
        if self.admission is not None:
            text += "\n\n-- serving --\n" + self.admission.describe()
        stats = self._compile_cache.stats()
        plans = self._plans.stats()
        if shape.materialize is not None:
            reuse = "no plan (answered by materialization)"
        elif shape.per_query is not None:
            reuse = f"planned per query ({shape.per_query})"
        else:
            reuse = (
                "shape reusable"
                f" ({len(shape.names)} constant(s) bound per call)"
            )
        lines = [
            f"plan cache: {reuse}; {plans['hits']} hit(s),"
            f" {plans['misses']} miss(es), {plans['replans']} re-plan(s),"
            f" {plans['entries']} shape(s); last invalidation:"
            f" {self._plans.last_invalidation or 'none'}",
            f"compile cache: {stats['rules']} rule(s),"
            f" {stats['patterns']} pattern(s),"
            f" {stats['hits']} hit(s), {stats['misses']} miss(es)",
        ]
        lines.extend(
            f"compile cache of {name}: {held['rules']} rule(s),"
            f" {held['hits']} hit(s), {held['misses']} miss(es)"
            for name, held in self.sources.compile_cache_stats()
        )
        lines.append(self.profiler.render())
        text += "\n\n-- profile --\n" + "\n".join(lines)
        snapshot = self.statistics.snapshot_dict()
        if snapshot["labels"] or snapshot["source_costs"]:
            lines = []
            if snapshot["labels"]:
                lines.append(
                    "observed cardinalities (source/label:"
                    " average over observations):"
                )
                for row in snapshot["labels"]:
                    lines.append(
                        f"  {row['source']}/{row['label']}:"
                        f" {row['average']:.1f} over"
                        f" {row['observations']} observation(s)"
                    )
            if snapshot["source_costs"]:
                lines.append(
                    "source cost weights (latency EMA, breaker):"
                )
                for row in snapshot["source_costs"]:
                    weight = self.statistics.cost_weight(row["source"])
                    lines.append(
                        f"  {row['source']}: weight {weight:.2f}"
                        f" (latency {row['latency'] * 1e3:.1f}ms,"
                        f" breaker {row['breaker_state']})"
                    )
            qerrors = self.statistics.qerror_summary()
            if qerrors:
                lines.append(
                    "estimate q-error (median / max over window):"
                )
                for key, summary in qerrors.items():
                    lines.append(
                        f"  {key}: {summary['median']:.2f}"
                        f" / {summary['max']:.2f}"
                        f" ({summary['observations']} obs)"
                    )
            text += "\n\n-- statistics --\n" + "\n".join(lines)
        text += "\n\n-- telemetry --\n" + self.telemetry.describe()
        return text

    def health_snapshot(self):
        """One namespaced view of per-source health and execution state.

        Three top-level keys, always present:

        * ``"sources"`` — per-source health records (empty without a
          resilience layer);
        * ``"execution"`` — dispatch and cache statistics (empty unless
          the dispatcher is active: ``parallelism > 1`` or an answer
          cache);
        * ``"profile"`` — the profiler's per-node and per-pattern
          counters, plus compile cache statistics (empty before any
          query executed).

        Admission-gated mediators carry a fourth key, ``"serving"`` —
        the admission controller's counters (submitted / admitted /
        completed / shed by reason), queue depth, concurrency limit,
        and brownout state.
        """
        snapshot = dict(
            sources=(
                {} if self.resilience is None
                else self.resilience.health.snapshot()
            ),
            execution=(
                self.dispatcher.stats() if self.dispatcher.active else {}
            ),
            profile={},
        )
        profile = self.profiler.snapshot()
        if profile["nodes"] or profile["patterns"]:
            profile["compile"] = self._compile_cache.stats()
            snapshot["profile"] = profile
        if self.admission is not None:
            # the key appears only on admission-gated mediators, so the
            # historical three-key shape is otherwise unchanged
            snapshot["serving"] = self.admission.snapshot()
        return snapshot

    def metrics_text(self) -> str:
        """The telemetry registry in Prometheus text exposition format.

        Works on a telemetry-disabled mediator too: pull-time
        collectors (dispatcher, caches, breaker states) are bound
        regardless, so the scrape reflects live component state.
        """
        return self.telemetry.metrics_text()

    @contextlib.contextmanager
    def _operation(
        self,
        name: str,
        tenant: str | None = None,
        priority: int = 0,
        insight: QueryInsight | None = None,
    ) -> Iterator[_Operation]:
        """Run one top-level operation in its own :class:`_Operation`.

        Nested entries (materialization calling :meth:`export`, a
        parent mediator's worker querying this stacked one inside an
        operation it already holds a slot for) share the outermost
        operation — warnings, governor, execution context — so the
        published ``last_warnings`` reflects the whole user-visible
        call, and pass the admission gate straight through:
        re-admitting them could deadlock against their own slot.

        A top-level entry first clears the admission gate (it may
        queue, or be shed with a structured
        :class:`~repro.serving.QueryRejected`), then owns the run's
        :class:`QueryGovernor` (budget counters, deadline clock,
        cancellation token) and its root ``query`` span: current for
        the whole call, so every span underneath parents into one
        tree, closed with the operation's terminal status (``ok``,
        ``degraded`` when warnings were collected, ``cancelled``,
        ``error``) and rolled into the metrics registry.  Operations
        live in a ``threading.local``, so concurrent calls on a shared
        mediator are fully independent.
        """
        admission = self.admission
        if self._closed and admission is None:
            # a closed admission controller sheds with a structured
            # QueryRejected(reason="closed") below instead
            raise MediatorError(f"mediator {self.name!r} is closed")
        outer = self._op()
        if outer is not None:
            yield outer
            return
        ticket = None
        waited = 0.0
        if admission is not None:
            ticket = admission.admit(
                tenant=tenant,
                priority=priority,
                deadline=(
                    self.budget.deadline if self.budget is not None else None
                ),
            )
            waited = ticket.waited
        op = _Operation(insight)
        op.governor = self._make_governor(op.warnings, waited)
        if op.governor is not None:
            op.governor.start()
        self._ops.current = op
        tracer = self.telemetry.tracer
        root = tracer.start_query(name)
        if waited:
            root.set_attribute("admission_wait_ms", round(waited * 1e3, 3))
        brownout = admission.brownout if admission is not None else None
        if brownout is not None and brownout.active:
            root.set_attribute("brownout_level", brownout.level)
        status = "ok"
        try:
            with tracer.use(root):
                yield op
        except BaseException as exc:
            status = status_of_exception(exc)
            raise
        finally:
            self._ops.current = None
            completed = status == "ok"
            if completed and op.warnings:
                status = "degraded"
            try:
                root.set_attribute("warnings", len(op.warnings))
                tracer.finish_span(root, status=status)
                # telemetry -> optimizer feedback (§3.5): fold the
                # health window's observed latencies and breaker states
                # into the statistics database after every operation
                self._feed_statistics()
                self.telemetry.record_operation(
                    status, root.duration, op.warnings, op.governor
                )
                # publish for introspection (compat): last writer wins
                self.last_warnings = op.warnings
                self.last_governor = op.governor
                if op.program is not None:
                    self._last_program = op.program
                if op.context is not None:
                    self.telemetry.record_run(op.context)
                    self.last_context = op.context
            finally:
                if ticket is not None:
                    ticket.complete(completed)

    def _governor_clock(self) -> Clock:
        """The governor reads time where the reliability layer does."""
        if self.resilience is not None:
            return self.resilience.clock
        return self._clock

    def _make_governor(
        self, warnings: list, waited: float = 0.0
    ) -> QueryGovernor | None:
        """A fresh per-run governor, or ``None`` when ungoverned.

        Re-evaluated at every run so budgets (and the resilience
        manager's clock) can be swapped on a live mediator.  Time spent
        queued at the admission gate (``waited``) is charged against
        the deadline: the user's budget bounds end-to-end latency, not
        just execution.  Under deep brownout (``strict-budgets`` shed)
        strict budgets run in truncate mode, clipping answers instead
        of aborting queries that already consumed resources.
        """
        budget = self.budget
        if (
            budget is None
            and self.cancellation is None
            and self.on_malformed_answer != "quarantine"
        ):
            return None
        if budget is not None and budget.deadline is not None and waited > 0:
            budget = dataclasses.replace(
                budget,
                deadline=max(budget.deadline - waited, _MIN_DEADLINE),
            )
        mode = self.budget_mode
        brownout = (
            self.admission.brownout if self.admission is not None else None
        )
        if brownout is not None and not brownout.allows("strict-budgets"):
            mode = "truncate"
        sanitizer = None
        shaped = budget is not None and (
            budget.max_depth is not None
            or budget.max_answer_objects is not None
        )
        if shaped or self.on_malformed_answer == "quarantine":
            sanitizer = AnswerSanitizer(
                max_depth=(
                    budget.max_depth
                    if budget is not None and budget.max_depth is not None
                    else DEFAULT_MAX_DEPTH
                ),
                max_objects=(
                    budget.max_answer_objects if budget is not None else None
                ),
                mode=(
                    "lenient"
                    if self.on_malformed_answer == "quarantine"
                    else "strict"
                ),
            )
        return QueryGovernor(
            budget=budget,
            mode=mode,
            clock=self._governor_clock(),
            token=self.cancellation,
            warnings=warnings,
            sanitizer=sanitizer,
        )

    def _context(self) -> ExecutionContext:
        """The execution context of the current operation.

        Built on first use and shared by everything the operation runs
        (so one run has one set of counters and one subscriber tuple);
        outside an operation — a tool driving the engine by hand —
        every call builds a fresh one.
        """
        op = self._op()
        if op is None:
            governor, warnings = self.last_governor, self.last_warnings
        elif op.context is not None:
            return op.context
        else:
            governor, warnings = op.governor, op.warnings
        brownout = (
            self.admission.brownout if self.admission is not None else None
        )
        # who watches the run.  The profiler always does; metrics
        # whenever telemetry is on; spans only under a sampled root
        # (head-based sampling governs traces, never counters) and
        # outside brownout rung 2 (spans are pure observability); the
        # EXPLAIN ANALYZE recorder when this operation is one
        subscribers: tuple = (self.profiler,)
        if self.telemetry.enabled:
            root = current_span()
            if (root is None or root.sampled) and (
                brownout is None or brownout.allows("tracing")
            ):
                subscribers = (self.telemetry.tracer, self.profiler)
            subscribers += (self.telemetry,)
        if op is not None and op.insight is not None:
            subscribers += (op.insight,)
        # deadline slicing follows adaptive timeouts
        slicer = None
        adaptive = (
            self.resilience.adaptive if self.resilience is not None else None
        )
        if (
            adaptive is not None
            and governor is not None
            and governor.budget.deadline is not None
        ):
            slicer = DeadlineSlicer(governor, adaptive=adaptive)
        context = ExecutionContext(
            sources=self.sources,
            externals=self.externals,
            oidgen=self._oidgen,
            statistics=self.statistics,
            resilience=self.resilience,
            on_source_failure=self.on_source_failure,
            warnings=warnings,
            governor=governor,
            dispatcher=(
                self.dispatcher if self.dispatcher.active else None
            ),
            compiler=self._compile_cache,
            subscribers=subscribers,
            slicer=slicer,
            force_sequential=(
                brownout is not None
                and not brownout.allows("parallelism")
            ),
            semijoin=self.semijoin,
        )
        if op is not None:
            op.context = context
        return context

    # -- materialization paths ---------------------------------------------

    def _evaluate_rule(
        self,
        rule: Rule,
        forests: dict[str | None, Sequence[OEMObject]],
    ) -> list[OEMObject]:
        """One rule over materialized forests."""
        return self._compile_cache.rule(rule).evaluate(
            forests, self.externals, self._oidgen, check=False
        )

    def _answer_by_materialization(self, query: Rule) -> list[OEMObject]:
        view = list(self.export())
        forests: dict[str | None, Sequence[OEMObject]] = {
            None: view,
            self.name: view,
        }
        context = self._context()
        for condition in query.tail:
            if isinstance(condition, PatternCondition) and condition.source:
                if condition.source == self.name:
                    continue
                forests[condition.source] = context.send_query(
                    condition.source, EXPORT
                )
        return self._evaluate_rule(query, forests)

    def _fixpoint_materialize(
        self, context: ExecutionContext
    ) -> list[OEMObject]:
        """Naive fixpoint for recursive specifications.

        Evaluates all rules against (source exports + current view)
        until the view stops changing; raises after
        :data:`MAX_FIXPOINT_ITERATIONS` rounds.
        """
        base_forests: dict[str | None, Sequence[OEMObject]] = {}
        for rule in self.specification.rules:
            for condition in rule.tail:
                if (
                    isinstance(condition, PatternCondition)
                    and condition.source
                    and condition.source != self.name
                    and condition.source not in base_forests
                ):
                    base_forests[condition.source] = context.send_query(
                        condition.source, EXPORT
                    )

        view: list[OEMObject] = []
        seen_keys: set = set()
        governor = context.governor
        for _ in range(MAX_FIXPOINT_ITERATIONS):
            if governor is not None:
                # each fixpoint round is a cooperative checkpoint: an
                # expired deadline or cancelled token stops a recursive
                # view from iterating forever within its budget
                governor.checkpoint()
                if governor.expired:
                    return view
            forests = dict(base_forests)
            forests[self.name] = view
            forests[None] = view
            new_objects: list[OEMObject] = []
            for rule in self.specification.rules:
                new_objects.extend(self._evaluate_rule(rule, forests))
            new_objects = finish(new_objects)
            keys = {structural_key(obj) for obj in new_objects}
            if keys <= seen_keys:
                return view
            view = finish(view + new_objects)
            seen_keys |= keys
        raise MediatorError(
            f"recursive view {self.name!r} did not reach a fixpoint in"
            f" {MAX_FIXPOINT_ITERATIONS} iterations"
        )

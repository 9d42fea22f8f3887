"""Physical datamerge graphs: the "machine language" of MedMaker.

Section 3.4: the optimizer turns a logical datamerge rule into "a
'dataflow' graph, where the nodes represent the operations to be
executed by the engine".  The node types of Figure 3.6 are all here —

* :class:`QueryNode` — sends a fixed MSL query to a source;
* :class:`ExternalPredNode` — invokes an external predicate per tuple;
* :class:`ParameterizedQueryNode` — per input tuple, instantiates a
  query template (``$R``, ``$LN``, ``$FN``) and sends it to a source;
* :class:`ConstructorNode` — builds the final result objects from the
  pattern ``cp(N, R, Rest1, Rest2)``;

plus the supporting nodes a complete engine needs: :class:`FilterNode`
(mediator-side compensation of conditions a source cannot evaluate),
:class:`JoinNode` (hash joins of independently fetched patterns), and
:class:`UnionNode` (multi-rule logical programs).  The constructor
deduplicates head bindings (footnote 3); the answer's objects are
deduplicated and fused after the plan, by
:func:`~repro.oem.compare.finish`.

The figure's extractor (``epw``) is not a node of its own: every
query a node ships is a projection query, and its answer enters the
plan as binding columns — matched out of the carrier objects where the
answer arrives (:meth:`~repro.mediator.engine.ExecutionContext.send_query`),
or handed over as rows by a wrapper that already holds them.

Each node consumes the tables of its input nodes and produces one
table; the engine (:mod:`repro.mediator.engine`) runs the graph
bottom-up and can record every intermediate table, which is how the
test-suite and benchmarks replay Figure 3.6 row for row.

A plan may be the plan of a query *template*
(:mod:`repro.msl.lift`): its nodes then hold ``$#0``-style placeholders
where the query had constants, and every node that meets one reads the
running call's value from ``context.params`` — the same substitution
Section 3.4's parameterized query does per input tuple.  Such a plan
is shared by every call, and every thread, running its shape: nothing
on a node is assigned while it executes (the constructor's per-layout
builder memo, whose value is a function of the node alone, is the one
thing a node remembers).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.exec.dispatcher import current_scope
from repro.mediator.events import Event
from repro.mediator.tables import (
    BindingTable,
    TableError,
    add_distinct,
    key_array,
)
from repro.msl.ast import (
    Comparison,
    Const,
    ExternalCall,
    HeadItem,
    Param,
    Pattern,
    Rule,
    Var,
)
from repro.msl.bindings import values_equal
from repro.msl.compile import compile_head_item
from repro.msl.errors import MSLInstantiationError, MSLSemanticError
from repro.msl.evaluate import compare_values
from repro.msl.substitute import (
    head_variables,
    pattern_params,
    rule_params,
    substitute_params,
)
from repro.oem.model import OEMObject
from repro.oem.oid import OidGenerator
from repro.wrappers.base import Carrier
from repro.wrappers.sharding import (
    SemiJoinFilter,
    SemiJoinQuery,
    encode_value,
    shard_name,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mediator.engine import ExecutionContext

__all__ = [
    "PlanNode",
    "QueryNode",
    "ShardedQueryNode",
    "ExternalPredNode",
    "ParameterizedQueryNode",
    "FilterNode",
    "JoinNode",
    "ConstructorNode",
    "UnionNode",
    "PhysicalPlan",
    "RESULT_COLUMN",
    "build_comparison_keep",
]

#: Column name carrying constructed result objects out of constructors.
RESULT_COLUMN = "_result"
#: Value types a shipped semi-join filter may carry: what the source
#: compares a direct child's atomic value against.
_FILTER_ATOMS = (str, int, float, bool)


class PlanNode(abc.ABC):
    """One operator of a physical datamerge graph."""

    #: Constituent-operator count for stage accounting.  Ordinary nodes
    #: occupy one stage; a fused pipeline node spans one stage per
    #: constituent so deadline slicing sees the same stage count with
    #: or without fusion.
    fusion_width = 1

    #: Optimizer-annotated cardinality estimate for this operator's
    #: output rows (``None`` when the planner has no estimate), and the
    #: ``(source, label, kind)`` statistics key the estimate derives
    #: from (``kind`` is ``"scan"`` for leaf fetches, ``"join"`` for
    #: bind-join probes).  Read by EXPLAIN ANALYZE, the q-error
    #: tracker and the telemetry counters, never by the engine.
    estimated_rows: "float | None" = None
    estimate_key: "tuple[str, str, str] | None" = None

    def __init__(self, inputs: Sequence["PlanNode"] = ()) -> None:
        self.inputs: tuple[PlanNode, ...] = tuple(inputs)

    @abc.abstractmethod
    def execute(
        self, inputs: list[BindingTable], context: "ExecutionContext"
    ) -> BindingTable:
        """Produce this node's output table from its input tables."""

    @abc.abstractmethod
    def describe(self, params: "Mapping[str, object] | None" = None) -> str:
        """A one-line description for plan displays (a template's
        placeholders filled from ``params`` when given)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


def _shown(node, params):
    """``node`` as a plan display prints it: placeholders filled."""
    return substitute_params(node, params, partial=True) if params else node


class RowSink:
    """A chain's intermediate output: columns plus governed rows, with
    no table (positions, key arrays) around them."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = tuple(columns)
        self.rows: list[tuple[object, ...]] = []

    def __len__(self) -> int:
        return len(self.rows)


def sink_out(columns: Sequence[str], governor):
    """``(add, out)`` for an output no later plan node reads as a table.

    With a governor the rows are admitted through ``row_admitter`` —
    charged against the per-table and run-total row budgets exactly as
    a :class:`BindingTable`'s rows are.
    """
    out = RowSink(columns)
    if governor is None:
        return out.rows.append, out
    return governor.row_admitter(out), out


def table_out(columns: Sequence[str], governor):
    """``(add, out)`` for the output that leaves a chain: a real table."""
    out = BindingTable(columns, governor=governor)
    return out._appender(), out


class RowOperatorNode(PlanNode):
    """A straight-line, row-at-a-time operator (the fusible kind).

    The operator is written once, as :meth:`run_rows` over the
    ``columns``/``rows`` of whatever its input produced; ``make_out``
    (:func:`table_out` or :func:`sink_out`) says where its output rows
    land.  ``execute`` is that body run as a chain of one; a fused
    pipeline node runs several in a row, with only the last one
    building a table.
    """

    def execute(
        self, inputs: list[BindingTable], context: "ExecutionContext"
    ) -> BindingTable:
        (table,) = inputs
        return self.run_rows(table, context, table_out)

    @abc.abstractmethod
    def run_rows(self, source, context: "ExecutionContext", make_out):
        """Run over ``source.columns``/``source.rows``; return the
        ``out`` of ``make_out(out_columns, governor)`` once filled."""


class QueryNode(PlanNode):
    """Leaf: send a fixed MSL query to one source.

    The query is a projection query (its head a
    :class:`~repro.wrappers.base.Carrier`), and the output table has one
    column per projected variable — Figure 3.6's ``Qw Result`` table as
    the extractor above it would have left it.
    """

    def __init__(self, source: str, query: Rule) -> None:
        super().__init__(())
        self.source = source
        self.query = query
        self.templated = bool(rule_params(query))
        self.carrier = _carrier_of(query)

    def execute(
        self, inputs: list[BindingTable], context: "ExecutionContext"
    ) -> BindingTable:
        rows = context.send_query(
            self.source, _bound_query(self, context), self.carrier
        )
        return BindingTable(
            self.carrier.columns, rows, governor=context.governor
        )

    def describe(self, params=None) -> str:
        return f"query {self.source}: {_shown(self.query, params)}"


def _carrier_of(query: Rule) -> Carrier:
    carrier = Carrier.of(query)
    if carrier is None:
        raise MSLSemanticError(f"not a projection query: {query}")
    return carrier


def _bound_query(node, context: "ExecutionContext") -> Rule:
    """The concrete rule a leaf ships: its query with this call's
    constants in place (a source never sees a lifted placeholder)."""
    if node.templated and context.params:
        return substitute_params(node.query, context.params, partial=True)
    return node.query


def _fan_queries(context, pairs, carrier: Carrier):
    """Send ``(source, query)`` pairs, in parallel when possible; every
    query's head is ``carrier``, and each answer comes back as its rows.

    Answers come back in pair order.  Sequential runs send directly
    (failing fast, like the per-row path always did); parallel runs let
    every task settle, merge each task scope into the running node's
    in submission order, then raise the first captured error.
    """
    dispatcher = context.dispatcher
    if dispatcher is None or not dispatcher.parallel or len(pairs) <= 1:
        return [
            context.send_query(source, query, carrier)
            for source, query in pairs
        ]
    outcomes = dispatcher.run_tasks(
        [
            (lambda s=source, q=query: context.send_query(s, q, carrier))
            for source, query in pairs
        ]
    )
    parent = current_scope()
    first_error: BaseException | None = None
    for outcome in outcomes:
        parent.merge(outcome.scope)
        if outcome.error is not None and first_error is None:
            first_error = outcome.error
    if first_error is not None:
        raise first_error
    return [outcome.value or [] for outcome in outcomes]


class ShardedQueryNode(PlanNode):
    """Leaf: fan one fixed query across the shards of a sharded source.

    The optimizer replaces a :class:`QueryNode` on a
    :class:`~repro.wrappers.sharding.ShardedSource` with this node,
    pruning shards that cannot hold matching objects (a constant pushed
    down on the partition label routes to exactly one shard).  The
    surviving shards are probed concurrently through the dispatcher —
    this node runs inline on the coordinating thread (it is *not* a
    :class:`QueryNode`, so the engine never puts it on a pool
    worker, which keeps the fan-out free of nested-pool deadlocks) —
    and answers concatenate in shard order.
    """

    def __init__(
        self,
        source: str,
        shard_names: Sequence[str],
        query: Rule,
        pruned: int = 0,
        routed: Pattern | None = None,
    ) -> None:
        super().__init__(())
        self.source = source
        self.shard_names = tuple(shard_names)
        self.query = query
        self.pruned = pruned
        self.templated = bool(rule_params(query))
        self.carrier = _carrier_of(query)
        # the shipped pattern, when a placeholder sits on the partition
        # label: the shards are then pruned per call, by its value
        self.routed = routed

    def execute(
        self, inputs: list[BindingTable], context: "ExecutionContext"
    ) -> BindingTable:
        names, pruned = self.shard_names, self.pruned
        if self.routed is not None and context.params:
            names, pruned = context.sources.resolve(
                self.source
            ).prune_for_pattern(self.routed, context.params)
        context.record_shard_fanout(len(names), pruned)
        query = _bound_query(self, context)
        answers = _fan_queries(
            context, [(name, query) for name in names], self.carrier
        )
        return BindingTable(
            self.carrier.columns,
            (row for answer in answers for row in answer or ()),
            governor=context.governor,
        )

    def describe(self, params=None) -> str:
        total = len(self.shard_names) + self.pruned
        return (
            f"sharded-query {self.source}"
            f" [{len(self.shard_names)}/{total} shards]:"
            f" {_shown(self.query, params)}"
        )


class ExternalPredNode(RowOperatorNode):
    """Invoke an external predicate for every tuple (Figure 3.6's
    ``external pred`` node)."""

    def __init__(self, input_node: PlanNode, call: ExternalCall) -> None:
        super().__init__((input_node,))
        self.call = call

    def plan_call(
        self,
        positions: Mapping[str, int],
        params: Mapping[str, object] | None = None,
    ) -> tuple[list[str], list[tuple[str, object]]]:
        """``(out_vars, argument specs)`` for one input schema.

        The argument plan is fixed before the hot loop, over raw row
        tuples: ``('const', value) | ('col', row position) |
        ('out', out index) | ('skip', None)``.  A placeholder with a
        value in ``params`` is that constant.
        """
        out_vars: list[str] = []
        for arg in self.call.args:
            if (
                isinstance(arg, Var)
                and not arg.is_anonymous
                and arg.name not in positions
                and arg.name not in out_vars
            ):
                out_vars.append(arg.name)
        specs: list[tuple[str, object]] = []
        for arg in self.call.args:
            if isinstance(arg, Const):
                specs.append(("const", arg.value))
            elif isinstance(arg, Param) and params and arg.name in params:
                specs.append(("const", params[arg.name]))
            elif (
                isinstance(arg, Var)
                and not arg.is_anonymous
                and arg.name in positions
            ):
                specs.append(("col", positions[arg.name]))
            elif isinstance(arg, Var) and not arg.is_anonymous:
                specs.append(("out", out_vars.index(arg.name)))
            else:
                specs.append(("skip", None))
        return out_vars, specs

    def expander(
        self,
        specs: Sequence[tuple[str, object]],
        out_vars: Sequence[str],
        context: "ExecutionContext",
    ):
        """Per-row expansion closure over a fixed argument plan.

        The plan fixes which arguments are available, so the
        implementation is chosen once, at the first charged row: over
        no rows an unexecutable adornment raises nothing, over one or
        more it raises what :meth:`ExternalRegistry.select` raises.
        """
        governor = context.governor
        n_out = len(out_vars)
        unset = object()
        available = [kind in ("const", "col") for kind, _ in specs]
        invoke = None

        def expand(row: tuple[object, ...]) -> Iterable[Sequence[object]]:
            nonlocal invoke
            # each invocation is charged against the external-call
            # budget; in truncate mode an exhausted budget skips the
            # call, dropping the row (a subset, never invented data)
            if governor is not None and not governor.charge_external_call():
                return
            if invoke is None:
                invoke = context.externals.resolve(self.call.name, available)
            args = [
                payload
                if kind == "const"
                else row[payload] if kind == "col" else None
                for kind, payload in specs
            ]
            for full in invoke(args):
                produced: list[object] = [unset] * n_out
                consistent = True
                for (kind, payload), value in zip(specs, full):
                    if kind == "const":
                        if payload != value:
                            consistent = False
                            break
                    elif kind == "col":
                        if not values_equal(row[payload], value):
                            consistent = False
                            break
                    elif kind == "out":
                        existing = produced[payload]
                        if existing is unset:
                            produced[payload] = value
                        elif not values_equal(existing, value):
                            consistent = False
                            break
                if consistent:
                    yield [
                        None if value is unset else value
                        for value in produced
                    ]

        return expand

    def run_rows(self, source, context: "ExecutionContext", make_out):
        rows = source.rows
        positions = {name: i for i, name in enumerate(source.columns)}
        out_vars, specs = self.plan_call(positions, context.params)
        expand = self.expander(specs, out_vars, context)
        add, out = make_out(
            source.columns + tuple(out_vars), context.governor
        )
        event = Event(
            context.subscribers, "external-predicate", self.call.name
        )
        try:
            for row in rows:
                for extension in expand(row):
                    add(row + tuple(extension))
        except BaseException as exc:
            event.end(exc)
            raise
        if event.heard:
            event.attributes["rows_in"] = len(rows)
            event.attributes["rows_out"] = len(out)
            event.end()
        return out

    def describe(self, params=None) -> str:
        return f"external {_shown(self.call, params)}"


class ParameterizedQueryNode(RowOperatorNode):
    """Per input tuple, instantiate a query template and send it.

    "For each tuple of its input table, this node generates a query for
    source cs requesting bindings ... The values for query parameters
    $R, $LN, and $FN are taken from ... the incoming table."  Input
    columns are kept (the node's keep/discard parameter, fixed to keep),
    followed by the template's projected variables.  A projected
    variable the input already carries is a join: an answer row counts
    for an input row only when the two values agree.
    """

    def __init__(
        self,
        input_node: PlanNode,
        source: str,
        template: Rule,
        param_columns: Mapping[str, str],
        batch_query: Rule | None = None,
        param_labels: Mapping[str, str] | None = None,
        shard_names: Sequence[str] | None = None,
        partition=None,
    ) -> None:
        super().__init__((input_node,))
        self.source = source
        self.template = template
        self.carrier = _carrier_of(template)
        self.param_columns = dict(param_columns)
        # semi-join shipping spec (optimizer-attached when the source
        # advertises batch filters): the projection rule to ship once
        # per probe group and target, the direct-child label each
        # filterable parameter's values appear under — the remaining
        # parameters stay ``$`` placeholders of ``batch_query`` and
        # group the probes — and, for sharded sources, the surviving
        # shard names plus the partition for per-probe routing on the
        # partition label
        self.batch_query = batch_query
        self.param_labels = dict(param_labels) if param_labels else {}
        self.shard_names = tuple(shard_names) if shard_names else ()
        self.partition = partition
        if batch_query is not None:
            # a batch answer row carries the template's columns and the
            # filtered parameters' values, which route it to its probes
            self.batch_carrier = _carrier_of(batch_query)
            columns = self.batch_carrier.columns
            self._template_cells = tuple(
                columns.index(name) for name in self.carrier.columns
            )
            self._filter_cells = tuple(
                columns.index(name)
                for name in self.param_columns
                if name in self.param_labels
            )

    def instantiate(self, row: Mapping[str, object]) -> Rule:
        """The concrete query for one input tuple (Qcs1/Qcs2 style)."""
        return self._instantiate_with(
            {
                name: row[column]
                for name, column in self.param_columns.items()
            }
        )

    def _instantiate_with(
        self,
        params: Mapping[str, object],
        template: Rule | None = None,
        lifted: Mapping[str, object] | None = None,
    ) -> Rule:
        """``template`` with ``params`` — one tuple's values — filled
        in, over the ``lifted`` constants of the running call."""
        if lifted:
            params = {**lifted, **params}
        return substitute_params(template or self.template, params)

    def run_rows(self, source, context: "ExecutionContext", make_out):
        """Probe once per distinct input tuple (or once per batch).

        Queries are instantiated up front and deduplicated by canonical
        text (distinct rows often bind the same parameters), one task
        is dispatched per unique query, and the output is rebuilt on
        the coordinating thread in input-row order — same rows, same
        order, same dropped-empty-answer semantics as a per-row probe.
        When the optimizer attached a semi-join spec (the source
        accepts batch filters and at least one parameter can ship as a
        value filter) and the context has semi-join shipping enabled,
        the whole batch collapses into one shipped filter per probe
        group and target instead.
        """
        rows = source.rows
        positions = {name: i for i, name in enumerate(source.columns)}
        param_positions = [
            (name, positions[column])
            for name, column in self.param_columns.items()
        ]
        carried = self.carrier.columns
        checks = tuple(
            (positions[name], at)
            for at, name in enumerate(carried)
            if name in positions
        )
        fresh = tuple(
            at for at, name in enumerate(carried) if name not in positions
        )
        add, out = make_out(
            source.columns + tuple(carried[at] for at in fresh),
            context.governor,
        )
        emit = _joining(add, checks, fresh, len(carried))
        if (
            rows
            and self.batch_query is not None
            and context.semijoin
            and self._run_semijoin(rows, param_positions, context, emit)
        ):
            return out
        unique: list[Rule] = []
        index_of: dict[str, int] = {}
        row_query: list[int] = []
        for row in rows:
            query = self._instantiate_with(
                {name: row[p] for name, p in param_positions},
                lifted=context.params,
            )
            text = str(query)
            position = index_of.get(text)
            if position is None:
                position = index_of[text] = len(unique)
                unique.append(query)
            row_query.append(position)
        answers = _fan_queries(
            context, [(self.source, query) for query in unique], self.carrier
        )
        for row, position in zip(rows, row_query):
            for cells in answers[position] or ():
                emit(row, cells)
        return out

    def _run_semijoin(
        self,
        rows: Sequence[tuple[object, ...]],
        param_positions: Sequence[tuple[str, int]],
        context: "ExecutionContext",
        emit,
    ) -> bool:
        """Ship one batched value filter per group and target.

        Distinct probe tuples (canonically encoded, so ``1`` and
        ``1.0`` collapse) are grouped by the values of the parameters
        no value filter can address; each group instantiates those
        into ``batch_query`` and ships it, with one ``IN``-set filter
        per remaining parameter, as a single
        :class:`~repro.wrappers.sharding.SemiJoinQuery` — routed to
        the owning shard when the partition label is among the
        filtered parameters, otherwise to every target.  Returned
        rows are demultiplexed back onto their probe by their filtered
        parameters' cells, and a row counts for a probe only if that
        probe was shipped to the answering target, which drops the
        filters' cross-product false positives and keeps cross-shard
        duplicates out.  Emits the same rows, in the same input order,
        as the per-tuple path.  Returns ``False`` (caller falls back to
        per-tuple probes) if a filtered parameter value is not a plain
        atom.
        """
        params = [name for name, _ in param_positions]
        filtered = [
            at for at, name in enumerate(params) if name in self.param_labels
        ]
        grouping = [
            at for at, name in enumerate(params)
            if name not in self.param_labels
        ]
        # per group key, in first-appearance order: the group's probes
        # as {filter key: values of every parameter}
        groups: dict[tuple[bytes, ...], dict[tuple[bytes, ...], tuple]] = {}
        row_key: list[tuple[tuple[bytes, ...], tuple[bytes, ...]]] = []
        for row in rows:
            values = tuple(row[p] for _, p in param_positions)
            for at in filtered:
                if type(values[at]) not in _FILTER_ATOMS:
                    return False
            group_key = tuple(encode_value(values[at]) for at in grouping)
            filter_key = tuple(encode_value(values[at]) for at in filtered)
            groups.setdefault(group_key, {}).setdefault(filter_key, values)
            row_key.append((group_key, filter_key))

        targets = list(self.shard_names) or [self.source]
        route_at: int | None = None
        if self.partition is not None and self.shard_names:
            for at in filtered:
                if self.param_labels[params[at]] == self.partition.label:
                    route_at = at
                    break
        pairs: list[tuple[str, SemiJoinQuery]] = []
        # per pair: its group key and the filter keys shipped with it
        shipped: list[tuple[tuple[bytes, ...], set[tuple[bytes, ...]]]] = []
        for group_key, probes in groups.items():
            routed: dict[str, list[tuple[bytes, ...]]] = {
                name: [] for name in targets
            }
            for filter_key, values in probes.items():
                owner = (
                    self.partition.shard_of(values[route_at])
                    if route_at is not None
                    else None
                )
                if owner is None:
                    for members in routed.values():
                        members.append(filter_key)
                else:
                    members = routed.get(shard_name(self.source, owner))
                    if members is not None:
                        members.append(filter_key)
            rule = self.batch_query
            if grouping:
                first = next(iter(probes.values()))
                rule = self._instantiate_with(
                    {params[at]: first[at] for at in grouping},
                    rule,
                    context.params,
                )
            elif context.params:
                rule = substitute_params(rule, context.params, partial=True)
            for name, members in routed.items():
                if not members:
                    continue
                filters = [
                    SemiJoinFilter(
                        params[at],
                        self.param_labels[params[at]],
                        frozenset(probes[key][at] for key in members),
                    )
                    for at in filtered
                ]
                pairs.append((name, SemiJoinQuery(rule, filters)))
                shipped.append((group_key, set(members)))

        # a degraded call (or a quarantined answer) leaves a warning in
        # this node's scope; such a batch is an absence, not an observation
        sink = current_scope().warnings
        warned = len(sink)
        answers = _fan_queries(context, pairs, self.batch_carrier)
        context.record_semijoin(
            len(pairs), sum(len(probes) for probes in groups.values())
        )
        filter_cells = self._filter_cells
        template_cells = self._template_cells
        matched: dict[tuple, dict[tuple, list[tuple]]] = {
            group_key: {filter_key: [] for filter_key in probes}
            for group_key, probes in groups.items()
        }
        for (group_key, admitted), answer in zip(shipped, answers):
            found = matched[group_key]
            for cells in answer or ():
                filter_key = tuple(
                    encode_value(cells[at]) for at in filter_cells
                )
                if filter_key in admitted:
                    found[filter_key].append(
                        tuple(cells[at] for at in template_cells)
                    )
        for row, (group_key, filter_key) in zip(rows, row_key):
            for cells in matched[group_key][filter_key]:
                emit(row, cells)
        if context.statistics is not None and len(sink) == warned:
            self._feed_statistics(context, params, groups, matched)
        return True

    def _feed_statistics(self, context, params, groups, matched) -> None:
        """One cardinality observation per shipped group.

        A batch answer spans many probes, so the engine's per-call
        feedback skips it; what the optimizer estimates is the answer
        to *one* probe, so each group records its mean matches per
        distinct probe against the group's instantiated probe pattern —
        normalised exactly as the per-tuple path's observations are.
        """
        for group_key, probes in groups.items():
            objects = sum(len(found) for found in matched[group_key].values())
            probe = self._instantiate_with(
                dict(zip(params, next(iter(probes.values())))),
                lifted=context.params,
            )
            for condition in probe.pattern_conditions():
                context.statistics.record(
                    self.source, condition.pattern, objects / len(probes)
                )

    def describe(self, params=None) -> str:
        template = _shown(self.template, params)
        params = ", ".join(
            f"${name}<-{column}" for name, column in self.param_columns.items()
        )
        mode = ""
        if self.batch_query is not None:
            grouping = [
                f"${name}" for name in self.param_columns
                if name not in self.param_labels
            ]
            mode = " (semijoin"
            if grouping:
                mode += f" by {','.join(grouping)};"
            mode += " IN " + ",".join(f"${name}" for name in self.param_labels)
            if self.shard_names:
                mode += f" x{len(self.shard_names)} shards"
            mode += ")"
        return f"param-query {self.source}{mode} [{params}]: {template}"


def _joining(add, checks, fresh, width: int):
    """``emit(row, cells)``: the input ``row`` extended by the answer
    ``cells`` at ``fresh`` positions, kept only when every cell the
    input already carries agrees with it (``checks``: ``(row position,
    cell position)`` pairs)."""
    if not checks and len(fresh) == width:
        return lambda row, cells: add(row + cells)

    def emit(row, cells):
        for position, at in checks:
            if not values_equal(cells[at], row[position]):
                return
        add(row + tuple(cells[at] for at in fresh))

    return emit


def build_comparison_keep(
    comparison: Comparison,
    positions: Mapping[str, int],
    params: Mapping[str, object] | None = None,
):
    """Positional keep-predicate for one comparison over raw row tuples
    (a placeholder operand reads its constant from ``params``)."""

    def accessor(term):
        # positional mirror of term_value over the row's variable
        # columns (the result column is never a comparison operand)
        if isinstance(term, Const):
            value = term.value
            return lambda row, _v=value: (True, _v)
        if isinstance(term, Param) and params and term.name in params:
            value = params[term.name]
            return lambda row, _v=value: (True, _v)
        if (
            isinstance(term, Var)
            and not term.is_anonymous
            and term.name in positions
            and term.name != RESULT_COLUMN
        ):
            p = positions[term.name]
            return lambda row, _p=p: (True, row[_p])
        return lambda row: (False, None)

    left = accessor(comparison.left)
    right = accessor(comparison.right)
    op = comparison.op

    def keep(row: tuple[object, ...]) -> bool:
        left_ok, left_value = left(row)
        right_ok, right_value = right(row)
        if not (left_ok and right_ok):
            raise MSLSemanticError(
                f"comparison {_shown(comparison, params)} evaluated with"
                " unbound operand"
            )
        return compare_values(op, left_value, right_value)

    return keep


class FilterNode(RowOperatorNode):
    """Apply a comparison to each tuple (mediator-side compensation)."""

    def __init__(self, input_node: PlanNode, comparison: Comparison) -> None:
        super().__init__((input_node,))
        self.comparison = comparison

    def run_rows(self, source, context: "ExecutionContext", make_out):
        positions = {name: i for i, name in enumerate(source.columns)}
        keep = build_comparison_keep(
            self.comparison, positions, context.params
        )
        add, out = make_out(source.columns, context.governor)
        for row in source.rows:
            if keep(row):
                add(row)
        return out

    def describe(self, params=None) -> str:
        return f"filter {_shown(self.comparison, params)}"


class JoinNode(PlanNode):
    """Natural (hash) join of two tables on their shared columns."""

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        super().__init__((left, right))

    def execute(
        self, inputs: list[BindingTable], context: "ExecutionContext"
    ) -> BindingTable:
        left, right = inputs
        return left.natural_join(right)

    def describe(self, params=None) -> str:
        return "join"


class ConstructorNode(RowOperatorNode):
    """Create the final result objects (Figure 3.6's ``constructor``).

    "For each row in the input table, the constructor operator takes a
    row, assigns [the values] to the N, R, Rest1, and Rest2 values in
    cp, creating one of the final result objects."  Head-variable
    bindings are projected and deduplicated first (the MSL semantics of
    footnote 3).  Structurally duplicated objects (footnote 9) are left
    to the answer's :func:`~repro.oem.compare.finish`, which also fuses
    semantic oids across rules.  Every object is built by the compiled
    head builders (:func:`~repro.msl.compile.compile_head_item`), which
    also raise the head's instantiation errors.
    """

    def __init__(self, input_node: PlanNode, head: Sequence[HeadItem]) -> None:
        super().__init__((input_node,))
        self.head = tuple(head)
        self._needed = sorted(head_variables(self.head))
        # the lifted constants the head mentions, in a fixed order: each
        # call's values ride behind a row's variables, in columns named
        # as the placeholders print
        self._params: tuple[str, ...] = tuple(
            dict.fromkeys(
                name
                for item in self.head
                if isinstance(item, Pattern)
                for name in pattern_params(item)
            )
        )
        # compiled head builders per projected column layout
        self._builders: dict[tuple[str, ...], tuple] = {}

    def run_rows(self, source, context: "ExecutionContext", make_out):
        positions = {name: i for i, name in enumerate(source.columns)}
        available = tuple(v for v in self._needed if v in positions)
        governor = context.governor
        # projection and dedup are admitted row by row into sinks of
        # their own, so per-table budgets see each step's size
        add, projected = sink_out(available, governor)
        avail_positions = [positions[v] for v in available]
        for row in source.rows:
            add(tuple(row[p] for p in avail_positions))
        add, distinct = sink_out(available, governor)
        add_distinct(
            projected.rows,
            [
                key_array([row[p] for row in projected.rows])[0]
                for p in range(len(available))
            ],
            add,
        )
        objects: list[OEMObject] = []
        oidgen = context.oidgen
        constants: tuple = ()
        if self._params:
            frame = context.params
            missing = [name for name in self._params if name not in frame]
            if missing:
                raise MSLInstantiationError(
                    f"no value supplied for parameter ${missing[0]}"
                )
            constants = tuple(frame[name] for name in self._params)
            available += tuple(f"${name}" for name in self._params)
        builders = self._builders.get(available)
        if builders is None:
            # slot-layout closures that read the projected rows
            # positionally (see compile_head_item)
            builders = self._builders[available] = tuple(
                compile_head_item(item, available) for item in self.head
            )
        for row in distinct.rows:
            if governor is not None and not governor.charge_result_object():
                break  # truncate mode: stop constructing, keep the run
            if constants:
                row += constants
            for build in builders:
                objects.extend(build(row, oidgen))
        add, out = make_out((RESULT_COLUMN,), governor)
        for obj in objects:
            add((obj,))
        return out

    def describe(self, params=None) -> str:
        head = _shown(self.head, params)
        return f"construct {' '.join(str(h) for h in head)}"


class UnionNode(PlanNode):
    """Concatenate the result tables of several sub-plans.

    "If more than one head matches, then more than one rule will be
    considered; resulting objects will be added to the result."
    """

    def execute(
        self, inputs: list[BindingTable], context: "ExecutionContext"
    ) -> BindingTable:
        result = BindingTable((RESULT_COLUMN,), governor=context.governor)
        add = result._appender()
        for table in inputs:
            if table.columns != (RESULT_COLUMN,):
                raise TableError(
                    f"union inputs must be result tables, got"
                    f" {list(table.columns)}"
                )
            for row in table.rows:
                add(row)
        return result

    def describe(self, params=None) -> str:
        return f"union of {len(self.inputs)}"


def _postorder(node: PlanNode, seen: set[int], order: list[PlanNode]) -> None:
    """Append ``node``'s subgraph to ``order``, inputs first, once each."""
    if id(node) in seen:
        return
    seen.add(id(node))
    for child in node.inputs:
        _postorder(child, seen, order)
    order.append(node)


class PhysicalPlan:
    """A rooted DAG of plan nodes, executable by the datamerge engine."""

    def __init__(self, root: PlanNode) -> None:
        self.root = root
        self._order: list[PlanNode] | None = None
        self._stages: list[list[PlanNode]] | None = None
        self._stage_starts: list[tuple[int, list[PlanNode]]] | None = None
        self._depth: int | None = None

    def nodes(self) -> list[PlanNode]:
        """All nodes in bottom-up (topological) order."""
        if self._order is not None:
            return self._order
        order: list[PlanNode] = []
        _postorder(self.root, set(), order)
        self._order = order
        return order

    def stages(self) -> list[list[PlanNode]]:
        """Nodes grouped by topological depth, shallowest first.

        A node's depth is ``1 + max(depth of its inputs)``, so all of a
        stage's inputs live in strictly earlier stages and the nodes
        *within* one stage are mutually independent — the unit of
        parallelism for the stage-aware executor.  Within a stage,
        nodes keep their :meth:`nodes` (topological) order, which is
        what keeps parallel runs' warning and trace order
        deterministic.
        """
        if self._stages is None:
            self._compute_stages()
        return self._stages

    def stage_starts(self) -> list[tuple[int, list[PlanNode]]]:
        """:meth:`stages` with each group's starting stage *number*.

        For unfused plans the numbers are simply 1, 2, 3, ...; a fused
        pipeline node occupies the number of its first constituent and
        spans ``fusion_width`` consecutive numbers, so stage numbering
        (and therefore deadline slicing and stage spans) is identical
        with and without fusion.
        """
        if self._stage_starts is None:
            self._compute_stages()
        return self._stage_starts

    def depth(self) -> int:
        """Total constituent-stage count (the deadline-slicing unit).

        Counts every constituent of a fused node, so
        ``fused_plan.depth() == unfused_plan.depth()``.
        """
        if self._depth is None:
            self._compute_stages()
        return self._depth

    def _compute_stages(self) -> None:
        end: dict[int, int] = {}
        grouped: dict[int, list[PlanNode]] = {}
        for node in self.nodes():
            start = 1
            for child in node.inputs:
                if end[id(child)] >= start:
                    start = end[id(child)] + 1
            end[id(node)] = start + node.fusion_width - 1
            grouped.setdefault(start, []).append(node)
        self._stage_starts = sorted(grouped.items())
        self._stages = [group for _, group in self._stage_starts]
        self._depth = max(end.values())

    def describe(self, params: Mapping[str, object] | None = None) -> str:
        """A numbered, indented description of the whole graph (of a
        template's plan as it runs under ``params``, when given)."""
        numbers = {id(node): i for i, node in enumerate(self.nodes(), 1)}
        lines = []
        for node in self.nodes():
            refs = ", ".join(str(numbers[id(c)]) for c in node.inputs)
            prefix = f"[{numbers[id(node)]}]"
            suffix = f"  <- [{refs}]" if refs else ""
            lines.append(f"{prefix} {node.describe(params)}{suffix}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PhysicalPlan({len(self.nodes())} nodes)"

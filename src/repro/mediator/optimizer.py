"""The cost-based optimizer: logical datamerge rules -> physical graphs.

Second stage of the MSI pipeline (Figure 2.5): "develops a plan for
obtaining and combining the objects ... The plan specifies what queries
will be sent to the sources, in what order they will be sent, and how
the results of the queries will be combined."

Three planning strategies are implemented, matching the knobs the paper
discusses in Section 3.5:

* ``"heuristic"`` (default) — the paper's ad-hoc heuristic: "the outer
  patterns of the join order are the ones that have the greatest number
  of conditions".  Subsequent patterns are fetched with *bind joins*
  (parameterized queries), exactly the plan of Section 3.1.
* ``"statistics"`` — join order by estimated cardinality from the
  optimizer's own statistics database (built "on results of previous
  queries and on sampling").
* ``"exhaustive"`` — enumerate all pattern orders (practical up to ~7
  patterns) and pick the minimum under a simple cost model: per step,
  one query per outstanding binding plus the estimated objects shipped,
  with a selectivity discount per bind-join variable.
* ``"fetch_all"`` — the ablation baseline: the bind-join pipeline
  that never parameterizes, so every pattern is fetched independently
  with only its own constants pushed down, and results are combined
  with mediator-side hash joins.

Source capabilities are honoured throughout: each pattern destined for a
source is first :meth:`split <repro.wrappers.capability.Capability.split>`
against that source's capability, and the residual conditions become
mediator-side :class:`FilterNode`s (the compensation of [PGH]).

The wire protocol is the paper's: a shipped query projects the needed
bindings into a synthetic ``<bind_for_... {...}>`` object (Qw/Qcs of
Section 3.1), a :class:`~repro.wrappers.base.Carrier`, and the node
that ships it outputs the carried bindings as its columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.mediator.logical import LogicalDatamergeProgram, LogicalRule
from repro.mediator.plan import (
    ConstructorNode,
    ExternalPredNode,
    FilterNode,
    JoinNode,
    ParameterizedQueryNode,
    PhysicalPlan,
    PlanNode,
    QueryNode,
    ShardedQueryNode,
    UnionNode,
)
from repro.mediator.statistics import (
    SourceStatistics,
    _label_of,
    count_constant_conditions,
)
from repro.msl.ast import (
    Comparison,
    Const,
    ExternalCall,
    Param,
    Pattern,
    PatternCondition,
    PatternItem,
    Rule,
    SetPattern,
    Var,
    VarItem,
)
from repro.msl.errors import MSLSemanticError
from repro.msl.lift import ValueDependent
from repro.msl.substitute import pattern_variables, term_variables
from repro.msl.walk import (
    LABEL,
    OBJECT_VAR,
    OID,
    REST_VAR,
    SEMOID_ARG,
    TYPE,
    VALUE,
    rebuild,
    slots,
)
from repro.wrappers.registry import SourceRegistry
from repro.wrappers.sharding import ShardedSource

__all__ = ["CostBasedOptimizer", "PlanningError", "STRATEGIES"]

STRATEGIES = ("heuristic", "statistics", "exhaustive", "fetch_all")


class PlanningError(MSLSemanticError):
    """No executable plan exists for a logical rule."""


@dataclass
class _PendingPattern:
    condition: PatternCondition
    score: float


class CostBasedOptimizer:
    """Builds physical datamerge graphs for logical programs."""

    def __init__(
        self,
        sources: SourceRegistry,
        statistics: SourceStatistics | None = None,
        strategy: str = "heuristic",
        prune_with_facts: bool = True,
    ) -> None:
        if strategy not in STRATEGIES:
            raise PlanningError(
                f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
            )
        self.sources = sources
        self.statistics = statistics or SourceStatistics()
        self.strategy = strategy
        self.prune_with_facts = prune_with_facts
        self.rules_pruned = 0

    # -- public API ------------------------------------------------------

    def plan_program(
        self, program: LogicalDatamergeProgram
    ) -> PhysicalPlan:
        """One plan for a whole logical program (union of rule plans).

        Rules whose source patterns are *unsatisfiable* given the
        sources' exported schema facts (footnote 1) are pruned before
        planning — no query is ever shipped for them.
        """
        rules = [
            rule for rule in program if self._rule_satisfiable(rule)
        ]
        self.rules_pruned = len(program) - len(rules)
        if not rules:
            return PhysicalPlan(UnionNode(()))
        roots = [self.plan_rule(rule).root for rule in rules]
        if len(roots) == 1:
            return PhysicalPlan(roots[0])
        return PhysicalPlan(UnionNode(roots))

    def _rule_satisfiable(self, logical: LogicalRule) -> bool:
        """Could every source pattern of the rule possibly match?"""
        if not self.prune_with_facts:
            return True
        from repro.wrappers.facts import pattern_satisfiable

        for condition in logical.rule.tail:
            if not isinstance(condition, PatternCondition):
                continue
            if condition.source is None or condition.source not in self.sources:
                continue
            facts = self.sources.resolve(condition.source).schema_facts
            if not pattern_satisfiable(condition.pattern, facts):
                return False
        return True

    def plan_rule(self, logical: LogicalRule | Rule) -> PhysicalPlan:
        """A physical graph for one logical datamerge rule."""
        rule = logical.rule if isinstance(logical, LogicalRule) else logical
        patterns: list[PatternCondition] = []
        externals: list[ExternalCall] = []
        comparisons: list[Comparison] = []
        for condition in rule.tail:
            if isinstance(condition, PatternCondition):
                if condition.source is None:
                    raise PlanningError(
                        f"logical rule pattern lacks a source: {condition}"
                    )
                patterns.append(condition)
            elif isinstance(condition, ExternalCall):
                externals.append(condition)
            else:
                comparisons.append(condition)
        if not patterns:
            raise PlanningError(f"logical rule has no source patterns: {rule}")

        ordered = self._order_patterns(patterns)
        node = self._build_bind_join(ordered, externals, comparisons)
        constructor = ConstructorNode(node, rule.head)
        return PhysicalPlan(constructor)

    # -- join ordering -----------------------------------------------------

    def _order_patterns(
        self,
        patterns: list[PatternCondition],
        strategy: str | None = None,
    ) -> list[PatternCondition]:
        # strategy is threaded as a parameter (instead of temporarily
        # mutating self.strategy) so concurrent queries sharing this
        # optimizer never observe each other's fallback
        strategy = self.strategy if strategy is None else strategy
        if strategy == "exhaustive":
            return self._best_order_by_cost(patterns)
        if strategy == "statistics":
            # observed latency x estimated cardinality: the feedback
            # loop of §3.5 — sources measured slow (or with an open
            # breaker) are deprioritized even at equal cardinality
            scored = [
                _PendingPattern(
                    p,
                    self._estimate(p)
                    * self.statistics.cost_weight(p.source or ""),
                )
                for p in patterns
            ]
            scored.sort(key=lambda pp: pp.score)  # smallest first
            return [pp.condition for pp in scored]
        # the paper's heuristic: most constant conditions first
        scored = [
            _PendingPattern(
                p, -float(count_constant_conditions(p.pattern))
            )
            for p in patterns
        ]
        scored.sort(key=lambda pp: pp.score)
        return [pp.condition for pp in scored]

    def _best_order_by_cost(
        self, patterns: list[PatternCondition]
    ) -> list[PatternCondition]:
        """Minimum-cost order over all permutations (§3.5's "select the
        optimal graph", for the plan space this optimizer emits).

        The cost model per step: one source query is sent for every
        binding produced so far (bind joins are per-tuple), and the
        objects shipped are the pattern's estimated result discounted by
        ``selectivity`` per join variable already bound.  Falls back to
        the heuristic order beyond 7 patterns (permutation blow-up).
        """
        import itertools as _it

        if len(patterns) > 7:
            return self._order_patterns(patterns, "heuristic")

        selectivity = self.statistics.selectivity
        estimates = [self._estimate(p) for p in patterns]
        weights = [
            self.statistics.cost_weight(p.source or "") for p in patterns
        ]
        variables = [
            _parameterizable_vars(p.pattern) | _rest_vars(p.pattern)
            for p in patterns
        ]

        best_order: tuple[int, ...] | None = None
        best_cost = float("inf")
        for order in _it.permutations(range(len(patterns))):
            bound: set[str] = set()
            bindings = 1.0
            cost = 0.0
            for index in order:
                shared = len(variables[index] & bound)
                produced = max(
                    estimates[index] * (selectivity**shared), 0.01
                )
                # queries sent plus objects shipped this step, scaled
                # by the source's observed-latency/breaker weight
                cost += (bindings + bindings * produced) * weights[index]
                bindings *= produced
                bound |= variables[index]
                if cost >= best_cost:
                    break
            if cost < best_cost:
                best_cost = cost
                best_order = order
        assert best_order is not None
        return [patterns[i] for i in best_order]

    def _estimate(self, condition: PatternCondition) -> float:
        """Cardinality estimate, shard-aware for sharded sources.

        A sharded source's estimate sums its *surviving* shards (after
        partition pruning on the pattern's pushed-down constants), so a
        pattern that routes to one shard correctly looks 1/N the size
        of one that must broadcast.
        """
        source_name = condition.source or ""
        if source_name in self.sources:
            resolved = self.sources.resolve(source_name)
            if isinstance(resolved, ShardedSource):
                names, _ = resolved.prune_for_pattern(condition.pattern)
                return self.statistics.sharded_estimate(
                    source_name, names, condition.pattern
                )
        return self.statistics.estimate(source_name, condition.pattern)

    @staticmethod
    def _annotate(
        node: PlanNode,
        rows: float,
        key: tuple[str, str, str] | None = None,
    ) -> PlanNode:
        """Stamp the planner's cardinality estimate onto ``node``.

        ``key`` is the ``(source, label, kind)`` statistics bucket the
        estimate came from; nodes without one (hash joins) still
        display their estimate in EXPLAIN ANALYZE and are held against
        it there, but record no per-bucket q-error.
        """
        node.estimated_rows = float(rows)
        node.estimate_key = key
        return node

    def _source_leaf(
        self, source_name: str, relaxed: Pattern, query: Rule
    ) -> PlanNode:
        """The leaf node shipping ``query``: sharded sources fan the
        query across their surviving shards, everything else sends one
        plain :class:`QueryNode`."""
        resolved = self.sources.resolve(source_name)
        if isinstance(resolved, ShardedSource):
            names, pruned = resolved.prune_for_pattern(relaxed)
            # a lifted constant on the partition label prunes when the
            # template is bound, not here
            routed = relaxed if resolved.routing_params(relaxed) else None
            return ShardedQueryNode(
                source_name, names, query, pruned, routed
            )
        return QueryNode(source_name, query)

    def _shippable_comparisons(
        self,
        capability,
        pattern_vars: set[str],
        pending_comparisons: list[Comparison],
    ) -> list[Comparison]:
        """Comparisons this source can evaluate alongside the pattern.

        A comparison ships when the source advertises
        ``supports_comparisons``, every variable it mentions is bound by
        the pattern itself, and it is not a capability *residual* (those
        encode exactly what the source said it cannot filter; their
        fresh variables are prefixed ``_Cap``).  Shipped comparisons are
        removed from the pending list — the source does the filtering.
        """
        if not capability.supports_comparisons:
            return []
        shipped: list[Comparison] = []
        for comparison in list(pending_comparisons):
            needed = term_variables(comparison.left) | term_variables(
                comparison.right
            )
            if not needed or not needed <= pattern_vars:
                continue
            if any(name.startswith("_Cap") for name in needed):
                continue
            shipped.append(comparison)
            pending_comparisons.remove(comparison)
        return shipped

    # -- bind-join pipeline ----------------------------------------------------

    def _build_bind_join(
        self,
        patterns: list[PatternCondition],
        externals: list[ExternalCall],
        comparisons: list[Comparison],
    ) -> PlanNode:
        """The join pipeline over ``patterns``, in order: a pattern
        sharing variables with what is bound so far is probed once per
        binding with a parameterized query (a bind join), any other is
        fetched whole and hash-joined.  The ``fetch_all`` strategy never
        parameterizes, so all of its joins are hash joins."""
        fetch_all = self.strategy == "fetch_all"
        node: PlanNode | None = None
        bound: set[str] = set()
        pending_externals = list(externals)
        pending_comparisons = list(comparisons)
        selectivity = self.statistics.selectivity
        bindings_est = 1.0  # estimated binding rows flowing so far

        for condition in patterns:
            source_name = condition.source
            assert source_name is not None
            capability = self.sources.resolve(source_name).capability
            relaxed, residual = capability.split(condition.pattern)
            pending_comparisons.extend(residual)
            estimate = self._estimate(condition)
            label = _label_of(relaxed) or "_"
            shared = len(
                (_parameterizable_vars(relaxed) | _rest_vars(relaxed))
                & bound
            )
            produced = max(estimate * (selectivity**shared), 0.01)

            variables = sorted(pattern_variables(relaxed))
            param_vars = (
                [] if fetch_all
                else sorted(_parameterizable_vars(relaxed) & bound)
            )
            # a comparison over a parameter stays at the mediator: the
            # shipped template binds the parameter as a constant, not
            # as the variable the comparison names
            shipped = self._shippable_comparisons(
                capability,
                set(variables) - set(param_vars),
                pending_comparisons,
            )
            if param_vars:
                template_pattern = _parameterize(relaxed, set(param_vars))
                out_vars = sorted(pattern_variables(template_pattern))
                template = _projection_query(
                    source_name, template_pattern, out_vars, shipped
                )
                node = ParameterizedQueryNode(
                    node,
                    source_name,
                    template,
                    {name: name for name in param_vars},
                    **self._batch_spec(
                        source_name,
                        capability,
                        relaxed,
                        variables,
                        shipped,
                        param_vars,
                    ),
                )
                self._annotate(
                    node,
                    bindings_est * produced,
                    (source_name, label, "join"),
                )
            else:
                query = _projection_query(
                    source_name, relaxed, variables, shipped
                )
                leaf: PlanNode = self._source_leaf(
                    source_name, relaxed, query
                )
                self._annotate(leaf, estimate, (source_name, label, "scan"))
                if node is None:
                    node = leaf
                else:
                    node = self._annotate(
                        JoinNode(node, leaf), bindings_est * produced
                    )
            bindings_est *= produced
            bound |= set(variables)
            node = self._drain_ready(
                node, bound, pending_externals, pending_comparisons
            )

        assert node is not None
        node = self._drain_ready(
            node, bound, pending_externals, pending_comparisons, final=True
        )
        return node

    def _batch_spec(
        self,
        source_name: str,
        capability,
        relaxed: Pattern,
        variables: list[str],
        shipped: list[Comparison],
        param_vars: list[str],
    ) -> dict:
        """Semi-join shipping kwargs for a parameterized query node.

        Empty (per-tuple probing stays) unless the source advertises
        batch filters and at least one parameter appears as a
        Const-labelled direct-child value of the pattern — the shape a
        shipped value filter can address.  Those parameters ship as
        ``IN`` filters; every other parameter (a label variable such as
        MS1's ``$R``, a type/oid slot, a nested position) stays a ``$``
        placeholder of the batch query and becomes the *grouping key*:
        one batch ships per distinct combination of their values.  The
        batch query projects the same variables a leaf fetch of the
        pattern would (minus the grouping parameters, which are
        constants within a group), so a batch answer row carries the
        template's columns plus the filtered parameters' values, which
        route it to its probes.  Sharded sources
        additionally get their surviving shard names and the partition,
        for per-probe routing.
        """
        if not capability.supports_batch_filters:
            return {}
        # an oid-slot variable binds an Oid object where the instantiated
        # probe compares text, so such a parameter stays a constant
        param_labels = _semijoin_param_labels(
            relaxed, set(param_vars) - _oid_slot_vars(relaxed)
        )
        if not param_labels:
            return {}
        grouping = set(param_vars) - set(param_labels)
        spec: dict = {
            "batch_query": _projection_query(
                source_name,
                _parameterize(relaxed, grouping),
                [name for name in variables if name not in grouping],
                shipped,
            ),
            "param_labels": param_labels,
        }
        resolved = self.sources.resolve(source_name)
        if isinstance(resolved, ShardedSource):
            if resolved.routing_params(relaxed):
                raise ValueDependent(
                    f"the shards of {source_name!r} a bind join probes"
                    " are pruned by a constant of the query"
                )
            names, _ = resolved.prune_for_pattern(relaxed)
            spec["shard_names"] = names
            spec["partition"] = resolved.partition
        return spec

    # -- placing externals and comparisons ---------------------------------------

    def _drain_ready(
        self,
        node: PlanNode,
        bound: set[str],
        pending_externals: list[ExternalCall],
        pending_comparisons: list[Comparison],
        final: bool = False,
    ) -> PlanNode:
        """Attach every external/comparison evaluable with ``bound`` vars."""
        progress = True
        while progress:
            progress = False
            for comparison in list(pending_comparisons):
                needed = term_variables(comparison.left) | term_variables(
                    comparison.right
                )
                if needed <= bound:
                    node = FilterNode(node, comparison)
                    pending_comparisons.remove(comparison)
                    progress = True
            for call in list(pending_externals):
                if self._external_ready(call, bound):
                    node = ExternalPredNode(node, call)
                    pending_externals.remove(call)
                    bound |= {
                        arg.name
                        for arg in call.args
                        if isinstance(arg, Var) and not arg.is_anonymous
                    }
                    progress = True
        if final and (pending_externals or pending_comparisons):
            leftovers = [str(c) for c in pending_externals] + [
                str(c) for c in pending_comparisons
            ]
            raise PlanningError(
                f"conditions cannot be scheduled: {leftovers} (variables"
                f" bound by the plan: {sorted(bound)})"
            )
        return node

    def _external_ready(self, call: ExternalCall, bound: set[str]) -> bool:
        from repro.external.registry import ExternalFunctionError

        availability = [
            isinstance(arg, (Const, Param))
            or (
                isinstance(arg, Var)
                and not arg.is_anonymous
                and arg.name in bound
            )
            for arg in call.args
        ]
        registry = getattr(self, "_external_registry", None)
        if registry is None:
            # without a registry we optimistically require at least one
            # bound argument (a fully-free call explodes)
            return any(availability)
        try:
            registry.select(call.name, availability)
        except ExternalFunctionError:
            return False
        return True

    def bind_external_registry(self, registry) -> None:
        """Give the optimizer adornment knowledge for placement checks."""
        self._external_registry = registry


# ---------------------------------------------------------------------------
# query construction helpers
# ---------------------------------------------------------------------------


def _projection_query(
    source: str,
    pattern: Pattern,
    variables: list[str],
    comparisons: list[Comparison] | None = None,
) -> Rule:
    """The paper's wire form: project ``variables`` out of ``pattern``.

    Builds ``<bind_for_src {<bind_for_V1 V1> ...}> :- pattern`` —
    compare Qw and Qcs in Section 3.1.  An *object* variable ``V`` is
    projected as ``<bind_for_V {V}>`` (the matched object spliced into a
    singleton set) so that the carrier's extractor pattern
    ``<bind_for_V {V:<_ _>}>`` recovers the object itself rather than
    its value (:class:`~repro.wrappers.base.Carrier`).
    """
    object_vars = _slot_vars(pattern, (OBJECT_VAR,))
    items: list[PatternItem] = []
    for name in variables:
        if name in object_vars:
            items.append(
                PatternItem(
                    Pattern(
                        label=Const(f"bind_for_{name}"),
                        value=SetPattern((VarItem(Var(name)),), None),
                    )
                )
            )
        else:
            items.append(
                PatternItem(
                    Pattern(label=Const(f"bind_for_{name}"), value=Var(name))
                )
            )
    head = Pattern(
        label=Const(f"bind_for_{source}"),
        value=SetPattern(tuple(items), None),
    )
    tail: tuple = (PatternCondition(pattern, None),)
    if comparisons:
        tail = tail + tuple(comparisons)
    return Rule((head,), tail)


def _slot_vars(pattern: Pattern, kinds: tuple[str, ...]) -> set[str]:
    """Named variables in ``pattern``'s slots of the given kinds."""
    return {
        term.name
        for kind, term, _ in slots(pattern)
        if kind in kinds and term.__class__ is Var and not term.is_anonymous
    }


def _rest_vars(pattern: Pattern) -> set[str]:
    return _slot_vars(pattern, (REST_VAR,))


def _oid_slot_vars(pattern: Pattern) -> set[str]:
    """Variables in an oid slot anywhere in ``pattern``."""
    found: set[str] = set()
    for kind, term, _ in slots(pattern):
        if kind is OID:
            found |= term_variables(term)
    return found


#: Slots a bind join can fill with a constant: never an object, brace
#: or Rest variable (those carry objects and sets, which cannot be
#: inlined as constants).
_PARAMETER_SLOTS = (LABEL, TYPE, OID, VALUE, SEMOID_ARG)


def _parameterizable_vars(pattern: Pattern) -> set[str]:
    """Variables usable as ``$`` parameters: those :func:`_parameterize`
    replaces, except a variable only the whole pattern's value holds
    (fine only if atomic, which cannot be known) and a variable also
    used as a Rest variable."""
    names = {
        term.name
        for kind, term, owner in slots(pattern)
        if kind in _PARAMETER_SLOTS
        and term.__class__ is Var
        and not term.is_anonymous
        and not (kind is VALUE and owner is pattern)
    }
    return names - _rest_vars(pattern)


def _parameterize(pattern: Pattern, names: set[str]) -> Pattern:
    """Replace occurrences of ``names`` with ``$`` parameters — in
    semantic-oid arguments too."""
    return rebuild(pattern, partial(_as_param, names))


def _as_param(names: set[str], kind: str, term, owner):
    if (
        term.__class__ is Var
        and term.name in names
        and kind in _PARAMETER_SLOTS
    ):
        return Param(term.name)
    return term


def _semijoin_param_labels(
    pattern: Pattern, params: set[str]
) -> dict[str, str]:
    """``{param: direct-child label}`` for every parameter a shipped
    value filter can address.

    A shipped ``label IN values`` filter is a *necessary* condition for
    a probe match only when the parameter is the value of a
    non-descendant direct child with a constant label (every object
    matching the instantiated probe then carries ``<label value>`` as a
    direct child).  Parameters in label/type/oid slots, nested items,
    descendant items, or rest conditions have no such direct-child
    witness and are left out — the batch groups by them instead.
    """
    labels: dict[str, str] = {}
    value = pattern.value
    if not isinstance(value, SetPattern):
        return labels
    for item in value.items:
        if not isinstance(item, PatternItem) or item.descendant:
            continue
        p = item.pattern
        if (
            isinstance(p.label, Const)
            and isinstance(p.value, Var)
            and not p.value.is_anonymous
            and p.value.name in params
            and p.value.name not in labels
        ):
            labels[p.value.name] = str(p.label.value)
    return labels



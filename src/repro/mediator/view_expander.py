"""The View Expander & Algebraic Optimizer (VE&AO).

First stage of the MSI pipeline (Figure 2.5): "reads the query and the
mediator specification and discovers which objects it must obtain from
each source", rewriting the query "so that references to the virtual
mediator objects are replaced by references to source objects".

The expansion (Section 3.2) proceeds per query condition:

1. rename the query and every candidate rule apart (footnote 7);
2. match each query condition addressed to the mediator against each
   specification rule head, producing unifiers;
3. take all combinations across conditions, merging unifiers;
4. for each merged unifier θ: the logical rule's head is θ applied to
   the query head (with definitions substituted for object variables),
   and its tail is θ applied to the conjunction of the chosen rules'
   tails plus the query's remaining conditions.

Condition pushdown (Section 3.3) happens inside unification: a query
item that cannot be located in the head's explicit items is attached to
one of the head's set variables, and applying θ to the rule tail turns
that into a ``| Rest1:{<year 3>}`` annotation on the source pattern —
one logical rule per placement choice (the τ1/τ2 multiplication).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from repro.mediator.logical import LogicalDatamergeProgram, LogicalRule
from repro.mediator.unify import Unifier, unify_with_head
from repro.msl.analysis import rename_apart
from repro.msl.ast import (
    Condition,
    HeadItem,
    Pattern,
    PatternCondition,
    PatternItem,
    RestSpec,
    Rule,
    SetPattern,
    Specification,
    Var,
    VarItem,
)
from repro.msl.errors import MSLSemanticError
from repro.msl.walk import VALUE, keep, rebuild

__all__ = ["ViewExpander", "ExpansionError"]


class ExpansionError(MSLSemanticError):
    """The query cannot be expanded against the specification."""


@dataclass(frozen=True)
class _Option:
    """One way to satisfy one query condition: a rule + a unifier."""

    unifier: Unifier
    tail: tuple[Condition, ...]
    spec_rule_index: int


class ViewExpander:
    """Expands queries against one mediator's specification."""

    def __init__(
        self,
        mediator_name: str,
        specification: Specification,
        push_mode: str = "complete",
    ) -> None:
        self.mediator_name = mediator_name
        self.specification = specification
        self.push_mode = push_mode

    # -- the entry point ------------------------------------------------

    def expand(self, query: Rule) -> LogicalDatamergeProgram:
        """The logical datamerge program for ``query``.

        Conditions addressed to this mediator (``@med`` or unannotated)
        are expanded; conditions addressed elsewhere pass through with
        the unifier's mappings applied.
        """
        query = rename_apart(query, "_q")
        mediator_conditions: list[PatternCondition] = []
        passthrough: list[Condition] = []
        for condition in query.tail:
            if isinstance(condition, PatternCondition) and condition.source in (
                None,
                self.mediator_name,
            ):
                mediator_conditions.append(condition)
            else:
                passthrough.append(condition)

        if not mediator_conditions:
            raise ExpansionError(
                f"query has no condition addressed to mediator"
                f" {self.mediator_name!r}: {query}"
            )

        per_condition_options: list[list[_Option]] = []
        instance = itertools.count(1)
        for condition in mediator_conditions:
            options = self._options_for(condition.pattern, instance)
            if not options:
                # this condition matches no rule head: the whole program
                # is empty (conjunctive query)
                return LogicalDatamergeProgram(())
            per_condition_options.append(options)

        logical_rules: list[LogicalRule] = []
        seen: set[Rule] = set()  # by structure: two rules may print alike
        for combo in itertools.product(*per_condition_options):
            merged: Unifier | None = Unifier()
            for option in combo:
                merged = merged.merge(option.unifier)
                if merged is None:
                    break
            if merged is None:
                continue
            theta = merged.finalized()
            head = _apply_to_head(query.head, theta)
            tail: list[Condition] = []
            for option in combo:
                tail.extend(theta.apply(option.tail))
            tail.extend(theta.apply(tuple(passthrough)))
            rule = Rule(tuple(head), tuple(tail))
            if rule in seen:
                continue
            seen.add(rule)
            logical_rules.append(
                LogicalRule(
                    rule,
                    theta,
                    tuple(sorted({o.spec_rule_index for o in combo})),
                )
            )
        return LogicalDatamergeProgram(tuple(logical_rules))

    # -- per-condition matching ----------------------------------------------

    def _options_for(
        self, query_pattern: Pattern, instance: "itertools.count[int]"
    ) -> list[_Option]:
        options: list[_Option] = []
        for rule_index, rule in enumerate(self.specification.rules):
            renamed = rename_apart(rule, f"_r{next(instance)}")
            for head_item in renamed.head:
                if not isinstance(head_item, Pattern):
                    continue  # specification heads are patterns by check
                for unifier in unify_with_head(
                    query_pattern, head_item, self.push_mode
                ):
                    options.append(
                        _Option(unifier, renamed.tail, rule_index)
                    )
        return options


# ---------------------------------------------------------------------------
# applying a finalized unifier to the query head and passthrough conditions
# ---------------------------------------------------------------------------


def _apply_to_head(
    head: tuple[HeadItem, ...], theta: Unifier
) -> list[HeadItem]:
    items: list[HeadItem] = []
    for item in head:
        if isinstance(item, Var):
            items.extend(_expand_head_var(item, theta))
        else:
            items.append(_apply_to_head_pattern(item, theta))
    return items


def _expand_head_var(var: Var, theta: Unifier) -> list[HeadItem]:
    """A bare head variable becomes its definition (the ``JC ⇒ ...`` use)."""
    definition = theta.definitions.get(var.name)
    if definition is None:
        resolved = theta.resolve(var)
        if isinstance(resolved, Var):
            return [resolved]
        raise ExpansionError(
            f"query head variable {var} resolved to constant {resolved};"
            f" wrap it in a pattern to emit it as an object"
        )
    definition = _strip_rest_conditions(definition)
    if isinstance(definition, Pattern):
        return [definition]
    # a SetPattern definition: the variable stood for a sub-object set;
    # its members become top-level head items
    expanded: list[HeadItem] = [
        member.pattern if isinstance(member, PatternItem) else member.var
        for member in definition.items
    ]
    if definition.rest is not None and not definition.rest.var.is_anonymous:
        expanded.append(definition.rest.var)
    return expanded


def _strip_rest_conditions(pattern):
    """Drop RestSpec conditions anywhere in ``pattern`` (or set
    pattern; heads only)."""
    return rebuild(pattern, keep, _unconditioned)


def _unconditioned(braces: SetPattern, owner) -> SetPattern:
    if braces.rest is None:
        return braces
    return SetPattern(braces.items, RestSpec(braces.rest.var))


def _apply_to_head_pattern(pattern: Pattern, theta: Unifier) -> Pattern:
    """Apply mappings and splice variable definitions inside braces.

    Pushed conditions on rest variables are stripped: in a *head* the
    rest variable splices members in, and the conditions are enforced
    where the variable is bound — in the tail.
    """
    return rebuild(
        pattern, partial(_head_slot, theta), partial(_spliced, theta)
    )


def _head_slot(theta: Unifier, kind: str, term, pattern):
    mapped = theta.slot(kind, term, pattern)
    if kind is VALUE and mapped.__class__ is Var:
        # a value variable whose definition is a set: turn the value
        # into that set pattern
        definition = theta.definitions.get(mapped.name)
        if isinstance(definition, SetPattern):
            return definition
    return mapped


def _spliced(theta: Unifier, braces: SetPattern, pattern) -> SetPattern:
    """A head set pattern with its brace and rest variables' definitions
    spliced in and its rest conditions stripped."""
    items: list[PatternItem | VarItem] = []
    for item in braces.items:
        if isinstance(item, PatternItem):
            items.append(item)
            continue
        definition = theta.definitions.get(item.var.name)
        if definition is None:
            resolved = theta.resolve(item.var)
            if isinstance(resolved, Var):
                items.append(VarItem(resolved))
            else:
                raise ExpansionError(
                    f"head brace variable {item.var} resolved to constant"
                    f" {resolved}; constants cannot be spliced into a set"
                )
        else:
            definition = _strip_rest_conditions(definition)
            if isinstance(definition, Pattern):
                items.append(PatternItem(definition))
            else:
                items.extend(definition.items)
    rest = braces.rest
    if rest is not None:
        rest = RestSpec(rest.var)
        # a head-position rest variable with a definition (the query's
        # own '| QR' standing for the view's leftover structure) splices
        # its members in, like a VarItem
        definition = theta.definitions.get(rest.var.name)
        if definition is not None and not rest.var.is_anonymous:
            definition = _strip_rest_conditions(definition)
            if isinstance(definition, Pattern):
                items.append(PatternItem(definition))
                rest = None
            else:
                items.extend(definition.items)
                rest = definition.rest
    return SetPattern(tuple(items), rest)

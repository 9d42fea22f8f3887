"""Static analysis of MSL rules: safety checks and variable plumbing.

* :func:`check_rule` — the static legality rules (safe head variables,
  no bare variables in tail braces, ...); wrappers and the mediator call
  it before accepting a specification or query.
* :func:`rename_apart` — footnote 7 of the paper: "Before we match a
  query with one or more rules we must rename the variables that appear
  in the query and the rules, so that no two rules, or a query and a
  rule, have identically named variables."
* :func:`condition_variables` — which variables a tail condition can
  bind; the optimizer uses this to order joins and place external calls.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.msl.ast import (
    ANONYMOUS,
    Comparison,
    Condition,
    ExternalCall,
    Pattern,
    PatternCondition,
    Rule,
    Var,
)
from repro.msl.errors import MSLSemanticError
from repro.msl.substitute import head_variables
from repro.msl.walk import (
    ITEM_VAR,
    OBJECT_VAR,
    REST_VAR,
    rebuild,
    slots,
    variables,
)

__all__ = [
    "condition_variables",
    "tail_variables",
    "check_rule",
    "check_specification_rule",
    "rename_apart",
    "rename_rule_variables",
]


def condition_variables(condition: Condition) -> set[str]:
    """Named variables occurring in one tail condition."""
    if condition.__class__ not in (PatternCondition, ExternalCall, Comparison):
        raise TypeError(f"unknown condition type {condition!r}")
    return variables(condition)


def tail_variables(rule: Rule) -> set[str]:
    """Named variables occurring anywhere in the tail."""
    return variables(rule.tail)


def check_rule(rule: Rule, is_query: bool = False) -> None:
    """Raise :class:`MSLSemanticError` if ``rule`` is statically illegal.

    Checks:

    * the tail is non-empty and pattern conditions dominate (a rule of
      only comparisons derives nothing);
    * every named head variable also occurs in the tail (*safety* — the
      classical range-restriction condition);
    * bare variables inside *tail* braces are rejected (they have head
      semantics only);
    * a Rest variable is not bound twice in the same rule tail unless the
      occurrences are genuinely joinable (we allow repeated use; what is
      rejected is a rest variable also used as an object variable);
    * comparisons and external calls must not be the only place a head
      variable appears... (externals *can* bind free arguments, so they
      do count as binding occurrences).
    """
    if not rule.tail:
        raise MSLSemanticError(f"rule has an empty tail: {rule}")
    if not any(isinstance(c, PatternCondition) for c in rule.tail):
        raise MSLSemanticError(
            f"rule tail has no object patterns: {rule}"
        )

    head_vars = head_variables(rule.head)
    bindable = tail_variables(rule)
    unsafe = head_vars - bindable
    if unsafe:
        raise MSLSemanticError(
            f"unsafe head variable(s) {sorted(unsafe)}: they never occur"
            f" in the rule tail ({rule})"
        )

    object_vars: set[str] = set()
    rest_vars: set[str] = set()
    for kind, term, _ in slots(rule.tail):
        if kind is ITEM_VAR:
            raise MSLSemanticError(
                f"bare variable {term} inside tail braces; bare"
                f" variables are only meaningful in rule heads"
            )
        if kind is OBJECT_VAR and not term.is_anonymous:
            object_vars.add(term.name)
        elif kind is REST_VAR and not term.is_anonymous:
            rest_vars.add(term.name)

    clashes = object_vars & rest_vars
    if clashes:
        raise MSLSemanticError(
            f"variable(s) {sorted(clashes)} used both as object variable"
            f" and as Rest variable in the same rule"
        )

    if is_query:
        for item in rule.head:
            if isinstance(item, Pattern):
                continue
            if isinstance(item, Var) and item.is_anonymous:
                raise MSLSemanticError(
                    "the anonymous variable cannot be a query head"
                )


def check_specification_rule(rule: Rule) -> None:
    """Checks for mediator-specification rules (heads must be patterns).

    The bare-variable head form (``JC :- JC:<...>``) is a *query*
    convenience; a specification rule must say what its view objects look
    like.
    """
    check_rule(rule)
    for item in rule.head:
        if isinstance(item, Var):
            raise MSLSemanticError(
                f"specification rule heads must be object patterns, found"
                f" bare variable {item}"
            )


# ---------------------------------------------------------------------------
# renaming apart
# ---------------------------------------------------------------------------


def _renamed(
    mapper: Callable[[str], str], names: dict[str, str], kind: str, term, owner
):
    if term.__class__ is not Var or term.name == ANONYMOUS:
        return term
    name = names.get(term.name)
    if name is None:
        name = names[term.name] = mapper(term.name)
    return Var(name)


def rename_rule_variables(rule: Rule, mapper: Callable[[str], str]) -> Rule:
    """Rename every named variable in ``rule`` through ``mapper`` (called
    once per variable)."""
    return rebuild(rule, partial(_renamed, mapper, {}))


def rename_apart(rule: Rule, suffix: str) -> Rule:
    """Give every variable of ``rule`` a fresh name carrying ``suffix``.

    >>> from repro.msl.parser import parse_rule
    >>> str(rename_apart(parse_rule('<a X> :- <b X>@s'), '_1'))
    '<a X_1> :- <b X_1>@s'
    """
    return rename_rule_variables(rule, lambda name: f"{name}{suffix}")

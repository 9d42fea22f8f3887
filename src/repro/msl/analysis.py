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

from typing import Callable

from repro.msl.ast import (
    Comparison,
    Condition,
    ExternalCall,
    HeadItem,
    Pattern,
    PatternCondition,
    PatternItem,
    RestSpec,
    Rule,
    SemOidTerm,
    SetPattern,
    Term,
    Var,
    VarItem,
)
from repro.msl.errors import MSLSemanticError
from repro.msl.substitute import (
    head_variables,
    pattern_variables,
    term_variables,
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
    if isinstance(condition, PatternCondition):
        return pattern_variables(condition.pattern)
    if isinstance(condition, ExternalCall):
        names: set[str] = set()
        for arg in condition.args:
            names |= term_variables(arg)
        return names
    if isinstance(condition, Comparison):
        return term_variables(condition.left) | term_variables(condition.right)
    raise TypeError(f"unknown condition type {condition!r}")


def tail_variables(rule: Rule) -> set[str]:
    """Named variables occurring anywhere in the tail."""
    names: set[str] = set()
    for condition in rule.tail:
        names |= condition_variables(condition)
    return names


def _walk_set_patterns(
    pattern: Pattern, visit: Callable[[SetPattern], None]
) -> None:
    value = pattern.value
    if isinstance(value, SetPattern):
        visit(value)
        for item in value.items:
            if isinstance(item, PatternItem):
                _walk_set_patterns(item.pattern, visit)
        if value.rest is not None:
            for condition in value.rest.conditions:
                _walk_set_patterns(condition, visit)


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

    def check_tail_braces(setpat: SetPattern) -> None:
        for item in setpat.items:
            if isinstance(item, VarItem):
                raise MSLSemanticError(
                    f"bare variable {item.var} inside tail braces; bare"
                    f" variables are only meaningful in rule heads"
                )
        if setpat.rest is not None and not setpat.rest.var.is_anonymous:
            rest_vars.add(setpat.rest.var.name)

    for condition in rule.tail:
        if not isinstance(condition, PatternCondition):
            continue
        pattern = condition.pattern
        if pattern.object_var is not None and not pattern.object_var.is_anonymous:
            object_vars.add(pattern.object_var.name)
        _walk_set_patterns(pattern, check_tail_braces)
        # an inner object variable also counts
        def collect_inner(setpat: SetPattern) -> None:
            for item in setpat.items:
                if isinstance(item, PatternItem):
                    inner = item.pattern.object_var
                    if inner is not None and not inner.is_anonymous:
                        object_vars.add(inner.name)

        _walk_set_patterns(pattern, collect_inner)

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


def _rename_term(term: Term | None, rename: dict[str, str]) -> Term | None:
    if term is None:
        return None
    if isinstance(term, Var):
        if term.is_anonymous:
            return term
        return Var(rename.setdefault(term.name, term.name))
    if isinstance(term, SemOidTerm):
        return SemOidTerm(
            term.functor,
            tuple(_rename_term(a, rename) for a in term.args),  # type: ignore[misc]
        )
    return term


def _rename_pattern(pattern: Pattern, rename: dict[str, str]) -> Pattern:
    value = pattern.value
    if isinstance(value, SetPattern):
        items: list[PatternItem | VarItem] = []
        for item in value.items:
            if isinstance(item, PatternItem):
                items.append(
                    PatternItem(
                        _rename_pattern(item.pattern, rename), item.descendant
                    )
                )
            else:
                renamed = _rename_term(item.var, rename)
                assert isinstance(renamed, Var)
                items.append(VarItem(renamed))
        rest = value.rest
        if rest is not None:
            rest_var = _rename_term(rest.var, rename)
            assert isinstance(rest_var, Var)
            rest = RestSpec(
                rest_var,
                tuple(_rename_pattern(c, rename) for c in rest.conditions),
            )
        new_value: Term | SetPattern = SetPattern(tuple(items), rest)
    else:
        renamed_value = _rename_term(value, rename)
        assert renamed_value is not None
        new_value = renamed_value

    object_var = pattern.object_var
    if object_var is not None and not object_var.is_anonymous:
        renamed_ov = _rename_term(object_var, rename)
        assert isinstance(renamed_ov, Var)
        object_var = renamed_ov

    label = _rename_term(pattern.label, rename)
    assert label is not None
    return Pattern(
        label=label,
        value=new_value,
        type=_rename_term(pattern.type, rename),
        oid=_rename_term(pattern.oid, rename),
        object_var=object_var,
    )


class _MapperDict(dict):
    """Lazily applies ``mapper`` on first sight of each variable.

    Defined once, at module level: a class built per call is a
    reference cycle, and renaming runs for every expanded query.
    """

    __slots__ = ("mapper",)

    def __init__(self, mapper: Callable[[str], str]) -> None:
        self.mapper = mapper

    def setdefault(self, key: str, default: str = "") -> str:  # type: ignore[override]
        if key not in self:
            self[key] = self.mapper(key)
        return self[key]


def rename_rule_variables(rule: Rule, mapper: Callable[[str], str]) -> Rule:
    """Rename every named variable in ``rule`` through ``mapper``."""
    rename: dict[str, str] = _MapperDict(mapper)

    head: list[HeadItem] = []
    for item in rule.head:
        if isinstance(item, Var):
            renamed = _rename_term(item, rename)
            assert isinstance(renamed, Var)
            head.append(renamed)
        else:
            head.append(_rename_pattern(item, rename))

    tail: list[Condition] = []
    for condition in rule.tail:
        if isinstance(condition, PatternCondition):
            tail.append(
                PatternCondition(
                    _rename_pattern(condition.pattern, rename),
                    condition.source,
                )
            )
        elif isinstance(condition, ExternalCall):
            tail.append(
                ExternalCall(
                    condition.name,
                    tuple(_rename_term(a, rename) for a in condition.args),  # type: ignore[arg-type]
                )
            )
        else:
            left = _rename_term(condition.left, rename)
            right = _rename_term(condition.right, rename)
            assert left is not None and right is not None
            tail.append(Comparison(left, condition.op, right))
    return Rule(tuple(head), tuple(tail))


def rename_apart(rule: Rule, suffix: str) -> Rule:
    """Give every variable of ``rule`` a fresh name carrying ``suffix``.

    >>> from repro.msl.parser import parse_rule
    >>> str(rename_apart(parse_rule('<a X> :- <b X>@s'), '_1'))
    '<a X_1> :- <b X_1>@s'
    """
    return rename_rule_variables(rule, lambda name: f"{name}{suffix}")

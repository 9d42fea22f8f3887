"""Substitution and head instantiation.

Two related jobs live here:

* **syntactic substitution** — replacing variables/parameters inside
  patterns with constants (used by the view expander when applying
  unifier mappings, and by parameterized-query plan nodes when filling
  ``$param`` slots);
* **head instantiation** — the paper's "creation of the virtual
  objects": given a rule head and a binding environment, build the OEM
  objects the rule derives, including the *flattening* semantics ("when
  variables that have been bound to sets appear inside curly braces {}
  in a rule head, the first level of their contents is flattened out").
"""

from __future__ import annotations

from typing import Mapping

from repro.msl.ast import (
    Comparison,
    Const,
    ExternalCall,
    HeadItem,
    Param,
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
from repro.msl.bindings import Bindings
from repro.msl.errors import MSLInstantiationError
from repro.oem.model import OEMObject, SET_TYPE
from repro.oem.oid import Oid, OidGenerator, SemanticOid

__all__ = [
    "subst_term",
    "subst_pattern",
    "instantiate_params_in_pattern",
    "substitute_params",
    "instantiate_head_item",
    "head_variables",
    "term_variables",
    "pattern_variables",
    "pattern_params",
    "rule_params",
]


# ---------------------------------------------------------------------------
# variable inventory
# ---------------------------------------------------------------------------


def term_variables(term: Term | None) -> set[str]:
    """Named (non-anonymous) variables occurring in a term."""
    if isinstance(term, Var) and not term.is_anonymous:
        return {term.name}
    if isinstance(term, SemOidTerm):
        names: set[str] = set()
        for arg in term.args:
            names |= term_variables(arg)
        return names
    return set()


def pattern_variables(pattern: Pattern) -> set[str]:
    """All named variables occurring anywhere in ``pattern``."""
    names = term_variables(pattern.oid)
    names |= term_variables(pattern.label)
    names |= term_variables(pattern.type)
    if pattern.object_var is not None and not pattern.object_var.is_anonymous:
        names.add(pattern.object_var.name)
    value = pattern.value
    if isinstance(value, SetPattern):
        for item in value.items:
            if isinstance(item, PatternItem):
                names |= pattern_variables(item.pattern)
            elif isinstance(item, VarItem) and not item.var.is_anonymous:
                names.add(item.var.name)
        if value.rest is not None:
            if not value.rest.var.is_anonymous:
                names.add(value.rest.var.name)
            for condition in value.rest.conditions:
                names |= pattern_variables(condition)
    else:
        names |= term_variables(value)
    return names


def head_variables(head: tuple[HeadItem, ...]) -> set[str]:
    """Named variables occurring in a rule head."""
    names: set[str] = set()
    for item in head:
        if isinstance(item, Var):
            if not item.is_anonymous:
                names.add(item.name)
        else:
            names |= pattern_variables(item)
    return names


# ---------------------------------------------------------------------------
# parameter inventory
# ---------------------------------------------------------------------------


def _collect_term_params(term: Term | None, found: dict[str, None]) -> None:
    if term.__class__ is Param:
        found[term.name] = None
    elif term.__class__ is SemOidTerm:
        for arg in term.args:
            _collect_term_params(arg, found)


def _collect_pattern_params(pattern: Pattern, found: dict[str, None]) -> None:
    for term in (pattern.oid, pattern.label, pattern.type):
        _collect_term_params(term, found)
    value = pattern.value
    if isinstance(value, SetPattern):
        for item in value.items:
            if isinstance(item, PatternItem):
                _collect_pattern_params(item.pattern, found)
        if value.rest is not None:
            for condition in value.rest.conditions:
                _collect_pattern_params(condition, found)
    else:
        _collect_term_params(value, found)


def pattern_params(pattern: Pattern) -> tuple[str, ...]:
    """Names of the ``$name`` placeholders in ``pattern``, in text order."""
    found: dict[str, None] = {}
    _collect_pattern_params(pattern, found)
    return tuple(found)


def rule_params(rule: Rule) -> tuple[str, ...]:
    """Names of the ``$name`` placeholders anywhere in ``rule``."""
    found: dict[str, None] = {}
    for item in rule.head:
        if isinstance(item, Pattern):
            _collect_pattern_params(item, found)
    for condition in rule.tail:
        if isinstance(condition, PatternCondition):
            _collect_pattern_params(condition.pattern, found)
        elif isinstance(condition, Comparison):
            _collect_term_params(condition.left, found)
            _collect_term_params(condition.right, found)
        else:
            for arg in condition.args:
                _collect_term_params(arg, found)
    return tuple(found)


# ---------------------------------------------------------------------------
# syntactic substitution
# ---------------------------------------------------------------------------


def _atom_to_term(value: object) -> Term:
    if isinstance(value, Oid):
        return Const(value.text)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return Const(value)
    raise MSLInstantiationError(
        f"cannot substitute non-atomic value {value!r} into a pattern slot"
    )


def subst_term(term: Term | None, bindings: Bindings) -> Term | None:
    """Replace bound variables in ``term`` with constants.

    Unbound variables are left untouched; set-bound variables cannot be
    expressed as constants and raise.
    """
    if term is None:
        return None
    if isinstance(term, Var):
        if term.is_anonymous or term.name not in bindings:
            return term
        return _atom_to_term(bindings[term.name])
    if isinstance(term, SemOidTerm):
        return SemOidTerm(
            term.functor,
            tuple(subst_term(arg, bindings) for arg in term.args),  # type: ignore[misc]
        )
    return term


def subst_pattern(pattern: Pattern, bindings: Bindings) -> Pattern:
    """Apply ``bindings`` to every slot of ``pattern`` (syntactically).

    Variables bound to atoms become constants; variables bound to sets or
    objects are left in place (they cannot appear as constants — the view
    expander handles them via definitions instead).
    """

    def safe(term: Term | None) -> Term | None:
        if term is None or isinstance(term, (Const, Param)):
            return term
        if isinstance(term, Var):
            if term.is_anonymous or term.name not in bindings:
                return term
            value = bindings[term.name]
            if isinstance(value, (OEMObject, tuple)):
                return term
            return _atom_to_term(value)
        if isinstance(term, SemOidTerm):
            return SemOidTerm(
                term.functor, tuple(safe(a) for a in term.args)  # type: ignore[misc]
            )
        return term

    value = pattern.value
    if isinstance(value, SetPattern):
        new_items: list[PatternItem | VarItem] = []
        for item in value.items:
            if isinstance(item, PatternItem):
                new_items.append(
                    PatternItem(
                        subst_pattern(item.pattern, bindings), item.descendant
                    )
                )
            else:
                new_items.append(item)
        new_rest = value.rest
        if new_rest is not None and new_rest.conditions:
            new_rest = RestSpec(
                new_rest.var,
                tuple(
                    subst_pattern(c, bindings) for c in new_rest.conditions
                ),
            )
        new_value: Term | SetPattern = SetPattern(tuple(new_items), new_rest)
    else:
        substituted = safe(value)
        assert substituted is not None
        new_value = substituted

    return Pattern(
        label=safe(pattern.label) or pattern.label,
        value=new_value,
        type=safe(pattern.type),
        oid=safe(pattern.oid),
        object_var=pattern.object_var,
    )


def instantiate_params_in_pattern(
    pattern: Pattern, params: Mapping[str, object], partial: bool = False
) -> Pattern:
    """Fill every ``$name`` placeholder from ``params``.

    Used by the parameterized-query node (Section 3.4): "the values for
    query parameters $R, $LN, and $FN are taken from ... the incoming
    table".  A placeholder ``params`` has no value for is an error,
    unless ``partial`` (it is then left in place).  A pattern without
    placeholders comes back as the same object.
    """
    value = pattern.value
    if value.__class__ is SetPattern:
        new_value: Term | SetPattern = _fill_set(value, params, partial)
    else:
        new_value = _fill_param(value, params, partial)
    label = _fill_param(pattern.label, params, partial)
    type_ = _fill_param(pattern.type, params, partial)
    oid = _fill_param(pattern.oid, params, partial)
    if (
        new_value is value
        and label is pattern.label
        and type_ is pattern.type
        and oid is pattern.oid
    ):
        return pattern
    return Pattern(label, new_value, type_, oid, pattern.object_var)


def _fill_set(
    setpat: SetPattern, params: Mapping[str, object], partial: bool
) -> SetPattern:
    changed = False
    items: list[PatternItem | VarItem] = []
    for item in setpat.items:
        if item.__class__ is PatternItem:
            filled = instantiate_params_in_pattern(
                item.pattern, params, partial
            )
            if filled is not item.pattern:
                item = PatternItem(filled, item.descendant)
                changed = True
        items.append(item)
    rest = setpat.rest
    if rest is not None and rest.conditions:
        conditions = tuple(
            instantiate_params_in_pattern(c, params, partial)
            for c in rest.conditions
        )
        if conditions != rest.conditions:  # identity first: cheap
            rest = RestSpec(rest.var, conditions)
            changed = True
    return SetPattern(tuple(items), rest) if changed else setpat


def _fill_param(
    term: Term | None, params: Mapping[str, object], partial: bool = False
) -> Term | None:
    if term.__class__ is Param:
        if term.name not in params:
            if partial:
                return term
            raise MSLInstantiationError(
                f"no value supplied for parameter ${term.name}"
            )
        return _atom_to_term(params[term.name])
    if term.__class__ is SemOidTerm:
        args = tuple(_fill_param(a, params, partial) for a in term.args)
        if args != term.args:
            return SemOidTerm(term.functor, args)  # type: ignore[arg-type]
    return term


def substitute_params(
    node, params: Mapping[str, object], partial: bool = False
):
    """``node`` with its ``$name`` placeholders filled from ``params``.

    ``node`` is a rule, a condition, a pattern, a term, or a tuple of
    those (a rule head).  This is where a template becomes the concrete
    query a source sees: per input tuple for a bind join's template
    (Section 3.4), per call for the constants :func:`repro.msl.lift.lift`
    took out of a client query.  Parts without placeholders are shared
    with ``node``, not copied.
    """
    cls = node.__class__
    if cls is Pattern:
        return instantiate_params_in_pattern(node, params, partial)
    if cls is PatternCondition:
        filled = instantiate_params_in_pattern(node.pattern, params, partial)
        if filled is node.pattern:
            return node
        return PatternCondition(filled, node.source)
    if cls is Comparison:
        left = _fill_param(node.left, params, partial)
        right = _fill_param(node.right, params, partial)
        if left is node.left and right is node.right:
            return node
        return Comparison(left, node.op, right)  # type: ignore[arg-type]
    if cls is ExternalCall:
        args = tuple(_fill_param(a, params, partial) for a in node.args)
        if args == node.args:
            return node
        return ExternalCall(node.name, args)  # type: ignore[arg-type]
    if cls is tuple:
        return tuple(substitute_params(n, params, partial) for n in node)
    if cls is Rule:
        return Rule(
            substitute_params(node.head, params, partial),
            substitute_params(node.tail, params, partial),
        )
    return _fill_param(node, params, partial)


# ---------------------------------------------------------------------------
# head instantiation (virtual-object creation)
# ---------------------------------------------------------------------------


def _slot_atom(term: Term, bindings: Bindings, slot: str) -> object:
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        if term.is_anonymous or term.name not in bindings:
            raise MSLInstantiationError(
                f"unbound variable {term} in head {slot} slot"
            )
        return bindings[term.name]
    if isinstance(term, Param):
        # a lifted constant: its value rides in the environment under
        # the parameter's printed name, which no variable can have
        key = str(term)
        if key not in bindings:
            raise MSLInstantiationError(
                f"no value supplied for parameter {key}"
            )
        return bindings[key]
    raise MSLInstantiationError(f"invalid head {slot} term {term}")


def _head_oid(
    term: Term | None, bindings: Bindings, oidgen: OidGenerator | None
) -> Oid | None:
    if term is None:
        return oidgen() if oidgen is not None else None
    if isinstance(term, SemOidTerm):
        args = []
        for arg in term.args:
            value = _slot_atom(arg, bindings, "oid")
            if isinstance(value, (OEMObject, tuple)):
                raise MSLInstantiationError(
                    f"semantic oid argument {arg} bound to a non-atom"
                )
            args.append(value)
        return SemanticOid(term.functor, args)
    value = _slot_atom(term, bindings, "oid")
    if isinstance(value, Oid):
        return value
    if isinstance(value, str):
        return Oid(value)
    raise MSLInstantiationError(f"head oid term {term} bound to {value!r}")


def instantiate_head_item(
    item: HeadItem,
    bindings: Bindings,
    oidgen: OidGenerator | None = None,
) -> list[OEMObject]:
    """Create the OEM object(s) a head item describes under ``bindings``.

    A bare head variable yields the object(s) it is bound to (the query
    form ``JC :- JC:<...>``).  A pattern yields one constructed object.
    """
    if isinstance(item, Var):
        if item.is_anonymous or item.name not in bindings:
            raise MSLInstantiationError(f"unbound head variable {item}")
        value = bindings[item.name]
        if isinstance(value, OEMObject):
            return [value]
        if isinstance(value, tuple):
            return list(value)
        raise MSLInstantiationError(
            f"head variable {item} bound to atom {value!r};"
            f" wrap it in a pattern to emit it as an object"
        )
    return [_build_object(item, bindings, oidgen)]


def _build_object(
    pattern: Pattern, bindings: Bindings, oidgen: OidGenerator | None
) -> OEMObject:
    label = _slot_atom(pattern.label, bindings, "label")
    if not isinstance(label, str):
        raise MSLInstantiationError(
            f"head label evaluated to non-string {label!r}"
        )
    oid = _head_oid(pattern.oid, bindings, oidgen)
    type_ = None
    if pattern.type is not None:
        declared = _slot_atom(pattern.type, bindings, "type")
        if not isinstance(declared, str):
            raise MSLInstantiationError(
                f"head type evaluated to non-string {declared!r}"
            )
        type_ = declared

    value = pattern.value
    if isinstance(value, SetPattern):
        # OEM set values are sets: structurally equal members collapse
        # (e.g. a 'year' object arriving from both sources via Rest1 and
        # Rest2 appears once in the integrated object)
        from repro.oem.compare import eliminate_duplicates

        children = eliminate_duplicates(
            _build_children(value, bindings, oidgen)
        )
        return OEMObject(label, children, SET_TYPE, oid)
    if isinstance(value, Const):
        return OEMObject(label, value.value, type_, oid)
    if isinstance(value, Param):
        return OEMObject(
            label, _slot_atom(value, bindings, "value"), type_, oid
        )
    if isinstance(value, Var):
        if value.is_anonymous or value.name not in bindings:
            raise MSLInstantiationError(
                f"unbound variable {value} in head value slot"
            )
        bound = bindings[value.name]
        if isinstance(bound, tuple):
            return OEMObject(label, bound, SET_TYPE, oid)
        if isinstance(bound, OEMObject):
            return OEMObject(label, (bound,), SET_TYPE, oid)
        if isinstance(bound, Oid):
            return OEMObject(label, bound.text, type_, oid)
        return OEMObject(label, bound, type_, oid)
    raise MSLInstantiationError(f"invalid head value term {value}")


def _build_children(
    setpat: SetPattern, bindings: Bindings, oidgen: OidGenerator | None
) -> list[OEMObject]:
    """Children of a head set pattern, with one-level flattening."""
    items: list[PatternItem | VarItem] = list(setpat.items)
    if setpat.rest is not None:
        # in a head, '{a b | R}' means the same as '{a b R}': splice the
        # remaining members in (attached conditions make no sense here)
        if setpat.rest.conditions:
            raise MSLInstantiationError(
                "conditions on a Rest variable are not allowed in a rule"
                " head"
            )
        items.append(VarItem(setpat.rest.var))
    children: list[OEMObject] = []
    for item in items:
        if isinstance(item, PatternItem):
            if item.descendant:
                raise MSLInstantiationError(
                    "a descendant item ('..') is not allowed in a rule head"
                )
            children.append(_build_object(item.pattern, bindings, oidgen))
            continue
        # VarItem: flatten sets one level, include objects directly
        var = item.var
        if var.is_anonymous or var.name not in bindings:
            raise MSLInstantiationError(
                f"unbound variable {var} inside head braces"
            )
        bound = bindings[var.name]
        if isinstance(bound, tuple):
            children.extend(bound)
        elif isinstance(bound, OEMObject):
            children.append(bound)
        else:
            raise MSLInstantiationError(
                f"variable {var} inside head braces is bound to the atom"
                f" {bound!r}; only objects and sets can be spliced in"
            )
    return children

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

from functools import partial as _partial
from typing import Mapping

from repro.msl.ast import (
    ANONYMOUS,
    Const,
    HeadItem,
    Param,
    Pattern,
    PatternItem,
    Rule,
    SemOidTerm,
    SetPattern,
    Term,
    Var,
    VarItem,
)
from repro.msl.bindings import Bindings
from repro.msl.errors import MSLInstantiationError
from repro.msl.walk import (
    ITEM_VAR,
    OBJECT_VAR,
    REST_VAR,
    rebuild,
    slots,
    variables,
)
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
# variable and parameter inventories
# ---------------------------------------------------------------------------


def _params(node) -> tuple[str, ...]:
    return tuple(
        dict.fromkeys(
            term.name for _, term, _ in slots(node) if term.__class__ is Param
        )
    )


def term_variables(term: Term | None) -> set[str]:
    """Named (non-anonymous) variables occurring in a term."""
    return variables(term)


def pattern_variables(pattern: Pattern) -> set[str]:
    """All named variables occurring anywhere in ``pattern``."""
    return variables(pattern)


def head_variables(head: tuple[HeadItem, ...]) -> set[str]:
    """Named variables occurring in a rule head."""
    return variables(head)


def pattern_params(pattern: Pattern) -> tuple[str, ...]:
    """Names of the ``$name`` placeholders in ``pattern``, in text order."""
    return _params(pattern)


def rule_params(rule: Rule) -> tuple[str, ...]:
    """Names of the ``$name`` placeholders anywhere in ``rule``."""
    return _params(rule)


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


#: Slots that bind whole objects or sets: substitution leaves them.
_BINDERS = (OBJECT_VAR, ITEM_VAR, REST_VAR)


def _bound(bindings: Bindings, lenient: bool, kind: str, term, owner) -> Term:
    """``term`` with its binding in place when it is a bound variable;
    one bound to an object or a set stays when ``lenient``."""
    if (
        term.__class__ is not Var
        or kind in _BINDERS
        or term.name == ANONYMOUS
        or term.name not in bindings
    ):
        return term
    value = bindings[term.name]
    if lenient and isinstance(value, (OEMObject, tuple)):
        return term
    return _atom_to_term(value)


def subst_term(term: Term | None, bindings: Bindings) -> Term | None:
    """Replace bound variables in ``term`` with constants.

    Unbound variables are left untouched; set-bound variables cannot be
    expressed as constants and raise.
    """
    return rebuild(term, _partial(_bound, bindings, False))


def subst_pattern(pattern: Pattern, bindings: Bindings) -> Pattern:
    """Apply ``bindings`` to every slot of ``pattern`` (syntactically).

    Variables bound to atoms become constants; variables bound to sets or
    objects are left in place (they cannot appear as constants — the view
    expander handles them via definitions instead), and so are object,
    brace and Rest variables.
    """
    return rebuild(pattern, _partial(_bound, bindings, True))


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
    return substitute_params(pattern, params, partial)


def _filled(
    params: Mapping[str, object], partial: bool, kind: str, term, owner
) -> Term:
    if term.__class__ is not Param:
        return term
    if term.name not in params:
        if partial:
            return term
        raise MSLInstantiationError(
            f"no value supplied for parameter ${term.name}"
        )
    return _atom_to_term(params[term.name])


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
    return rebuild(node, _partial(_filled, params, partial))


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

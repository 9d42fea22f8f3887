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
    Const,
    HeadItem,
    Param,
    Pattern,
    PatternItem,
    RestSpec,
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
    "instantiate_head_item",
    "head_variables",
    "term_variables",
    "pattern_variables",
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
    pattern: Pattern, params: Mapping[str, object]
) -> Pattern:
    """Fill every ``$name`` placeholder from ``params``.

    Used by the parameterized-query node (Section 3.4): "the values for
    query parameters $R, $LN, and $FN are taken from ... the incoming
    table".
    """
    value = pattern.value
    if isinstance(value, SetPattern):
        items: list[PatternItem | VarItem] = []
        for item in value.items:
            if isinstance(item, PatternItem):
                items.append(
                    PatternItem(
                        instantiate_params_in_pattern(item.pattern, params),
                        item.descendant,
                    )
                )
            else:
                items.append(item)
        rest = value.rest
        if rest is not None and rest.conditions:
            rest = RestSpec(
                rest.var,
                tuple(
                    instantiate_params_in_pattern(c, params)
                    for c in rest.conditions
                ),
            )
        new_value: Term | SetPattern = SetPattern(tuple(items), rest)
    else:
        filled = _fill_param(value, params)
        assert filled is not None
        new_value = filled

    return Pattern(
        label=_fill_param(pattern.label, params) or pattern.label,
        value=new_value,
        type=_fill_param(pattern.type, params),
        oid=_fill_param(pattern.oid, params),
        object_var=pattern.object_var,
    )


def _fill_param(
    term: Term | None, params: Mapping[str, object]
) -> Term | None:
    if isinstance(term, Param):
        if term.name not in params:
            raise MSLInstantiationError(
                f"no value supplied for parameter ${term.name}"
            )
        return _atom_to_term(params[term.name])
    if isinstance(term, SemOidTerm):
        return SemOidTerm(
            term.functor,
            tuple(_fill_param(a, params) for a in term.args),  # type: ignore[misc]
        )
    return term


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

"""One walk over the MSL tree.

The view expander renames rules apart and applies unifiers, the
optimizer turns bind-join variables into ``$`` parameters, the engine
fills them: every stage after the parser rewrites the same tree.  This
module is the one place outside the compiler and the reference
evaluators that knows how it nests, and offers two primitives —
:func:`slots`, every term slot as ``(kind, term, pattern)`` in text
order, and :func:`rebuild`, the tree with a function applied to every
slot (and, optionally, to every set pattern), sharing each sub-tree it
leaves unchanged.

The slot kinds are :data:`LABEL`, :data:`VALUE`, :data:`TYPE`,
:data:`OID`, :data:`OBJECT_VAR` (``X:`` before a pattern, or a bare
head variable), :data:`ITEM_VAR` (a bare variable in braces),
:data:`REST_VAR`, :data:`SEMOID_ARG` (an argument of ``&f(...)``),
:data:`OPERAND` (of a comparison) and :data:`ARGUMENT` (of an external
call); a term given on its own is walked as a value.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.msl.ast import (
    ANONYMOUS,
    Comparison,
    Const,
    ExternalCall,
    Param,
    Pattern,
    PatternCondition,
    PatternItem,
    RestSpec,
    Rule,
    SemOidTerm,
    SetPattern,
    Var,
    VarItem,
)

__all__ = [
    "LABEL",
    "VALUE",
    "TYPE",
    "OID",
    "OBJECT_VAR",
    "ITEM_VAR",
    "REST_VAR",
    "SEMOID_ARG",
    "OPERAND",
    "ARGUMENT",
    "slots",
    "rebuild",
    "variables",
    "descendants",
    "children",
    "keep",
]

LABEL = "label"
VALUE = "value"
TYPE = "type"
OID = "oid"
OBJECT_VAR = "object variable"
ITEM_VAR = "item variable"
REST_VAR = "rest variable"
SEMOID_ARG = "semantic-oid argument"
OPERAND = "operand"
ARGUMENT = "argument"

# ---------------------------------------------------------------------------
# iteration: a rebuild that records every slot and changes none
# ---------------------------------------------------------------------------


def slots(node) -> list[tuple[str, object, "Pattern | None"]]:
    """``(kind, term, pattern)`` for every term slot of ``node``, a
    semantic-oid term before its arguments; empty ``type`` and ``oid``
    slots are not reported."""
    found: list[tuple[str, object, Pattern | None]] = []
    rebuild(node, partial(_record, found))
    return found


def _record(found: list, kind: str, term, pattern):
    found.append((kind, term, pattern))
    return term


def variables(node) -> set[str]:
    """The named (not anonymous) variables anywhere in ``node``."""
    return {
        term.name
        for _, term, _ in slots(node)
        if term.__class__ is Var and term.name != ANONYMOUS
    }


def descendants(node) -> list[Pattern]:
    """The patterns of the ``..`` items anywhere in ``node``, innermost
    braces first."""
    found: list[Pattern] = []
    rebuild(node, keep, partial(_record_descendants, found))
    return found


def keep(kind: str, term, pattern):
    """The slot function that changes nothing (for a rebuild that only
    maps set patterns)."""
    return term


def _record_descendants(found: list, braces: SetPattern, pattern):
    found.extend(
        item.pattern
        for item in braces.items
        if item.__class__ is PatternItem and item.descendant
    )
    return braces


def children(pattern: Pattern) -> list[Pattern]:
    """The depth-1 members ``pattern`` requires: its non-descendant
    items, then the conditions pushed into its Rest variable."""
    braces = pattern.value
    if braces.__class__ is not SetPattern:
        return []
    found = [
        item.pattern
        for item in braces.items
        if item.__class__ is PatternItem and not item.descendant
    ]
    if braces.rest is not None:
        found.extend(braces.rest.conditions)
    return found


# ---------------------------------------------------------------------------
# rebuilding
# ---------------------------------------------------------------------------
#
# Plain module-level recursion, no closures: a nested function that
# calls itself is a reference cycle, and rewrites run for every query.


def rebuild(node, fn: Callable, braces: Callable | None = None):
    """``node`` with ``fn(kind, term, pattern)`` in every term slot.

    ``fn`` sees the slots in text order, each with the (original)
    pattern that holds it, and returns the term to put there; for a
    pattern's value it may return a :class:`SetPattern`, and for an
    object variable ``None``.  A semantic-oid term ``fn`` returns as it
    is has its arguments rebuilt in turn.  ``braces(set_pattern,
    pattern)``, when given, maps every set pattern after its members
    are rebuilt.  Unchanged sub-trees are returned as they are.
    """
    cls = node.__class__
    if cls is Pattern:
        return _pattern(node, fn, braces)
    if cls is PatternCondition:
        pattern = _pattern(node.pattern, fn, braces)
        if pattern is node.pattern:
            return node
        return PatternCondition(pattern, node.source)
    if cls is Rule:
        head = _each(OBJECT_VAR, node.head, None, fn, braces)
        tail = _each(None, node.tail, None, fn, braces)
        if head is node.head and tail is node.tail:
            return node
        return Rule(head, tail)
    if cls is tuple:  # a head (bare variables are object variables)
        return _each(OBJECT_VAR, node, None, fn, braces)
    if cls is Comparison:
        left = _term(OPERAND, node.left, None, fn)
        right = _term(OPERAND, node.right, None, fn)
        if left is node.left and right is node.right:
            return node
        return Comparison(left, node.op, right)
    if cls is ExternalCall:
        args = _each(ARGUMENT, node.args, None, fn, None)
        return node if args is node.args else ExternalCall(node.name, args)
    if cls is SetPattern:
        return _set(node, None, fn, braces)
    if node is None:
        return None
    return _term(VALUE, node, None, fn)


def _each(kind, members: tuple, owner, fn, braces) -> tuple:
    """``members`` rebuilt one by one, the terms among them as ``kind``
    slots; the same tuple when none changes."""
    rebuilt = None
    for at, member in enumerate(members):
        if member.__class__ in _TERMS:
            new = _term(kind, member, owner, fn)
        else:
            new = rebuild(member, fn, braces)
        if new is not member:
            if rebuilt is None:
                rebuilt = list(members)
            rebuilt[at] = new
    return members if rebuilt is None else tuple(rebuilt)


_TERMS = (Var, Const, Param, SemOidTerm)


def _term(kind: str, term, owner: "Pattern | None", fn):
    new = fn(kind, term, owner)
    if new is term and term.__class__ is SemOidTerm:
        return _arguments(term, owner, fn)
    return new


def _arguments(term: SemOidTerm, owner, fn) -> SemOidTerm:
    args = _each(SEMOID_ARG, term.args, owner, fn, None)
    return term if args is term.args else SemOidTerm(term.functor, args)


def _pattern(p: Pattern, fn, braces) -> Pattern:
    # each slot calls ``fn`` directly (this runs per source call); a
    # semantic-oid term left as it is goes on to its arguments
    object_var = p.object_var
    if object_var is not None:
        object_var = fn(OBJECT_VAR, object_var, p)
    oid = p.oid
    if oid is not None:
        oid = fn(OID, oid, p)
        if oid is p.oid and oid.__class__ is SemOidTerm:
            oid = _arguments(oid, p, fn)
    label = fn(LABEL, p.label, p)
    if label is p.label and label.__class__ is SemOidTerm:
        label = _arguments(label, p, fn)
    type_ = p.type
    if type_ is not None:
        type_ = fn(TYPE, type_, p)
        if type_ is p.type and type_.__class__ is SemOidTerm:
            type_ = _arguments(type_, p, fn)
    value = p.value
    if value.__class__ is SetPattern:
        value = _set(value, p, fn, braces)
    else:
        value = fn(VALUE, value, p)
        if value is p.value and value.__class__ is SemOidTerm:
            value = _arguments(value, p, fn)
    if (
        value is p.value
        and label is p.label
        and type_ is p.type
        and oid is p.oid
        and object_var is p.object_var
    ):
        return p
    return Pattern(label, value, type_, oid, object_var)


def _set(
    setpat: SetPattern, owner: "Pattern | None", fn, braces
) -> SetPattern:
    items = setpat.items
    rebuilt = None
    for at, item in enumerate(items):
        if item.__class__ is PatternItem:
            pattern = _pattern(item.pattern, fn, braces)
            if pattern is item.pattern:
                continue
            new = PatternItem(pattern, item.descendant)
        else:
            var = fn(ITEM_VAR, item.var, owner)
            if var is item.var:
                continue
            new = VarItem(var)
        if rebuilt is None:
            rebuilt = list(items)
        rebuilt[at] = new
    rest = setpat.rest
    if rest is not None:
        var = fn(REST_VAR, rest.var, owner)
        conditions = _each(None, rest.conditions, owner, fn, braces)
        if var is not rest.var or conditions is not rest.conditions:
            rest = RestSpec(var, conditions)
    if rebuilt is not None or rest is not setpat.rest:
        setpat = SetPattern(
            items if rebuilt is None else tuple(rebuilt), rest
        )
    return setpat if braces is None else braces(setpat, owner)


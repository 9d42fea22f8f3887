"""Query shapes: a rule with its constants lifted out.

Section 3.4's parameterized queries ship a ``$X`` template and fill the
value in per tuple; a client query's constants are the zeroth row of
that bind join.  :func:`lift` turns a rule into ``(template,
constants)``: every constant in a *value* position — a pattern's value
slot at any depth, an argument of a tail pattern's semantic oid, a
comparison operand — becomes a :class:`Param`, and everything a plan's
shape depends on (labels, types, plain oids, source names,
external-call arguments, the head) stays.  A semantic oid's argument is
a value: a bind join through ``&person(N)`` ships one
``&person('ann')`` query per name, and all of them are one shape.
Equal constants (type-strict, as :class:`Const` equality is) lift to
the same parameter, so equality between them stays decidable on the
template.  Parameters are numbered in text order and named ``#0``,
``#1``, … — a name no MSL text can spell, so a lifted parameter never
collides with one a user or the optimizer wrote.

Whatever is computed from a template alone — its parse, its logical
program, its physical plan, its compiled matcher — is computed once per
shape; :func:`repro.msl.substitute.substitute_params` puts a call's
constants back.  A planning step that would need to *read* a lifted
constant raises :class:`ValueDependent` instead of guessing.
"""

from __future__ import annotations

from repro.msl.ast import (
    Comparison,
    Condition,
    Const,
    Param,
    Pattern,
    PatternCondition,
    PatternItem,
    RestSpec,
    Rule,
    SemOidTerm,
    SetPattern,
)
from repro.msl.errors import MSLError
from repro.msl.lexer import scan_literals
from repro.msl.parser import parse_query

__all__ = [
    "ValueDependent",
    "lift",
    "param_names",
    "scan_shape",
    "text_shape_is_liftable",
]


class ValueDependent(Exception):
    """A planning decision needs the value of a lifted constant.

    Raised while a *template* is being planned; the planner's caller
    plans that query with its constants in place instead (and says why
    in ``explain()``).
    """


#: ``#0``, ``#1``, …: the lexer's ``$name`` rule cannot produce these.
_NAMES = tuple(f"#{i}" for i in range(32))


def param_names(count: int) -> tuple[str, ...]:
    """The names of a template's ``count`` lifted parameters."""
    if count <= len(_NAMES):
        return _NAMES[:count]
    return tuple(f"#{i}" for i in range(count))


def _param(constant: Const, seen: dict, values: list) -> Param:
    value = constant.value
    key = (value.__class__, value)
    index = seen.get(key)
    if index is None:
        index = seen[key] = len(values)
        values.append(value)
    return Param(_NAMES[index] if index < len(_NAMES) else f"#{index}")


def _lift_pattern(pattern: Pattern, seen: dict, values: list) -> Pattern:
    # the oid first: it prints first, and constants number in text order
    oid = pattern.oid
    if oid.__class__ is SemOidTerm:
        args = tuple(
            _param(arg, seen, values) if arg.__class__ is Const else arg
            for arg in oid.args
        )
        if args != oid.args:
            oid = SemOidTerm(oid.functor, args)
    value = pattern.value
    if value.__class__ is Const:
        lifted: object = _param(value, seen, values)
    elif value.__class__ is SetPattern:
        lifted = _lift_set(value, seen, values)
    else:
        lifted = value
    if lifted is value and oid is pattern.oid:
        return pattern
    return Pattern(pattern.label, lifted, pattern.type, oid, pattern.object_var)


def _lift_set(setpat: SetPattern, seen: dict, values: list) -> SetPattern:
    changed = False
    items = []
    for item in setpat.items:
        if item.__class__ is PatternItem:
            lifted = _lift_pattern(item.pattern, seen, values)
            if lifted is not item.pattern:
                item = PatternItem(lifted, item.descendant)
                changed = True
        items.append(item)
    rest = setpat.rest
    if rest is not None and rest.conditions:
        conditions = tuple(
            _lift_pattern(condition, seen, values)
            for condition in rest.conditions
        )
        if conditions != rest.conditions:  # identity first: cheap
            rest = RestSpec(rest.var, conditions)
            changed = True
    return SetPattern(tuple(items), rest) if changed else setpat


def _lift_condition(
    condition: Condition, seen: dict, values: list
) -> Condition:
    if condition.__class__ is PatternCondition:
        lifted = _lift_pattern(condition.pattern, seen, values)
        if lifted is condition.pattern:
            return condition
        return PatternCondition(lifted, condition.source)
    if condition.__class__ is Comparison:
        left, right = condition.left, condition.right
        if left.__class__ is Const:
            left = _param(left, seen, values)
        if right.__class__ is Const:
            right = _param(right, seen, values)
        if left is condition.left and right is condition.right:
            return condition
        return Comparison(left, condition.op, right)
    return condition  # external calls are structure


def lift(rule: Rule) -> tuple[Rule, tuple]:
    """``(template, constants)`` for ``rule``; ``rule`` itself and
    ``()`` when it has no value-position constant.

    ``substitute_params(template, dict(zip(param_names(n), constants)))``
    is ``rule`` again.

    Hand-written rather than a :func:`repro.msl.walk.rebuild`: it runs
    on every source call, and visiting only value slots is faster than
    a function call per slot — 7.3 µs against 8.3 µs per call on the
    point-lookup rule (best of 30 × 5 000 calls, eight alternating
    processes, Python 3.11 on a 2-core Xeon VM).
    """
    seen: dict = {}
    values: list = []
    tail = tuple(
        _lift_condition(condition, seen, values) for condition in rule.tail
    )
    if not values:
        return rule, ()
    return Rule(rule.head, tail), tuple(values)


def scan_shape(text: str) -> tuple[tuple, tuple]:
    """``(key, constants)`` for query *text*, without parsing it.

    ``key`` is the text's skeleton (:func:`repro.msl.lexer.scan_literals`)
    plus which of its literals are equal — what :func:`lift` would make
    one parameter; ``constants`` are the distinct literal values in text
    order.  When every literal of the text sits in a value position,
    ``constants`` is exactly what ``lift(parse_query(text))`` returns and
    texts with equal keys share one template: the caller checks the
    first half once per key, on the text it does parse, and may then
    look the template up by key.
    """
    skeleton, values = scan_literals(text)
    if len(values) == 1:
        return (skeleton, 0), (values[0],)
    seen: dict = {}
    constants: list = []
    ids = []
    for value in values:
        key = (value.__class__, value)
        index = seen.get(key)
        if index is None:
            index = seen[key] = len(constants)
            constants.append(value)
        ids.append(index)
    return (skeleton, *ids), tuple(constants)


def text_shape_is_liftable(key: tuple) -> bool:
    """Is every literal of the texts with scan key ``key`` a lifted
    constant — so that one template serves all of them?

    Decided on the skeleton alone, by parsing it with a distinct marker
    string in place of each literal: the markers must come back from
    :func:`lift` as the constants, all of them and in text order.  A
    literal in a label, oid or type slot, in a rule head or in an
    external call stays in the parsed rule instead (such texts are
    parsed every time), and so does a bare-word constant, which the
    scan never took for a literal.
    """
    pieces = key[0].split("\0")
    markers = tuple(f"\0{index}" for index in range(len(pieces) - 1))
    text = pieces[0] + "".join(
        f"'{marker}'{piece}" for marker, piece in zip(markers, pieces[1:])
    )
    try:
        return lift(parse_query(text))[1] == markers
    except MSLError:
        return False

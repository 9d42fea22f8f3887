"""Abstract syntax of the Mediator Specification Language (MSL).

MSL is the declarative rule language of MedMaker.  A *specification* is a
set of rules plus external-function declarations; a *query* is a single
rule evaluated against a mediator or source.  A rule is

``head :- tail``

where the tail lists *conditions*: object patterns annotated with the
source they refer to (``<...>@cs``), external predicate calls
(``decomp(N, LN, FN)``), and comparisons.  The head lists the patterns of
the objects the rule derives.

The classes here are immutable value objects; they print back to MSL
syntax via :mod:`repro.msl.unparse` (their ``__str__``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

__all__ = [
    "Term",
    "Const",
    "Var",
    "Param",
    "SemOidTerm",
    "Pattern",
    "SetPattern",
    "SetItem",
    "PatternItem",
    "VarItem",
    "RestSpec",
    "Condition",
    "PatternCondition",
    "ExternalCall",
    "Comparison",
    "COMPARISON_OPS",
    "HeadItem",
    "Rule",
    "ExternalDecl",
    "Specification",
    "is_variable_name",
    "ANONYMOUS",
]

#: The anonymous variable.  Each occurrence is distinct; it never joins.
ANONYMOUS = "_"


def is_variable_name(name: str) -> bool:
    """MSL variables are identifiers starting with a capital letter or ``_``.

    >>> is_variable_name('Rest1'), is_variable_name('name')
    (True, False)
    """
    return bool(name) and (name[0].isupper() or name[0] == "_")


# ---------------------------------------------------------------------------
# terms: the things that fill pattern slots
# ---------------------------------------------------------------------------

#: What the lexer's string rule treats specially inside ``'...'``: each
#: prints behind a backslash (``\\x`` lexes as ``x`` for every ``x``).
_ESCAPES = re.compile(r"[\\'\n]")


@dataclass(frozen=True, slots=True)
class Const:
    """A constant: a string, number, or boolean atom.

    Equality is type-strict (``Const(1)``, ``Const(1.0)`` and
    ``Const(True)`` are three constants): rules and patterns key the
    compile caches, and Python's ``1 == 1.0 == True`` would hand a
    query the closure compiled for another constant.
    """

    value: object

    def __eq__(self, other: object) -> bool:
        return (
            other.__class__ is Const
            and type(self.value) is type(other.value)
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((type(self.value), self.value))

    def __str__(self) -> str:
        if isinstance(self.value, str):
            # identifier-like constants (labels, type names) print bare,
            # matching the paper's notation; anything else is quoted —
            # including a word the parser would read back as a boolean
            if (
                self.value
                and not is_variable_name(self.value)
                and self.value.replace("_", "a").isalnum()
                and self.value[0].isalpha()  # as the lexer starts a word
                and self.value.lower() not in ("true", "false")
            ):
                return self.value
            return "'" + _ESCAPES.sub(r"\\\g<0>", self.value) + "'"
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Var:
    """A variable.  ``Var('_')`` is the anonymous variable."""

    name: str

    @property
    def is_anonymous(self) -> bool:
        return self.name == ANONYMOUS

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Param:
    """A ``$name`` placeholder in a parameterized query template.

    Parameterized-query plan nodes (Section 3.4) substitute a concrete
    value for each parameter before sending the query to a source.
    """

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True, slots=True)
class SemOidTerm:
    """A semantic object-id term ``&functor(arg, ...)`` in a head.

    Evaluating it under a binding produces a
    :class:`repro.oem.oid.SemanticOid`, enabling object fusion.
    """

    functor: str
    args: tuple["Term", ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"&{self.functor}({inner})"


Term = Union[Const, Var, Param, SemOidTerm]


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RestSpec:
    """The ``| Rest`` part of a set pattern.

    ``conditions`` holds patterns *attached* to the rest variable by the
    view expander's condition pushdown (the paper writes this
    ``Rest1:{<year 3>}``): each condition must match some member of the
    rest set, without removing it from the set.
    """

    var: Var
    conditions: tuple["Pattern", ...] = ()

    def __str__(self) -> str:
        if self.conditions:
            inner = " ".join(str(c) for c in self.conditions)
            return f"{self.var}:{{{inner}}}"
        return str(self.var)


@dataclass(frozen=True, slots=True)
class PatternItem:
    """A sub-object pattern inside ``{}``.

    ``descendant`` marks the wildcard form ``.. <p>``: the pattern may
    match at *any* depth below the enclosing object, not only among its
    direct sub-objects.
    """

    pattern: "Pattern"
    descendant: bool = False

    def __str__(self) -> str:
        return (".. " if self.descendant else "") + str(self.pattern)


@dataclass(frozen=True, slots=True)
class VarItem:
    """A bare variable inside head braces, e.g. ``Rest1`` in

    ``<cs_person {<name N> <rel R> Rest1 Rest2}>``

    At instantiation time a set-bound variable is flattened one level
    into the surrounding set; an object-bound variable contributes that
    object.
    """

    var: Var

    def __str__(self) -> str:
        return str(self.var)


SetItem = Union[PatternItem, VarItem]


@dataclass(frozen=True, slots=True)
class SetPattern:
    """A brace pattern ``{item ... | Rest}`` for set values."""

    items: tuple[SetItem, ...] = ()
    rest: RestSpec | None = None

    def __str__(self) -> str:
        parts = [str(i) for i in self.items]
        body = " ".join(parts)
        if self.rest is not None:
            body = f"{body} | {self.rest}" if body else f"| {self.rest}"
        return "{" + body + "}"


@dataclass(frozen=True, slots=True)
class Pattern:
    """An object pattern ``ObjVar:<oid label type value>``.

    Any slot may hold a constant or a variable; ``oid`` and ``type`` may
    be absent (the paper's elision rules).  ``value`` is a term or a
    :class:`SetPattern`.
    """

    label: Term
    value: Union[Term, SetPattern]
    type: Term | None = None
    oid: Term | None = None
    object_var: Var | None = None

    def __str__(self) -> str:
        fields = []
        if self.oid is not None:
            fields.append(str(self.oid))
        fields.append(str(self.label))
        if self.type is not None:
            fields.append(str(self.type))
        fields.append(str(self.value))
        body = f"<{' '.join(fields)}>"
        if self.object_var is not None:
            return f"{self.object_var}:{body}"
        return body

    @property
    def set_value(self) -> SetPattern | None:
        """The value as a SetPattern, or None for term values."""
        if isinstance(self.value, SetPattern):
            return self.value
        return None


# ---------------------------------------------------------------------------
# tail conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PatternCondition:
    """A tail condition ``pattern @ source``.

    ``source`` names a wrapper or mediator in the source registry; it is
    ``None`` inside queries shipped *to* a specific source (the recipient
    is implicit).
    """

    pattern: Pattern
    source: str | None = None

    def __str__(self) -> str:
        suffix = f"@{self.source}" if self.source else ""
        return f"{self.pattern}{suffix}"


@dataclass(frozen=True, slots=True)
class ExternalCall:
    """An external predicate call, e.g. ``decomp(N, LN, FN)``."""

    name: str
    args: tuple[Term, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


#: Comparison operators accepted in tails.
COMPARISON_OPS = ("=", "!=", "<=", ">=", "<", ">")


@dataclass(frozen=True, slots=True)
class Comparison:
    """A builtin comparison between two terms, e.g. ``Y > 2``."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


Condition = Union[PatternCondition, ExternalCall, Comparison]


# ---------------------------------------------------------------------------
# rules, declarations, specifications
# ---------------------------------------------------------------------------

HeadItem = Union[Pattern, Var]


@dataclass(frozen=True, slots=True)
class Rule:
    """One MSL rule ``head :- tail``.

    The head is a sequence of patterns (mediator specification rules) or
    bare object variables (queries like ``JC :- JC:<...>@med``).
    """

    head: tuple[HeadItem, ...]
    tail: tuple[Condition, ...]

    def __str__(self) -> str:
        head_text = " ".join(str(h) for h in self.head)
        tail_text = " AND ".join(str(c) for c in self.tail)
        return f"{head_text} :- {tail_text}"

    def pattern_conditions(self) -> Iterator[PatternCondition]:
        """The tail's pattern conditions, in order."""
        for cond in self.tail:
            if isinstance(cond, PatternCondition):
                yield cond

    def external_calls(self) -> Iterator[ExternalCall]:
        for cond in self.tail:
            if isinstance(cond, ExternalCall):
                yield cond

    def comparisons(self) -> Iterator[Comparison]:
        for cond in self.tail:
            if isinstance(cond, Comparison):
                yield cond


@dataclass(frozen=True, slots=True)
class ExternalDecl:
    """Declaration binding a predicate/adornment to an implementation.

    ``EXT decomp(bound, free, free) BY name_to_lnfn`` says: when the
    first argument of ``decomp`` is bound and the rest are free, the
    engine may call the registered function ``name_to_lnfn`` with the
    bound arguments and receive tuples for the free ones.  A predicate
    may have several declarations — "having more than one function for
    decomp gives flexibility at execution time".
    """

    predicate: str
    adornment: tuple[str, ...]  # each 'b' or 'f'
    function: str

    def __post_init__(self) -> None:
        for a in self.adornment:
            if a not in ("b", "f"):
                raise ValueError(f"adornment letters are 'b'/'f', got {a!r}")

    @property
    def arity(self) -> int:
        return len(self.adornment)

    def __str__(self) -> str:
        words = ", ".join("bound" if a == "b" else "free" for a in self.adornment)
        return f"EXT {self.predicate}({words}) BY {self.function}"


@dataclass(frozen=True, slots=True)
class Specification:
    """A full mediator specification: rules + external declarations."""

    rules: tuple[Rule, ...]
    externals: tuple[ExternalDecl, ...] = ()

    def __str__(self) -> str:
        parts = [str(r) for r in self.rules] + [str(d) for d in self.externals]
        return "\n".join(parts)

    def declarations_for(self, predicate: str) -> tuple[ExternalDecl, ...]:
        """All declared implementations of ``predicate``."""
        return tuple(
            d for d in self.externals if d.predicate == predicate
        )

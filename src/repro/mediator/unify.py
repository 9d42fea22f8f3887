"""Unifiers: matching query conditions against mediator rule heads.

Section 3.2 of the paper: the View Expander "matches the query tail
conditions with rule heads.  The successful matches result in expressions
called *unifiers*".  A unifier has

* **mappings** (``↦``) — variable-to-term substitutions, e.g.
  ``N ↦ 'Joe Chung'``, applied to both the query head and the rule tail;
* **set-conditions** — the pushdown mappings of Section 3.3, e.g.
  ``Rest1 ↦ {<year 3>}``: conditions attached to a set-bound rule
  variable ("the attachment of the conditions specified inside the {} to
  the specified variable");
* **definitions** (``⇒``) — e.g. ``JC ⇒ <cs_person {...}>``: "the
  definition carries all the information about the structure of the
  mediator objects that bind to the query variable".

Matching a query's set pattern against a head's braces enumerates *all*
ways each query item can be satisfied — by unifying with an explicit
head item, or by being pushed into any set variable of the head.  That
enumeration is what produces the two unifiers τ1/τ2 for the ``<year 3>``
query of Section 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.msl.ast import (
    Const,
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
from repro.msl.errors import MSLSemanticError
from repro.msl.lift import ValueDependent
from repro.msl.walk import (
    ITEM_VAR,
    LABEL,
    OBJECT_VAR,
    OID,
    REST_VAR,
    TYPE,
    VALUE,
    rebuild,
)

__all__ = ["Unifier", "unify_with_head", "apply_mapping_to_pattern"]


Definition = Union[Pattern, SetPattern]


@dataclass
class Unifier:
    """One successful match of a query condition with a rule head."""

    mappings: dict[str, Term] = field(default_factory=dict)
    set_conditions: dict[str, tuple[Pattern, ...]] = field(default_factory=dict)
    definitions: dict[str, Definition] = field(default_factory=dict)

    # -- construction (returns None on conflict) ---------------------------

    def copy(self) -> "Unifier":
        return Unifier(
            dict(self.mappings),
            dict(self.set_conditions),
            dict(self.definitions),
        )

    def map_var(self, name: str, term: Term) -> "Unifier | None":
        """Add the mapping ``name ↦ term``; None if inconsistent."""
        if name == "_":
            return self
        resolved_new = self.resolve(term)
        if name in self.mappings:
            resolved_old = self.resolve(self.mappings[name])
            if resolved_old == resolved_new:
                return self
            # two constants that disagree: dead end; two variables (or a
            # variable and a constant): unify them transitively.  Two
            # lifted parameters are two different constants (equal ones
            # lift to one parameter); a parameter against a constant is
            # a question only the parameter's value answers
            if isinstance(resolved_old, (Const, Param)) and isinstance(
                resolved_new, (Const, Param)
            ):
                if not (
                    isinstance(resolved_old, Const)
                    and isinstance(resolved_new, Const)
                ):
                    _disagree(resolved_old, resolved_new)
                return None
            if isinstance(resolved_old, Var):
                updated = self.copy()
                updated.mappings[resolved_old.name] = resolved_new
                return updated
            if isinstance(resolved_new, Var):
                updated = self.copy()
                updated.mappings[resolved_new.name] = resolved_old
                return updated
            return None
        if isinstance(resolved_new, Var) and resolved_new.name == name:
            return self  # no-op mapping X ↦ X
        updated = self.copy()
        updated.mappings[name] = resolved_new
        return updated

    def push_condition(self, var_name: str, condition: Pattern) -> "Unifier":
        """Attach ``condition`` to set variable ``var_name`` (pushdown)."""
        updated = self.copy()
        updated.set_conditions[var_name] = updated.set_conditions.get(
            var_name, ()
        ) + (condition,)
        return updated

    def define(self, var_name: str, definition: Definition) -> "Unifier | None":
        if var_name == "_":
            return self
        if var_name in self.definitions:
            return (
                self if self.definitions[var_name] == definition else None
            )
        updated = self.copy()
        updated.definitions[var_name] = definition
        return updated

    # -- resolution ---------------------------------------------------------

    def resolve(self, term: Term) -> Term:
        """Chase mapping chains: X ↦ Y, Y ↦ 'c' resolves X to 'c'."""
        seen: set[str] = set()
        current = term
        while isinstance(current, Var) and current.name in self.mappings:
            if current.name in seen:
                raise MSLSemanticError(
                    f"cyclic mapping through variable {current.name}"
                )
            seen.add(current.name)
            current = self.mappings[current.name]
        if isinstance(current, SemOidTerm):
            return SemOidTerm(
                current.functor,
                tuple(self.resolve(a) for a in current.args),
            )
        return current

    def merge(self, other: "Unifier") -> "Unifier | None":
        """Combine two unifiers (for multi-condition queries)."""
        merged: Unifier | None = self.copy()
        for name, term in other.mappings.items():
            merged = merged.map_var(name, term)
            if merged is None:
                return None
        for name, conditions in other.set_conditions.items():
            for condition in conditions:
                merged = merged.push_condition(name, condition)
        for name, definition in other.definitions.items():
            merged = merged.define(name, definition)
            if merged is None:
                return None
        return merged

    def finalized(self) -> "Unifier":
        """Resolve all chains and apply mappings inside pushed conditions
        and definitions, producing the presentable form of the unifier."""
        final = Unifier()
        for name in self.mappings:
            final.mappings[name] = self.resolve(Var(name))
        final.set_conditions = {
            name: tuple(map(self.apply, conditions))
            for name, conditions in self.set_conditions.items()
        }
        final.definitions = {
            name: self.apply(definition)
            for name, definition in self.definitions.items()
        }
        return final

    # -- application ----------------------------------------------------------

    def apply(self, node):
        """``node`` — a pattern, set pattern, condition or tuple of
        conditions — with the mappings substituted through it.

        Set-conditions are *also* applied: when a substituted value
        variable or rest variable has pushed conditions, they are
        attached in place (the ``Rest1:{<year 3>}`` notation).
        """
        return rebuild(node, self.slot, self.attach)

    def slot(self, kind: str, term, pattern) -> object:
        """One slot under the mappings.  Label, type and oid slots are
        structure — what plans, statistics and capabilities are keyed
        by — so a variable there may not resolve to a lifted constant of
        the query.  Brace and Rest variables stay: their sets are
        spliced or constrained, not substituted."""
        if term.__class__ is not Var or kind is ITEM_VAR or kind is REST_VAR:
            return term
        resolved = self.resolve(term)
        if kind is VALUE:
            pushed = self.set_conditions.get(term.name)
            if pushed and resolved.__class__ is Var:
                # a set-valued variable with attached conditions becomes
                # {| V:{conditions}} — V still binds all members, and the
                # conditions must hold among them
                return SetPattern(
                    (), RestSpec(resolved, tuple(map(self.apply, pushed)))
                )
        elif kind is OBJECT_VAR:
            if term.is_anonymous:
                return term
            return resolved if resolved.__class__ is Var else None
        elif kind in (LABEL, TYPE, OID) and resolved.__class__ is Param:
            raise ValueDependent(
                f"a constant of the query fills a label, type or oid"
                f" slot of the view ({term} resolves to {resolved})"
            )
        return resolved

    def attach(self, braces: SetPattern, pattern) -> SetPattern:
        """``braces`` with the conditions pushed into its Rest variable."""
        rest = braces.rest
        if rest is None or not self.set_conditions.get(rest.var.name):
            return braces
        pushed = tuple(map(self.apply, self.set_conditions[rest.var.name]))
        return SetPattern(
            braces.items, RestSpec(rest.var, rest.conditions + pushed)
        )

    def __str__(self) -> str:
        parts = [
            f"{name} -> {term}" for name, term in sorted(self.mappings.items())
        ]
        parts += [
            f"{name} -> {{{' '.join(str(c) for c in conditions)}}}"
            for name, conditions in sorted(self.set_conditions.items())
        ]
        parts += [
            f"{name} => {definition}"
            for name, definition in sorted(self.definitions.items())
        ]
        return "[" + ", ".join(parts) + "]"


def apply_mapping_to_pattern(pattern: Definition, unifier: Unifier):
    """Substitute the unifier's mappings through ``pattern`` (or set
    pattern): :meth:`Unifier.apply`."""
    return unifier.apply(pattern)


# ---------------------------------------------------------------------------
# unification of a query pattern with a rule head pattern
# ---------------------------------------------------------------------------


def _disagree(left: Term, right: Term) -> None:
    """Two distinct terms, at least one a lifted parameter, meet where
    two constants would be compared.  Two parameters stand for two
    different constants and simply fail to unify; a parameter meeting
    a constant of the specification unifies or not by its *value*, which
    a template does not have."""
    if isinstance(left, Param) and isinstance(right, Param):
        return
    raise ValueDependent(
        f"a constant of the query ({left} against {right}) meets a"
        " constant of the specification during unification"
    )



def _unify_slot(
    query_term: Term | None,
    head_term: Term | None,
    unifier: Unifier,
    *,
    slot: str,
) -> Unifier | None:
    """Unify one non-value slot; orientation: query vars map to head terms."""
    if query_term is None:
        return unifier  # the query doesn't constrain this slot
    if head_term is None:
        # the head leaves the slot open (e.g. no oid): a query variable
        # there cannot be given a definition, so only '_' is acceptable
        if isinstance(query_term, Var):
            return unifier if query_term.is_anonymous else None
        return None
    if isinstance(query_term, (Const, Param)):
        # a parameter is a lifted semantic-oid argument (lift)
        if isinstance(head_term, Const):
            if isinstance(query_term, Param):
                _disagree(query_term, head_term)
            return unifier if query_term.value == head_term.value else None
        if isinstance(head_term, Var):
            return unifier.map_var(head_term.name, query_term)
        return None  # a constant oid never equals a fresh semantic oid
    if isinstance(query_term, Var):
        if query_term.is_anonymous:
            return unifier
        return unifier.map_var(query_term.name, head_term)
    if isinstance(query_term, SemOidTerm) and isinstance(head_term, SemOidTerm):
        if (
            query_term.functor != head_term.functor
            or len(query_term.args) != len(head_term.args)
        ):
            return None
        current: Unifier | None = unifier
        for qa, ha in zip(query_term.args, head_term.args):
            current = _unify_slot(qa, ha, current, slot=slot)
            if current is None:
                return None
        return current
    return None


def unify_with_head(
    query_pattern: Pattern, head: Pattern, push_mode: str = "complete"
) -> Iterator[Unifier]:
    """All unifiers matching ``query_pattern`` against rule head ``head``.

    Both patterns must already be renamed apart.  Yields raw (not yet
    finalized) unifiers; the view expander finalizes after merging the
    per-condition unifiers of a multi-condition query.

    ``push_mode`` controls the enumeration of pushdown placements:

    * ``"complete"`` — every query item is *also* tried against every set
      variable of the head, even when an explicit head item unifies with
      it.  Complete w.r.t. OEM set semantics (a Rest set may contain a
      second sub-object with the same label), at the cost of more logical
      rules.
    * ``"needed"`` — pushdown is tried only for items no explicit head
      item accepts.  This reproduces the paper's presentation (one
      unifier θ1 for the 'Joe Chung' query; τ1/τ2 for the 'year' query)
      and is the cheaper, pragmatically complete choice for sources
      without duplicated labels.
    """
    if push_mode not in ("complete", "needed"):
        raise MSLSemanticError(f"unknown push_mode {push_mode!r}")
    yield from _unify_pattern(query_pattern, head, Unifier(), push_mode)


def _unify_pattern(
    query: Pattern, head: Pattern, unifier: Unifier, push_mode: str
) -> Iterator[Unifier]:
    current = _unify_slot(query.label, head.label, unifier, slot="label")
    if current is None:
        return
    current = _unify_slot(query.type, head.type, current, slot="type")
    if current is None:
        return
    current = _unify_slot(query.oid, head.oid, current, slot="oid")
    if current is None:
        return
    if query.object_var is not None and not query.object_var.is_anonymous:
        # the definition: the query variable stands for view objects of
        # the head's shape (with current mappings; finalized later)
        maybe = current.define(query.object_var.name, head)
        if maybe is None:
            return
        current = maybe

    q_value = query.value
    h_value = head.value

    if isinstance(q_value, (Const, Param)):
        if isinstance(h_value, Const):
            if isinstance(q_value, Param):
                _disagree(q_value, h_value)
            if q_value.value == h_value.value:
                yield current
        elif isinstance(h_value, Var):
            mapped = current.map_var(h_value.name, q_value)
            if mapped is not None:
                yield mapped
        return

    if isinstance(q_value, Var):
        if q_value.is_anonymous:
            yield current
            return
        if isinstance(h_value, (Const, Var)):
            mapped = current.map_var(q_value.name, h_value)
            if mapped is not None:
                yield mapped
            return
        if isinstance(h_value, SetPattern):
            # the query variable binds the view object's sub-object set;
            # record its structure as a definition
            defined = current.define(q_value.name, h_value)
            if defined is not None:
                yield defined
            return
        return

    if isinstance(q_value, SetPattern):
        if isinstance(h_value, SetPattern):
            yield from _unify_set(q_value, h_value, current, push_mode)
            return
        if isinstance(h_value, Var):
            # every query item becomes a condition attached to the head's
            # set-valued variable
            result: Unifier | None = current
            for item in q_value.items:
                if isinstance(item, VarItem):
                    return  # bare variable in a query tail: rejected upstream
                if item.descendant:
                    return  # cannot push a descendant item into a variable
                assert result is not None
                result = result.push_condition(h_value.name, item.pattern)
            if q_value.rest is not None and result is not None:
                result = result.map_var(q_value.rest.var.name, h_value)
            if result is not None:
                yield result
            return
        return


def _unify_items(
    index: int,
    used: frozenset[int],
    current: Unifier,
    query_items: list,
    head_items: list[PatternItem],
    head_vars: list[Var],
    push_mode: str,
) -> Iterator[tuple[frozenset[int], Unifier]]:
    """Place ``query_items[index:]``: (head positions used, unifier)."""
    if index == len(query_items):
        yield used, current
        return
    item = query_items[index]
    if isinstance(item, VarItem):
        return  # bare variables are head-only; queries never have them
    # option A: unify with an unused explicit head item
    if not item.descendant:
        direct_hit = False
        for position, head_item in enumerate(head_items):
            if position in used or head_item.descendant:
                continue
            for extended in _unify_pattern(
                item.pattern, head_item.pattern, current, push_mode
            ):
                direct_hit = True
                yield from _unify_items(
                    index + 1, used | {position}, extended,
                    query_items, head_items, head_vars, push_mode,
                )
        # option B: push into any head set variable
        if push_mode == "complete" or not direct_hit:
            for head_var in head_vars:
                pushed = current.push_condition(head_var.name, item.pattern)
                yield from _unify_items(
                    index + 1, used, pushed,
                    query_items, head_items, head_vars, push_mode,
                )
    # descendant query items are handled by the mediator's
    # materialization fallback (see Mediator.answer) — no static
    # pushdown is attempted here.


def _unify_set(
    query_set: SetPattern,
    head_set: SetPattern,
    unifier: Unifier,
    push_mode: str,
) -> Iterator[Unifier]:
    """Containment matching of query braces into head braces.

    Each query item either unifies with a distinct explicit head item or
    is pushed into one of the head's set variables (``Rest1``, ...).
    All combinations are enumerated — the τ1/τ2 multiplicity.
    """
    head_items = [
        item for item in head_set.items if isinstance(item, PatternItem)
    ]
    head_vars = [
        item.var
        for item in head_set.items
        if isinstance(item, VarItem) and not item.var.is_anonymous
    ]
    # a head-level '| Rest' splices like a bare variable, so it is a
    # pushdown target exactly like a VarItem
    if head_set.rest is not None and not head_set.rest.var.is_anonymous:
        head_vars.append(head_set.rest.var)
    query_items = list(query_set.items)

    any_descendant = any(
        isinstance(item, PatternItem) and item.descendant
        for item in query_items
    )
    if any_descendant:
        return

    for used, current in _unify_items(
        0, frozenset(), unifier, query_items, head_items, head_vars, push_mode
    ):
        if query_set.rest is None:
            yield current
            continue
        # the query's rest variable stands for the head structure not
        # consumed by the query's explicit items (head-level rest vars
        # were folded into head_vars above)
        leftovers: list[PatternItem | VarItem] = [
            item
            for position, item in enumerate(head_items)
            if position not in used
        ]
        leftovers.extend(VarItem(v) for v in head_vars)
        defined = current.define(
            query_set.rest.var.name, SetPattern(tuple(leftovers), None)
        )
        if defined is not None:
            yield defined

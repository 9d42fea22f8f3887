"""Properties of the one walk over the MSL tree (:mod:`repro.msl.walk`).

Every inventory and rewrite built on the walk is compared with a
reference that shares no code with it: :func:`reference_slots` and
:func:`reference_rebuild` below reach every term of the frozen AST
dataclasses through ``dataclasses.fields``, and name a slot's kind by
the field it sits in.  Generated rules reach every slot kind: object
variables, brace variables, Rest conditions, semantic oids (with
parameters inside), types, oids, comparisons and external calls.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mediator.optimizer import _parameterizable_vars, _parameterize
from repro.msl.analysis import (
    condition_variables,
    rename_apart,
    rename_rule_variables,
    tail_variables,
)
from repro.msl.ast import (
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
from repro.msl.lift import lift, param_names
from repro.msl.substitute import (
    head_variables,
    pattern_params,
    pattern_variables,
    rule_params,
    subst_pattern,
    substitute_params,
)
from repro.msl.walk import slots

from tests.property.test_lift_properties import labels
from tests.property.test_lift_properties import patterns as lift_patterns
from tests.property.test_lift_properties import values

# -- a reference walk over the dataclasses --------------------------------

#: The kind of a term by the field that holds it.
FIELD_KINDS = {
    (Pattern, "label"): "label",
    (Pattern, "value"): "value",
    (Pattern, "type"): "type",
    (Pattern, "oid"): "oid",
    (Pattern, "object_var"): "object variable",
    (VarItem, "var"): "item variable",
    (RestSpec, "var"): "rest variable",
    (SemOidTerm, "args"): "semantic-oid argument",
    (Comparison, "left"): "operand",
    (Comparison, "right"): "operand",
    (ExternalCall, "args"): "argument",
    (Rule, "head"): "object variable",  # a bare head variable
}

TERMS = (Const, Var, Param)
BINDERS = ("object variable", "item variable", "rest variable")


def reference_slots(node, kind="value", out=None):
    """``[(kind, term)]`` for every term in ``node``, in field order."""
    out = [] if out is None else out
    if isinstance(node, tuple):
        for member in node:
            reference_slots(member, kind, out)
    elif isinstance(node, TERMS + (SemOidTerm,)):
        out.append((kind, node))
        if isinstance(node, SemOidTerm):
            reference_slots(node.args, "semantic-oid argument", out)
    elif dataclasses.is_dataclass(node):
        for field in _fields_in_text_order(node):
            child = getattr(node, field.name)
            if child is not None:
                reference_slots(
                    child, FIELD_KINDS.get((type(node), field.name)), out
                )
    return out


def _fields_in_text_order(node):
    """A pattern reads ``X:<oid label type value>``."""
    fields = dataclasses.fields(node)
    if isinstance(node, Pattern):
        order = ["object_var", "oid", "label", "type", "value"]
        return sorted(fields, key=lambda f: order.index(f.name))
    return fields


def reference_rebuild(node, fn, kind="value"):
    """``node`` with ``fn(kind, term)`` in place of every term (a
    semantic-oid term is rebuilt from its arguments)."""
    if isinstance(node, tuple):
        return tuple(reference_rebuild(m, fn, kind) for m in node)
    if isinstance(node, SemOidTerm):
        return SemOidTerm(
            node.functor,
            reference_rebuild(node.args, fn, "semantic-oid argument"),
        )
    if isinstance(node, TERMS):
        return fn(kind, node)
    if dataclasses.is_dataclass(node):
        return type(node)(
            **{
                field.name: reference_rebuild(
                    getattr(node, field.name),
                    fn,
                    FIELD_KINDS.get((type(node), field.name)),
                )
                for field in dataclasses.fields(node)
            }
        )
    return node  # None, strings, booleans


def reference_variables(node):
    return {
        term.name
        for _, term in reference_slots(node)
        if isinstance(term, Var) and term.name != "_"
    }


def reference_params(node):
    return tuple(
        dict.fromkeys(
            term.name
            for _, term in reference_slots(node)
            if isinstance(term, Param)
        )
    )


# -- generated rules that reach every slot kind ----------------------------

names = st.sampled_from(["X", "Y", "Z", "R", "_"])
params = st.sampled_from(["p", "q"]).map(Param)
terms = st.one_of(names.map(Var), values.map(Const), params)
semoids = st.builds(
    SemOidTerm,
    st.sampled_from(["f", "g"]),
    st.lists(terms, max_size=2).map(tuple),
)


@st.composite
def rich_patterns(draw, depth=2):
    """The lift properties' patterns, with object variables, types,
    oids, semantic oids, parameters, brace variables and Rest
    conditions written by hand."""
    if not depth or draw(st.booleans()):
        base = draw(lift_patterns(depth))
        return Pattern(
            base.label,
            base.value,
            draw(st.none() | terms),
            draw(st.none() | terms | semoids),
            draw(st.none() | names.map(Var)),
        )
    items = tuple(
        draw(
            st.one_of(
                st.builds(
                    PatternItem, rich_patterns(depth - 1), st.booleans()
                ),
                names.map(lambda n: VarItem(Var(n))),
            )
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    rest = draw(
        st.none()
        | st.builds(
            RestSpec,
            names.map(Var),
            st.lists(rich_patterns(depth - 1), max_size=2).map(tuple),
        )
    )
    return Pattern(
        draw(st.one_of(labels.map(Const), names.map(Var), params)),
        draw(st.one_of(terms, semoids, st.just(SetPattern(items, rest)))),
        draw(st.none() | terms),
        draw(st.none() | semoids),
        draw(st.none() | names.map(Var)),
    )


conditions = st.one_of(
    st.builds(PatternCondition, rich_patterns(), st.sampled_from(["s", None])),
    st.builds(Comparison, terms, st.sampled_from(["=", "<"]), terms),
    st.builds(
        ExternalCall,
        st.just("f"),
        st.lists(terms | semoids, max_size=2).map(tuple),
    ),
)

rules = st.builds(
    Rule,
    st.lists(rich_patterns() | names.map(Var), min_size=1, max_size=2).map(
        tuple
    ),
    st.lists(conditions, min_size=1, max_size=3).map(tuple),
)


# -- the properties -----------------------------------------------------------


class TestInventories:
    @given(rules)
    @settings(max_examples=100)
    def test_slots_are_the_fields(self, rule):
        assert [(kind, term) for kind, term, _ in slots(rule)] == (
            reference_slots(rule)
        )

    @given(rules)
    @settings(max_examples=100)
    def test_variables_and_parameters(self, rule):
        assert head_variables(rule.head) == reference_variables(rule.head)
        assert tail_variables(rule) == reference_variables(rule.tail)
        assert rule_params(rule) == reference_params(rule)
        for condition in rule.tail:
            assert condition_variables(condition) == reference_variables(
                condition
            )
            if isinstance(condition, PatternCondition):
                pattern = condition.pattern
                assert pattern_variables(pattern) == reference_variables(
                    pattern
                )
                assert pattern_params(pattern) == reference_params(pattern)


def _renamed(kind, term):
    if isinstance(term, Var) and term.name != "_":
        return Var(term.name + "_1")
    return term


class TestRewrites:
    @given(rules)
    @settings(max_examples=100)
    def test_rename_apart_and_back(self, rule):
        renamed = rename_apart(rule, "_1")
        assert renamed == reference_rebuild(rule, _renamed)
        back = rename_rule_variables(renamed, lambda name: name[:-2])
        assert back == rule

    @given(rules, st.dictionaries(st.sampled_from(["p", "q"]), values))
    @settings(max_examples=100)
    def test_substitute_params(self, rule, filled):
        def fill(kind, term):
            if isinstance(term, Param) and term.name in filled:
                return Const(filled[term.name])
            return term

        result = substitute_params(rule, filled, partial=True)
        assert result == reference_rebuild(rule, fill)
        # what holds no filled parameter comes back as the same object
        parts = zip(rule.head + rule.tail, result.head + result.tail)
        for before, after in parts:
            if not set(reference_params(before)) & set(filled):
                assert after is before
        if not set(reference_params(rule)) & set(filled):
            assert result is rule

    @given(rules)
    @settings(max_examples=100)
    def test_substitute_params_undoes_lift(self, rule):
        template, constants = lift(rule)
        filled = dict(zip(param_names(len(constants)), constants))
        assert substitute_params(template, filled, partial=True) == rule

    @given(
        rich_patterns(),
        st.dictionaries(st.sampled_from(["X", "Y", "Z", "R"]), values),
    )
    @settings(max_examples=100)
    def test_subst_pattern(self, pattern, bindings):
        def bound(kind, term):
            if (
                isinstance(term, Var)
                and term.name in bindings
                and kind not in BINDERS
            ):
                return Const(bindings[term.name])
            return term

        assert subst_pattern(pattern, bindings) == reference_rebuild(
            pattern, bound
        )
        assert subst_pattern(pattern, {}) is pattern


class TestParameterization:
    @given(rich_patterns())
    @settings(max_examples=100)
    def test_declared_parameters_are_the_replaced_ones(self, pattern):
        """A bind join declares as ``$`` parameters exactly the
        variables its template then holds as parameters — semantic-oid
        arguments included."""
        names = _parameterizable_vars(pattern)
        template = _parameterize(pattern, names)
        added = set(pattern_params(template)) - set(pattern_params(pattern))
        assert added == names

"""Unit tests for substitution, head instantiation, and the reference
evaluator."""

import pytest

from repro.external import default_registry
from repro.msl import (
    Bindings,
    Comparison,
    Const,
    EMPTY_BINDINGS,
    MSLInstantiationError,
    MSLSemanticError,
    Var,
    evaluate_comparison,
    evaluate_rule,
    instantiate_head_item,
    instantiate_params_in_pattern,
    parse_pattern,
    parse_rule,
    pattern_variables,
)
from repro.msl.evaluate import compare_values
from repro.oem import OidGenerator, SemanticOid, atom, obj, parse_oem, to_inline


def env(**values):
    return Bindings(values)


class TestPatternVariables:
    def test_collects_all_slots(self):
        p = parse_pattern("X:<I L T {<a A> | R:{<c C>}}>")
        assert pattern_variables(p) == {"X", "I", "L", "T", "A", "R", "C"}

    def test_anonymous_excluded(self):
        assert pattern_variables(parse_pattern("<a _>")) == set()


class TestParamInstantiation:
    def test_fills_label_and_value(self):
        p = parse_pattern("<$R {<first_name $FN> | Rest2}>")
        filled = instantiate_params_in_pattern(
            p, {"R": "employee", "FN": "Joe"}
        )
        assert str(filled) == "<employee {<first_name 'Joe'> | Rest2}>"

    def test_missing_param_raises(self):
        with pytest.raises(MSLInstantiationError, match="no value"):
            instantiate_params_in_pattern(parse_pattern("<$R {}>"), {})


class TestHeadInstantiation:
    def test_atomic_head(self):
        (o,) = instantiate_head_item(
            parse_pattern("<name N>"), env(N="Joe"), OidGenerator()
        )
        assert (o.label, o.value) == ("name", "Joe")

    def test_set_flattening(self):
        rest = (atom("e_mail", "x@cs"), atom("office", "G4"))
        (o,) = instantiate_head_item(
            parse_pattern("<p {<name N> Rest}>"),
            env(N="Joe", Rest=rest),
            OidGenerator(),
        )
        assert [c.label for c in o.children] == ["name", "e_mail", "office"]

    def test_object_var_in_braces_included(self):
        inner = atom("name", "Joe")
        (o,) = instantiate_head_item(
            parse_pattern("<p {X}>"), env(X=inner), OidGenerator()
        )
        assert o.children[0] == inner

    def test_atom_in_braces_rejected(self):
        with pytest.raises(MSLInstantiationError, match="atom"):
            instantiate_head_item(
                parse_pattern("<p {X}>"), env(X=3), OidGenerator()
            )

    def test_duplicate_children_collapse(self):
        dup = (atom("year", 3),)
        (o,) = instantiate_head_item(
            parse_pattern("<p {A B}>"),
            env(A=dup, B=(atom("year", 3, oid="&z"),)),
            OidGenerator(),
        )
        assert len(o.children) == 1

    def test_bare_head_var_object(self):
        inner = atom("name", "Joe")
        result = instantiate_head_item(Var("X"), env(X=inner), OidGenerator())
        assert result == [inner]

    def test_bare_head_var_set_flattens(self):
        members = (atom("a", 1), atom("b", 2))
        result = instantiate_head_item(Var("X"), env(X=members), OidGenerator())
        assert len(result) == 2

    def test_bare_head_var_atom_rejected(self):
        with pytest.raises(MSLInstantiationError):
            instantiate_head_item(Var("X"), env(X=3), OidGenerator())

    def test_unbound_head_var_rejected(self):
        with pytest.raises(MSLInstantiationError, match="unbound"):
            instantiate_head_item(Var("X"), EMPTY_BINDINGS, OidGenerator())

    def test_label_variable(self):
        (o,) = instantiate_head_item(
            parse_pattern("<R V>"), env(R="student", V=3), OidGenerator()
        )
        assert o.label == "student" and o.value == 3

    def test_non_string_label_rejected(self):
        with pytest.raises(MSLInstantiationError, match="non-string"):
            instantiate_head_item(
                parse_pattern("<R V>"), env(R=3, V=3), OidGenerator()
            )

    def test_semantic_oid_constructed(self):
        (o,) = instantiate_head_item(
            parse_pattern("<&pub(T) publication {<title T>}>"),
            env(T="MedMaker"),
            OidGenerator(),
        )
        assert isinstance(o.oid, SemanticOid)
        assert o.oid == SemanticOid("pub", ["MedMaker"])

    def test_head_rest_spliced(self):
        (o,) = instantiate_head_item(
            parse_pattern("<p {<name N> | R}>"),
            env(N="x", R=(atom("extra", 1),)),
            OidGenerator(),
        )
        assert [c.label for c in o.children] == ["name", "extra"]

    def test_set_var_in_value_slot_makes_set(self):
        (o,) = instantiate_head_item(
            parse_pattern("<wrap V>"),
            env(V=(atom("a", 1),)),
            OidGenerator(),
        )
        assert o.is_set and o.children[0].label == "a"


class TestComparisons:
    def test_all_operators(self):
        cases = [
            ("=", 3, 3, True), ("=", 3, 4, False),
            ("!=", 3, 4, True), ("!=", 3, 3, False),
            ("<", 3, 4, True), ("<=", 3, 3, True),
            (">", 4, 3, True), (">=", 3, 4, False),
        ]
        for op, left, right, expected in cases:
            comp = Comparison(Const(left), op, Const(right))
            assert evaluate_comparison(comp, EMPTY_BINDINGS) is expected

    def test_string_ordering(self):
        comp = Comparison(Const("abc"), "<", Const("abd"))
        assert evaluate_comparison(comp, EMPTY_BINDINGS)

    def test_type_mismatch_is_false_not_error(self):
        comp = Comparison(Const("3"), "<", Const(4))
        assert evaluate_comparison(comp, EMPTY_BINDINGS) is False

    def test_mismatched_equality_is_false(self):
        comp = Comparison(Const("3"), "=", Const(3))
        assert not evaluate_comparison(comp, EMPTY_BINDINGS)

    def test_unbound_operand_raises(self):
        comp = Comparison(Var("X"), "=", Const(3))
        with pytest.raises(MSLSemanticError, match="unbound"):
            evaluate_comparison(comp, EMPTY_BINDINGS)


NAN = float("nan")
OPS = ("=", "!=", "<", "<=", ">", ">=")

#: ``compare_values(op, left, right)`` for every operator, written out
#: by hand: equality needs comparable atoms (bools only with bools,
#: numbers across int and float, anything else only within its type),
#: order needs two numbers or two strings and never a bool, and NaN
#: equals nothing, itself included.
COMPARE_TABLE = [
    # left, right, =, !=, <, <=, >, >=
    (1, 1, True, False, False, True, False, True),
    (1, 2, False, True, True, True, False, False),
    (1, 1.0, True, False, False, True, False, True),
    (2.5, 1, False, True, False, False, True, True),
    (1.0, 2, False, True, True, True, False, False),
    (True, True, True, False, False, False, False, False),
    (True, False, False, True, False, False, False, False),
    (True, 1, False, True, False, False, False, False),
    (False, 0, False, True, False, False, False, False),
    (0, False, False, True, False, False, False, False),
    (True, 1.0, False, True, False, False, False, False),
    ("a", "b", False, True, True, True, False, False),
    ("a", "a", True, False, False, True, False, True),
    ("b", "a", False, True, False, False, True, True),
    ("1", 1, False, True, False, False, False, False),
    ("a", True, False, True, False, False, False, False),
    (b"a", b"a", True, False, False, False, False, False),
    (b"a", b"b", False, True, False, False, False, False),
    (b"a", "a", False, True, False, False, False, False),
    (None, None, True, False, False, False, False, False),
    (None, 0, False, True, False, False, False, False),
    ("", None, False, True, False, False, False, False),
    (NAN, NAN, False, True, False, False, False, False),
    (NAN, 1, False, True, False, False, False, False),
    (1.5, NAN, False, True, False, False, False, False),
    (NAN, "a", False, True, False, False, False, False),
    (NAN, None, False, True, False, False, False, False),
]


class TestCompareValues:
    @pytest.mark.parametrize(
        "left, right, truths",
        [(row[0], row[1], row[2:]) for row in COMPARE_TABLE],
        ids=[f"{row[0]!r}-{row[1]!r}" for row in COMPARE_TABLE],
    )
    def test_truth_table(self, left, right, truths):
        assert [compare_values(op, left, right) for op in OPS] == list(
            truths
        )

    def test_unknown_operator_raises(self):
        with pytest.raises(MSLSemanticError, match="unknown comparison"):
            compare_values("<>", 1, 2)


class TestEvaluateRule:
    @pytest.fixture
    def forest(self):
        return parse_oem(
            """
            <&p1, person, set, {&n1,&y1}>
              <&n1, name, string, 'Ann'>
              <&y1, year, integer, 2>
            <&p2, person, set, {&n2,&y2}>
              <&n2, name, string, 'Bob'>
              <&y2, year, integer, 4>
            """
        )

    def test_basic(self, forest):
        rule = parse_rule("<who N> :- <person {<name N>}>@s")
        result = evaluate_rule(rule, {"s": forest})
        assert sorted(o.value for o in result) == ["Ann", "Bob"]

    def test_comparison_filters(self, forest):
        rule = parse_rule("<who N> :- <person {<name N> <year Y>}>@s AND Y > 3")
        result = evaluate_rule(rule, {"s": forest})
        assert [o.value for o in result] == ["Bob"]

    def test_external_binds(self, forest):
        registry = default_registry()
        registry.declare("upper", ("b", "f"), "to_upper")
        rule = parse_rule(
            "<who U> :- <person {<name N>}>@s AND upper(N, U)"
        )
        result = evaluate_rule(rule, {"s": forest}, registry)
        assert sorted(o.value for o in result) == ["ANN", "BOB"]

    def test_external_check_mode(self, forest):
        registry = default_registry()
        registry.declare("upper", ("b", "f"), "to_upper")
        rule = parse_rule(
            "<who N> :- <person {<name N>}>@s AND upper(N, 'ANN')"
        )
        result = evaluate_rule(rule, {"s": forest}, registry)
        assert [o.value for o in result] == ["Ann"]

    def test_join_across_sources(self):
        left = parse_oem("<&a, l, set, {<&k, k, string, 'x'>}>")
        right = parse_oem("<&b, r, set, {<&k2, k, string, 'x'>}>")
        rule = parse_rule("<m K> :- <l {<k K>}>@left AND <r {<k K>}>@right")
        result = evaluate_rule(rule, {"left": left, "right": right})
        assert [o.value for o in result] == ["x"]

    def test_duplicate_elimination(self):
        forest = parse_oem(
            "<&1, person, set, {<&n, name, string, 'A'>}>"
            "<&2, person, set, {<&m, name, string, 'A'>}>"
        )
        rule = parse_rule("<who N> :- <person {<name N>}>@s")
        assert len(evaluate_rule(rule, {"s": forest})) == 1

    def test_missing_source_raises(self, forest):
        rule = parse_rule("<a X> :- <person {<name X>}>@other")
        with pytest.raises(MSLSemanticError, match="no data supplied"):
            evaluate_rule(rule, {"s": forest})

    def test_unschedulable_external_raises(self, forest):
        registry = default_registry()
        registry.declare("upper", ("b", "f"), "to_upper")
        # 'upper' needs its first argument bound; U and W never get bound
        rule = parse_rule("<a U> :- <person {<name _>}>@s AND upper(W, U)")
        with pytest.raises(MSLSemanticError, match="cannot schedule"):
            evaluate_rule(rule, {"s": forest}, registry)

    def test_empty_result(self, forest):
        rule = parse_rule("<who N> :- <person {<name N> <year 99>}>@s")
        assert evaluate_rule(rule, {"s": forest}) == []

    def test_multi_item_head(self, forest):
        rule = parse_rule(
            "<who N> <age Y> :- <person {<name N> <year Y>}>@s"
        )
        result = evaluate_rule(rule, {"s": forest})
        labels = sorted(o.label for o in result)
        assert labels == ["age", "age", "who", "who"]

    def test_schematic_label_variable(self):
        forest = parse_oem(
            "<&1, employee, set, {<&f, first_name, string, 'Joe'>}>"
        )
        rule = parse_rule("<rel R> :- <R {<first_name _>}>@s")
        result = evaluate_rule(rule, {"s": forest})
        assert [o.value for o in result] == ["employee"]

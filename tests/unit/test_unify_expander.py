"""Unit tests for unifiers and the view expander."""

import pytest

from repro.mediator import (
    ExpansionError,
    Unifier,
    ViewExpander,
    unify_with_head,
)
from repro.msl import (
    Const,
    PatternCondition,
    Var,
    parse_pattern,
    parse_query,
    parse_specification,
)


def unifiers(query_text, head_text, push_mode="complete"):
    return [
        u.finalized()
        for u in unify_with_head(
            parse_pattern(query_text), parse_pattern(head_text), push_mode
        )
    ]


HEAD = "<cs_person {<name N> <rel R> Rest1 Rest2}>"


class TestUnifyWithHead:
    def test_label_mismatch_no_unifier(self):
        assert unifiers("<other {}>", HEAD) == []

    def test_direct_item_match_maps_rule_var(self):
        results = unifiers("<cs_person {<name 'Joe Chung'>}>", HEAD, "needed")
        assert len(results) == 1
        assert results[0].mappings["N"] == Const("Joe Chung")

    def test_variable_to_variable_mapping(self):
        results = unifiers("<cs_person {<name X>}>", HEAD, "needed")
        assert results[0].mappings["X"] == Var("N")

    def test_push_into_both_set_vars(self):
        results = unifiers("<cs_person {<year 3>}>", HEAD)
        pushed = sorted(
            name for u in results for name in u.set_conditions
        )
        assert pushed == ["Rest1", "Rest2"]

    def test_complete_mode_also_pushes_matched_items(self):
        results = unifiers("<cs_person {<name 'J C'>}>", HEAD, "complete")
        assert len(results) == 3  # direct + Rest1 + Rest2

    def test_object_var_definition(self):
        results = unifiers("JC:<cs_person {<name 'Joe Chung'>}>", HEAD, "needed")
        definition = results[0].definitions["JC"]
        assert "cs_person" in str(definition)

    def test_query_rest_defines_leftovers(self):
        results = unifiers("<cs_person {<name X> | QR}>", HEAD, "needed")
        leftover = str(results[0].definitions["QR"])
        assert "rel" in leftover and "Rest1" in leftover and "Rest2" in leftover
        assert "name" not in leftover

    def test_value_var_against_braces_defined(self):
        results = unifiers("<cs_person V>", HEAD, "needed")
        assert "V" in results[0].definitions

    def test_constant_value_only_equal(self):
        assert unifiers("<a 'x'>", "<a 'x'>") != []
        assert unifiers("<a 'x'>", "<a 'y'>") == []

    def test_head_var_value_takes_query_constant(self):
        results = unifiers("<a 'x'>", "<a V>")
        assert results[0].mappings["V"] == Const("x")

    def test_inconsistent_joined_items_rejected(self):
        # the same rule variable cannot be both 'a' and 'b'
        results = unifiers("<p {<k 'a'> <l 'b'>}>", "<p {<k V> <l V>}>")
        assert results == []

    def test_consistent_joined_items_accepted(self):
        results = unifiers("<p {<k 'a'> <l 'a'>}>", "<p {<k V> <l V>}>")
        assert len(results) == 1

    def test_semantic_oid_head_matches_anonymous_query(self):
        results = unifiers(
            "<publication {<title 'X'>}>",
            "<&pub(T, Y) publication {<title T> <year Y>}>",
            "needed",
        )
        assert len(results) == 1
        assert results[0].mappings["T"] == Const("X")

    def test_two_query_items_same_head_item_injective(self):
        results = unifiers(
            "<p {<a X> <a Y>}>", "<p {<a V>}>", "needed"
        )
        assert results == []


class TestUnifierAlgebra:
    def test_map_var_conflict(self):
        u = Unifier()
        u1 = u.map_var("X", Const(1))
        assert u1.map_var("X", Const(2)) is None
        assert u1.map_var("X", Const(1)) is u1

    def test_transitive_union(self):
        u = Unifier().map_var("X", Var("Y"))
        u2 = u.map_var("X", Const(3))
        assert u2.resolve(Var("Y")) == Const(3)
        assert u2.resolve(Var("X")) == Const(3)

    def test_merge_conflicting(self):
        a = Unifier().map_var("X", Const(1))
        b = Unifier().map_var("X", Const(2))
        assert a.merge(b) is None

    def test_merge_accumulates_conditions(self):
        a = Unifier().push_condition("R", parse_pattern("<y 1>"))
        b = Unifier().push_condition("R", parse_pattern("<z 2>"))
        merged = a.merge(b)
        assert len(merged.set_conditions["R"]) == 2

    def test_str_contains_arrows(self):
        u = Unifier().map_var("N", Const("Joe"))
        u = u.define("JC", parse_pattern("<p {}>"))
        text = str(u)
        assert "->" in text and "=>" in text


SPEC = parse_specification(
    """
    <cs_person {<name N> <rel R> Rest1 Rest2}> :-
        <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
        AND decomp(N, LN, FN)
        AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
    """
)


class TestViewExpander:
    def test_r2_reproduced(self):
        expander = ViewExpander("med", SPEC, push_mode="needed")
        program = expander.expand(
            parse_query("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
        )
        assert len(program) == 1
        rule_text = str(program.rules[0])
        assert "'Joe Chung'" in rule_text
        assert "@whois" in rule_text and "@cs" in rule_text

    def test_tau1_tau2(self):
        expander = ViewExpander("med", SPEC, push_mode="needed")
        program = expander.expand(parse_query(f"S :- S:<cs_person {{<year 3>}}>@med"))
        texts = [str(r) for r in program]
        assert len(texts) == 2
        assert any("Rest1_r1:{<year 3>}" in t for t in texts)
        assert any("Rest2_r1:{<year 3>}" in t for t in texts)

    def test_non_matching_label_yields_empty_program(self):
        expander = ViewExpander("med", SPEC)
        program = expander.expand(parse_query("X :- X:<professor {}>@med"))
        assert program.is_empty()

    def test_query_must_address_mediator(self):
        expander = ViewExpander("med", SPEC)
        with pytest.raises(ExpansionError, match="no condition addressed"):
            expander.expand(parse_query("X :- X:<person {}>@whois"))

    def test_passthrough_conditions_kept(self):
        expander = ViewExpander("med", SPEC, push_mode="needed")
        program = expander.expand(
            parse_query(
                "S :- S:<cs_person {<name X>}>@med AND upper(X, U) AND X != 'q'"
            )
        )
        rule = program.rules[0].rule
        kinds = [type(c).__name__ for c in rule.tail]
        assert "ExternalCall" in kinds and "Comparison" in kinds

    def test_multi_condition_query_merges(self):
        spec = parse_specification(
            "<a {<k K> <v V>}> :- <s {<k K> <v V>}>@src"
        )
        expander = ViewExpander("m", spec, push_mode="needed")
        program = expander.expand(
            parse_query("X Y :- X:<a {<k 'q'>}>@m AND Y:<a {<v 'w'>}>@m")
        )
        # each condition picks its own renamed rule instance
        assert len(program) == 1
        rule = program.rules[0].rule
        assert len(list(rule.pattern_conditions())) == 2

    def test_provenance_recorded(self):
        expander = ViewExpander("med", SPEC, push_mode="needed")
        program = expander.expand(
            parse_query("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
        )
        assert program.rules[0].spec_rule_indexes == (0,)
        assert program.rules[0].unifier is not None

    def test_multiple_rules_union(self):
        spec = parse_specification(
            "<a {<x X>}> :- <s {<x X>}>@s1 ; <a {<x X>}> :- <t {<x X>}>@s2"
        )
        expander = ViewExpander("m", spec, push_mode="needed")
        program = expander.expand(parse_query("V :- V:<a {<x 'q'>}>@m"))
        assert len(program) == 2
        sources = {
            c.source
            for lr in program
            for c in lr.rule.pattern_conditions()
        }
        assert sources == {"s1", "s2"}

    def test_spliced_object_variable_leaves_its_conditions_in_the_tail(self):
        """``{X}`` in a query head splices X's definition in; the
        condition pushed into the view's Rest stays in the tail only."""
        spec = parse_specification("<v {<b B> | R}> :- <r {<b B> | R}>@s")
        expander = ViewExpander("m", spec, push_mode="needed")
        program = expander.expand(
            parse_query("<o {X}> :- X:<v {<a 1>}>@m")
        )
        (logical,) = program
        assert str(logical.rule) == (
            "<o {<v {<b B_r1> | R_r1}>}> :- <r {<b B_r1> | R_r1:{<a 1>}}>@s"
        )

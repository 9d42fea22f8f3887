"""Integration tests replaying Section 3's query-processing walkthrough.

* the view expansion producing rule (R2) of Section 3.1/3.2;
* the τ1/τ2 pushdown of Section 3.3 (rules Q3/Q4);
* Figure 3.6 — the physical datamerge graph execution, node by node,
  with the tables that flow between the nodes.
"""

import pytest

from repro.datasets import (
    JOE_CHUNG_QUERY,
    YEAR3_QUERY,
    build_scaled_scenario,
    build_scenario,
)
from repro.mediator import (
    ConstructorNode,
    ExternalPredNode,
    ParameterizedQueryNode,
    QueryNode,
)
from repro.msl import parse_query
from tests.reference import OEMOnly


@pytest.fixture
def scenario():
    # push_mode='needed' reproduces the paper's presentation (a single
    # unifier θ1 for Q1); trace=True records the Figure 3.6 tables;
    # semijoin off sends the paper's one Qcs per binding — the
    # set-oriented wire form is checked in TestSetOrientedBindJoin
    scenario = build_scenario(push_mode="needed", trace=True)
    scenario.mediator.semijoin = False
    return scenario


class TestViewExpansionR2:
    def test_single_rule_datamerge_program(self, scenario):
        program = scenario.mediator.expander.expand(
            parse_query(JOE_CHUNG_QUERY)
        )
        assert len(program) == 1
        text = str(program.rules[0])
        # the head of R2: the definition of JC with N replaced by the
        # constant
        assert text.startswith("<cs_person {<name 'Joe Chung'>")
        # the tail: the specification tail with 'Joe Chung' substituted
        assert "<person {<name 'Joe Chung'> <dept 'CS'>" in text
        assert "decomp('Joe Chung'" in text
        assert "@whois" in text and "@cs" in text

    def test_unifier_theta1(self, scenario):
        program = scenario.mediator.expander.expand(
            parse_query(JOE_CHUNG_QUERY)
        )
        theta = program.rules[0].unifier
        text = str(theta)
        # θ1 = [ N ↦ 'Joe Chung', JC ⇒ <cs_person {...}> ]
        assert "'Joe Chung'" in text
        assert "JC" in text and "=>" in text


class TestPushdownTau1Tau2:
    def test_two_logical_rules(self, scenario):
        program = scenario.mediator.expander.expand(parse_query(YEAR3_QUERY))
        texts = sorted(str(r) for r in program)
        assert len(texts) == 2
        joined = "\n".join(texts)
        assert "Rest1_r1:{<year 3>}" in joined  # Q3
        assert "Rest2_r1:{<year 3>}" in joined  # Q4

    def test_year3_answer_is_nick(self, scenario):
        (nick,) = scenario.mediator.answer(YEAR3_QUERY)
        assert nick.get("name") == "Nick Naive"

    def test_merging_with_existing_conditions(self, scenario):
        # a query constraining both a direct item and a pushed one
        program = scenario.mediator.expander.expand(
            parse_query(
                "S :- S:<cs_person {<name 'Nick Naive'> <year 3>}>@med"
            )
        )
        assert len(program) == 2
        (nick,) = scenario.mediator.answer(
            "S :- S:<cs_person {<name 'Nick Naive'> <year 3>}>@med"
        )
        assert nick.get("rel") == "student"


class TestFigure36GraphExecution:
    def trace_for(self, scenario, query):
        scenario.mediator.answer(query)
        return scenario.mediator.last_context.trace

    def test_node_sequence(self, scenario):
        # the paper's extractors read the carrier objects back where
        # the answers arrive: each query node emits the bindings
        trace = self.trace_for(scenario, JOE_CHUNG_QUERY)
        kinds = [type(entry.node).__name__ for entry in trace]
        assert kinds == [
            "QueryNode",
            "ExternalPredNode",
            "ParameterizedQueryNode",
            "ConstructorNode",
        ]

    def test_qw_result_table(self, scenario):
        trace = self.trace_for(scenario, JOE_CHUNG_QUERY)
        query_entry = trace[0]
        assert isinstance(query_entry.node, QueryNode)
        assert query_entry.node.source == "whois"
        # Qw's one binding (only Joe matches): N is the query's constant,
        # R = 'employee', Rest1 = { e_mail }
        (row,) = query_entry.table.rows
        values = query_entry.table.row_dict(row)
        r_column = [c for c in query_entry.table.columns if c.startswith("R_")]
        rest_column = [
            c for c in query_entry.table.columns if c.startswith("Rest1")
        ]
        assert values[r_column[0]] == "employee"
        assert [o.label for o in values[rest_column[0]]] == ["e_mail"]

    def test_extractor_table_bindings(self, scenario):
        # whois speaking OEM only answers Qw with one bind_for_whois
        # object; the extractor at the call site recovers the same row
        scenario.registry.deregister("whois")
        scenario.registry.register(OEMOnly(scenario.whois))
        trace = self.trace_for(scenario, JOE_CHUNG_QUERY)
        query_entry = trace[0]
        assert isinstance(query_entry.node, QueryNode)
        (row,) = query_entry.table.rows
        values = query_entry.table.row_dict(row)
        # R = 'employee', Rest1 = { e_mail }
        r_column = [c for c in query_entry.table.columns if c.startswith("R_")]
        rest_column = [
            c for c in query_entry.table.columns if c.startswith("Rest1")
        ]
        assert values[r_column[0]] == "employee"
        assert [o.label for o in values[rest_column[0]]] == ["e_mail"]

    def test_decomp_table(self, scenario):
        trace = self.trace_for(scenario, JOE_CHUNG_QUERY)
        external = trace[1]
        assert isinstance(external.node, ExternalPredNode)
        (row,) = external.table.rows
        values = external.table.row_dict(row)
        ln = [c for c in external.table.columns if c.startswith("LN")][0]
        fn = [c for c in external.table.columns if c.startswith("FN")][0]
        assert values[ln] == "Chung"
        assert values[fn] == "Joe"

    def test_parameterized_query_emits_qcs(self, scenario):
        trace = self.trace_for(scenario, JOE_CHUNG_QUERY)
        param = trace[2]
        assert isinstance(param.node, ParameterizedQueryNode)
        assert param.node.source == "cs"
        row = trace[1].table.row_dict(trace[1].table.rows[0])
        concrete = param.node.instantiate(row)
        text = str(concrete)
        # Qcs2 of the paper: the employee-relation query
        assert "<employee {" in text
        assert "<first_name 'Joe'>" in text
        assert "<last_name 'Chung'>" in text

    def test_constructor_output(self, scenario):
        trace = self.trace_for(scenario, JOE_CHUNG_QUERY)
        constructor = trace[-1]
        assert isinstance(constructor.node, ConstructorNode)
        (row,) = constructor.table.rows
        result = row[0]
        assert result.label == "cs_person"
        assert result.get("title") == "professor"

    def test_trace_renders_tables(self, scenario):
        scenario.mediator.answer(JOE_CHUNG_QUERY)
        rendered = scenario.mediator.engine.render_trace()
        assert "query whois" in rendered
        assert "'Joe Chung'" in rendered
        assert "construct" in rendered

    def test_queries_sent_matches_paper_plan(self, scenario):
        # one query to whois, then one parameterized query per binding
        # (only Joe matches) to cs
        scenario.mediator.answer(JOE_CHUNG_QUERY)
        assert scenario.mediator.last_context.queries_sent == {
            "whois": 1,
            "cs": 1,
        }

    def test_year3_sends_one_cs_query_per_binding(self, scenario):
        scenario.mediator.answer(YEAR3_QUERY)
        sent = scenario.mediator.last_context.queries_sent
        # two logical rules -> two whois queries; Q3's whois query yields
        # one binding (Nick) -> one cs query; Q4's whois query yields two
        # bindings -> two cs queries
        assert sent["whois"] == 2
        assert sent["cs"] == 3


class TestSetOrientedBindJoin:
    """The same plan with batching on (the default): per-tuple in
    semantics, one ``cs`` call per relation label on the wire."""

    def test_year3_ships_one_batch_per_relation(self):
        per_tuple = build_scenario(push_mode="needed")
        per_tuple.mediator.semijoin = False
        batched = build_scenario(push_mode="needed")
        expected = per_tuple.mediator.query(YEAR3_QUERY)
        result = batched.mediator.query(YEAR3_QUERY)
        assert [repr(o) for o in result] == [repr(o) for o in expected]
        context = batched.mediator.last_context
        # Q3 probes {student}, Q4 probes {employee, student}
        assert context.queries_sent == {"whois": 2, "cs": 3}
        assert context.semijoin_batches == 3
        assert context.semijoin_probes == 3

    def test_batch_is_the_projection_query_plus_in_filters(self):
        scenario = build_scenario(push_mode="needed")
        shipped = []
        answer = scenario.cs.answer
        scenario.cs.answer = lambda query: shipped.append(query) or answer(query)
        scenario.mediator.answer(JOE_CHUNG_QUERY)
        (batch,) = shipped
        assert batch.is_semijoin
        # $R instantiated per group; $FN / $LN travel as IN filters
        assert "<employee {<first_name FN_r1> <last_name LN_r1>" in str(
            batch.rule
        )
        assert [(f.label, f.values) for f in batch.filters] == [
            ("first_name", frozenset({"Joe"})),
            ("last_name", frozenset({"Chung"})),
        ]

    @pytest.mark.parametrize("people", [50, 200, 800])
    def test_export_calls_do_not_grow_with_people(self, people):
        scenario = build_scaled_scenario(people)
        cs = scenario.cs
        examined = []
        candidates = cs.semijoin_candidates
        cs.semijoin_candidates = lambda query: (
            examined.append(len(found := candidates(query))) or found
        )
        scenario.mediator.export()
        relations = {obj.get("relation") for obj in scenario.whois.export()}
        assert 1 <= cs.queries_answered <= len(relations)
        # each relation is scanned once: candidates are bounded by the
        # tuples cs holds, however many probes the batch carries
        assert sum(examined) <= len(cs.export()) <= people

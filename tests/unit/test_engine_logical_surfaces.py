"""Unit tests for the engine/logical/mediator surfaces not covered
elsewhere: trace rendering, empty programs, explain output, and the
LogicalDatamergeProgram API."""

import pytest

from repro.datasets import JOE_CHUNG_QUERY, build_scenario
from repro.mediator import (
    DatamergeEngine,
    ExecutionContext,
    LogicalDatamergeProgram,
    LogicalRule,
    TraceEntry,
)
from repro.mediator.plan import PhysicalPlan, UnionNode
from repro.msl import parse_query, parse_rule


class TestLogicalProgram:
    def test_len_iter_empty(self):
        program = LogicalDatamergeProgram(())
        assert len(program) == 0
        assert list(program) == []
        assert program.is_empty()

    def test_str_joins_rules(self):
        rule = LogicalRule(parse_rule("<a X> :- <b X>@s"))
        program = LogicalDatamergeProgram((rule, rule))
        assert str(program).count(":-") == 2

    def test_logical_rule_str(self):
        rule = LogicalRule(parse_rule("<a X> :- <b X>@s"))
        assert str(rule) == "<a X> :- <b X>@s"


class TestEmptyProgramExecution:
    def test_empty_union_plan_yields_no_objects(self):
        scenario = build_scenario()
        plan = PhysicalPlan(UnionNode(()))
        context = ExecutionContext(
            sources=scenario.registry,
            externals=scenario.mediator.externals,
        )
        engine = DatamergeEngine()
        assert engine.execute_to_objects(plan, context) == []
        assert context.total_queries == 0

    def test_mediator_answer_empty_program(self):
        scenario = build_scenario()
        assert scenario.mediator.answer("X :- X:<ghost {}>@med") == []
        # no source was ever contacted
        assert scenario.mediator.last_context.total_queries == 0


class TestTraceRendering:
    def test_trace_entry_render(self):
        scenario = build_scenario(trace=True)
        scenario.mediator.answer(JOE_CHUNG_QUERY)
        trace = scenario.mediator.last_context.trace
        assert trace
        for entry in trace:
            assert isinstance(entry, TraceEntry)
            rendered = entry.render()
            assert entry.node.describe(entry.params) in rendered

    def test_trace_disabled_by_default(self):
        scenario = build_scenario()
        scenario.mediator.answer(JOE_CHUNG_QUERY)
        assert scenario.mediator.last_context.trace is None

    def test_render_trace_empty_before_any_run(self):
        engine = DatamergeEngine(trace=True)
        assert engine.render_trace() == ""


class TestExplain:
    def test_multi_rule_explain(self):
        scenario = build_scenario()
        text = scenario.mediator.explain("X :- X:<cs_person {<year 3>}>@med")
        assert "rule(s)" in text
        assert "union" in text

    def test_explain_empty_program(self):
        scenario = build_scenario()
        text = scenario.mediator.explain("X :- X:<ghost {}>@med")
        assert "0 rule(s)" in text

    def test_explain_accepts_parsed_query(self):
        scenario = build_scenario()
        text = scenario.mediator.explain(parse_query(JOE_CHUNG_QUERY))
        assert "query whois" in text


class TestContextAccounting:
    def test_per_source_counters(self):
        scenario = build_scenario(push_mode="needed")
        scenario.mediator.answer(JOE_CHUNG_QUERY)
        context = scenario.mediator.last_context
        assert context.queries_sent == {"whois": 1, "cs": 1}
        assert context.objects_received["whois"] == 1
        assert context.total_objects == context.objects_received[
            "whois"
        ] + context.objects_received["cs"]

    def test_statistics_fed_by_context(self):
        scenario = build_scenario(push_mode="needed")
        assert not scenario.mediator.statistics.has_observations(
            "whois", "person"
        )
        scenario.mediator.answer(JOE_CHUNG_QUERY)
        assert scenario.mediator.statistics.has_observations(
            "whois", "person"
        )

"""Unit tests for the cost-based optimizer and the statistics store."""

import pytest

from repro.datasets import (
    WHOIS_LIMITED_CAPABILITY,
    build_scenario,
)
from repro.mediator import (
    CostBasedOptimizer,
    ExecutionContext,
    DatamergeEngine,
    FilterNode,
    JoinNode,
    LogicalRule,
    Mediator,
    ParameterizedQueryNode,
    PlanningError,
    QueryNode,
    SourceStatistics,
)
from repro.mediator.statistics import count_constant_conditions
from repro.msl import parse_pattern, parse_rule
from repro.oem import atom, obj
from repro.wrappers import FULL_CAPABILITY, OEMStoreWrapper, SourceRegistry


RULE = parse_rule(
    """
    <cs_person {<name N> <rel R> Rest1 Rest2}> :-
        <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
        AND decomp(N, LN, FN)
        AND <R {<first_name FN> <last_name LN> | Rest2}>@cs
    """
)


@pytest.fixture
def scenario():
    return build_scenario()


def node_kinds(plan):
    return [type(node).__name__ for node in plan.nodes()]


class TestCountConstantConditions:
    def test_counts_label_and_values(self):
        p = parse_pattern("<person {<name 'Joe'> <dept 'CS'> <rel R>}>")
        # top label + two constant values + two constant sub-labels... the
        # metric counts constant labels and values at each level
        assert count_constant_conditions(p) >= 3

    def test_more_conditions_scores_higher(self):
        sparse = parse_pattern("<person {<name N>}>")
        dense = parse_pattern("<person {<name 'J'> <dept 'CS'>}>")
        assert count_constant_conditions(dense) > count_constant_conditions(
            sparse
        )


class TestHeuristicPlanning:
    def test_paper_plan_shape(self, scenario):
        optimizer = CostBasedOptimizer(scenario.registry)
        optimizer.bind_external_registry(scenario.mediator.externals)
        plan = optimizer.plan_rule(LogicalRule(RULE))
        kinds = node_kinds(plan)
        # the Section 3.1 plan: query -> external -> param-query ->
        # construct, each query node emitting the bindings it carries
        assert kinds == [
            "QueryNode",
            "ExternalPredNode",
            "ParameterizedQueryNode",
            "ConstructorNode",
        ]

    def test_whois_first_by_heuristic(self, scenario):
        # whois pattern has more constant conditions (dept 'CS') than the
        # cs pattern, so it is the outer pattern
        optimizer = CostBasedOptimizer(scenario.registry)
        optimizer.bind_external_registry(scenario.mediator.externals)
        plan = optimizer.plan_rule(LogicalRule(RULE))
        first_query = [n for n in plan.nodes() if isinstance(n, QueryNode)][0]
        assert first_query.source == "whois"

    def test_param_query_targets_cs(self, scenario):
        optimizer = CostBasedOptimizer(scenario.registry)
        optimizer.bind_external_registry(scenario.mediator.externals)
        plan = optimizer.plan_rule(LogicalRule(RULE))
        (pq,) = [
            n for n in plan.nodes() if isinstance(n, ParameterizedQueryNode)
        ]
        assert pq.source == "cs"
        assert set(pq.param_columns) == {"R", "LN", "FN"}

    def test_unknown_strategy_rejected(self, scenario):
        with pytest.raises(PlanningError):
            CostBasedOptimizer(scenario.registry, strategy="magic")

    def test_rule_without_patterns_rejected(self, scenario):
        optimizer = CostBasedOptimizer(scenario.registry)
        rule = parse_rule("<a X> :- <b X>@s AND X > 1")
        comparison_only = LogicalRule(
            parse_rule("<a X> :- <b X>@s AND X > 1").__class__(
                rule.head, tuple(c for c in rule.tail if not hasattr(c, "pattern"))
            )
        )
        with pytest.raises(PlanningError, match="no source patterns"):
            optimizer.plan_rule(comparison_only)

    def test_missing_source_annotation_rejected(self, scenario):
        optimizer = CostBasedOptimizer(scenario.registry)
        with pytest.raises(PlanningError, match="lacks a source"):
            optimizer.plan_rule(LogicalRule(parse_rule("<a X> :- <b X>")))

    def test_unschedulable_external(self, scenario):
        optimizer = CostBasedOptimizer(scenario.registry)
        optimizer.bind_external_registry(scenario.mediator.externals)
        rule = parse_rule("<a X> :- <person {<name X>}>@whois AND decomp(Q, W, E)")
        with pytest.raises(PlanningError, match="cannot be scheduled"):
            optimizer.plan_rule(LogicalRule(rule))


class TestFetchAllPlanning:
    def test_uses_joins_not_param_queries(self, scenario):
        optimizer = CostBasedOptimizer(scenario.registry, strategy="fetch_all")
        optimizer.bind_external_registry(scenario.mediator.externals)
        plan = optimizer.plan_rule(LogicalRule(RULE))
        kinds = node_kinds(plan)
        assert "JoinNode" in kinds
        assert "ParameterizedQueryNode" not in kinds

    def test_same_answers_as_bind_join(self, scenario):
        results = {}
        for strategy in ("heuristic", "fetch_all"):
            optimizer = CostBasedOptimizer(
                scenario.registry, strategy=strategy
            )
            optimizer.bind_external_registry(scenario.mediator.externals)
            plan = optimizer.plan_rule(LogicalRule(RULE))
            context = ExecutionContext(
                sources=scenario.registry,
                externals=scenario.mediator.externals,
            )
            objects = DatamergeEngine().execute_to_objects(plan, context)
            results[strategy] = sorted(str(o) for o in objects)
        # oids differ; compare label/value structure text without oids
        import re

        def strip_oids(texts):
            return [re.sub(r"&[\w.]+", "&", t) for t in texts]

        assert strip_oids(results["heuristic"]) == strip_oids(
            results["fetch_all"]
        )


class TestCapabilityCompensation:
    def test_residual_filter_node_added(self):
        scenario = build_scenario(whois_capability=WHOIS_LIMITED_CAPABILITY)
        optimizer = CostBasedOptimizer(scenario.registry)
        optimizer.bind_external_registry(scenario.mediator.externals)
        rule = parse_rule(
            "<p {<name N>}> :- "
            "<person {<name N> <dept 'CS'> | R:{<year 3>}}>@whois"
        )
        plan = optimizer.plan_rule(LogicalRule(rule))
        assert any(isinstance(n, FilterNode) for n in plan.nodes())
        # and the shipped query no longer contains the year constant
        (q,) = [n for n in plan.nodes() if isinstance(n, QueryNode)]
        assert "<year 3>" not in str(q.query)

    def test_compensated_plan_correct(self):
        scenario = build_scenario(whois_capability=WHOIS_LIMITED_CAPABILITY)
        result = scenario.mediator.answer(
            "S :- S:<cs_person {<year 3>}>@med"
        )
        assert len(result) == 1
        assert result[0].get("name") == "Nick Naive"


class TestBindJoinTemplates:
    SPEC = (
        "<r {<x X> <z Z>}> :- <a {<x X> <y Y>}>@s1"
        " AND <b {<x X> <z Z>}>@s2 AND Z > X ;"
    )

    def mediator(self, **kwargs):
        s1 = OEMStoreWrapper(
            "s1", [obj("a", atom("x", x), atom("y", 0)) for x in (1, 2)]
        )
        s2 = OEMStoreWrapper(
            "s2",
            [obj("b", atom("x", x), atom("z", z)) for x, z in [(1, 7), (2, 0)]],
        )
        return Mediator("med", self.SPEC, SourceRegistry(s1, s2), **kwargs)

    @pytest.mark.parametrize("semijoin", [True, False])
    def test_comparison_over_a_parameter_stays_at_the_mediator(self, semijoin):
        # shipped inside the template, `Z > X` would name a variable the
        # instantiated probe no longer binds (X travels as a constant)
        mediator = self.mediator(semijoin=semijoin)
        (hit,) = mediator.export()
        assert (hit.get("x"), hit.get("z")) == (1, 7)
        (probe,) = [
            node
            for node in mediator.optimizer.plan_rule(
                LogicalRule(mediator.specification.rules[0])
            ).nodes()
            if isinstance(node, ParameterizedQueryNode)
        ]
        assert not list(probe.template.comparisons())

    def test_describe_names_grouping_and_filter_parameters(self, scenario):
        plan = scenario.mediator.optimizer.plan_rule(LogicalRule(RULE))
        (probe,) = [
            n for n in plan.nodes() if isinstance(n, ParameterizedQueryNode)
        ]
        assert "(semijoin by $R; IN $FN,$LN)" in probe.describe()
        # the batch keeps $R as a placeholder and projects the rest
        assert "<$R {<first_name FN> <last_name LN> | Rest2}>" in str(
            probe.batch_query
        )

    def test_no_batch_spec_without_the_capability_or_a_witness(self):
        def probes(spec, **wrapper_kwargs):
            registry = SourceRegistry(
                OEMStoreWrapper("s1", [obj("a", atom("x", "b"))]),
                OEMStoreWrapper(
                    "s2", [obj("b", atom("x", "b"))], **wrapper_kwargs
                ),
            )
            mediator = Mediator("med", spec, registry)
            plan = mediator.optimizer.plan_rule(
                LogicalRule(mediator.specification.rules[0])
            )
            text = mediator.explain("X :- X:<r {}>@med")
            return [
                n for n in plan.nodes()
                if isinstance(n, ParameterizedQueryNode)
            ], text

        value_join = "<r {<x X>}> :- <a {<x X>}>@s1 AND <b {<x X>}>@s2 ;"
        (batched,), text = probes(value_join)
        assert batched.batch_query is not None
        assert "-- sharding --\nsemijoin: on" in text
        (plain,), text = probes(value_join, capability=FULL_CAPABILITY)
        assert plain.batch_query is None and "semijoin" not in text
        # a label variable alone has no direct-child witness to filter on
        (label_only,), text = probes(
            "<r {<x X>}> :- <a {<x X>}>@s1 AND <X {}>@s2 ;"
        )
        assert label_only.batch_query is None and "semijoin" not in text


class TestStatistics:
    def test_default_estimate(self):
        stats = SourceStatistics()
        assert stats.estimate("s", parse_pattern("<person {}>")) > 0

    def test_feedback_changes_estimate(self):
        stats = SourceStatistics()
        pattern = parse_pattern("<person {<name N>}>")
        before = stats.estimate("s", pattern)
        stats.record_label("s", "person", 2)
        after = stats.estimate("s", pattern)
        assert after < before

    def test_record_normalises_by_selectivity(self):
        stats = SourceStatistics(selectivity=0.5)
        filtered = parse_pattern("<person {<dept 'CS'>}>")
        stats.record("s", filtered, 10)
        # base cardinality should be scaled back up
        assert stats.base_cardinality("s", "person") > 10

    def test_moving_average(self):
        stats = SourceStatistics()
        stats.record_label("s", "person", 100)
        stats.record_label("s", "person", 0)
        assert 0 < stats.base_cardinality("s", "person") < 100

    def test_variable_label_uses_default(self):
        stats = SourceStatistics()
        assert (
            stats.estimate("s", parse_pattern("<L {<a A>}>"))
            <= stats.default_cardinality
        )

    def test_clear(self):
        stats = SourceStatistics()
        stats.record_label("s", "person", 5)
        stats.clear()
        assert not stats.has_observations("s", "person")

    def test_statistics_strategy_orders_by_cardinality(self, scenario):
        stats = SourceStatistics()
        stats.record_label("whois", "person", 100000)
        # whois estimate: 100000 * 0.1 (one constant) >> cs default 100,
        # so the statistics strategy flips the order: cs goes first
        optimizer = CostBasedOptimizer(
            scenario.registry, statistics=stats, strategy="statistics"
        )
        optimizer.bind_external_registry(scenario.mediator.externals)
        plan = optimizer.plan_rule(LogicalRule(RULE))
        first_query = [n for n in plan.nodes() if isinstance(n, QueryNode)][0]
        assert first_query.source == "cs"

    def test_engine_feeds_statistics(self, scenario):
        med = scenario.mediator
        med.answer("X :- X:<cs_person {<name 'Joe Chung'>}>@med")
        assert med.statistics.has_observations("whois", "person")


class TestSampling:
    """Section 3.5's 'sampling' half of the statistics database."""

    def test_sample_source_records_labels(self, scenario):
        stats = SourceStatistics()
        examined = stats.sample_source(scenario.whois)
        assert examined == 2
        assert stats.has_observations("whois", "person")
        assert stats.base_cardinality("whois", "person") == 2

    def test_sample_with_limit_scales_up(self):
        from repro.datasets import build_scaled_scenario

        big = build_scaled_scenario(100, seed=3)
        stats = SourceStatistics()
        examined = stats.sample_source(big.whois, limit=10)
        assert examined == 10
        estimate = stats.base_cardinality("whois", "person")
        assert 50 <= estimate <= 150  # scaled back toward the true 100

    def test_sampling_informs_join_order(self, scenario):
        stats = SourceStatistics()
        stats.sample_source(scenario.whois)
        stats.sample_source(scenario.cs)
        optimizer = CostBasedOptimizer(
            scenario.registry, statistics=stats, strategy="statistics"
        )
        optimizer.bind_external_registry(scenario.mediator.externals)
        plan = optimizer.plan_rule(LogicalRule(RULE))
        first = [n for n in plan.nodes() if isinstance(n, QueryNode)][0]
        # tiny sampled sources: whois (2 persons, 1 condition) still wins
        assert first.source in ("whois", "cs")


class TestValueSelectivity:
    """Value-level selectivities gathered by sampling."""

    def test_sampled_selectivity(self):
        from repro.datasets import build_campus_scenario

        scenario = build_campus_scenario(200, gold_fraction=0.05, seed=1)
        stats = SourceStatistics()
        stats.sample_source(scenario.badges)
        gold = stats.value_selectivity("badges", "badge", "level", "gold")
        blue = stats.value_selectivity("badges", "badge", "level", "blue")
        assert gold < 0.2
        assert blue > 0.7

    def test_unsampled_value_uses_default(self):
        stats = SourceStatistics()
        assert (
            stats.value_selectivity("s", "rec", "k", "never seen")
            == stats.selectivity
        )

    def test_estimate_uses_value_selectivity(self):
        from repro.datasets import build_campus_scenario

        scenario = build_campus_scenario(200, gold_fraction=0.05, seed=1)
        stats = SourceStatistics()
        stats.sample_source(scenario.badges)
        rare = stats.estimate(
            "badges", parse_pattern("<badge {<level 'gold'>}>")
        )
        common = stats.estimate(
            "badges", parse_pattern("<badge {<level 'blue'>}>")
        )
        assert rare < common

    def test_clear_drops_value_stats(self):
        from repro.datasets import build_campus_scenario

        scenario = build_campus_scenario(50, seed=1)
        stats = SourceStatistics()
        stats.sample_source(scenario.badges)
        stats.clear()
        assert (
            stats.value_selectivity("badges", "badge", "level", "gold")
            == stats.selectivity
        )


class TestExhaustiveStrategy:
    def test_same_answers_as_heuristic(self):
        from repro.datasets import build_campus_scenario
        from repro.oem import structural_key

        results = {}
        for strategy in ("heuristic", "exhaustive"):
            scenario = build_campus_scenario(120, seed=5, strategy=strategy)
            if strategy == "exhaustive":
                for name in ("hr", "badges", "parking"):
                    scenario.mediator.statistics.sample_source(
                        scenario.registry.resolve(name)
                    )
            results[strategy] = sorted(
                repr(structural_key(o)) for o in scenario.mediator.export()
            )
        assert results["heuristic"] == results["exhaustive"]

    def test_informed_exhaustive_is_cheaper(self):
        from repro.datasets import build_campus_scenario

        # cost = objects shipped to the mediator, which a bad join order
        # inflates whether the probes travel one by one or batched
        heuristic = build_campus_scenario(300, strategy="heuristic")
        heuristic.mediator.export()
        heuristic_cost = heuristic.mediator.last_context.total_objects

        exhaustive = build_campus_scenario(300, strategy="exhaustive")
        for name in ("hr", "badges", "parking"):
            exhaustive.mediator.statistics.sample_source(
                exhaustive.registry.resolve(name)
            )
        exhaustive.mediator.export()
        exhaustive_cost = exhaustive.mediator.last_context.total_objects
        assert exhaustive_cost < heuristic_cost / 3

    def test_exhaustive_without_stats_still_works(self):
        from repro.datasets import build_campus_scenario

        scenario = build_campus_scenario(60, seed=2, strategy="exhaustive")
        assert isinstance(scenario.mediator.export(), list)

    def test_many_patterns_fall_back_to_heuristic(self, scenario):
        # 8 patterns exceed the permutation cap; the call must not blow up
        optimizer = CostBasedOptimizer(
            scenario.registry, strategy="exhaustive"
        )
        optimizer.bind_external_registry(scenario.mediator.externals)
        tail = " AND ".join(
            f"<person {{<name N{i}>}}>@whois" for i in range(8)
        )
        head = " ".join(f"<p{i} N{i}>" for i in range(8))
        rule = parse_rule(f"{head} :- {tail}")
        plan = optimizer.plan_rule(LogicalRule(rule))
        assert plan.nodes()

"""Unit tests for whole-plan operator fusion (repro.mediator.pipeline)
and the columnar key machinery in repro.mediator.tables that backs it."""

import math

import pytest

from repro.cli import main as cli_main
from repro.datasets.staff import MS1_FUSION
from repro.datasets.staff import build_scaled_scenario
from repro.mediator import (
    FilterNode,
    FusedPipelineNode,
    JoinNode,
    Mediator,
    PhysicalPlan,
    QueryNode,
    UnionNode,
    fuse_plan,
)
from repro.mediator.tables import BindingTable, add_distinct, key_array
from repro.msl.ast import Comparison, Const, Var
from repro.msl.parser import parse_query, parse_specification
from repro.oem import OEMObject, atom
from repro.msl.bindings import values_equal

from ..reference import canonical, reference_answer

FANOUT_QUERY = "S :- S:<cs_person {<rel 'student'>}>@med"
WHOIS_NAMES = parse_query(
    "<bind_for_whois {<bind_for_N N>}> :- <person {<name N>}>@whois"
)


def plan_for(mediator, query):
    """The optimizer's plan for ``query``, before fusion."""
    program = mediator.expander.expand(parse_query(query))
    return mediator.optimizer.plan_program(program)


def scaled_mediator(**kwargs):
    return build_scaled_scenario(12, push_mode="needed", **kwargs).mediator


class TestFusePlan:
    def test_heuristic_chain_fuses_whole_pipeline(self):
        mediator = scaled_mediator()
        plan = plan_for(mediator, FANOUT_QUERY)
        unfused_names = [type(n).__name__ for n in plan.nodes()]
        fused, decisions = fuse_plan(plan)
        root = fused.root
        assert isinstance(root, FusedPipelineNode)
        # everything downstream of the source scan collapses into one
        # pipeline: ExternalPred => ParamQuery => Construct
        assert [type(n).__name__ for n in root.nodes] == unfused_names[1:]
        assert root.fusion_width == len(root.nodes)
        (query_node,) = root.inputs
        assert isinstance(query_node, QueryNode)
        fused_decisions = [d for d in decisions if d.fused]
        assert len(fused_decisions) == 1
        assert fused_decisions[0].render().startswith("+ fused")
        assert " => ".join(fused_decisions[0].nodes) in root.describe()

    def test_stage_accounting_is_fusion_invariant(self):
        mediator = scaled_mediator()
        plan = plan_for(mediator, FANOUT_QUERY)
        depth_before = plan.depth()
        starts_before = [number for number, _ in plan.stage_starts()]
        fused, _ = fuse_plan(plan_for(mediator, FANOUT_QUERY))
        assert fused.depth() == depth_before
        assert starts_before == list(range(1, depth_before + 1))
        # the fused node takes its first constituent's stage number and
        # spans the same range the constituents did
        numbers = dict(
            (type(group[0]).__name__, number)
            for number, group in fused.stage_starts()
        )
        assert numbers["QueryNode"] == 1
        assert numbers["FusedPipelineNode"] == 2

    def test_union_is_a_barrier_each_branch_fuses(self):
        # MS1_FUSION defines cs_person by two rules (one per source),
        # so the plan is a UnionNode of two straight-line branches
        scenario = build_scaled_scenario(12, push_mode="needed")
        mediator = Mediator(
            "med",
            MS1_FUSION,
            scenario.registry,
            scenario.externals,
            push_mode="needed",
            register=False,
        )
        plan = plan_for(mediator, FANOUT_QUERY)
        fused, _ = fuse_plan(plan)
        root = fused.root
        assert isinstance(root, UnionNode)
        assert len(root.inputs) == 2
        assert all(
            isinstance(branch, FusedPipelineNode) for branch in root.inputs
        )

    def test_fetch_all_join_is_a_barrier(self):
        mediator = scaled_mediator(strategy="fetch_all")
        fused, decisions = fuse_plan(plan_for(mediator, FANOUT_QUERY))
        names = [type(n).__name__ for n in fused.nodes()]
        assert "JoinNode" in names
        # the constructor reads the join, so it stays a single operator
        assert "FusedPipelineNode" not in names
        assert any(
            "upstream JoinNode is a fusion barrier" in d.reason
            for d in decisions
        )

    def test_fan_out_is_a_barrier(self):
        """A node with two consumers ends the chain; the consumers stay
        single operators and are rewired onto the fused producer."""
        query = QueryNode("whois", WHOIS_NAMES)
        first = FilterNode(query, Comparison(Var("N"), "!=", Const("w")))
        shared = FilterNode(first, Comparison(Var("N"), "!=", Const("x")))
        left = FilterNode(shared, Comparison(Var("N"), "!=", Const("y")))
        right = FilterNode(shared, Comparison(Var("N"), "!=", Const("z")))
        fused, decisions = fuse_plan(PhysicalPlan(JoinNode(left, right)))
        pipelines = [
            n for n in fused.nodes() if isinstance(n, FusedPipelineNode)
        ]
        assert len(pipelines) == 1
        assert pipelines[0].nodes == (first, shared)
        # both branches now read from the same fused producer
        assert left.inputs[0] is pipelines[0]
        assert right.inputs[0] is pipelines[0]
        reasons = [d.reason for d in decisions if not d.fused]
        assert any("fans out to 2" in reason for reason in reasons)

    def test_plan_without_chains_is_returned_unchanged(self):
        plan = PhysicalPlan(QueryNode("whois", WHOIS_NAMES))
        fused, decisions = fuse_plan(plan)
        assert fused is plan
        assert decisions == []


class TestMediatorSurface:
    def test_explain_reports_decisions(self):
        mediator = scaled_mediator()
        text = mediator.explain(FANOUT_QUERY)
        assert "-- operator fusion --" in text
        assert "pipeline [" in text
        assert "+ fused" in text

    def test_fuse_false_reverts_to_reference_path(self):
        scenario = build_scaled_scenario(12, push_mode="needed")
        mediator = Mediator(
            "med",
            scenario.mediator.specification,
            scenario.registry,
            scenario.externals,
            push_mode="needed",
            register=False,
            fuse=False,
        )
        assert "-- operator fusion --" not in mediator.explain(FANOUT_QUERY)
        mediator.query(FANOUT_QUERY)
        assert mediator.last_fusion == []
        assert "fusion" not in mediator.profiler.snapshot()

    def test_trace_mode_disables_fusion(self):
        """Figure 3.6 replay needs one table per operator, so tracing
        implies the unfused reference path even with fuse=True."""
        mediator = scaled_mediator(trace=True)
        assert mediator.fuse
        mediator.query(FANOUT_QUERY)
        assert mediator.last_fusion == []
        traced = [type(e.node).__name__ for e in mediator.engine.last_trace]
        assert "FusedPipelineNode" not in traced
        assert "ParameterizedQueryNode" in traced
        assert "-- operator fusion --" not in mediator.explain(FANOUT_QUERY)

    def test_fused_profile_attributes_constituents(self):
        mediator = scaled_mediator()
        mediator.query(FANOUT_QUERY)
        snap = mediator.profiler.snapshot()
        assert snap["fusion"]["chains"] >= 1
        assert snap["fusion"]["operators"] >= 2
        for name in (
            "ParameterizedQueryNode", "ConstructorNode", "FusedPipelineNode"
        ):
            assert name in snap["nodes"]
        assert "operator fusion:" in mediator.profiler.render()


SPEC = """
<cs_person {<name N> <rel R> | Rest1}> :-
    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois ;
"""

WHOIS = """
<&p1, person, set, {&n1,&d1,&rel1}>
  <&n1, name, string, 'Joe Chung'>
  <&d1, dept, string, 'CS'>
  <&rel1, relation, string, 'employee'>
;
"""


class TestCLIFlag:
    def test_no_fuse_gives_same_answers(self, tmp_path):
        import io

        spec = tmp_path / "med.msl"
        spec.write_text(SPEC)
        whois = tmp_path / "whois.oem"
        whois.write_text(WHOIS)
        argv = [
            "--spec", str(spec),
            "--source", f"whois={whois}",
            "--query", "X :- X:<cs_person {<name 'Joe Chung'>}>@med",
            "--format", "inline",
        ]
        outputs = []
        for extra in ([], ["--no-fuse"]):
            stdout, stderr = io.StringIO(), io.StringIO()
            status = cli_main(
                argv + extra, stdout=stdout, stderr=stderr,
                stdin=io.StringIO(""),
            )
            assert status == 0, stderr.getvalue()
            outputs.append(stdout.getvalue())
        assert outputs[0] == outputs[1]
        assert "'Joe Chung'" in outputs[0]


def reference_join(left, right):
    """Nested-loop natural join on ``values_equal`` — the semantics the
    columnar hash join must reproduce, and the one bind joins and the
    reference evaluator use (``1`` joins ``1.0``, never ``True``)."""
    shared = [c for c in left.columns if c in right.columns]
    out_columns = list(left.columns) + [
        c for c in right.columns if c not in shared
    ]
    extra = [right.position(c) for c in right.columns if c not in shared]
    pairs = [(left.position(c), right.position(c)) for c in shared]
    rows = []
    for lrow in left.rows:
        for rrow in right.rows:
            if all(
                values_equal(lrow[lp], rrow[rp]) for lp, rp in pairs
            ):
                rows.append(lrow + tuple(rrow[p] for p in extra))
    return out_columns, rows


MIXED = [
    "x",
    1,
    True,
    1.0,
    None,
    # set bindings are tuples of OEM objects
    (atom("name", "Joe"), atom("name", "Sue")),
    OEMObject("person", [atom("name", "Joe")], "set", "&p1"),
]


class TestColumnarTables:
    def test_key_array_exact_fast_path(self):
        keys, is_exact = key_array(["a", "b", "a"])
        assert is_exact
        assert keys == ["a", "b", "a"]
        keys, is_exact = key_array(["a", 1])
        assert not is_exact
        assert keys[0] != keys[1]

    @pytest.mark.parametrize("swap", [False, True])
    def test_join_matches_reference_on_mixed_types(self, swap):
        left = BindingTable(("X", "L"))
        for i, value in enumerate(MIXED + ["x", 1]):
            left.append((value, f"l{i}"))
        right = BindingTable(("X", "R"))
        for i, value in enumerate(reversed(MIXED)):
            right.append((value, f"r{i}"))
        if swap:
            left, right = right, left
        expected_columns, expected_rows = reference_join(left, right)
        joined = left.natural_join(right)
        assert list(joined.columns) == expected_columns
        assert sorted(map(repr, joined.rows)) == sorted(
            map(repr, expected_rows)
        )

    def test_join_does_not_conflate_bool_and_int(self):
        left = BindingTable(("X",))
        left.append((1,))
        left.append((True,))
        right = BindingTable(("X", "Y"))
        right.append((True, "t"))
        joined = left.natural_join(right)
        assert joined.rows == [(True, "t")]

    def test_join_lifts_exact_column_against_canonical(self):
        """All-str columns hash raw strings; joined against a mixed
        column they must be lifted to canonical keys, not mismatched."""
        exact_side = BindingTable(("X",))
        for value in ("a", "b", "c"):
            exact_side.append((value,))
        mixed_side = BindingTable(("X", "Y"))
        mixed_side.append(("b", 1))
        mixed_side.append((2, "two"))
        joined = exact_side.natural_join(mixed_side)
        assert joined.rows == [("b", 1)]

    def test_join_nan_matches_itself(self):
        nan = float("nan")
        left = BindingTable(("X",))
        left.append((nan,))
        right = BindingTable(("X", "Y"))
        right.append((nan, "hit"))
        right.append((math.inf, "miss"))
        joined = left.natural_join(right)
        assert [row[1] for row in joined.rows] == ["hit"]

    def test_distinct_on_mixed_types(self):
        table = BindingTable(("X", "Y"))
        for row in [
            (1, "a"), (True, "a"), (1, "a"), ("1", "a"), (1.0, "a"),
        ]:
            table.append(row)
        kept: list = []
        add_distinct(
            table.rows, [table.key_column(p)[0] for p in (0, 1)], kept.append
        )
        # int, bool, str, and float ones are four distinct atoms;
        # only the duplicate (1, "a") collapses
        assert kept == [(1, "a"), (True, "a"), ("1", "a"), (1.0, "a")]

    def test_key_cache_tracks_appends(self):
        """Memoized key columns must refresh after new rows arrive."""
        table = BindingTable(("X",))
        table.append(("a",))
        keys, _ = table.key_column(0)
        assert len(keys) == 1
        table.append(("b",))
        keys, _ = table.key_column(0)
        assert len(keys) == 2
        probe = BindingTable(("X", "Y"))
        probe.append(("b", "y"))
        assert table.natural_join(probe).rows == [("b", "y")]


class TestCompiledHeadInstantiation:
    """The constructor builds with the compiled head builders whether it
    stands alone or ends a fused chain (the builders themselves are
    tested in tests/unit/test_msl_compile.py)."""

    def test_chain_of_one_constructor_uses_compiled_builders(self):
        # the constructor has one body: alone behind a join (a chain of
        # one) it gets the compiled head builders exactly as the last
        # constituent of a fused chain does, and either way builds the
        # objects the planner-free reference (tests/reference.py) does
        from repro.mediator import ConstructorNode

        def run(**kwargs):
            mediator = scaled_mediator(**kwargs)
            plan, _ = fuse_plan(plan_for(mediator, FANOUT_QUERY))
            objects = mediator.engine.execute_to_objects(
                plan, mediator._context()
            )
            return plan.root, objects

        alone, joined = run(strategy="fetch_all")
        assert isinstance(alone, ConstructorNode)
        assert isinstance(alone.inputs[0], JoinNode)
        fused, piped = run()
        assert isinstance(fused, FusedPipelineNode)
        for constructor in (alone, fused.nodes[-1]):
            (builders,) = constructor._builders.values()
            assert builders and all(callable(build) for build in builders)
        expected = canonical(
            reference_answer(scaled_mediator(), FANOUT_QUERY)
        )
        assert canonical(joined) == canonical(piped) == expected
        assert len(expected) > 1

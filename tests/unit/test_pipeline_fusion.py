"""Unit tests for the one plan shape — one node per operator, the
shape operator fusion used to rewrite — with the ``fuse_plan`` name the
end-to-end harness still imports, and for the columnar key machinery
in repro.mediator.tables.

The class and test names are kept from the operator-fusion tests these
replace; each now checks what remains of its subject."""

import math

import pytest

from repro.datasets.staff import MS1_FUSION
from repro.datasets.staff import build_scaled_scenario
from repro.mediator import (
    ConstructorNode,
    DatamergeEngine,
    ExternalPredNode,
    FilterNode,
    JoinNode,
    Mediator,
    ParameterizedQueryNode,
    PhysicalPlan,
    QueryNode,
    UnionNode,
)
from repro.mediator.engine import ExecutionContext
from repro.mediator.pipeline import fuse_plan
from repro.mediator.tables import BindingTable, add_distinct, key_array
from repro.msl.ast import Comparison, Const, Var
from repro.msl.parser import parse_query
from repro.oem import OEMObject, atom, obj
from repro.msl.bindings import values_equal
from repro.wrappers import OEMStoreWrapper, SourceRegistry
from repro.external.registry import default_registry

from ..reference import canonical, reference_answer

FANOUT_QUERY = "S :- S:<cs_person {<rel 'student'>}>@med"
WHOIS_NAMES = parse_query(
    "<bind_for_whois {<bind_for_N N>}> :- <person {<name N>}>@whois"
)


def plan_for(mediator, query):
    """The optimizer's plan for ``query``."""
    program = mediator.expander.expand(parse_query(query))
    return mediator.optimizer.plan_program(program)


def scaled_mediator(**kwargs):
    return build_scaled_scenario(12, push_mode="needed", **kwargs).mediator


def node_types(plan):
    return [type(node).__name__ for node in plan.nodes()]


class TestFusePlan:
    """``fuse_plan`` hands every plan back as it is."""

    def test_heuristic_chain_fuses_whole_pipeline(self):
        mediator = scaled_mediator()
        plan = plan_for(mediator, FANOUT_QUERY)
        assert fuse_plan(plan) == (plan, [])
        # the straight line after the source scan stays one node per
        # operator, each reading the table of the one before it
        nodes = plan.nodes()
        assert [type(node) for node in nodes] == [
            QueryNode, ExternalPredNode, ParameterizedQueryNode,
            ConstructorNode,
        ]
        for child, node in zip(nodes, nodes[1:]):
            assert node.inputs == (child,)

    def test_stage_accounting_is_fusion_invariant(self):
        mediator = scaled_mediator()
        plan = plan_for(mediator, FANOUT_QUERY)
        assert fuse_plan(plan)[0].depth() == plan.depth() == 4
        stage_of = {
            id(node): number
            for number, group in enumerate(plan.stages(), 1)
            for node in group
        }
        # stages are numbered 1..n, each node one past its deepest input
        for node in plan.nodes():
            assert stage_of[id(node)] == 1 + max(
                (stage_of[id(child)] for child in node.inputs), default=0
            )
        assert sorted(set(stage_of.values())) == list(
            range(1, plan.depth() + 1)
        )

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
        plan, decisions = fuse_plan(plan_for(mediator, FANOUT_QUERY))
        assert decisions == []
        root = plan.root
        assert isinstance(root, UnionNode)
        assert len(root.inputs) == 2
        assert all(
            isinstance(branch, ConstructorNode) for branch in root.inputs
        )

    def test_fetch_all_join_is_a_barrier(self):
        mediator = scaled_mediator(strategy="fetch_all")
        plan, decisions = fuse_plan(plan_for(mediator, FANOUT_QUERY))
        assert decisions == []
        # the constructor reads the join's table directly
        assert isinstance(plan.root, ConstructorNode)
        assert isinstance(plan.root.inputs[0], JoinNode)

    def test_fan_out_is_a_barrier(self):
        """A node with two consumers runs once; both read its table."""
        query = QueryNode("whois", WHOIS_NAMES)
        first = FilterNode(query, Comparison(Var("N"), "!=", Const("w")))
        shared = FilterNode(first, Comparison(Var("N"), "!=", Const("x")))
        left = FilterNode(shared, Comparison(Var("N"), "!=", Const("y")))
        right = FilterNode(shared, Comparison(Var("N"), "!=", Const("z")))
        plan = PhysicalPlan(JoinNode(left, right))
        assert fuse_plan(plan) == (plan, [])
        whois = OEMStoreWrapper(
            "whois", [obj("person", atom("name", name)) for name in "vwxyz"]
        )
        engine = DatamergeEngine(trace=True)
        table = engine.execute(
            plan, ExecutionContext(SourceRegistry(whois), default_registry())
        )
        assert sorted(row[0] for row in table.rows) == ["v"]
        ran = [entry.node for entry in engine.last_trace]
        assert ran == plan.nodes()
        assert ran.count(shared) == 1

    def test_plan_without_chains_is_returned_unchanged(self):
        plan = PhysicalPlan(QueryNode("whois", WHOIS_NAMES))
        fused, decisions = fuse_plan(plan)
        assert fused is plan
        assert decisions == []


class TestMediatorSurface:
    def test_explain_reports_decisions(self):
        mediator = scaled_mediator()
        text = mediator.explain(FANOUT_QUERY)
        assert "-- operator fusion --" not in text
        plan = mediator._planned(*mediator._shape_of(FANOUT_QUERY))[0].plan
        graph = text.split("-- physical datamerge graph --\n")[1]
        assert graph.startswith(plan.describe() + "\n")
        assert len(plan.nodes()) == 4

    def test_fuse_false_reverts_to_reference_path(self):
        scenario = build_scaled_scenario(12, push_mode="needed")
        with pytest.raises(TypeError):
            Mediator(
                "med",
                scenario.mediator.specification,
                scenario.registry,
                scenario.externals,
                fuse=False,
            )
        mediator = scenario.mediator
        assert Mediator.fuse is False and mediator.fuse is False
        mediator.query(FANOUT_QUERY)
        assert set(mediator.profiler.snapshot()) == {"nodes", "patterns"}

    def test_trace_mode_disables_fusion(self):
        """Trace mode runs the plan production runs, and records one
        table per operator of it (the Figure 3.6 replay)."""
        mediator = scaled_mediator(trace=True)
        plan = mediator._planned(*mediator._shape_of(FANOUT_QUERY))[0].plan
        mediator.query(FANOUT_QUERY)
        traced = [entry.node for entry in mediator.engine.last_trace]
        assert traced == plan.nodes()

    def test_fused_profile_attributes_constituents(self):
        mediator = scaled_mediator()
        mediator.query(FANOUT_QUERY)
        snap = mediator.profiler.snapshot()
        plan = mediator._planned(*mediator._shape_of(FANOUT_QUERY))[0].plan
        assert set(snap) == {"nodes", "patterns"}
        assert set(snap["nodes"]) == set(node_types(plan))
        for entry in snap["nodes"].values():
            assert entry["calls"] == 1
        assert "operator fusion" not in mediator.profiler.render()


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
    """The constructor builds with the compiled head builders wherever
    it stands in the plan (the builders themselves are tested in
    tests/unit/test_msl_compile.py)."""

    def test_chain_of_one_constructor_uses_compiled_builders(self):
        # the constructor has one body: behind a join or at the end of
        # a straight line it gets the compiled head builders, and either
        # way builds the objects the planner-free reference
        # (tests/reference.py) does
        def run(**kwargs):
            mediator = scaled_mediator(**kwargs)
            plan = plan_for(mediator, FANOUT_QUERY)
            objects = mediator.engine.execute_to_objects(
                plan, mediator._context()
            )
            return plan.root, objects

        joined_root, joined = run(strategy="fetch_all")
        assert isinstance(joined_root, ConstructorNode)
        assert isinstance(joined_root.inputs[0], JoinNode)
        chained_root, chained = run()
        assert isinstance(chained_root, ConstructorNode)
        assert isinstance(chained_root.inputs[0], ParameterizedQueryNode)
        for constructor in (joined_root, chained_root):
            (builders,) = constructor._builders.values()
            assert builders and all(callable(build) for build in builders)
        expected = canonical(
            reference_answer(scaled_mediator(), FANOUT_QUERY)
        )
        assert canonical(joined) == canonical(chained) == expected
        assert len(expected) > 1

"""Unit tests for binding tables, plan nodes, and the datamerge engine."""

import pytest

from repro.datasets import build_scenario
from repro.exec import SourceDispatcher
from repro.external import default_registry
from repro.mediator import (
    BindingTable,
    ConstructorNode,
    DatamergeEngine,
    ExecutionContext,
    ExternalPredNode,
    FilterNode,
    JoinNode,
    ParameterizedQueryNode,
    PhysicalPlan,
    QueryNode,
    RESULT_COLUMN,
    TableError,
    UnionNode,
)
from repro.mediator.tables import add_distinct
from repro.msl.errors import MSLSemanticError
from repro.msl import (
    Comparison,
    Const,
    ExternalCall,
    Var,
    parse_rule,
)
from repro.oem import atom, obj
from repro.oem.compare import finish
from repro.wrappers import Source
from tests.reference import OEMOnly

def distinct(table, positions):
    """The first row of ``table`` per distinct key on ``positions``."""
    kept: list = []
    add_distinct(
        table.rows, [table.key_column(p)[0] for p in positions], kept.append
    )
    return kept


#: Qw projecting the names: a query node's query, and the stand-in input
#: of nodes a test feeds a table of its own
WHOIS_NAMES = parse_rule(
    "<bind_for_whois {<bind_for_N N>}> :- <person {<name N>}>"
)


class Junk(Source):
    """A source whose answer holds something that is not an object."""

    name = "junk"

    def answer(self, query):
        return [42]

    def export(self):
        return []


class TestBindingTable:
    def test_construction_and_access(self):
        t = BindingTable(["a", "b"], [(1, 2), (3, 4)])
        assert len(t) == 2
        assert t.column_values("b") == [2, 4]
        assert t.row_dict(t.rows[0]) == {"a": 1, "b": 2}

    def test_duplicate_columns_rejected(self):
        with pytest.raises(TableError):
            BindingTable(["a", "a"])

    def test_arity_checked(self):
        t = BindingTable(["a"])
        with pytest.raises(TableError):
            t.append((1, 2))

    def test_unknown_column(self):
        with pytest.raises(TableError, match="no column"):
            BindingTable(["a"]).position("z")

    def test_project(self):
        t = BindingTable(["a", "b"], [(1, 2)])
        assert BindingTable(["b"], [(2,)]).rows == t.project(["b"]).rows

    def test_filter(self):
        t = BindingTable(["a"], [(1,), (2,)])
        assert t.filter(lambda r: r["a"] > 1).rows == [(2,)]

    def test_extend_dependent_join(self):
        t = BindingTable(["a"], [(1,), (2,)])
        extended = t.extend(["b"], lambda r: [(r["a"] * 10,)] * r["a"])
        assert extended.rows == [(1, 10), (2, 20), (2, 20)]

    def test_extend_drops_rows_without_extensions(self):
        t = BindingTable(["a"], [(1,), (2,)])
        extended = t.extend(["b"], lambda r: [("x",)] if r["a"] == 1 else [])
        assert extended.rows == [(1, "x")]

    def test_extend_collision_rejected(self):
        t = BindingTable(["a"])
        with pytest.raises(TableError, match="already exist"):
            t.extend(["a"], lambda r: [])

    def test_natural_join_shared_columns(self):
        left = BindingTable(["k", "x"], [("a", 1), ("b", 2)])
        right = BindingTable(["k", "y"], [("a", 10), ("c", 30)])
        joined = left.natural_join(right)
        assert joined.columns == ("k", "x", "y")
        assert joined.rows == [("a", 1, 10)]

    def test_natural_join_cross_product_when_disjoint(self):
        left = BindingTable(["x"], [(1,), (2,)])
        right = BindingTable(["y"], [(10,)])
        assert len(left.natural_join(right)) == 2

    def test_join_on_object_sets(self):
        rest1 = (atom("e_mail", "a@b"),)
        rest2 = (atom("e_mail", "a@b", oid="&other"),)
        left = BindingTable(["r"], [(rest1,)])
        right = BindingTable(["r", "z"], [(rest2, 1)])
        assert len(left.natural_join(right)) == 1

    def test_distinct(self):
        t = BindingTable(["a", "b"], [(1, 2), (1, 2), (1, 3)])
        assert distinct(t, (0, 1)) == [(1, 2), (1, 3)]
        assert distinct(t, (0,)) == [(1, 2)]

    def test_render_contains_heading(self):
        t = BindingTable(["N"], [("Joe Chung",)])
        out = t.render()
        assert "N" in out and "'Joe Chung'" in out

    def test_render_truncates(self):
        t = BindingTable(["a"], [(i,) for i in range(30)])
        assert "more rows" in t.render(max_rows=5)


@pytest.fixture
def scenario():
    return build_scenario()


@pytest.fixture
def context(scenario):
    return ExecutionContext(
        sources=scenario.registry, externals=scenario.mediator.externals
    )


class TestPlanNodes:
    def test_query_node(self, context):
        # Qw's answer enters the plan as the bindings it carries
        node = QueryNode("whois", WHOIS_NAMES)
        table = node.execute([], context)
        assert table.columns == ("N",)
        assert sorted(r[0] for r in table.rows) == ["Joe Chung", "Nick Naive"]
        assert context.queries_sent == {"whois": 1}

    def test_extractor_node(self, scenario, context):
        # a source speaking OEM only answers with the carrier objects;
        # the extractor at the call site reads Qw's names back from them
        context.sources.deregister("whois")
        context.sources.register(OEMOnly(scenario.whois))
        node = QueryNode("whois", WHOIS_NAMES)
        table = node.execute([], context)
        assert table.columns == ("N",)
        assert sorted(r[0] for r in table.rows) == ["Joe Chung", "Nick Naive"]
        assert context.queries_sent == {"whois": 1}

    def test_a_non_object_in_an_oem_answer_is_rejected(self, context):
        context.sources.register(Junk())
        node = QueryNode(
            "junk",
            parse_rule("<bind_for_junk {<bind_for_B B>}> :- <person B>"),
        )
        with pytest.raises(TableError, match="non-object"):
            node.execute([], context)

    def test_a_query_node_ships_only_projection_queries(self):
        with pytest.raises(MSLSemanticError, match="not a projection"):
            QueryNode("whois", parse_rule("<a B> :- <person B>"))

    def test_param_query_joins_carried_columns(self, context):
        # a projected variable the input already carries is a join: an
        # answer row counts only where the two values agree
        template = parse_rule(
            "<bind_for_whois {<bind_for_N N>}> :- "
            "<person {<relation $R> <name N>}>"
        )
        source = BindingTable(
            ["R", "N"],
            [
                ("employee", "Joe Chung"),
                ("employee", "Nick Naive"),
                ("student", "Nick Naive"),
            ],
        )
        node = ParameterizedQueryNode(
            QueryNode("whois", WHOIS_NAMES), "whois", template, {"R": "R"}
        )
        table = node.execute([source], context)
        assert table.columns == ("R", "N")
        assert table.rows == [
            ("employee", "Joe Chung"),
            ("student", "Nick Naive"),
        ]

    def test_external_pred_node(self, context):
        source = BindingTable(["N"], [("Joe Chung",)])
        node = ExternalPredNode(
            QueryNode("whois", WHOIS_NAMES),
            ExternalCall("decomp", (Var("N"), Var("LN"), Var("FN"))),
        )
        table = node.execute([source], context)
        assert table.columns == ("N", "LN", "FN")
        assert table.rows == [("Joe Chung", "Chung", "Joe")]

    def test_parameterized_query_node(self, context):
        source = BindingTable(
            ["R", "LN", "FN"], [("employee", "Chung", "Joe")]
        )
        template = parse_rule(
            "<bind_for_cs {<bind_for_Rest2 Rest2>}> :- "
            "<$R {<first_name $FN> <last_name $LN> | Rest2}>"
        )
        node = ParameterizedQueryNode(
            QueryNode("whois", WHOIS_NAMES),
            "cs",
            template,
            {"R": "R", "LN": "LN", "FN": "FN"},
        )
        table = node.execute([source], context)
        assert table.columns == ("R", "LN", "FN", "Rest2")
        assert len(table) == 1
        concrete = node.instantiate(source.row_dict(source.rows[0]))
        assert "$" not in str(concrete)
        assert "<employee " in str(concrete)

    def test_filter_node(self, context):
        table = BindingTable(["Y"], [(2,), (4,)])
        node = FilterNode(
            QueryNode("whois", WHOIS_NAMES),
            Comparison(Var("Y"), ">", Const(3)),
        )
        assert node.execute([table], context).rows == [(4,)]

    def test_join_and_dedup_nodes(self, context):
        q = QueryNode("whois", WHOIS_NAMES)
        left = BindingTable(["k"], [("a",), ("a",)])
        right = BindingTable(["k", "v"], [("a", 1)])
        joined = JoinNode(q, q).execute([left, right], context)
        assert len(joined) == 2
        # no plan node but the constructor deduplicates rows
        assert distinct(joined, (0,)) == [("a", 1)]

    def test_constructor_node(self, context):
        rule = parse_rule("<who {<name N>}> :- <person {<name N>}>@whois")
        table = BindingTable(["N"], [("A",), ("A",), ("B",)])
        node = ConstructorNode(QueryNode("whois", WHOIS_NAMES), rule.head)
        result = node.execute([table], context)
        assert result.columns == (RESULT_COLUMN,)
        assert len(result) == 2  # dedup

    def test_union_node(self, context):
        """The union concatenates; the answer's finish deduplicates."""
        a = BindingTable([RESULT_COLUMN], [(atom("x", 1),)])
        b = BindingTable([RESULT_COLUMN], [(atom("x", 1),), (atom("y", 2),)])
        q = QueryNode("whois", WHOIS_NAMES)
        union = UnionNode([q, q]).execute([a, b], context)
        objects = [row[0] for row in union.rows]
        assert len(objects) == 3
        assert finish(objects) == [atom("x", 1), atom("y", 2)]

    def test_union_rejects_non_result_tables(self, context):
        q = QueryNode("whois", WHOIS_NAMES)
        with pytest.raises(TableError):
            UnionNode([q]).execute([BindingTable(["x"])], context)


@pytest.fixture(params=[None, 4], ids=["no-dispatcher", "parallelism-4"])
def engine_context(request, scenario):
    """The two ends of the one executor: a bare context (every node
    inline) and a four-worker dispatcher (leaf queries on the pool)."""
    dispatcher = (
        SourceDispatcher(parallelism=request.param) if request.param else None
    )
    yield ExecutionContext(
        sources=scenario.registry,
        externals=scenario.mediator.externals,
        dispatcher=dispatcher,
    )
    if dispatcher is not None:
        dispatcher.shutdown()


class TestPhysicalPlanAndEngine:
    def test_topological_order(self):
        q = QueryNode("whois", WHOIS_NAMES)
        f = FilterNode(q, Comparison(Var("N"), "!=", Const("x")))
        plan = PhysicalPlan(f)
        assert plan.nodes() == [q, f]
        assert "[1]" in plan.describe()

    def test_engine_executes_and_traces(self, scenario, engine_context):
        context = engine_context
        from repro.datasets import JOE_CHUNG_QUERY

        med = scenario.mediator
        program = med.expander.expand(
            __import__("repro.msl", fromlist=["parse_query"]).parse_query(
                JOE_CHUNG_QUERY
            )
        )
        plan = med.optimizer.plan_program(program)
        engine = DatamergeEngine(trace=True)
        objects = engine.execute_to_objects(plan, context)
        assert len(objects) == 1
        assert engine.last_trace
        rendered = engine.render_trace()
        assert "query whois" in rendered
        assert "construct" in rendered
        # whichever thread ran a node, the trace is in plan order, leaf
        # queries account their one source call, and nothing warned
        assert [entry.node for entry in engine.last_trace] == plan.nodes()
        assert all(
            entry.attempts == 1 and entry.latency > 0.0
            for entry in engine.last_trace
            if type(entry.node) is QueryNode
        )
        assert context.warnings == []
        assert context.attempts_made == context.total_queries >= 2

    def test_context_accounting(self, scenario, context):
        med = scenario.mediator
        med.answer("X :- X:<cs_person {<name 'Joe Chung'>}>@med")
        assert med.last_context.total_queries >= 2
        assert med.last_context.total_objects >= 1

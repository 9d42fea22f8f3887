"""Unit tests for the external predicate registry and standard functions."""

import pytest

from repro.datasets import build_scenario
from repro.external import (
    ExternalFunctionError,
    ExternalRegistry,
    check_name_lnfn,
    concat,
    default_registry,
    lnfn_to_name,
    name_to_lnfn,
    split_at,
    add,
    to_lower,
    to_upper,
)
from repro.governor import QueryBudget, QueryGovernor
from repro.mediator import (
    BindingTable,
    ExecutionContext,
    ExternalPredNode,
    QueryNode,
)
from repro.msl import ExternalCall, Var, parse_rule
from repro.wrappers import SourceRegistry

ALL_PERSONS = "P :- P:<cs_person {}>@med"
DECOMP = ExternalCall("decomp", (Var("N"), Var("LN"), Var("FN")))
#: a stand-in input node: the tests feed the node a table of their own
WHOIS_NAMES = parse_rule(
    "<bind_for_whois {<bind_for_N N>}> :- <person {<name N>}>"
)


class TestStandardFunctions:
    def test_name_to_lnfn(self):
        assert name_to_lnfn("Joe Chung") == [("Chung", "Joe")]

    def test_name_to_lnfn_middle_parts_stay_with_first(self):
        assert name_to_lnfn("Mary Jo Frost") == [("Frost", "Mary Jo")]

    def test_name_to_lnfn_unsplittable(self):
        assert name_to_lnfn("Prince") == []
        assert name_to_lnfn("") == []
        assert name_to_lnfn(42) == []

    def test_lnfn_to_name(self):
        assert lnfn_to_name("Chung", "Joe") == [("Joe Chung",)]

    def test_lnfn_to_name_invalid(self):
        assert lnfn_to_name("", "Joe") == []
        assert lnfn_to_name(3, "Joe") == []

    def test_roundtrip(self):
        ((last, first),) = name_to_lnfn("Joe Chung")
        assert lnfn_to_name(last, first) == [("Joe Chung",)]

    def test_check_name_lnfn(self):
        assert check_name_lnfn("Joe Chung", "Chung", "Joe")
        assert not check_name_lnfn("Joe Chung", "Joe", "Chung")

    def test_case_functions(self):
        assert to_upper("abc") == [("ABC",)]
        assert to_lower("ABC") == [("abc",)]
        assert to_upper(3) == []

    def test_concat(self):
        assert concat("a", "b") == [("ab",)]

    def test_split_at(self):
        assert split_at("user@host", "@") == [("user", "host")]
        assert split_at("nothing", "@") == []

    def test_add(self):
        assert add(2, 3) == [(5,)]
        assert add(True, 1) == []
        assert add("2", 3) == []


class TestRegistry:
    def test_register_and_lookup(self):
        registry = ExternalRegistry()
        registry.register_function("f", lambda x: [(x,)])
        assert registry.has_function("f")
        assert registry.function("f")(1) == [(1,)]

    def test_duplicate_function_rejected(self):
        registry = ExternalRegistry()
        registry.register_function("f", lambda: True)
        with pytest.raises(ExternalFunctionError, match="already"):
            registry.register_function("f", lambda: False)

    def test_unknown_function(self):
        with pytest.raises(ExternalFunctionError, match="no registered"):
            ExternalRegistry().function("ghost")

    def test_declare_requires_function(self):
        with pytest.raises(ExternalFunctionError):
            ExternalRegistry().declare("p", ("b", "f"), "ghost")

    def test_select_by_availability(self):
        registry = default_registry()
        registry.declare("decomp", ("b", "f", "f"), "name_to_lnfn")
        registry.declare("decomp", ("f", "b", "b"), "lnfn_to_name")
        impl = registry.select("decomp", [True, False, False])
        assert impl.function_name == "name_to_lnfn"
        impl = registry.select("decomp", [False, True, True])
        assert impl.function_name == "lnfn_to_name"

    def test_select_prefers_most_specific(self):
        registry = default_registry()
        registry.declare("decomp", ("b", "f", "f"), "name_to_lnfn")
        registry.declare("decomp", ("b", "b", "b"), "check_name_lnfn")
        impl = registry.select("decomp", [True, True, True])
        assert impl.function_name == "check_name_lnfn"

    def test_select_no_fit(self):
        registry = default_registry()
        registry.declare("decomp", ("b", "f", "f"), "name_to_lnfn")
        with pytest.raises(ExternalFunctionError, match="no implementation"):
            registry.select("decomp", [False, True, True])

    def test_evaluate_binds_free(self):
        registry = default_registry()
        registry.declare("decomp", ("b", "f", "f"), "name_to_lnfn")
        rows = list(
            registry.evaluate(
                "decomp", ["Joe Chung", None, None], [True, False, False]
            )
        )
        assert rows == [("Joe Chung", "Chung", "Joe")]

    def test_evaluate_postfilters_bound_free_args(self):
        registry = default_registry()
        registry.declare("decomp", ("b", "f", "f"), "name_to_lnfn")
        rows = list(
            registry.evaluate(
                "decomp",
                ["Joe Chung", "Wrong", None],
                [True, True, False],
            )
        )
        assert rows == []

    def test_evaluate_fully_bound_check(self):
        registry = default_registry()
        registry.declare("decomp", ("b", "b", "b"), "check_name_lnfn")
        rows = list(
            registry.evaluate(
                "decomp",
                ["Joe Chung", "Chung", "Joe"],
                [True, True, True],
            )
        )
        assert rows == [("Joe Chung", "Chung", "Joe")]

    def test_copy_is_independent(self):
        registry = default_registry()
        registry.declare("decomp", ("b", "f", "f"), "name_to_lnfn")
        clone = registry.copy()
        clone.declare("decomp", ("f", "b", "b"), "lnfn_to_name")
        assert len(registry.implementations("decomp")) == 1
        assert len(clone.implementations("decomp")) == 2

    def test_misbehaving_function_wrapped(self):
        registry = ExternalRegistry()

        def boom(x):
            raise RuntimeError("bad")

        registry.register_function("boom", boom)
        registry.declare("p", ("b", "f"), "boom")
        with pytest.raises(ExternalFunctionError, match="raised"):
            list(registry.evaluate("p", [1, None], [True, False]))

    def test_wrong_arity_result_rejected(self):
        registry = ExternalRegistry()
        registry.register_function("bad", lambda x: [(1, 2)])
        registry.declare("p", ("b", "f"), "bad")
        with pytest.raises(ExternalFunctionError, match="arity"):
            list(registry.evaluate("p", [1, None], [True, False]))

    def test_single_atom_result_normalised(self):
        registry = ExternalRegistry()
        registry.register_function("inc", lambda x: x + 1)
        registry.declare("p", ("b", "f"), "inc")
        rows = list(registry.evaluate("p", [1, None], [True, False]))
        assert rows == [(1, 2)]

    def test_none_result_means_failure(self):
        registry = ExternalRegistry()
        registry.register_function("no", lambda x: None)
        registry.declare("p", ("b", "f"), "no")
        assert list(registry.evaluate("p", [1, None], [True, False])) == []

    def test_bool_required_for_fully_bound(self):
        registry = ExternalRegistry()
        registry.register_function("odd", lambda x: "yes")
        registry.declare("p", ("b",), "odd")
        with pytest.raises(ExternalFunctionError, match="bool"):
            list(registry.evaluate("p", [1], [True]))

    def test_default_registry_has_standard_functions(self):
        registry = default_registry()
        for name in ("name_to_lnfn", "lnfn_to_name", "to_upper", "concat"):
            assert registry.has_function(name)


NAMES = [("Joe Chung",), ("Nick Naive",), ("Prince",), ("Ann Ace",)]


def ms1_externals():
    """MS1's ``EXT`` declarations of ``decomp``."""
    registry = default_registry()
    registry.declare("decomp", ("b", "f", "f"), "name_to_lnfn")
    registry.declare("decomp", ("f", "b", "b"), "lnfn_to_name")
    return registry


def run_node(externals, call, rows, governor=None):
    """``call``'s external-predicate node over an input of names."""
    context = ExecutionContext(
        sources=SourceRegistry(), externals=externals, governor=governor
    )
    node = ExternalPredNode(QueryNode("whois", WHOIS_NAMES), call)
    return node.execute([BindingTable(["N"], rows)], context)


class TestResolvedOncePerRun:
    """An external-predicate node picks MS1's ``decomp`` implementation
    once per run: which arguments are bound is fixed by its plan."""

    @pytest.fixture
    def selects(self, monkeypatch):
        calls = []
        original = ExternalRegistry.select

        def counted(registry, predicate, bound):
            calls.append((predicate, tuple(bound)))
            return original(registry, predicate, bound)

        monkeypatch.setattr(ExternalRegistry, "select", counted)
        return calls

    def test_select_runs_once_per_node_run(self, selects):
        table = run_node(ms1_externals(), DECOMP, NAMES)
        assert selects == [("decomp", (True, False, False))]
        assert table.rows == [
            ("Joe Chung", "Chung", "Joe"),
            ("Nick Naive", "Naive", "Nick"),
            ("Ann Ace", "Ace", "Ann"),
        ]

    def test_select_runs_once_per_mediated_run(self, selects):
        mediator = build_scenario().mediator
        for _ in range(3):  # plan, and settle the statistics
            mediator.answer(ALL_PERSONS)
        selects.clear()
        assert len(mediator.answer(ALL_PERSONS)) == 2
        assert selects == [("decomp", (True, False, False))]

    def test_an_unexecutable_adornment_raises_only_over_rows(self):
        # no decomp implementation takes all three arguments free
        unbound = ExternalCall("decomp", (Var("X"), Var("LN"), Var("FN")))
        assert len(run_node(ms1_externals(), unbound, [])) == 0
        # nor over rows never charged: the budget was spent
        spent = QueryGovernor(QueryBudget(max_external_calls=1), "truncate")
        assert spent.charge_external_call()
        assert len(run_node(ms1_externals(), unbound, NAMES, spent)) == 0
        with pytest.raises(
            ExternalFunctionError,
            match=r"^no implementation of 'decomp' callable with"
            r" bound-pattern fff$",
        ):
            run_node(ms1_externals(), unbound, NAMES[:1])

    def test_an_exhausted_budget_drops_the_same_rows(self):
        invoked = []
        externals = default_registry()
        externals.register_function(
            "counted", lambda name: invoked.append(name) or name_to_lnfn(name)
        )
        externals.declare("decomp", ("b", "f", "f"), "counted")
        governor = QueryGovernor(QueryBudget(max_external_calls=2), "truncate")
        table = run_node(externals, DECOMP, NAMES, governor)
        # charged before each call: the third row finds the budget spent
        assert invoked == ["Joe Chung", "Nick Naive"]
        assert [row[0] for row in table.rows] == ["Joe Chung", "Nick Naive"]
        assert governor.external_calls == 2
        assert [w.budget for w in governor.warnings] == ["max_external_calls"]

"""Unit tests for the compiled pattern backend and its support layers.

Covers the pattern and head compilers (:mod:`repro.msl.compile`) and
the guard that keeps their interpretive references out of production
code, structural-key memoization, the ``value_key`` bag
canonicalisation, the positional table fast paths, and the execution
profiler — the pieces the compiled backend leans on for its
equivalence and performance guarantees.
"""

import re
from pathlib import Path

import pytest

import repro
import repro.msl.substitute as substitute
from repro.exec import Profiler
from repro.mediator import Mediator
from repro.mediator.tables import BindingTable, TableError
from repro.msl import (
    CompileCache,
    CompiledRule,
    SlotLayout,
    UNBOUND,
    compile_pattern,
    compile_rule,
    evaluate_rule,
    evaluate_rule_compiled,
    match_all,
    match_pattern,
    parse_rule,
)
from repro.msl.bindings import Bindings, value_key
from repro.msl.compile import compile_head_item
from repro.msl.errors import MSLInstantiationError
from repro.msl.parser import parse_query, parse_specification
from repro.msl.substitute import instantiate_head_item
from repro.oem import (
    OEMObject,
    atom,
    eliminate_duplicates,
    key_computations,
    obj,
    structural_key,
)
from repro.oem.oid import OidGenerator
from repro.wrappers import OEMStoreWrapper, SourceRegistry

from ..reference import canonical, reference_answer, reference_export


def joe():
    return obj(
        "person",
        atom("name", "Joe Chung"),
        atom("dept", "CS"),
        atom("rel", "employee"),
    )


class TestSlotLayout:
    def test_registers_are_name_positions(self):
        layout = SlotLayout(["A", "M", "Z"])
        assert layout.names == ("A", "M", "Z")
        assert [layout.register(n) for n in ("A", "M", "Z")] == [0, 1, 2]
        assert layout.width == 3
        assert layout.empty_frame == (UNBOUND, UNBOUND, UNBOUND)

    def test_seed_places_incoming_bindings(self):
        layout = SlotLayout(["X", "Y"])
        frame = layout.seed(Bindings({"Y": 7}))
        assert frame[layout.register("X")] is UNBOUND
        assert frame[layout.register("Y")] == 7

    def test_roundtrip_to_bindings(self):
        layout = SlotLayout(["X"])
        frame = layout.seed(Bindings({"X": "v"}))
        assert dict(layout.to_bindings(frame).items()) == {"X": "v"}


class TestCompiledPattern:
    def test_matches_equal_reference_matcher(self):
        pattern = parse_rule(
            "<n N> :- <person {<name N>}>"
        ).tail[0].pattern
        forest = [joe(), obj("person", atom("name", "Ann"))]
        expected = [e.key() for e in match_all(pattern, forest)]
        compiled = compile_pattern(pattern)
        assert [e.key() for e in compiled.match_all(forest)] == expected

    def test_constant_reordering_preserves_solution_order(self):
        # the variable item is written first, the constant second: the
        # compiled matcher tries the constant first but must report
        # solutions in the interpretive (written-order) enumeration
        pattern = parse_rule(
            "<x X> :- <person {<name X> <rel 'employee'>}>"
        ).tail[0].pattern
        forest = [joe(), joe()]
        expected = [e.key() for e in match_pattern(pattern, forest[0])]
        compiled = compile_pattern(pattern)
        assert [e.key() for e in compiled.match(forest[0])] == expected


class TestCompiledRule:
    RULE = "<n N> :- <person {<name N>}>@s"

    def test_bit_for_bit_against_interpretive(self):
        rule = parse_rule(self.RULE)
        forests = {"s": [joe()], None: [joe()]}
        expected = evaluate_rule(
            rule, forests, oidgen=OidGenerator("&v"), check=False
        )
        observed = evaluate_rule_compiled(
            rule, forests, oidgen=OidGenerator("&v"), check=False
        )
        assert [repr(o) for o in observed] == [repr(o) for o in expected]

    def test_compile_rule_is_reusable(self):
        compiled = compile_rule(parse_rule(self.RULE))
        forests = {"s": [joe()], None: [joe()]}
        first = compiled.evaluate(forests, oidgen=OidGenerator("&v"))
        second = compiled.evaluate(forests, oidgen=OidGenerator("&v"))
        assert [repr(o) for o in first] == [repr(o) for o in second]


class TestCompileCache:
    def test_hits_and_misses(self):
        cache = CompileCache()
        rule = parse_rule("<n N> :- <person {<name N>}>@s")
        first = cache.rule(rule)
        assert cache.rule(rule) is first
        stats = cache.stats()
        assert stats["rules"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_pattern_cache_shared_across_equal_patterns(self):
        cache = CompileCache()
        pattern = parse_rule("<n N> :- <person {<name N>}>").tail[0].pattern
        assert cache.pattern(pattern) is cache.pattern(pattern)
        assert cache.stats()["patterns"] == 1

    def test_eviction_bounds_the_cache(self):
        cache = CompileCache(max_entries=2)
        for name in ("a", "b", "c"):
            cache.rule(parse_rule(f"<n N> :- <{name} {{<name N>}}>@s"))
        assert cache.stats()["rules"] == 2  # oldest evicted

    def test_constants_equal_under_python_eq_do_not_share_an_entry(self):
        # 1 == 1.0 == True in Python; MSL keeps booleans apart, so a
        # probe for `true` must not answer with the closure for `1`
        from repro.wrappers import OEMStoreWrapper

        store = OEMStoreWrapper(
            "s", [obj("rec", atom("k", v)) for v in (1, True, 1.0)]
        )
        answers = {
            text: [
                repr(o.get("k"))
                for o in store.answer(
                    parse_rule(f"X :- X:<rec {{<k {text}>}}>@s")
                )
            ]
            for text in ("true", "1", "1.0")
        }
        assert answers == {
            "true": ["True"], "1": ["1", "1.0"], "1.0": ["1", "1.0"],
        }

    def test_returns_compiled_rule(self):
        cache = CompileCache()
        rule = parse_rule("<n N> :- <person {<name N>}>@s")
        assert isinstance(cache.rule(rule), CompiledRule)


class TestCompiledHeadInstantiation:
    """compile_head_item lowers rule heads to row closures; its output
    must be bit-for-bit what instantiate_head_item builds from the same
    bindings — same labels/types/values, same oid-generator ticks in
    the same order, same errors.  Every head compiles: a shape whose
    reference behaviour is an error raises that error."""

    # (head text, columns, row) — each row position binds the column name
    CASES = [
        ("<hit {<name N> <year Y>}>", ("N", "Y"), ("Joe", 1995)),
        ("<hit {<name N>}>", ("N",), (None,)),  # null atom child
        ("<hit {<a 'x'> <b 3> <c 2.5> <d 'y'>}>", (), ()),
        ("<hit N>", ("N",), ("Joe",)),  # atom value slot
        ("<&person(N) hit {<name N>}>", ("N",), ("Sue",)),  # semantic oid
        ("<&fixed hit {<name N>}>", ("N",), ("Joe",)),  # constant oid
    ]

    @staticmethod
    def build_head(text):
        spec = parse_specification(f"{text} :- <person {{<name N>}}>@s ;")
        return spec.rules[0].head

    @pytest.mark.parametrize("text,columns,row", CASES)
    def test_matches_interpretive(self, text, columns, row):
        for item in self.build_head(text):
            build = compile_head_item(item, columns)
            gen_a, gen_b = OidGenerator("&v"), OidGenerator("&v")
            compiled = build(row, gen_a)
            env = Bindings(dict(zip(columns, row)))
            reference = instantiate_head_item(item, env, gen_b)
            assert [repr(o) for o in compiled] == [
                repr(o) for o in reference
            ]
            # generators ticked in lockstep (same number of fresh oids)
            assert repr(gen_a()) == repr(gen_b())

    def test_bare_head_variable(self):
        item = parse_query("S :- S:<person {<name N>}>@s").head[0]
        build = compile_head_item(item, ("N", "S"))
        person = OEMObject("person", [atom("name", "Joe")], "set", "&p1")
        assert build(("Joe", person), None) == [person]
        rest = (atom("a", 1), atom("b", 2))
        assert build(("Joe", rest), None) == list(rest)

    def test_splice_and_rest_in_head(self):
        """'{<name N> | R}' head: R's members spliced, duplicates
        eliminated, oids identical to the interpretive builder."""
        (item,) = self.build_head("<hit {<name N> | R}>")
        columns = ("N", "R")
        rest = (atom("year", 1995), atom("year", 1995), atom("dept", "CS"))
        row = ("Joe", rest)
        compiled = compile_head_item(item, columns)(row, OidGenerator("&v"))
        reference = instantiate_head_item(
            item, Bindings(dict(zip(columns, row))), OidGenerator("&v")
        )
        assert [repr(o) for o in compiled] == [repr(o) for o in reference]

    def test_out_of_layout_variable_raises_the_reference_message(self):
        # a variable outside the row layout is an unbound one: the
        # builder raises the reference's error, after the same ticks
        (item,) = self.build_head("<hit {<name N>}>")
        build = compile_head_item(item, ("OTHER",))
        gen_a, gen_b = OidGenerator("&v"), OidGenerator("&v")
        with pytest.raises(MSLInstantiationError) as compiled_err:
            build(("Joe",), gen_a)
        with pytest.raises(MSLInstantiationError) as reference_err:
            instantiate_head_item(item, Bindings({"OTHER": "Joe"}), gen_b)
        assert str(compiled_err.value) == str(reference_err.value)
        assert str(compiled_err.value) == (
            "unbound variable N in head value slot"
        )
        assert repr(gen_a()) == repr(gen_b())

    def test_atom_errors_match_interpretive(self):
        item = parse_query("S :- S:<person {<name N>}>@s").head[0]
        build = compile_head_item(item, ("N", "S"))
        row = ("Joe", 42)  # head variable bound to an atom
        with pytest.raises(MSLInstantiationError) as compiled_err:
            build(row, None)
        with pytest.raises(MSLInstantiationError) as reference_err:
            instantiate_head_item(
                item, Bindings({"N": "Joe", "S": 42}), None
            )
        assert str(compiled_err.value) == str(reference_err.value)

    # a valid head with a type variable: once the shape every builder
    # declined, so every route built it with the reference builder
    TYPED = "<O hit T V> :- <O x T V>@s ;"

    @staticmethod
    def typed_store():
        return OEMStoreWrapper(
            "s",
            [
                OEMObject("x", "one", "string", "&a1"),
                OEMObject("x", 7, "integer", "&a2"),
                OEMObject("y", 1, None, "&a3"),
            ],
        )

    def typed_mediator(self, spec=TYPED):
        return Mediator("med", spec, SourceRegistry(self.typed_store()))

    @staticmethod
    def interpretive_builds(monkeypatch, operation):
        """``operation()`` and how many objects the reference builder
        built meanwhile."""
        calls = []
        reference = substitute._build_object

        def counting(*args):
            calls.append(args)
            return reference(*args)

        with monkeypatch.context() as patch:
            patch.setattr(substitute, "_build_object", counting)
            result = operation()
        return result, len(calls)

    def test_type_variable_head_is_compiled_on_every_route(
        self, monkeypatch
    ):
        expected = [
            "<&a1, hit, string, 'one'>",
            "<&a2, hit, integer, 7>",
        ]
        query = "X :- X:<hit V>@med"
        answer, built = self.interpretive_builds(
            monkeypatch, lambda: self.typed_mediator().answer(query)
        )
        assert built == 0
        assert [repr(o) for o in answer] == expected
        assert canonical(answer) == canonical(
            reference_answer(self.typed_mediator(), query)
        )

        rule = parse_query(self.TYPED.rstrip(" ;"))
        store = self.typed_store()
        direct, built = self.interpretive_builds(
            monkeypatch, lambda: store.answer(rule)
        )
        assert built == 0
        forest = list(store.export())
        assert [repr(o) for o in direct] == [
            repr(o)
            for o in evaluate_rule(rule, {"s": forest, None: forest})
        ]

        recursive = self.typed_mediator(
            self.TYPED + " <O hit T V> :- <O hit T V>@med ;"
        )
        exported, built = self.interpretive_builds(
            monkeypatch, recursive.export
        )
        assert recursive.is_recursive
        assert built == 0
        assert [repr(o) for o in exported] == expected
        assert canonical(exported) == canonical(
            reference_export(self.typed_mediator())
        )


def test_reference_evaluators_stay_in_msl():
    """The interpretive matcher, evaluator and head builder are the
    reference the compiled ones are tested against: no production
    module outside repro.msl calls them."""
    root = Path(repro.__file__).parent
    reference = re.compile(
        r"instantiate_head_item|match_pattern\(|[^_]evaluate_rule\("
    )
    offenders = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).parts[0] != "msl"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if reference.search(line)
    ]
    assert offenders == []


class TestStructuralKeyMemoization:
    def test_second_dedup_recomputes_nothing(self):
        forest = [
            obj("p", atom("a", i), obj("q", atom("b", i % 2)))
            for i in range(20)
        ]
        eliminate_duplicates(forest)
        before = key_computations()
        eliminate_duplicates(forest)  # every key is already memoized
        assert key_computations() == before

    def test_memoized_key_is_the_computed_key(self):
        o = obj("p", atom("a", 1))
        assert structural_key(o) is structural_key(o)


class TestValueKeyBagSemantics:
    def test_rest_bindings_compare_order_insensitively(self):
        members = (atom("a", 1), atom("b", 2))
        assert value_key(members) == value_key(members[::-1])

    def test_duplicate_members_are_counted_not_collapsed(self):
        # a bag, not a set: {a, a} differs from {a}
        once = (atom("a", 1),)
        twice = (atom("a", 1), atom("a", 1))
        assert value_key(once) != value_key(twice)

    def test_structurally_equal_members_in_any_order(self):
        left = (atom("a", 1), atom("a", 1), atom("b", 2))
        right = (atom("b", 2), atom("a", 1), atom("a", 1))
        assert value_key(left) == value_key(right)


class TestPositionalTableFastPaths:
    def table(self):
        return BindingTable(["x", "y"], [(1, "a"), (2, "b"), (3, "c")])

    def test_filter_rows_sees_raw_tuples(self):
        table = self.table()
        pos = table.position("x")
        kept = table.filter_rows(lambda row: row[pos] > 1)
        assert kept.rows == [(2, "b"), (3, "c")]

    def test_filter_delegates_to_filter_rows(self):
        kept = self.table().filter(lambda row: row["y"] == "b")
        assert kept.rows == [(2, "b")]

    def test_extend_rows_sees_raw_tuples(self):
        table = self.table()
        pos = table.position("x")
        extended = table.extend_rows(
            ["double"], lambda row: [(row[pos] * 2,)]
        )
        assert extended.columns == ("x", "y", "double")
        assert extended.rows[0] == (1, "a", 2)

    def test_extend_rows_checks_arity(self):
        with pytest.raises(TableError):
            self.table().extend_rows(["d"], lambda row: [(1, 2)])

    def test_extend_rows_rejects_duplicate_columns(self):
        with pytest.raises(TableError):
            self.table().extend_rows(["x"], lambda row: [(1,)])


class TestProfiler:
    def test_records_accumulate(self):
        profiler = Profiler()
        profiler.record_node("FilterNode", 10, 0.5)
        profiler.record_node("FilterNode", 5, 0.25, latency=0.1)
        snap = profiler.snapshot()
        assert snap["nodes"]["FilterNode"] == {
            "calls": 2,
            "rows": 15,
            "seconds": 0.75,
            "source_seconds": 0.1,
        }

    def test_pattern_records(self):
        profiler = Profiler()
        profiler.record_pattern("<a A>", 100, 3, 0.1)
        snap = profiler.snapshot()
        assert snap["patterns"]["<a A>"]["objects"] == 100
        assert snap["patterns"]["<a A>"]["matches"] == 3

    def test_render_mentions_both_sections(self):
        profiler = Profiler()
        profiler.record_node("QueryNode", 1, 0.001)
        profiler.record_pattern("<a A>", 2, 1, 0.001)
        text = profiler.render()
        assert "plan nodes" in text
        assert "patterns" in text
        assert "QueryNode" in text

    def test_reset_clears_everything(self):
        profiler = Profiler()
        profiler.record_node("FilterNode", 1, 0.0)
        profiler.reset()
        assert profiler.snapshot() == {"nodes": {}, "patterns": {}}

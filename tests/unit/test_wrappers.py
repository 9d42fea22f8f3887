"""Unit tests for wrappers, capabilities, and the source registry."""

import pytest

from repro.datasets import (
    JOE_CHUNG_QUERY,
    build_cs_database,
    build_scenario,
    build_whois_objects,
)
from repro.msl import Comparison, parse_pattern, parse_rule
from repro.oem import atom, obj, parse_oem
from repro.reliability import FaultInjectingSource, ResilientSource
from repro.wrappers import (
    Capability,
    CapabilityViolation,
    FULL_CAPABILITY,
    OEMStoreWrapper,
    RelationalWrapper,
    SemiJoinFilter,
    SemiJoinQuery,
    SourceError,
    SourceRegistry,
)
from repro.wrappers.base import BindingRows, Carrier

#: Qw of Section 3.1, projecting an oid-slot, an object and a Rest
#: variable besides two atoms
QW = parse_rule(
    "<bind_for_whois {<bind_for_N N> <bind_for_O O> <bind_for_P {P}>"
    " <bind_for_R R> <bind_for_Rest Rest>}> :-"
    " P:<O person {<name N> <dept 'CS'> <relation R> | Rest}>"
)


class TestCapability:
    def test_full_capability_accepts_everything(self):
        p = parse_pattern("<person {<year 3> .. <deep D>}>")
        assert FULL_CAPABILITY.accepts(p)

    def test_split_moves_unfilterable_constants(self):
        cap = Capability(filterable_labels=frozenset({"name"}), name="t")
        relaxed, residual = cap.split(
            parse_pattern("<person {<name 'Joe'> <year 3>}>")
        )
        assert len(residual) == 1
        assert isinstance(residual[0], Comparison)
        assert residual[0].right.value == 3
        assert "<name 'Joe'>" in str(relaxed)
        assert "<year 3>" not in str(relaxed)

    def test_split_reaches_rest_conditions(self):
        cap = Capability(filterable_labels=frozenset({"name"}), name="t")
        relaxed, residual = cap.split(
            parse_pattern("<person {<name N> | R:{<year 3>}}>")
        )
        assert len(residual) == 1
        assert "<year 3>" not in str(relaxed)

    def test_accepts_after_split_is_consistent(self):
        cap = Capability(filterable_labels=frozenset({"name"}), name="t")
        p = parse_pattern("<person {<year 3>}>")
        assert not cap.accepts(p)
        relaxed, _ = cap.split(p)
        assert cap.accepts(relaxed)

    def test_check_raises(self):
        cap = Capability(filterable_labels=frozenset(), name="t")
        with pytest.raises(CapabilityViolation):
            cap.check(parse_pattern("<person {<year 3>}>"))

    def test_wildcards_unsupported(self):
        cap = Capability(supports_wildcards=False, name="t")
        with pytest.raises(CapabilityViolation, match="descendant"):
            cap.split(parse_pattern("<person {.. <year 3>}>"))

    def test_top_level_label_always_allowed(self):
        cap = Capability(filterable_labels=frozenset(), name="t")
        relaxed, residual = cap.split(parse_pattern("<person {<a A>}>"))
        assert residual == []


class TestOEMStoreWrapper:
    @pytest.fixture
    def whois(self):
        return OEMStoreWrapper("whois", build_whois_objects())

    def test_export(self, whois):
        assert len(whois.export()) == 2

    def test_answer_simple(self, whois):
        result = whois.answer(
            parse_rule("<n N> :- <person {<name N> <dept 'CS'>}>")
        )
        assert sorted(o.value for o in result) == ["Joe Chung", "Nick Naive"]

    def test_answer_with_own_source_annotation(self, whois):
        result = whois.answer(parse_rule("<n N> :- <person {<name N>}>@whois"))
        assert len(result) == 2

    def test_answer_foreign_source_rejected(self, whois):
        with pytest.raises(SourceError, match="sent to"):
            whois.answer(parse_rule("<n N> :- <person {<name N>}>@cs"))

    def test_comparisons_accepted_when_capability_allows(self, whois):
        result = whois.answer(
            parse_rule("<n N> :- <person {<name N> <year Y>}> AND Y > 1")
        )
        assert [o.value for o in result] == ["Nick Naive"]

    def test_comparisons_rejected_without_capability(self):
        limited = OEMStoreWrapper(
            "w",
            build_whois_objects(),
            capability=Capability(supports_comparisons=False, name="nocmp"),
        )
        with pytest.raises(SourceError, match="comparison"):
            limited.answer(
                parse_rule("<n N> :- <person {<name N> <year Y>}> AND Y > 1")
            )

    def test_external_calls_rejected(self, whois):
        with pytest.raises(SourceError, match="non-pattern"):
            whois.answer(
                parse_rule("<n U> :- <person {<name N>}> AND upper(N, U)")
            )

    def test_capability_enforced(self):
        limited = OEMStoreWrapper(
            "whois",
            build_whois_objects(),
            capability=Capability(
                filterable_labels=frozenset({"name"}), name="lim"
            ),
        )
        with pytest.raises(SourceError):
            limited.answer(parse_rule("<n N> :- <person {<name N> <year 3>}>"))

    def test_index_narrowing_matches_unindexed(self):
        objects = build_whois_objects()
        indexed = OEMStoreWrapper("a", objects, indexed=True)
        plain = OEMStoreWrapper("b", objects, indexed=False)
        query_a = parse_rule("<n N> :- <person {<name N> <relation 'student'>}>")
        query_b = parse_rule("<n N> :- <person {<name N> <relation 'student'>}>")
        assert [o.value for o in indexed.answer(query_a)] == [
            o.value for o in plain.answer(query_b)
        ]

    def test_candidates_use_index(self, whois):
        query = parse_rule("<n N> :- <person {<relation 'student'> <name N>}>")
        candidates = whois.candidates(query)
        assert len(candidates) == 1
        assert candidates[0].get("name") == "Nick Naive"

    def test_mutation_invalidates_index(self, whois):
        whois.answer(parse_rule("<n N> :- <person {<name N>}>"))
        whois.add(
            obj("person", atom("name", "New Gal"), atom("relation", "student"))
        )
        query = parse_rule("<n N> :- <person {<relation 'student'> <name N>}>")
        assert len(whois.answer(query)) == 2

    def test_remove_where_and_clear(self, whois):
        assert whois.remove_where("person") == 2
        assert len(whois) == 0
        whois.clear()
        assert whois.export() == []

    def test_counters(self, whois):
        whois.answer(parse_rule("<n N> :- <person {<name N>}>"))
        assert whois.queries_answered == 1
        assert whois.objects_returned == 2
        whois.reset_counters()
        assert whois.queries_answered == 0

    def test_bad_name_rejected(self):
        with pytest.raises(SourceError):
            OEMStoreWrapper("not a name", [])


class TestRelationalWrapper:
    @pytest.fixture
    def cs(self):
        return RelationalWrapper("cs", build_cs_database())

    def test_export_shape_figure_2_2(self, cs):
        export = cs.export()
        labels = sorted(o.label for o in export)
        assert labels == ["employee", "student"]
        employee = [o for o in export if o.label == "employee"][0]
        assert employee.get("first_name") == "Joe"
        assert employee.get("reports_to") == "John Hennessy"

    def test_nulls_become_absent_subobjects(self):
        db = build_cs_database(extra_employees=[("Ann", "Ace", None, None)])
        wrapper = RelationalWrapper("cs", db)
        ann = [
            o
            for o in wrapper.export()
            if o.label == "employee" and o.get("first_name") == "Ann"
        ][0]
        assert ann.first("title") is None
        assert len(ann.children) == 2

    def test_candidates_select_relation_by_label(self, cs):
        query = parse_rule("<x R2> :- <student {<year 3> | R2}>")
        candidates = cs.candidates(query)
        assert len(candidates) == 1
        assert candidates[0].label == "student"

    def test_candidates_unknown_relation_empty(self, cs):
        query = parse_rule("<x X> :- <professor {<name X>}>")
        assert cs.candidates(query) == []
        assert cs.answer(query) == []

    def test_candidates_missing_attribute_prunes_table(self, cs):
        query = parse_rule("<x X> :- <R {<year 3> <first_name X>}>")
        candidates = cs.candidates(query)
        assert all(o.label == "student" for o in candidates)

    def test_variable_relation_scans_all(self, cs):
        query = parse_rule("<x FN> :- <R {<first_name FN>}>")
        result = cs.answer(query)
        assert sorted(o.value for o in result) == ["Joe", "Nick"]

    def test_answer_paper_qcs(self, cs):
        query = parse_rule(
            "<bind_for_Rest2 Rest2> :- "
            "<employee {<last_name 'Chung'> <first_name 'Joe'> | Rest2}>"
        )
        (result,) = cs.answer(query)
        labels = sorted(c.label for c in result.children)
        assert labels == ["reports_to", "title"]

    def test_equal_tuples_keep_distinct_stable_oids(self):
        db = build_cs_database(
            extra_students=[("Nick", "Naive", 3), ("Ann", "Ace", 1)]
        )
        wrapper = RelationalWrapper("cs", db)
        oids = [str(o.oid) for o in wrapper.export() if o.label == "student"]
        # the paper's Nick, his equal twin, Ann: numbered by position
        assert oids == ["&cs_student1", "&cs_student2", "&cs_student3"]
        assert [
            str(o.oid) for o in wrapper.export() if o.label == "student"
        ] == oids
        # a selection carries the row number out of the scan: same oids
        probe = parse_rule("<x Y> :- <student {<first_name 'Nick'> <year Y>}>")
        assert [str(o.oid) for o in wrapper.candidates(probe)] == oids[:2]
        batch = SemiJoinQuery(
            parse_rule("<x Y> :- <student {<first_name FN> <year Y>}>"),
            [SemiJoinFilter("FN", "first_name", frozenset(["Nick", "Ann"]))],
        )
        assert [
            str(o.oid) for o in wrapper.semijoin_candidates(batch)
        ] == oids

    def test_semijoin_candidates_select_before_translating(self, cs):
        rule = parse_rule("<x LN> :- <R {<first_name FN> <last_name LN>}>")

        def candidates(label, values):
            query = SemiJoinQuery(
                rule, [SemiJoinFilter("P", label, frozenset(values))]
            )
            return [o.label for o in cs.semijoin_candidates(query)]

        assert candidates("first_name", ["Joe", "Nick"]) == [
            "employee", "student",
        ]
        assert candidates("first_name", ["Nick"]) == ["student"]
        # a filter on an attribute a relation lacks prunes that relation
        assert candidates("year", [3]) == ["student"]
        assert candidates("year", [4]) == []
        # membership is Python equality: 3.0 admits the integer year
        year = SemiJoinQuery(
            parse_rule("<x Y> :- <student {<year Y>}>"),
            [SemiJoinFilter("Y", "year", frozenset([3.0]))],
        )
        assert len(cs.semijoin_candidates(year)) == 1
        assert len(cs.answer(year)) == 1

    def test_schema_evolution_visible(self, cs):
        cs.database.table("student").add_attribute("birthday")
        cs.database.table("student").delete_where(lambda r: True)
        cs.database.table("student").insert("Pat", "Px", 2, "1970-05-05")
        pat = [o for o in cs.export() if o.get("first_name") == "Pat"][0]
        assert pat.get("birthday") == "1970-05-05"


def joe(mediator) -> list[dict]:
    """MS1's answer for Joe Chung, each object as label -> value."""
    return [
        {child.label: child.value for child in found.children}
        for found in mediator.answer(JOE_CHUNG_QUERY)
    ]


class TestRelationalSnapshots:
    """A tuple is translated once per table version: every change to a
    table shows in the next answer, and nothing else re-translates."""

    @pytest.fixture
    def scenario(self):
        scenario = build_scenario()
        # warm: the employee table's snapshot exists before each change
        assert len(joe(scenario.mediator)) == 1
        assert len(scenario.cs.export()) == 2
        return scenario

    def employee(self, scenario):
        return scenario.cs.database.table("employee")

    def test_insert(self, scenario):
        self.employee(scenario).insert("Joe", "Chung", "dean", "Nobody")
        assert sorted(j["title"] for j in joe(scenario.mediator)) == [
            "dean", "professor",
        ]
        assert len(scenario.cs.export()) == 3

    def test_delete_where(self, scenario):
        removed = self.employee(scenario).delete_where(
            lambda row: row["last_name"] == "Chung"
        )
        assert removed == 1
        assert joe(scenario.mediator) == []
        assert [o.label for o in scenario.cs.export()] == ["student"]

    def test_add_attribute_reaches_a_rest_variable(self, scenario):
        # the paper's "birthday appears": Rest2 picks it up unedited
        self.employee(scenario).add_attribute("birthday", "1950-07-04")
        (found,) = joe(scenario.mediator)
        assert found["birthday"] == "1950-07-04"
        exported = scenario.cs.export()[0]
        assert str(exported.first("birthday").oid) == "&cs_employee1_birthday"

    def test_drop_attribute(self, scenario):
        self.employee(scenario).drop_attribute("title")
        (found,) = joe(scenario.mediator)
        assert "title" not in found
        assert scenario.cs.export()[0].first("title") is None

    def test_drop_and_recreate_under_the_same_name(self, scenario):
        database = scenario.cs.database
        schema = self.employee(scenario).schema
        database.drop_table("employee")
        assert joe(scenario.mediator) == []
        database.create_table(schema).insert(
            "Joe", "Chung", "emeritus", "Nobody"
        )
        (found,) = joe(scenario.mediator)
        assert found["title"] == "emeritus"
        assert scenario.cs.export()[0].get("title") == "emeritus"

    def test_unchanged_tables_hand_out_the_same_objects(self, scenario):
        first, second = scenario.cs.export(), scenario.cs.export()
        assert len(first) == len(second) == 2
        assert all(a is b for a, b in zip(first, second))
        probe = parse_rule("<x T> :- <employee {<title T>}>")
        (probed,) = scenario.cs.candidates(probe)
        assert probed is first[0]

    def test_a_cold_probe_translates_only_its_matches(self, monkeypatch):
        students = [(f"N{i}", f"L{i}", i % 4) for i in range(200)]
        wrapper = RelationalWrapper(
            "cs", build_cs_database(extra_students=students)
        )
        translated = []
        original = wrapper._tuple_to_oem

        def counted(snapshot, number, row):
            translated.append(number)
            return original(snapshot, number, row)

        monkeypatch.setattr(wrapper, "_tuple_to_oem", counted)
        probe = parse_rule("<x Y> :- <student {<first_name 'N7'> <year Y>}>")
        assert len(wrapper.answer(probe)) == 1
        assert translated == [9]  # Nick is row 1; N7 is row 9
        assert len(wrapper.export()) == 202
        assert len(translated) == 202  # each row once, the probe's too
        wrapper.export()
        wrapper.answer(probe)
        assert len(translated) == 202


class TestAnswerBindings:
    @pytest.fixture
    def whois(self):
        return OEMStoreWrapper("whois", build_whois_objects())

    def test_the_carrier_of_a_projection_query(self):
        carrier = Carrier.of(QW)
        assert carrier.columns == ("N", "O", "P", "R", "Rest")
        assert carrier.objects == {"P"}
        assert "<bind_for_P {P:<_ _>}>" in carrier.text
        for text in (
            "<a B> :- <person B>",
            "<bind_for_Rest2 Rest2> :- <employee {| Rest2}>",
            "<bind_for_s {<bind_for_N M>}> :- <person {<name M>}>",
            "<bind_for_s {<bind_for_N N> <bind_for_N N>}> :-"
            " <person {<name N>}>",
        ):
            assert Carrier.of(parse_rule(text)) is None, text

    def test_rows_are_what_the_carriers_carry(self, whois):
        rows = whois.answer_bindings(QW)
        assert isinstance(rows, BindingRows)
        assert rows.columns == ("N", "O", "P", "R", "Rest")
        carriers = OEMStoreWrapper("whois", build_whois_objects()).answer(QW)
        assert len(rows) == len(carriers) == 2
        for row, carrier in zip(rows, carriers):
            name, oid, person, relation, rest = row
            assert name == carrier.get("bind_for_N")
            assert oid == carrier.get("bind_for_O") == str(person.oid)
            assert person.label == "person"
            assert relation == carrier.get("bind_for_R")
            assert isinstance(rest, tuple)

    def test_no_carrier_is_built_and_no_oid_minted(self, whois):
        whois.answer_bindings(QW)
        assert str(whois._oidgen()) == "&whois_1"
        assert whois.stats()["objects_returned"] == 2

    def test_other_queries_are_answered_with_objects(self, whois):
        query = parse_rule("<x N> :- <person {<name N>}>")
        assert [o.label for o in whois.answer_bindings(query)] == ["x", "x"]

    def test_a_redefined_answer_says_what_the_source_answers(self, whois):
        whois.answer = lambda query: []
        assert whois.answer_bindings(QW) == []

    def test_the_decorators_forward_rows(self, whois):
        for decorated in (
            ResilientSource(whois),
            FaultInjectingSource(whois),
            ResilientSource(FaultInjectingSource(whois)),
        ):
            rows = decorated.answer_bindings(QW)
            assert isinstance(rows, BindingRows) and len(rows) == 2


class TestSourceRegistry:
    def test_register_resolve(self):
        registry = SourceRegistry()
        wrapper = OEMStoreWrapper("s", [])
        registry.register(wrapper)
        assert registry.resolve("s") is wrapper
        assert "s" in registry
        assert len(registry) == 1

    def test_duplicate_name_rejected(self):
        registry = SourceRegistry(OEMStoreWrapper("s", []))
        with pytest.raises(SourceError, match="already"):
            registry.register(OEMStoreWrapper("s", []))

    def test_unknown_source(self):
        registry = SourceRegistry()
        with pytest.raises(SourceError, match="no source named"):
            registry.resolve("ghost")

    def test_none_source(self):
        with pytest.raises(SourceError, match="lacks"):
            SourceRegistry().resolve(None)

    def test_deregister(self):
        registry = SourceRegistry(OEMStoreWrapper("s", []))
        registry.deregister("s")
        assert "s" not in registry
        with pytest.raises(SourceError):
            registry.deregister("s")

    def test_iteration_sorted(self):
        registry = SourceRegistry(
            OEMStoreWrapper("b", []), OEMStoreWrapper("a", [])
        )
        assert [s.name for s in registry] == ["a", "b"]
        assert registry.names() == ["a", "b"]

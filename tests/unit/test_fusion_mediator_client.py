"""Unit tests for object fusion, the Mediator facade, and the client
result set."""

import pytest

from repro.client import ResultSet
from repro.datasets import JOE_CHUNG_QUERY, MS1, build_scenario
from repro.mediator import Mediator, MediatorError, fuse_objects, has_semantic_oids
from repro.msl import MSLSemanticError, parse_query
from repro.oem import OEMObject, SemanticOid, atom, obj, parse_oem
from repro.wrappers import (
    HashPartition,
    OEMStoreWrapper,
    ShardedSource,
    SourceRegistry,
    partition_forest,
    shard_name,
)


def sem(label, functor, args, *children):
    return OEMObject(label, children, "set", SemanticOid(functor, args))


class TestFusion:
    def test_plain_objects_pass_through(self):
        objects = [atom("a", 1), atom("a", 1)]
        assert fuse_objects(objects) == objects

    def test_has_semantic_oids(self):
        assert not has_semantic_oids([atom("a", 1)])
        assert has_semantic_oids([sem("p", "f", [1])])

    def test_merge_same_oid(self):
        a = sem("pub", "pub", ["T"], atom("title", "T"), atom("venue", "V"))
        b = sem("pub", "pub", ["T"], atom("title", "T"), atom("pages", "1-2"))
        (fused,) = fuse_objects([a, b])
        labels = sorted(c.label for c in fused.children)
        assert labels == ["pages", "title", "venue"]

    def test_different_oids_not_merged(self):
        a = sem("pub", "pub", ["T1"], atom("title", "T1"))
        b = sem("pub", "pub", ["T2"], atom("title", "T2"))
        assert len(fuse_objects([a, b])) == 2

    def test_order_preserved_at_first_contributor(self):
        a = sem("pub", "pub", ["T"], atom("x", 1))
        plain = atom("q", 0)
        b = sem("pub", "pub", ["T"], atom("y", 2))
        result = fuse_objects([a, plain, b])
        assert [o.label for o in result] == ["pub", "q"]

    def test_label_disagreement_rejected(self):
        a = sem("pub", "f", ["T"], atom("x", 1))
        b = sem("book", "f", ["T"], atom("y", 2))
        with pytest.raises(ValueError, match="disagree on label"):
            fuse_objects([a, b])

    def test_atomic_disagreement_rejected(self):
        a = OEMObject("v", 1, oid=SemanticOid("f", ["k"]))
        b = OEMObject("v", 2, oid=SemanticOid("f", ["k"]))
        with pytest.raises(ValueError, match="disagree on value"):
            fuse_objects([a, b])

    def test_atomic_agreement_kept(self):
        a = OEMObject("v", 1, oid=SemanticOid("f", ["k"]))
        b = OEMObject("v", 1, oid=SemanticOid("f", ["k"]))
        assert len(fuse_objects([a, b])) == 1

    def test_mixed_atomic_set_rejected(self):
        a = OEMObject("v", 1, oid=SemanticOid("f", ["k"]))
        b = sem("v", "f", ["k"], atom("x", 1))
        with pytest.raises(ValueError, match="mix"):
            fuse_objects([a, b])

    def test_nested_fusion(self):
        inner1 = sem("addr", "addr", ["k"], atom("city", "PA"))
        inner2 = sem("addr", "addr", ["k"], atom("zip", "94305"))
        a = sem("p", "p", ["x"], inner1)
        b = sem("p", "p", ["x"], inner2)
        (fused,) = fuse_objects([a, b])
        (addr,) = fused.children
        assert sorted(c.label for c in addr.children) == ["city", "zip"]

    def test_duplicate_children_collapse(self):
        a = sem("p", "p", ["x"], atom("t", 1))
        b = sem("p", "p", ["x"], atom("t", 1, oid="&zz"))
        (fused,) = fuse_objects([a, b])
        assert len(fused.children) == 1

    def test_boolean_and_number_arguments_are_two_objects(self):
        # &p(true) and &p(1) are different semantic oids in MSL, so the
        # two records must not fuse into one p(1)
        store = OEMStoreWrapper(
            "s",
            [
                obj("r", atom("k", 1), atom("v", "a")),
                obj("r", atom("k", True), atom("v", "b")),
            ],
        )
        mediator = Mediator(
            "med",
            "<&p(K) e {<v V>}> :- <r {<k K> <v V>}>@s ;",
            SourceRegistry(store),
        )
        exported = {
            o.oid.text: [c.value for c in o.children]
            for o in mediator.export()
        }
        assert exported == {"p(1)": ["a"], "p(True)": ["b"]}


    def test_a_lone_member_without_semantic_children_is_kept(self):
        # nothing to fuse: the object itself, not a rebuilt copy
        lone = sem("p", "f", [1], atom("a", 1))
        assert fuse_objects([lone])[0] is lone


#: Two ``p`` objects with one name: a query whose head oid is ``&q(N)``
#: fuses their answers into one object on every route.
TWO_PS = [
    obj("p", atom("n", "a"), atom("x", 1)),
    obj("p", atom("n", "a"), atom("y", 2)),
]
PASS_THROUGH = "<p {<n N> | R}> :- <p {<n N> | R}>@s"
FUSING_QUERY = "<&q(N) q {<n N> <v V>}> :- <p {<n N> <L V>}>@med"


class TestOneAnswerTail:
    """Every answer route deduplicates and fuses (``finish``)."""

    def test_materialization_route_fuses(self):
        mediator = Mediator(
            "med", PASS_THROUGH, SourceRegistry(OEMStoreWrapper("s", TWO_PS))
        )
        planned = mediator.answer(FUSING_QUERY)
        # a type slot sends the query down the materialization route
        materialized = mediator.answer(
            FUSING_QUERY.replace("<L V>", "<O L integer V>")
        )
        for answer in (planned, materialized):
            assert [o.oid.text for o in answer] == ["q('a')"]
            assert {c.value for c in answer[0].children} == {"a", 1, 2}

    def test_wrapper_answer_fuses(self):
        store = OEMStoreWrapper("s", TWO_PS)
        answer = store.answer(parse_query(FUSING_QUERY.replace("@med", "@s")))
        assert [o.oid.text for o in answer] == ["q('a')"]
        assert len(answer[0].children) == 3

    def test_sharded_answer_is_deduplicated_across_shards(self):
        records = [obj("p", atom("k", i), atom("n", "a")) for i in range(8)]
        partition = HashPartition("k", 2)
        shards = [
            OEMStoreWrapper(shard_name("s", index), forest)
            for index, forest in enumerate(
                partition_forest(records, partition)
            )
        ]
        query = parse_query("<r {<n N>}> :- <p {<n N>}>@s")
        sharded = ShardedSource("s", shards, partition).answer(query)
        assert sharded == OEMStoreWrapper("s", records).answer(query)
        assert len(sharded) == 1


class TestMediatorFacade:
    def test_answer_accepts_text_queries(self):
        scenario = build_scenario()
        assert len(scenario.mediator.answer(JOE_CHUNG_QUERY)) == 1

    def test_invalid_name(self):
        with pytest.raises(MediatorError):
            Mediator("not a name", MS1, SourceRegistry())

    def test_empty_specification(self):
        with pytest.raises(MediatorError, match="needs rules"):
            Mediator(
                "m",
                "EXT decomp(bound, free, free) BY name_to_lnfn",
                SourceRegistry(),
            )

    def test_bad_specification_rule(self):
        with pytest.raises(MSLSemanticError):
            Mediator("m", "<a X> :- <b Y>@s", SourceRegistry())

    def test_registers_itself(self):
        scenario = build_scenario()
        assert scenario.registry.resolve("med") is scenario.mediator

    def test_register_false(self):
        registry = SourceRegistry(OEMStoreWrapper("s", []))
        Mediator("m", "<a X> :- <b {<c X>}>@s", registry, register=False)
        assert "m" not in registry

    def test_explain_contains_program_and_plan(self):
        scenario = build_scenario()
        text = scenario.mediator.explain(JOE_CHUNG_QUERY)
        assert "logical datamerge program" in text
        assert "physical datamerge graph" in text
        assert "query whois" in text

    def test_wildcard_query_falls_back_to_materialization(self):
        scenario = build_scenario()
        result = scenario.mediator.answer(
            "X :- X:<cs_person {.. <title T>}>@med"
        )
        assert len(result) == 1
        assert result[0].get("name") == "Joe Chung"

    def test_mediator_stacking(self):
        scenario = build_scenario()
        upper = Mediator(
            "upper",
            "<p {<name N>}> :- <cs_person {<name N>}>@med",
            scenario.registry,
        )
        result = upper.answer("X :- X:<p {<name 'Joe Chung'>}>@upper")
        assert len(result) == 1

    def test_query_against_unknown_label_empty(self):
        scenario = build_scenario()
        assert scenario.mediator.answer("X :- X:<nothing {}>@med") == []

    def test_export_is_deduplicated(self):
        scenario = build_scenario()
        export = scenario.mediator.export()
        assert len(export) == len({str(o) for o in export})


class TestRecursiveViews:
    def build(self):
        registry = SourceRegistry()
        # edges of a tiny graph: a->b, b->c
        registry.register(
            OEMStoreWrapper(
                "g",
                parse_oem(
                    """
                    <&e1, edge, set, {&f1,&t1}>
                      <&f1, src, string, 'a'>
                      <&t1, dst, string, 'b'>
                    <&e2, edge, set, {&f2,&t2}>
                      <&f2, src, string, 'b'>
                      <&t2, dst, string, 'c'>
                    """
                ),
            )
        )
        spec = """
        <path {<src X> <dst Y>}> :- <edge {<src X> <dst Y>}>@g ;
        <path {<src X> <dst Z>}> :-
            <edge {<src X> <dst Y>}>@g AND <path {<src Y> <dst Z>}>@tc
        """
        return Mediator("tc", spec, registry)

    def test_detected_as_recursive(self):
        assert self.build().is_recursive

    def test_transitive_closure(self):
        mediator = self.build()
        paths = {
            (o.get("src"), o.get("dst")) for o in mediator.export()
        }
        assert paths == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_query_on_recursive_view(self):
        mediator = self.build()
        result = mediator.answer("P :- P:<path {<src 'a'> <dst 'c'>}>@tc")
        assert len(result) == 1

    def test_fixpoint_bound(self, monkeypatch):
        from repro.mediator import mediator as module

        monkeypatch.setattr(module, "MAX_FIXPOINT_ITERATIONS", 1)
        with pytest.raises(MediatorError, match="fixpoint"):
            self.build().export()


class TestResultSet:
    @pytest.fixture
    def results(self):
        return ResultSet(
            [
                obj("p", atom("name", "Bob"), atom("year", 2)),
                obj("p", atom("name", "Ann"), atom("year", 4)),
                obj("q", atom("name", "Zed")),
            ]
        )

    def test_sequence_protocol(self, results):
        assert len(results) == 3
        assert results[0].get("name") == "Bob"
        assert bool(results)
        assert not ResultSet([])

    def test_with_label(self, results):
        assert len(results.with_label("p")) == 2

    def test_where(self, results):
        young = results.where(lambda o: (o.get("year") or 9) < 3)
        assert len(young) == 1

    def test_sorted_by(self, results):
        ordered = results.sorted_by("name")
        assert [o.get("name") for o in ordered] == ["Ann", "Bob", "Zed"]

    def test_sorted_by_missing_values_last(self, results):
        ordered = results.sorted_by("year")
        assert ordered[-1].get("name") == "Zed"

    def test_canonical_deterministic(self, results):
        a = results.canonical().objects()
        b = ResultSet(list(reversed(results.objects()))).canonical().objects()
        assert [str(x) for x in a] == [str(y) for y in b]

    def test_to_python(self, results):
        data = results.to_python()
        assert {"name": "Bob", "year": 2} in data

    def test_pretty_and_dump(self, results):
        assert "Ann" in results.pretty()
        assert results.dump().count(";") == 3

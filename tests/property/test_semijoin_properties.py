"""Property: set-oriented bind joins never change what a query means.

The parameterized-query node is per-tuple in semantics and set-oriented
on the wire: with ``semijoin=True`` (the default) the in-process
wrappers receive one batched filter per probe group, with
``semijoin=False`` one probe per distinct tuple.  Both must yield
**bit-for-bit** the same objects in the same order — mediator-assigned
oids included — and the same warnings, fused or unfused, sequential or
parallel, for every parameter position: label slots, value joins,
nested and rest-condition positions, NULL attributes, duplicate probes,
labels naming no relation, empty tables, and ``1`` / ``1.0`` / ``True``
join keys.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mediator import STRATEGIES, Mediator
from repro.oem.builders import atom, obj
from repro.oem.compare import structural_key
from repro.relational.database import Database
from repro.relational.schema import Attribute, RelationSchema
from repro.wrappers import OEMStoreWrapper, RelationalWrapper, SourceRegistry

from tests.property.strategies import BIND_JOIN_SPECS, bind_join_scenarios

QUERY = "H :- H:<hit {}>@med"


def _fields(**values):
    return [atom(k, v) for k, v in values.items() if v is not None]


def build_forests(scenario):
    """OEM forests built once, so twin mediators share object oids."""
    driver = [
        obj("probe", *_fields(rel=rel, k=key, t=tag))
        for rel, key, tag in scenario["probes"]
    ]
    target = [
        obj(
            relation,
            *_fields(key=key, tag=tag, note=note),
            *([obj("info", atom("tag", tag))] if tag is not None else []),
        )
        for relation in ("emp", "stu")
        for key, tag, note in scenario[relation]
    ]
    return driver, target


def build_registry(scenario, forests) -> SourceRegistry:
    driver, target = forests
    if scenario["relational"]:
        database = Database("tgt")
        for relation in ("emp", "stu"):
            table = database.create_table(
                RelationSchema(
                    relation, [Attribute("key", "real"), "tag", "note"]
                )
            )
            table.insert_many(scenario[relation])
        tgt = RelationalWrapper("tgt", database)
    else:
        tgt = OEMStoreWrapper("tgt", target)
    return SourceRegistry(OEMStoreWrapper("drv", driver), tgt)


def build_mediator(scenario, forests, **kwargs):
    return Mediator(
        "med",
        BIND_JOIN_SPECS[scenario["spec"]] + " ;",
        build_registry(scenario, forests),
        **kwargs,
    )


def exact(result):
    return [repr(o) for o in result], [repr(w) for w in result.warnings]


class TestBatchedEqualsPerTuple:
    @given(
        scenario=bind_join_scenarios(),
        fuse=st.booleans(),
        parallelism=st.sampled_from([1, 4]),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_objects_same_order(self, scenario, fuse, parallelism):
        forests = build_forests(scenario)
        batched, per_tuple = (
            build_mediator(
                scenario,
                forests,
                semijoin=semijoin,
                fuse=fuse,
                parallelism=parallelism,
            )
            for semijoin in (True, False)
        )
        try:
            assert exact(batched.query(QUERY)) == exact(
                per_tuple.query(QUERY)
            )
            shipped = batched.last_context
            sent = per_tuple.last_context.queries_sent.get("tgt", 0)
            if sent:
                # batching engaged, and never costs more calls
                assert 1 <= shipped.semijoin_batches <= sent
                assert shipped.queries_sent["tgt"] == shipped.semijoin_batches
            assert per_tuple.last_context.semijoin_batches == 0
        finally:
            batched.close()
            per_tuple.close()


class TestStrategiesAgree:
    @given(scenario=bind_join_scenarios())
    @settings(max_examples=120, deadline=None)
    def test_every_strategy_answers_the_same_set(self, scenario):
        """Bind joins, hash joins and every join order compare join
        keys as ``values_equal`` does: ``1`` meets ``1.0`` in each."""
        forests = build_forests(scenario)
        answers = set()
        for strategy in STRATEGIES:
            mediator = build_mediator(scenario, forests, strategy=strategy)
            try:
                answers.add(
                    frozenset(map(structural_key, mediator.query(QUERY)))
                )
            finally:
                mediator.close()
        assert len(answers) == 1

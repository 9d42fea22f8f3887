"""Property: every answer route finishes its objects alike.

MSL's head semantics drop duplicates (footnote 9) and fuse the objects
that share a semantic oid (Section 2); an OEM answer never
holds two objects with one oid.  Each route below reaches the same
answer by a different path, and each pair must agree — as multisets of
structural keys, and with no oid twice at the top level:

* a mediator's plan route and its materialization route (the same
  query, forced through a type slot every value of the view satisfies);
* both of those and the planner-free reference (``tests/reference.py``);
* a wrapper answering a query itself and a mediator answering it over a
  pass-through view of that wrapper;
* a sharded source and the unsharded store holding the same objects.

Two objects with distinct semantic oids are two objects even when their
structure is equal: the last source query's oid argument ``C`` is left
out of its object, so dedup must key on the oid as well
(:func:`~repro.oem.compare.dedup_key`), whatever order the rows arrive
in.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mediator import Mediator
from repro.msl.parser import parse_query
from repro.oem import atom, obj
from repro.wrappers import (
    HashPartition,
    OEMStoreWrapper,
    ShardedSource,
    SourceRegistry,
    partition_forest,
    shard_name,
)
from tests.property.strategies import record_forests
from tests.reference import canonical, reference_answer

#: Views over ``rec`` objects (fields ``a``…``d``, integer values): one
#: semantic-oid rule, two rules fusing on one oid, a Rest variable, and a
#: plain head for contrast.
VIEWS = [
    "<&v(A) v {<a A> <b B>}> :- <rec {<a A> <b B>}>@s",
    "<&v(A) v {<a A> <b B>}> :- <rec {<a A> <b B>}>@s ;"
    " <&v(A) v {<a A> <c C>}> :- <rec {<a A> <c C>}>@s",
    "<&v(A) v {<a A> | R}> :- <rec {<a A> | R}>@s",
    "<v {<a A> <b B>}> :- <rec {<a A> <b B>}>@s",
]

#: Queries over the view: ``SLOT`` is ``<L V>`` on the plan route and
#: ``<O L integer V>`` on the materialization route.
QUERIES = [
    "<&q(A) q {<a A> <w V>}> :- <v {<a A> SLOT}>@med",
    "<q {<a A> <w V>}> :- <v {<a A> SLOT}>@med",
    "<&q(V) q {<w A> <v V>}> :- <v {<a A> SLOT}>@med",
]

#: Queries a wrapper or sharded source answers itself.
SOURCE_QUERIES = [
    "<&r(A) r {<a A> <b B>}> :- <rec {<a A> <b B>}>@s",
    "<r {<a A>}> :- <rec {<a A> <b B>}>@s",
    "<&r(C) r {<a A> <c C>}> :- <rec {<a A> <c C>}>@s",
    "<&r(C) r {<a A>}> :- <rec {<a A> <c C>}>@s",
]

#: Fields the generator draws, plus one every record carries so two
#: shards can hold records with one ``a``.
records = record_forests.map(
    lambda forest: [
        obj("rec", atom("a", index % 3), *rec.children)
        if "a" not in {child.label for child in rec.children}
        else rec
        for index, rec in enumerate(forest)
    ]
)


def no_oid_twice(objects) -> bool:
    return len({obj.oid for obj in objects}) == len(objects)


@settings(max_examples=80, deadline=None)
@given(
    forest=records,
    view=st.sampled_from(VIEWS),
    query=st.sampled_from(QUERIES),
)
def test_plan_and_materialization_routes_agree(forest, view, query):
    mediator = Mediator(
        "med", view, SourceRegistry(OEMStoreWrapper("s", forest))
    )
    plan_query = query.replace("SLOT", "<L V>")
    materialized_query = query.replace("SLOT", "<O L integer V>")
    assert not mediator._shape_of(plan_query)[0].materialize
    assert mediator._shape_of(materialized_query)[0].materialize
    planned = mediator.answer(plan_query)
    materialized = mediator.answer(materialized_query)
    assert no_oid_twice(planned) and no_oid_twice(materialized)
    expected = canonical(reference_answer(mediator, plan_query))
    assert canonical(planned) == expected
    assert canonical(materialized) == expected


@settings(max_examples=60, deadline=None)
@given(forest=records, query=st.sampled_from(SOURCE_QUERIES))
def test_wrapper_answers_as_a_mediator_does(forest, query):
    wrapper = OEMStoreWrapper("s", forest)
    mediator = Mediator(
        "med",
        "<rec {<a A> | R}> :- <rec {<a A> | R}>@s",
        SourceRegistry(wrapper),
    )
    direct = wrapper.answer(parse_query(query))
    mediated = mediator.answer(query.replace("@s", "@med"))
    assert no_oid_twice(direct) and no_oid_twice(mediated)
    assert canonical(direct) == canonical(mediated)


@settings(max_examples=60, deadline=None)
@given(
    forest=records,
    query=st.sampled_from(SOURCE_QUERIES),
    label=st.sampled_from(["a", "b"]),
)
def test_sharded_source_answers_as_the_store_does(forest, query, label):
    partition = HashPartition(label, 2)
    shards = [
        OEMStoreWrapper(shard_name("s", index), part)
        for index, part in enumerate(partition_forest(forest, partition))
    ]
    sharded = ShardedSource("s", shards, partition)
    rule = parse_query(query)
    answer = sharded.answer(rule)
    assert no_oid_twice(answer)
    assert canonical(answer) == canonical(
        OEMStoreWrapper("s", forest).answer(rule)
    )


def test_dedup_keeps_objects_with_distinct_semantic_oids():
    forest = [
        obj("rec", atom("a", 0), atom("c", 0)),
        obj("rec", atom("a", 2), atom("c", 0)),
        obj("rec", atom("a", 0), atom("c", 1)),
    ]
    answer = OEMStoreWrapper("s", forest).answer(
        parse_query("<&r(C) r {<a A>}> :- <rec {<a A> <c C>}>@s")
    )
    assert sorted(str(obj.oid) for obj in answer) == ["r(0)", "r(1)"]

"""Relational oids are distinct across a whole export.

A relational oid spells the wrapper, the relation, the row number and,
for a sub-object, the attribute.  Written side by side, row 11 of
``t`` and row 1 of ``t1`` would both read ``&cs_t11``; a relation whose
name a row number could run into sets the number off with ``.``.
"""

import re

from hypothesis import example, given, settings, strategies as st

from repro.oem import parse_oem, to_text
from repro.relational import Database, RelationSchema
from repro.wrappers import RelationalWrapper

#: Identifiers short enough to collide: plain, digit-suffixed,
#: underscored, and a digit and ``_`` before a letter.
names = st.from_regex(r"[ab][1_]{0,3}|[ab]1_[ab]1?", fullmatch=True)

catalogs = st.dictionaries(
    names,
    st.tuples(
        st.lists(names, min_size=1, max_size=3, unique=True),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=1,
    max_size=4,
)


def exported(catalog) -> list:
    database = Database("cs")
    for relation, (attributes, rows) in catalog.items():
        table = database.create_table(RelationSchema(relation, attributes))
        for _ in range(rows):
            table.insert(*["v"] * len(attributes))
    return RelationalWrapper("cs", database).export()


def oids(objects) -> list[str]:
    return [
        str(o.oid) for top in objects for o in (top, *top.children)
    ]


@settings(max_examples=300, deadline=None)
@given(catalogs)
@example({"t": (["a"], 11), "t1": (["a"], 1)})  # &cs_t11
@example({"t": (["b1"], 1), "t1_b": (["a"], 1)})  # &cs_t1_b1
def test_every_oid_in_an_export_is_distinct(catalog):
    objects = exported(catalog)
    spelled = oids(objects)
    assert len(set(spelled)) == len(spelled)
    # the printed export parses back with the same oids
    assert oids(parse_oem(to_text(objects))) == spelled


@settings(max_examples=100, deadline=None)
@given(catalogs)
def test_a_name_nothing_can_run_into_keeps_its_oids(catalog):
    for top in exported(catalog):
        relation = top.label
        if re.search(r"[0-9](_|$)", relation):
            assert str(top.oid).startswith(f"&cs_{relation}.")
            continue
        number = str(top.oid)[len(f"&cs_{relation}"):]
        assert number.isdigit()
        for child in top.children:
            assert str(child.oid) == f"&cs_{relation}{number}_{child.label}"


def test_the_colliding_pair():
    database = Database("cs")
    t = database.create_table(RelationSchema("t", ["a"]))
    for _ in range(11):
        t.insert("v")
    database.create_table(RelationSchema("t1", ["a"])).insert("v")
    spelled = oids(RelationalWrapper("cs", database).export())
    assert "&cs_t11" in spelled and "&cs_t1.1" in spelled
    assert len(set(spelled)) == len(spelled)

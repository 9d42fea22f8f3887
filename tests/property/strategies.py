"""Shared hypothesis strategies for OEM structures and MSL fragments."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.oem import OEMObject, atom, obj

#: Labels drawn from a small vocabulary so structures overlap and join.
labels = st.sampled_from(
    ["person", "name", "dept", "year", "rel", "title", "e_mail", "tag"]
)

#: Atom values that survive text round-trips (no NaN; strings printable).
atom_values = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000),
    st.text(
        alphabet=st.characters(
            codec="ascii", min_codepoint=32, max_codepoint=126
        ),
        max_size=12,
    ),
    st.booleans(),
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)


@st.composite
def oem_objects(draw, max_depth: int = 3) -> OEMObject:
    """A random OEM object of bounded depth."""
    if max_depth <= 1 or draw(st.booleans()):
        return atom(draw(labels), draw(atom_values))
    children = draw(
        st.lists(oem_objects(max_depth=max_depth - 1), max_size=4)
    )
    return obj(draw(labels), *children)


oem_forests = st.lists(oem_objects(), min_size=0, max_size=5)

#: Flat record objects: one label, fields from a fixed set — the shape
#: sources usually export, good for matcher/evaluator properties.
field_names = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def record_objects(draw) -> OEMObject:
    fields = draw(
        st.lists(
            st.tuples(field_names, st.integers(0, 5)),
            min_size=0,
            max_size=4,
            unique_by=lambda pair: pair[0],
        )
    )
    return obj("rec", *[atom(name, value) for name, value in fields])


record_forests = st.lists(record_objects(), min_size=0, max_size=8)


# -- bind-join scenarios ------------------------------------------------
#
# A driver source of ``probe`` objects joined against a target holding
# the relations ``emp`` and ``stu``: the shape of the paper's MS1 (label
# variable ``R`` over relation names, value joins, a Rest variable).

#: Join keys that collide under Python ``==`` but not under MSL equality.
join_keys = st.sampled_from([0, 1, 1.0, True, False, 2, 2.0, "1", "a"])
#: What a relational ``real`` column can hold of those (None = NULL).
relational_keys = st.sampled_from([0, 1, 1.0, 2, 2.0, None])
tags = st.sampled_from(["x", "y", None])

#: Specifications over ``drv`` and ``tgt``, one per parameter position
#: the semi-join path must get right.
BIND_JOIN_SPECS = {
    "label-slot": (
        "<hit {<rel R> <k K> | Rest}> :- <probe {<rel R> <k K>}>@drv"
        " AND <R {<key K> | Rest}>@tgt"
    ),
    "two-values": (
        "<hit {<k K> <t T> | Rest}> :- <probe {<k K> <t T>}>@drv"
        " AND <emp {<key K> <tag T> | Rest}>@tgt"
    ),
    "ms1-shape": (
        "<hit {<rel R> <k K> <t T> | Rest}> :-"
        " <probe {<rel R> <k K> <t T>}>@drv"
        " AND <R {<key K> <tag T> | Rest}>@tgt"
    ),
    "nested": (
        "<hit {<k K> <t T> <n N>}> :- <probe {<k K> <t T>}>@drv"
        " AND <emp {<key K> <info {<tag T>}> <note N>}>@tgt"
    ),
    "rest-condition": (
        "<hit {<k K> <t T> | Rest}> :- <probe {<k K> <t T>}>@drv"
        " AND <emp {<key K> | Rest:{<tag T>}}>@tgt"
    ),
}


@st.composite
def bind_join_scenarios(draw) -> dict:
    """Inputs for one bind join: which spec, what the target is, the
    probe tuples (duplicates, absent tags and labels naming no relation
    included) and the rows of each relation (possibly none)."""
    relational = draw(st.booleans())
    keys = relational_keys if relational else st.one_of(join_keys, st.none())
    rows = st.lists(
        st.tuples(keys, tags, st.sampled_from(["n1", "n2"])), max_size=6
    )
    return {
        "spec": draw(st.sampled_from(sorted(BIND_JOIN_SPECS))),
        "relational": relational,
        "probes": draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["emp", "stu", "ghost"]), join_keys, tags
                ),
                max_size=8,
            )
        ),
        "emp": draw(rows),
        "stu": draw(rows),
    }


# -- prepared ≡ unprepared ----------------------------------------------
#
# Worlds for the metamorphic law "a query answered on a remembered plan
# equals the same query answered by a mediator that never saw its shape"
# (tests/property/test_prepared_properties.py).  Each world is a
# specification, the sources it ranges over, query shapes with ``{n}``
# slots for constants, and the constants worth trying: the ones that
# collide under Python ``==`` but not under MSL equality, a value the
# view's head itself names, and values nothing matches.

#: Constants as MSL text.  ``1`` / ``1.0`` / ``true`` / ``'1'`` /
#: ``'true'`` are five different constants to MSL and (pairwise) equal
#: or look-alike to Python or to a printer.
tricky_constants = ["1", "1.0", "true", "'1'", "'true'", "2", "'x'", "'none'"]

POINT_SPEC = "<item {<key K> <payload P>}> :- <rec {<key K> <payload P>}>@big"

HEAD_CONSTANT_SPEC = (
    "<view {<kind 'x'> <k K> <v V>}> :- <r {<k K> <v V>}>@s ;"
    "<view {<kind 'y'> <k K> <v V>}> :- <q {<k K> <v V>}>@s"
)

LABEL_VARIABLE_SPEC = "<rel {<name L> <k K> | Rest}> :- <L {<k K> | Rest}>@s"

PREPARED_WORLDS = {
    # (shapes, constants per slot)
    "point": (
        [
            "X :- X:<item {{<key {0}>}}>@med",
            "X :- X:<item {{<key {0}> <payload {1}>}}>@med",
            "<o {{<p P>}}> :- <item {{<key {0}> <payload P>}}>@med",
            "X :- X:<item {{<key K> <payload {0}>}}>@med AND K >= {1}",
            "X :- X:<item {{<key {0}>}}>@med AND <item {{<key {1}>}}>@med",
        ],
        tricky_constants + ["'p1'", "'ptrue'"],
    ),
    "ms1": (
        [
            "X :- X:<cs_person {{<name {0}>}}>@med",
            "X :- X:<cs_person {{<year {0}>}}>@med",
            "X :- X:<cs_person {{<rel {0}>}}>@med",
            "X :- X:<cs_person {{<name N> <year Y>}}>@med AND Y > {0}",
            "X :- X:<cs_person {{<year {0}> <rel {1}>}}>@med",
            "<who {{<n N>}}> :- <cs_person {{<name N> <title {0}>}}>@med",
        ],
        ["'Joe Chung'", "'Nick Naive'", "3", "3.0", "'3'", "2", "'student'",
         "'employee'", "'professor'", "'none'", "true"],
    ),
    "bib": (
        [
            "X :- X:<publication {{<year {0}>}}>@bib",
            "X :- X:<publication {{<title {0}>}}>@bib",
            "X :- X:<publication {{<author {0}>}}>@bib",
            "X :- X:<publication {{<year {0}> <venue {1}>}}>@bib",
            "X :- X:<publication {{<title T> <year Y>}}>@bib AND Y >= {0}",
        ],
        ["1993", "1995", "1995.0", "'1995'", "'ICDE'", "'VLDB'",
         "'Views and Objects 1'", "'Mediators in Information Systems 1'",
         "'Ullman, Jeffrey'", "'Jeffrey Ullman'", "'none'"],
    ),
    "head-constant": (
        [
            "X :- X:<view {{<kind {0}>}}>@med",
            "X :- X:<view {{<kind {0}> <k {1}>}}>@med",
            "X :- X:<view {{<k {0}> <v {1}>}}>@med",
        ],
        ["'x'", "'y'", "'z'"] + tricky_constants,
    ),
    "label-variable": (
        [
            "X :- X:<rel {{<name {0}>}}>@med",
            "X :- X:<rel {{<name {0}> <k {1}>}}>@med",
            "X :- X:<rel {{<k {0}>}}>@med",
        ],
        ["'emp'", "'stu'", "'ghost'"] + tricky_constants,
    ),
}


@st.composite
def prepared_cases(draw) -> dict:
    """One world, one of its query shapes, and at least three constant
    tuples for it: always one with a repeated constant and one drawn
    freely (so: equal to the head's, or matching nothing, now and
    then)."""
    world = draw(st.sampled_from(sorted(PREPARED_WORLDS)))
    shapes, constants = PREPARED_WORLDS[world]
    shape = draw(st.sampled_from(shapes))
    slots = 2 if "{1}" in shape else 1
    constant = st.sampled_from(constants)
    tuples = draw(
        st.lists(st.tuples(*[constant] * slots), min_size=2, max_size=4)
    )
    repeated = draw(constant)
    tuples.append((repeated,) * slots)
    return {
        "world": world,
        "shape": shape,
        "constants": tuples,
        "seed": draw(st.integers(0, 3)),
    }

"""The one walk over the MSL tree: where it may be spelled by hand, and
the plan it makes consistent (a bind join through a semantic oid)."""

import re
from pathlib import Path

import repro
from repro.mediator import Mediator
from repro.msl.ast import Var
from repro.msl.evaluate import evaluate_rule
from repro.msl.parser import parse_pattern, parse_query
from repro.msl.walk import (
    OID,
    SEMOID_ARG,
    VALUE,
    descendants,
    rebuild,
    slots,
)
from repro.oem.builders import atom, obj
from repro.oem.oid import OidGenerator
from repro.wrappers import OEMStoreWrapper, SourceRegistry

from tests.reference import OEMOnly, canonical, reference_export

#: The modules that may reach into a Rest spec's conditions, each with
#: why it does not go through :mod:`repro.msl.walk`.
WALKS_BY_HAND = {
    "msl/walk.py": "the walk itself",
    "msl/compile.py": "the compiler lowers each slot to its own code",
    "msl/matcher.py": "the reference matcher",
    "msl/substitute.py": "the reference head builder",
    "msl/lift.py": "lift runs per source call and is faster by hand",
    "wrappers/facts.py": "schema facts read a pattern's structure",
    "mediator/unify.py": "Unifier.attach appends pushed conditions",
}


def test_the_tree_is_walked_in_one_place():
    root = Path(repro.__file__).parent
    offenders = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if "rest.conditions" in path.read_text()
        and str(path.relative_to(root)) not in WALKS_BY_HAND
    )
    assert offenders == []


def test_slot_kinds_of_a_semantic_oid():
    pattern = parse_pattern("<&person(N, 'x y') person {<age A>}>")
    found = [(kind, str(term)) for kind, term, _ in slots(pattern)]
    assert found[:3] == [
        (OID, "&person(N, 'x y')"),
        (SEMOID_ARG, "N"),
        (SEMOID_ARG, "'x y'"),
    ]
    assert (VALUE, "A") in found


def test_rebuild_shares_what_it_leaves():
    rule = parse_query("X :- X:<a {<b 1> <c {<d Y>}>}>@s AND Y > 2")

    def rename_y(kind, term, pattern):
        return Var("Z") if term == Var("Y") else term

    renamed = rebuild(rule, rename_y)
    assert str(renamed) == "X :- X:<a {<b 1> <c {<d Z>}>}>@s AND Z > 2"
    assert renamed.head is rule.head
    (b, c), (b2, c2) = (
        r.tail[0].pattern.value.items for r in (rule, renamed)
    )
    assert b2 is b and c2 is not c
    assert rebuild(rule, lambda kind, term, pattern: term) is rule


def test_descendants_are_the_wildcard_items():
    query = parse_query("X :- X:<a {.. <b {.. <c 1>}> | R:{<d 2>}}>@s")
    assert [str(p) for p in descendants(query)] == ["<c 1>", "<b {.. <c 1>}>"]


# -- a bind join through a semantic oid ---------------------------------

PEOPLE = [
    obj("p", atom("name", "ann"), atom("age", 30)),
    obj("p", atom("name", "bob"), atom("age", 40)),
]
CITIES = [
    obj("q", atom("name", "ann"), atom("city", "x")),
    obj("q", atom("name", "bob"), atom("city", "y")),
    obj("q", atom("name", "cy"), atom("city", "z")),
]
MED1 = "<&person(N) person {<name N> <age A>}> :- <p {<name N> <age A>}>@s2"
MED2 = (
    "<out {<name N> <city C> <age A>}> :- <q {<name N> <city C>}>@s3"
    " AND <&person(N) person {<age A>}>@med1"
)
QUERY = "X :- X:<out {}>@med2"


class Recording(OEMOnly):
    """A source that keeps the text of every query it is sent."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.sent: list[str] = []

    def answer(self, query):
        self.sent.append(str(query))
        return super().answer(query)


def test_a_semantic_oid_argument_is_a_filled_parameter():
    med1 = Mediator(
        "med1", MED1, SourceRegistry(OEMStoreWrapper("s2", PEOPLE))
    )
    recorded = Recording(med1)
    med2 = Mediator(
        "med2",
        MED2,
        SourceRegistry(OEMStoreWrapper("s3", CITIES), recorded),
    )
    plan = med2.explain(QUERY)
    assert "param-query med1 [$N_r1<-N_r1]" in plan
    assert "<&person($N_r1) person {<age A_r1>}>" in plan

    answer = med2.answer(QUERY)
    # every probe names its person: none ships the unnarrowed query
    assert len(recorded.sent) == 3
    for text in recorded.sent:
        assert re.search(r":- <&person\((ann|bob|cy)\) person \{", text), text
    # the answer is the reference's: med1's view from the MSL semantics,
    # then med2's rule over it
    view = reference_export(med1)
    (rule,) = med2.specification.rules
    expected = evaluate_rule(
        rule, {"s3": CITIES, "med1": view}, oidgen=OidGenerator("&r_")
    )
    assert canonical(answer) == canonical(expected)
    assert len(answer) == 2
    # the three probes are one shape to med1: planned once, not per name
    stats = med1._plans.stats()
    assert (stats["misses"], stats["entries"]) == (1, 1)

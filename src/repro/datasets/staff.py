"""The paper's running example: the CS-department staff scenario.

Builds, exactly as printed in the paper:

* the ``cs`` relational source (Figure 2.2's underlying tables) and its
  wrapper;
* the ``whois`` semi-structured source (Figure 2.3's objects);
* the ``med`` mediator with specification MS1 (Section 2), including the
  ``decomp`` external declarations;

plus scaled-up variants of the same shape for benchmarks (every person
appears in ``whois``; employees and students appear in the matching
``cs`` tables; irregular extra fields appear on a fraction of ``whois``
objects, mirroring ``e_mail`` on ``&p1``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.external.registry import ExternalRegistry, default_registry
from repro.mediator.mediator import Mediator
from repro.oem.model import OEMObject
from repro.oem.parser import parse_oem
from repro.relational.database import Database
from repro.relational.schema import Attribute, RelationSchema
from repro.wrappers.capability import Capability
from repro.wrappers.oem_wrapper import OEMStoreWrapper
from repro.wrappers.registry import SourceRegistry
from repro.wrappers.relational_wrapper import RelationalWrapper

__all__ = [
    "WHOIS_TEXT",
    "MS1",
    "MS1_FUSION",
    "JOE_CHUNG_QUERY",
    "YEAR3_QUERY",
    "StaffScenario",
    "build_cs_database",
    "build_whois_objects",
    "build_scenario",
    "build_scaled_scenario",
    "WHOIS_LIMITED_CAPABILITY",
]

#: Figure 2.3 verbatim: the whois wrapper's object structure.
WHOIS_TEXT = """
<&p1, person, set, {&n1,&d1,&rel1,&elm1}>
  <&n1, name, string, 'Joe Chung'>
  <&d1, dept, string, 'CS'>
  <&rel1, relation, string, 'employee'>
  <&elm1, e_mail, string, 'chung@cs'>
;
<&p2, person, set, {&n2,&d2,&rel2,&y2}>
  <&n2, name, string, 'Nick Naive'>
  <&d2, dept, string, 'CS'>
  <&rel2, relation, string, 'student'>
  <&y2, year, integer, 3>
;
"""

#: Section 2's mediator specification MS1 (with the paper's implicit
#: EXT declarations made explicit).
MS1 = """
<cs_person {<name N> <rel R> Rest1 Rest2}> :-
    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
    AND decomp(N, LN, FN)
    AND <R {<first_name FN> <last_name LN> | Rest2}>@cs ;

EXT decomp(bound, free, free) BY name_to_lnfn ;
EXT decomp(free, bound, bound) BY lnfn_to_name ;
"""

#: Section 2 notes MS1's limitation: "it only includes information for
#: people that appear in both cs and whois. In particular, we may wish
#: to include information in med even if it appears in a single source."
#: This fusion variant does exactly that: one rule per source, and
#: semantic object-ids &person(LN, FN) make contributions about the same
#: person fuse into one view object.
MS1_FUSION = """
<&person(LN, FN) cs_person {<name N> <rel R> | Rest1}> :-
    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois
    AND decomp(N, LN, FN) ;

<&person(LN, FN) cs_person {<name N> <rel R> | Rest2}> :-
    <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN) ;

EXT decomp(bound, free, free) BY name_to_lnfn ;
EXT decomp(free, bound, bound) BY lnfn_to_name ;
"""

#: Query Q1 of Section 3.1.
JOE_CHUNG_QUERY = "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med"

#: The Section 3.3 query that triggers the τ1/τ2 pushdown split.
YEAR3_QUERY = "S :- S:<cs_person {<year 3>}>@med"

#: Section 3.5's example limitation: whois cannot evaluate the 'year'
#: condition (it can filter the fields it indexes: name/dept/relation).
WHOIS_LIMITED_CAPABILITY = Capability(
    filterable_labels=frozenset({"name", "dept", "relation"}),
    name="whois-limited",
)


@dataclass
class StaffScenario:
    """Everything the running example needs, wired together."""

    registry: SourceRegistry
    whois: OEMStoreWrapper
    cs: RelationalWrapper
    mediator: Mediator
    externals: ExternalRegistry


def build_cs_database(
    extra_employees: list[tuple[str, str, str, str]] | None = None,
    extra_students: list[tuple[str, str, int]] | None = None,
) -> Database:
    """The ``cs`` relational database with the paper's sample rows."""
    db = Database("cs")
    employee = db.create_table(
        RelationSchema(
            "employee", ["first_name", "last_name", "title", "reports_to"]
        )
    )
    employee.insert("Joe", "Chung", "professor", "John Hennessy")
    student = db.create_table(
        RelationSchema(
            "student",
            ["first_name", "last_name", Attribute("year", "integer")],
        )
    )
    student.insert("Nick", "Naive", 3)
    for row in extra_employees or []:
        employee.insert(*row)
    for row in extra_students or []:
        student.insert(*row)
    return db


def build_whois_objects() -> list[OEMObject]:
    """Figure 2.3's two person objects."""
    return parse_oem(WHOIS_TEXT)


def build_scenario(
    whois_capability: Capability | None = None,
    push_mode: str = "complete",
    strategy: str = "heuristic",
    trace: bool = False,
) -> StaffScenario:
    """The complete running example: whois + cs + med.

    >>> scenario = build_scenario()
    >>> len(scenario.mediator.answer(JOE_CHUNG_QUERY))
    1
    """
    registry = SourceRegistry()
    externals = default_registry()
    whois = OEMStoreWrapper(
        "whois", build_whois_objects(), capability=whois_capability
    )
    cs = RelationalWrapper("cs", build_cs_database())
    registry.register(whois)
    registry.register(cs)
    mediator = Mediator(
        "med",
        MS1,
        registry,
        externals,
        push_mode=push_mode,
        strategy=strategy,
        trace=trace,
    )
    return StaffScenario(registry, whois, cs, mediator, externals)


_FIRST_NAMES = [
    "Joe", "Nick", "Amy", "Dana", "Eli", "Fay", "Gus", "Hana",
    "Ivan", "Jill", "Karl", "Lena", "Mona", "Ned", "Olga", "Pete",
]
_LAST_NAMES = [
    "Chung", "Naive", "Ace", "Birch", "Cole", "Drake", "Eden", "Frost",
    "Gale", "Holt", "Iris", "Jones", "Kane", "Lane", "Moss", "Nash",
]


def build_scaled_scenario(
    people: int,
    seed: int = 1996,
    irregular_fraction: float = 0.3,
    match_fraction: float = 0.9,
    whois_capability: Capability | None = None,
    push_mode: str = "complete",
    strategy: str = "heuristic",
    trace: bool = False,
) -> StaffScenario:
    """A scaled instance of the running example's shape.

    ``people`` persons populate ``whois``; a ``match_fraction`` of them
    also appear in the matching ``cs`` table (employee or student), so
    the mediator's join selects that fraction.  An
    ``irregular_fraction`` of whois objects carry extra fields
    (``e_mail``, ``office``, ``birthday``) — the semi-structured
    irregularity of Figure 2.3.  Names are unique: ``First LastK``.
    """
    rng = random.Random(seed)
    registry = SourceRegistry()
    externals = default_registry()

    db = Database("cs")
    employee = db.create_table(
        RelationSchema(
            "employee", ["first_name", "last_name", "title", "reports_to"]
        )
    )
    student = db.create_table(
        RelationSchema(
            "student",
            ["first_name", "last_name", Attribute("year", "integer")],
        )
    )

    whois_lines: list[str] = []
    for index in range(people):
        first = _FIRST_NAMES[index % len(_FIRST_NAMES)]
        last = f"{_LAST_NAMES[(index // len(_FIRST_NAMES)) % len(_LAST_NAMES)]}{index}"
        relation = "employee" if rng.random() < 0.5 else "student"
        oid = f"&sp{index}"
        subs = [
            f"<&sn{index}, name, string, '{first} {last}'>",
            f"<&sd{index}, dept, string, 'CS'>",
            f"<&sr{index}, relation, string, '{relation}'>",
        ]
        if rng.random() < irregular_fraction:
            subs.append(
                f"<&se{index}, e_mail, string,"
                f" '{first.lower()}{index}@cs'>"
            )
        if rng.random() < irregular_fraction / 2:
            subs.append(f"<&so{index}, office, string, 'Gates {index % 10}'>")
        if rng.random() < irregular_fraction / 3:
            subs.append(f"<&sy{index}, birthday, string, '1970-01-{1 + index % 28:02d}'>")
        refs = ",".join(s.split(",")[0].strip("<") for s in subs)
        whois_lines.append(f"<{oid}, person, set, {{{refs}}}>")
        whois_lines.extend("  " + s for s in subs)
        whois_lines.append(";")

        if rng.random() < match_fraction:
            if relation == "employee":
                employee.insert(
                    first, last, rng.choice(
                        ["professor", "lecturer", "staff", "postdoc"]
                    ),
                    "John Hennessy",
                )
            else:
                student.insert(first, last, rng.randint(1, 5))

    whois = OEMStoreWrapper(
        "whois",
        parse_oem("\n".join(whois_lines)),
        capability=whois_capability,
    )
    cs = RelationalWrapper("cs", db)
    registry.register(whois)
    registry.register(cs)
    mediator = Mediator(
        "med",
        MS1,
        registry,
        externals,
        push_mode=push_mode,
        strategy=strategy,
        trace=trace,
    )
    return StaffScenario(registry, whois, cs, mediator, externals)

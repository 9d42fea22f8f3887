"""The plans of all four strategies, pinned node for node.

``fetch_all`` is the bind-join pipeline that never parameterizes, not a
builder of its own; these pins hold the plan section of ``explain()`` —
logical program, physical graph and fusion decisions, as a digest — and
every node's ``estimated_rows``, in analyze order, for the MS1,
bibliography and campus scenarios.  Each scenario's queries run in
sequence on one mediator, so the later ones are planned under
statistics the earlier ones taught it.

The estimates were first taken while ``fetch_all`` still had a builder
of its own, and again when the extractor nodes went: each list then
lost its extractors' entries (and, under ``fetch_all`` on MS1, the
entry of the extractor → external-predicate pipeline, which left a
single operator), every other value unchanged.
"""

import hashlib

import pytest

from repro.datasets import (
    JOE_CHUNG_QUERY,
    YEAR3_QUERY,
    build_bibliography,
    build_campus_scenario,
    build_scenario,
)
from repro.mediator import Mediator

BIND_JOIN = ("heuristic", "statistics", "exhaustive")
STRATEGIES = BIND_JOIN + ("fetch_all",)
ALL_PERSONS = "X :- X:<cs_person {}>@med"
BIB_ANY = "P :- P:<publication {<year Y>}>@bib"
BIB_1995 = "P :- P:<publication {<year 1995>}>@bib"
GOLD = "G :- G:<gold_member {}>@campus"

SCENARIOS = {
    "ms1": (build_scenario, [JOE_CHUNG_QUERY, YEAR3_QUERY, ALL_PERSONS]),
    "bibliography": (
        lambda: build_bibliography(12), [BIB_ANY, BIB_1995]
    ),
    "campus": (lambda: build_campus_scenario(60), [GOLD]),
}

_J = 0.10000000000000002
_Y = 0.49500000000000005
_P = 4.7125
#: (scenario, query) -> {strategies: (plan digest, estimated_rows)}
PINS = {
    ("ms1", JOE_CHUNG_QUERY): {
        BIND_JOIN: (
            "aec6c885adbad7d3",
            [1.0, None, None, _J, None, 1.0, None, None, _J, None, None],
        ),
        ("fetch_all",): (
            "96f8eeac3f0a629a",
            [1.0, None, 100.0, _J, None, 1.0, None, 100.0, _J, None, None],
        ),
    },
    ("ms1", YEAR3_QUERY): {
        BIND_JOIN: (
            "e6278c9e8a19e5dc",
            [_Y, None, None, 0.049500000000000016, None, 4.95, None, None,
             0.04950000000000001, None, None],
        ),
        ("fetch_all",): (
            "4ce5d0018ee3c554",
            [_Y, None, 100.0, 0.049500000000000016, None, 4.95, None, 10.0,
             0.04950000000000001, None, None],
        ),
    },
    ("ms1", ALL_PERSONS): {
        BIND_JOIN: (
            "0db66d9c60f739a5",
            [_P, None, None, 0.4712500000000001, None],
        ),
        ("fetch_all",): (
            "b9e56d53d113f4d0",
            [_P, None, 100.0, 0.4712500000000001, None],
        ),
    },
    ("bibliography", BIB_ANY): {
        STRATEGIES: (
            "12a2c1eefa43632b",
            [100.0, None, None, None] * 3 + [None],
        ),
    },
    ("bibliography", BIB_1995): {
        STRATEGIES: (
            "d2536213b69f8144",
            [1.0, None, None, None] + [0.45, None, None, None] * 2 + [None],
        ),
    },
    ("campus", GOLD): {
        BIND_JOIN: (
            "0bc6a7345c4b76a0",
            [10.0, None, 10.0, 100.0, 1000.0, None],
        ),
        ("fetch_all",): (
            "f6dc87674301da49",
            [10.0, 10.0, 10.0, 100.0, 100.0, 100.0, 1000.0, None],
        ),
    },
}

PLAN_SECTIONS = (
    "logical datamerge program",
    "physical datamerge graph",
    "operator fusion",
)


def plan_sections(text):
    """The plan part of ``explain()``: everything else reports state
    (caches, profile, statistics) that planning does not decide."""
    return "\n\n".join(
        section
        for section in ("\n\n" + text).split("\n\n-- ")
        if section.startswith(PLAN_SECTIONS)
    )


def pinned(scenario, query, strategy):
    for strategies, pin in PINS[(scenario, query)].items():
        if strategy in strategies:
            return pin
    raise KeyError(strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_plans_are_pinned_node_for_node(scenario, strategy):
    build, queries = SCENARIOS[scenario]
    built = build().mediator
    mediator = Mediator(
        built.name,
        built.specification,
        built.sources,
        built.externals,
        strategy=strategy,
        register=False,
    )
    for query in queries:
        digest, estimates = pinned(scenario, query, strategy)
        text = plan_sections(mediator.explain(query))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, text
        report = mediator.explain_analyze(query)
        assert [
            node["estimated_rows"] for node in report.to_dict()["nodes"]
        ] == estimates
    mediator.close()

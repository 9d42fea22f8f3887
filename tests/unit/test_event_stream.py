"""The engine's event stream (:mod:`repro.mediator.events`).

One event per node run and per source call, raised where the work
happens; whoever watches a query subscribes.  These tests pin the
stream itself (the exact event sequence of the Figure 3.6 query under
every execution mode), that watching never changes what is watched
(analyze and telemetry on vs. off, bit for bit), that nobody watching is
a supported configuration, and that the materialization route ships
through the same call site as every planned query.
"""

import random

import pytest

from repro.datasets import JOE_CHUNG_QUERY, build_bibliography, build_scenario
from repro.datasets.staff import build_scaled_scenario
from repro.exec import AnswerCache
from repro.mediator import DatamergeEngine, ExecutionContext, Mediator
from repro.mediator.events import Event
from repro.msl import parse_query
from repro.oem import atom, obj
from repro.oem.printer import to_text
from repro.reliability import (
    FaultInjectingSource,
    ManualClock,
    ResilienceConfig,
    RetryPolicy,
)
from repro.wrappers import OEMStoreWrapper, SourceRegistry

from ..reference import OEMOnly

ALL_QUERY = "ALL :- ALL:<cs_person {}>@med"
EVERY_KIND = frozenset(
    {
        "plan-stage", "plan-node", "source-call", "pattern-match",
        "external-predicate",
    }
)


class Recording:
    """A subscriber that writes down every finished event."""

    kinds = EVERY_KIND
    opens = frozenset()

    def __init__(self):
        self.events = []

    def end(self, event):
        attributes = event.attributes
        if event.kind == "plan-node":
            row = (event.name, event.rows_in, attributes["rows_out"])
        elif event.kind == "source-call":
            row = (event.name, attributes["objects"])
        elif event.kind == "pattern-match":
            row = (attributes["objects"], attributes["matches"])
        else:
            row = (event.name,)
        assert event.seconds >= 0.0
        self.events.append((event.kind, *row))


def watch(mediator, monkeypatch, recording=None):
    """Subscribe ``recording`` (a :class:`Recording` by default) to
    every run of ``mediator``."""
    recording = Recording() if recording is None else recording
    build = mediator._context

    def watched():
        context = build()
        if recording not in context.subscribers:
            context.subscribers += (recording,)
        return context

    monkeypatch.setattr(mediator, "_context", watched)
    return recording


# -- (i) the exact sequence -------------------------------------------------

#: Figure 3.6, bottom-up: Qw, the external predicate, the
#: parameterized query into cs, the constructor — ``(node class, rows
#: in, rows out)`` plus what each raises underneath.  The wrappers
#: answer with rows, so no answer is matched for its bindings.
FIGURE_3_6 = [
    [("source-call", "whois", 1)],
    [("external-predicate", "decomp")],
    [("source-call", "cs", 1)],
    [],
]
NODES = [
    ("QueryNode", 0, 1),
    ("ExternalPredNode", 1, 1),
    ("ParameterizedQueryNode", 1, 1),
    ("ConstructorNode", 1, 1),
]


def expected_sequence():
    events = []
    for stage, (inner, node) in enumerate(zip(FIGURE_3_6, NODES), 1):
        events += inner
        events += [("plan-node", *node), ("plan-stage", f"stage-{stage}")]
    return events


#: Production, EXPLAIN ANALYZE and trace mode run one plan, so they
#: raise one sequence.  (The ids of the first four cases date from
#: operator fusion: production keeps "fused", analyze takes "unfused".)
@pytest.mark.parametrize(
    "kwargs, analyze",
    [
        ({}, False),
        ({"parallelism": 4}, False),
        ({}, True),
        ({"parallelism": 4}, True),
        ({"trace": True}, False),
        ({"trace": True, "parallelism": 4}, False),
    ],
    ids=["fused", "fused-p4", "unfused", "unfused-p4", "trace", "trace-p4"],
)
def test_figure_3_6_event_sequence(kwargs, analyze, monkeypatch):
    scenario = build_scenario(push_mode="needed")
    mediator = Mediator(
        "med",
        scenario.mediator.specification,
        scenario.registry,
        scenario.externals,
        push_mode="needed",
        register=False,
        **kwargs,
    )
    recording = watch(mediator, monkeypatch)
    try:
        if analyze:
            objects = mediator.explain_analyze(JOE_CHUNG_QUERY).objects
        else:
            objects = mediator.answer(JOE_CHUNG_QUERY)
        assert len(objects) == 1
    finally:
        mediator.close()
    assert recording.events == expected_sequence()
    # one source-call event per shipped query, no more
    context = mediator.last_context
    shipped = [e for e in recording.events if e[0] == "source-call"]
    assert len(shipped) == context.total_queries == 2
    if kwargs.get("trace"):
        # the Figure 3.6 recorder is one more subscriber of the same
        # stream: same nodes, plan order
        assert [
            type(entry.node).__name__ for entry in context.trace
        ] == [name for name, _, _ in NODES]


@pytest.mark.parametrize("parallelism", [1, 4])
def test_an_oem_answer_is_matched_where_it_arrives(parallelism, monkeypatch):
    # sources that speak OEM only: each answer's carrier objects are
    # matched right after the call, inside the node that made it
    scenario = build_scenario(push_mode="needed")
    mediator = Mediator(
        "med",
        scenario.mediator.specification,
        SourceRegistry(*(OEMOnly(s) for s in (scenario.whois, scenario.cs))),
        scenario.externals,
        push_mode="needed",
        register=False,
        parallelism=parallelism,
    )
    recording = watch(mediator, monkeypatch)
    try:
        assert len(mediator.answer(JOE_CHUNG_QUERY)) == 1
    finally:
        mediator.close()
    events = [e for e in recording.events if e[0] != "plan-stage"]
    assert events == [
        ("source-call", "whois", 1),
        ("pattern-match", 1, 1),
        ("plan-node", *NODES[0]),
        ("external-predicate", "decomp"),
        ("plan-node", *NODES[1]),
        ("source-call", "cs", 1),
        ("pattern-match", 1, 1),
        ("plan-node", *NODES[2]),
        ("plan-node", *NODES[3]),
    ]


def test_source_call_events_match_shipped_queries_on_a_fan_out(monkeypatch):
    for parallelism in (1, 4):
        scenario = build_scaled_scenario(24)
        mediator = Mediator(
            "med",
            scenario.mediator.specification,
            scenario.registry,
            scenario.externals,
            register=False,
            parallelism=parallelism,
            semijoin=False,
        )
        recording = watch(mediator, monkeypatch)
        try:
            mediator.export()
        finally:
            mediator.close()
        calls = {}
        for event in recording.events:
            if event[0] == "source-call":
                calls[event[1]] = calls.get(event[1], 0) + 1
        assert calls == mediator.last_context.queries_sent
        assert sum(calls.values()) > 24  # one probe per person, at least


class NodeOrder:
    """A subscriber that writes down which node each run was."""

    kinds = frozenset({"plan-node"})
    opens = frozenset()

    def __init__(self):
        self.nodes = []

    def end(self, event):
        self.nodes.append(event.subject)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_misestimate_leaves_later_stages_in_plan_order(
    parallelism, monkeypatch
):
    # a stage-1 leaf comes back far beyond 4x its estimate; nothing
    # about the run reacts — every later stage runs its nodes in the
    # order the plan lists them — and the next call is planned again
    scenario = build_scaled_scenario(60)
    mediator = Mediator(
        "med",
        scenario.mediator.specification,
        scenario.registry,
        scenario.externals,
        register=False,
        parallelism=parallelism,
    )
    order = watch(mediator, monkeypatch, NodeOrder())
    try:
        plan = mediator._planned(*mediator._shape_of(ALL_QUERY))[0].plan
        report = mediator.explain_analyze(ALL_QUERY)
        assert mediator._plans.stats()["replans"] == 0
        mediator.answer(ALL_QUERY)
        assert mediator._plans.stats()["replans"] == 1
    finally:
        mediator.close()
    doc = report.to_dict()
    stage_one = {n["key"] for n in doc["nodes"] if n["stage"] == 1}
    assert any(
        entry["node"] in stage_one
        and entry["actual_rows"] > 4 * entry["estimated_rows"]
        for entry in doc["misestimates"]
    )
    stage_of = {
        id(node): number
        for number, group in enumerate(plan.stages(), 1)
        for node in group
    }
    nodes = plan.nodes()
    ran = order.nodes[: len(nodes)]  # the analyzed run's
    later = [node for node in ran if stage_of[id(node)] > 1]
    assert len(later) == sum(stage_of[id(node)] > 1 for node in nodes) > 0
    assert later == sorted(
        later,
        key=lambda node: (stage_of[id(node)], nodes.index(node)),
    )


# -- (ii) watching changes nothing ------------------------------------------


def _ms1(**kwargs):
    scenario = build_scaled_scenario(24)
    return Mediator(
        "med",
        scenario.mediator.specification,
        scenario.registry,
        scenario.externals,
        register=False,
        **kwargs,
    )


def _bibliography(**kwargs):
    scenario = build_bibliography(30)
    return Mediator(
        "bib2",
        scenario.mediator.specification,
        scenario.mediator.sources,
        scenario.mediator.externals,
        register=False,
        **kwargs,
    )


def _degraded(**kwargs):
    scenario = build_scaled_scenario(16, push_mode="needed")
    clock = ManualClock()
    rng = random.Random(7)
    for name in ("whois", "cs"):
        inner = scenario.registry.resolve(name)
        scenario.registry.deregister(name)
        scenario.registry.register(
            FaultInjectingSource(
                inner, seed=rng.randrange(2**31), clock=clock, fault_rate=0.3
            )
        )
    return Mediator(
        "med",
        scenario.mediator.specification,
        scenario.registry,
        scenario.externals,
        push_mode="needed",
        register=False,
        on_source_failure="degrade",
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            breaker_threshold=3,
            breaker_cooldown=1.0,
        ),
        clock=clock,
        semijoin=False,
        **kwargs,
    )


def _observed(objects, warnings):
    """Answers with their oids, in order, and the warnings, verbatim."""
    return [to_text([o]) for o in objects], [w.render() for w in warnings]


BUILDERS = {
    "ms1": (_ms1, ALL_QUERY),
    "bibliography": (_bibliography, "P :- P:<publication {<year Y>}>@bib2"),
    "degraded": (_degraded, "X :- X:<cs_person {<name N>}>@med"),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_telemetry_on_equals_telemetry_off(name):
    build, query = BUILDERS[name]
    seen = []
    for telemetry in (False, True):
        mediator = build(telemetry=telemetry)
        exported = mediator.export()
        first = _observed(exported, mediator.last_warnings)
        result = mediator.query(query)
        seen.append((first, _observed(list(result), result.warnings)))
        mediator.close()
    assert seen[0] == seen[1]
    assert seen[0][0][0]  # something was exported
    if name == "degraded":
        assert seen[0][0][1]  # and something warned


@pytest.mark.parametrize("name", BUILDERS)
def test_analyze_on_equals_analyze_off(name):
    build, query = BUILDERS[name]
    plain = build()
    result = plain.query(query)
    analyzed = build()
    report = analyzed.explain_analyze(query)
    assert _observed(report.objects, report.warnings) == _observed(
        list(result), result.warnings
    )
    assert any(node.calls for node in report.insight.nodes)
    plain.close()
    analyzed.close()


# -- (iii) nobody watching ----------------------------------------------------


def test_a_context_without_subscribers_executes_a_plan():
    scenario = build_scenario(push_mode="needed")
    mediator = scenario.mediator
    plan = mediator.optimizer.plan_program(
        mediator.expander.expand(parse_query(JOE_CHUNG_QUERY))
    )
    context = ExecutionContext(
        sources=scenario.registry, externals=mediator.externals
    )
    assert context.subscribers == ()
    objects = DatamergeEngine().execute_to_objects(plan, context)
    assert len(objects) == 1
    assert context.queries_sent == {"whois": 1, "cs": 1}
    assert context.trace is None
    # raising into an empty stream builds no payload and tells no one
    event = Event((), "plan-node", "QueryNode")
    assert not event.heard
    event.end()


def test_failed_work_is_reported_only_to_subscribers_that_saw_it_begin():
    class Bracketing(Recording):
        opens = EVERY_KIND

        def begin(self, event):
            self.events.append(("begin", event.kind))

        def end(self, event):
            self.events.append(("end", event.kind, type(event.error).__name__))

    watching, bracketing = Recording(), Bracketing()
    event = Event((watching, bracketing), "external-predicate", "boom")
    event.end(ValueError("boom"))
    assert watching.events == []
    assert bracketing.events == [
        ("begin", "external-predicate"),
        ("end", "external-predicate", "ValueError"),
    ]


# -- (iv) the materialization route ships through the same call site ---------

TC_SPEC = """
<path {<src X> <dst Y>}> :- <edge {<src X> <dst Y>}>@g ;
<path {<src X> <dst Z>}> :-
    <edge {<src X> <dst Y>}>@g AND <path {<src Y> <dst Z>}>@tc
"""
TC_QUERY = "P :- P:<path {<src 'n0'> <dst 'n5'>}>@tc"


def _closure_mediator(**kwargs):
    edges = [
        obj("edge", atom("src", f"n{i}"), atom("dst", f"n{i + 1}"))
        for i in range(6)
    ]
    registry = SourceRegistry(OEMStoreWrapper("g", edges))
    return Mediator("tc", TC_SPEC, registry, **kwargs)


class TestRecursiveViewRunsInAnExecutionContext:
    def test_cache_bulkhead_and_counters_cover_source_exports(self):
        cache = AnswerCache()
        mediator = _closure_mediator(cache=cache, bulkheads=1, telemetry=True)
        assert len(mediator.answer(TC_QUERY)) == 1
        context = mediator.last_context
        assert isinstance(context, ExecutionContext)
        assert context.queries_sent == {"g": 1}
        assert context.objects_received == {"g": 6}
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 1)
        assert len(mediator.answer(TC_QUERY)) == 1
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert mediator.last_context.queries_sent == {}
        bulkhead = mediator.dispatcher.stats()["bulkheads"]["g"]
        assert bulkhead["acquired"] == 1
        assert 'repro_source_calls_total{source="g"} 1' in (
            mediator.metrics_text()
        )
        spans = [
            span
            for span in mediator.telemetry.tracer.spans()
            if span.kind == "source-call"
        ]
        assert [(s.name, s.attributes["export"]) for s in spans] == [
            ("g", True)
        ]
        mediator.close()

    def test_explain_analyze_lists_the_exports_made(self):
        report = _closure_mediator().explain_analyze(TC_QUERY)
        assert len(report.objects) == 1
        (export,) = report.to_dict()["source_exports"]
        assert (export["source"], export["objects"]) == ("g", 6)
        assert export["seconds"] > 0.0
        text = report.render()
        assert "answered by materialization" in text
        assert "g: 6 object(s) in" in text

    def test_explain_does_not_print_a_plan_it_will_not_run(self):
        text = _closure_mediator().explain(TC_QUERY)
        assert "answered by materialization" in text
        assert "the view is recursive" in text
        assert "param-query" not in text
        assert "-- physical datamerge graph --" not in text

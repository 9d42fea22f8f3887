"""The end-to-end harness (``benchmarks/e2e``) still runs on this tree.

The harness's traced runs replay ``Mediator.answer`` / ``export`` stage
by stage, so it imports and calls mediator internals by name.  A change
that renames or removes one of them breaks the benchmark run, which no
other tier-1 test imports.  This runs every workload's staged replay
once at ``QUICK`` scale and checks each internal the harness names.
"""

import sys
from pathlib import Path

import pytest

from repro.mediator import Mediator
from repro.mediator import pipeline
from repro.msl.parser import parse_query

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
if str(E2E) not in sys.path:
    sys.path.insert(0, str(E2E))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1996


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request):
    built = workloads.WORKLOADS[request.param](SEED, workloads.QUICK)
    built.build()
    built.derive_expected()
    yield built
    built.close()


def test_staged_replay_answers_every_workload(workload):
    request = workload.request()
    objects, context, counts = workload.staged(
        request, tracing.SpanRecorder()
    )
    assert len(objects) == workload.expected_count(request)
    assert workload.matches(request, objects)
    assert counts["plan_nodes"] > 0
    assert counts["fused_operators"] == 0
    assert context is not None
    assert workload.matches(request, workload.run(request))


def test_the_internals_the_harness_names_exist():
    assert callable(harness.run_traced)
    assert Mediator.fuse is False
    point = workloads.WORKLOADS["point_lookup"](SEED, workloads.QUICK)
    point.build()
    try:
        mediator = point.mediator
        assert mediator.fuse is False
        key = point.request()
        program = mediator.expander.expand(parse_query(point.query_text(key)))
        plan = mediator.optimizer.plan_program(program)
        assert pipeline.fuse_plan(plan) == (plan, [])
        rule_plan = mediator.optimizer.plan_rule(program.rules[0])
        assert rule_plan.nodes()
        objects = mediator.engine.execute_to_objects(plan, mediator._context())
        assert point.matches(key, objects)
    finally:
        point.close()

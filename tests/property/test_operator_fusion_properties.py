"""Property: production, trace mode and EXPLAIN ANALYZE run one plan.

A mediator runs the node-per-operator plan of its query shape whether
it answers plainly, records the Figure 3.6 trace (``trace=True``) or
records per-node actuals (``explain_analyze``).  Watching a run is a
subscriber of its event stream and nothing else, so the watched run's
output is **bit-for-bit** the plain one's — same answer objects
*including mediator-assigned oids*, same warnings, same budget
truncation points and violation texts, and the same per-operator
profile row counts — at any parallelism, under both budget modes, and
under injected source faults.  The plain answers also equal the
planner-free reference (``tests/reference.py``) up to oids.

Each case builds *twin* scenarios from one seed — two identical source
registries, two fresh mediators, the second one in trace mode — and
compares ``repr`` streams, which capture oids verbatim.  The class and
test names are those of the operator-fusion properties these grew
out of: "fused" is the production mediator, "unfused" the traced one
(trace mode used to run the unfused plan).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.staff import build_scaled_scenario
from repro.governor import BudgetExceeded, QueryBudget
from repro.mediator import Mediator
from repro.reliability import (
    FaultInjectingSource,
    ManualClock,
    ResilienceConfig,
    RetryPolicy,
)

from ..reference import canonical, reference_answer

FANOUT_QUERY = "S :- S:<cs_person {<rel 'student'>}>@med"


def exact(objects):
    """Bit-for-bit object stream: repr includes the assigned oid."""
    return [repr(o) for o in objects]


def exact_warnings(warnings):
    return [repr(w) for w in warnings]


def make_pair(people, seed, **kwargs):
    """Twin mediators over twin scenarios: (production, traced).

    Two scenarios are built from the same seed so each mediator owns
    its own sources and its own oid generator — any divergence between
    the pair is then attributable to trace mode alone.
    """
    mediators = []
    for trace in (False, True):
        scenario = build_scaled_scenario(
            people, seed=seed, push_mode="needed"
        )
        mediators.append(
            Mediator(
                "med",
                scenario.mediator.specification,
                scenario.registry,
                scenario.externals,
                push_mode="needed",
                register=False,
                trace=trace,
                **kwargs,
            )
        )
    return tuple(mediators)


def node_counts(mediator):
    """Per-operator (calls, rows) from the profiler."""
    nodes = mediator.profiler.snapshot()["nodes"]
    return {
        name: (entry["calls"], entry["rows"])
        for name, entry in nodes.items()
    }


def traced_nodes(production, traced):
    """The traced run recorded one entry per node of the plan the
    production mediator runs for the shape, in plan order."""
    plan = production._planned(*production._shape_of(FANOUT_QUERY))[0].plan
    return [type(entry.node).__name__ for entry in traced.engine.last_trace] == [
        type(node).__name__ for node in plan.nodes()
    ]


class TestFusedEqualsUnfused:
    @given(
        people=st.integers(min_value=4, max_value=28),
        seed=st.integers(min_value=0, max_value=10_000),
        parallelism=st.sampled_from([1, 8]),
    )
    @settings(max_examples=10, deadline=None)
    def test_answers_warnings_and_profile(self, people, seed, parallelism):
        production, traced = make_pair(people, seed, parallelism=parallelism)
        analyzed = make_pair(people, seed, parallelism=parallelism)[0]
        result = production.query(FANOUT_QUERY)
        traced_result = traced.query(FANOUT_QUERY)
        report = analyzed.explain_analyze(FANOUT_QUERY)
        assert exact(result) == exact(traced_result) == exact(report.objects)
        assert exact_warnings(result.warnings) == exact_warnings(
            traced_result.warnings
        )
        assert node_counts(production) == node_counts(traced)
        assert node_counts(production) == node_counts(analyzed)
        assert traced_nodes(production, traced)
        assert canonical(result) == canonical(
            reference_answer(production, FANOUT_QUERY)
        )

    @given(
        people=st.integers(min_value=8, max_value=28),
        seed=st.integers(min_value=0, max_value=10_000),
        max_total_rows=st.integers(min_value=5, max_value=60),
        parallelism=st.sampled_from([1, 8]),
    )
    @settings(max_examples=10, deadline=None)
    def test_truncate_budget_same_cut_point(
        self, people, seed, max_total_rows, parallelism
    ):
        """Truncation must clip both runs at the same row."""
        production, traced = make_pair(
            people,
            seed,
            parallelism=parallelism,
            budget=QueryBudget(max_total_rows=max_total_rows),
            budget_mode="truncate",
        )
        result = production.query(FANOUT_QUERY)
        traced_result = traced.query(FANOUT_QUERY)
        assert exact(result) == exact(traced_result)
        assert exact_warnings(result.warnings) == exact_warnings(
            traced_result.warnings
        )

    @given(
        people=st.integers(min_value=8, max_value=28),
        seed=st.integers(min_value=0, max_value=10_000),
        max_result_objects=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=8, deadline=None)
    def test_truncate_result_objects(self, people, seed, max_result_objects):
        production, traced = make_pair(
            people,
            seed,
            budget=QueryBudget(max_result_objects=max_result_objects),
            budget_mode="truncate",
        )
        result = production.query(FANOUT_QUERY)
        traced_result = traced.query(FANOUT_QUERY)
        assert exact(result) == exact(traced_result)
        assert exact_warnings(result.warnings) == exact_warnings(
            traced_result.warnings
        )

    @given(
        people=st.integers(min_value=10, max_value=28),
        seed=st.integers(min_value=0, max_value=10_000),
        max_total_rows=st.integers(min_value=3, max_value=30),
    )
    @settings(max_examples=8, deadline=None)
    def test_strict_budget_same_violation(self, people, seed, max_total_rows):
        """Strict mode must blame the same node with the same message."""
        production, traced = make_pair(
            people,
            seed,
            budget=QueryBudget(max_total_rows=max_total_rows),
            budget_mode="strict",
        )
        outcomes = []
        for mediator in (production, traced):
            try:
                result = mediator.query(FANOUT_QUERY)
            except BudgetExceeded as exc:
                outcomes.append(("raised", str(exc)))
            else:
                outcomes.append(("ok", exact(result)))
        assert outcomes[0] == outcomes[1]


class TestFusionUnderFaults:
    """A chaos-harness slice: seeded faults, degrade mode, traced or not.

    A traced run issues the same source calls in the same order, so a
    seeded fault schedule hits both runs identically — surviving
    answers *and* degrade warnings must still match bit-for-bit.
    """

    @staticmethod
    def build_faulty(people, seed, fault_seed, trace):
        scenario = build_scaled_scenario(
            people, seed=seed, push_mode="needed"
        )
        clock = ManualClock()
        for index, name in enumerate(("whois", "cs")):
            inner = scenario.registry.resolve(name)
            scenario.registry.deregister(name)
            scenario.registry.register(
                FaultInjectingSource(
                    inner,
                    seed=fault_seed + index,
                    fault_rate=0.3,
                    latency=0.01,
                    clock=clock,
                )
            )
        return Mediator(
            "med",
            scenario.mediator.specification,
            scenario.registry,
            scenario.externals,
            push_mode="needed",
            register=False,
            trace=trace,
            on_source_failure="degrade",
            resilience=ResilienceConfig(
                # shallow retries so some faults *surface* as degrade
                # warnings — the interesting case for equality
                retry=RetryPolicy(
                    max_attempts=2, base_delay=0.01, jitter=0.0
                ),
                breaker_threshold=100,
            ),
            clock=clock,
        )

    @given(
        people=st.integers(min_value=6, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
        fault_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_fault_schedule_hits_both_paths_identically(
        self, people, seed, fault_seed
    ):
        production = self.build_faulty(people, seed, fault_seed, trace=False)
        traced = self.build_faulty(people, seed, fault_seed, trace=True)
        result = production.query(FANOUT_QUERY)
        traced_result = traced.query(FANOUT_QUERY)
        assert exact(result) == exact(traced_result)
        assert exact_warnings(result.warnings) == exact_warnings(
            traced_result.warnings
        )


class TestFusionSurface:
    def test_export_is_bit_for_bit(self):
        production, traced = make_pair(24, seed=7)
        assert exact(production.export()) == exact(traced.export())

    @pytest.mark.parametrize("strategy", ["heuristic", "fetch_all"])
    def test_strategies(self, strategy):
        """fetch_all plans put a JoinNode mid-plan; traced or not, the
        answer is the same and equals the reference's."""
        mediators = []
        for trace in (False, True):
            scenario = build_scaled_scenario(
                20, seed=11, push_mode="needed", strategy=strategy
            )
            mediators.append(
                Mediator(
                    "med",
                    scenario.mediator.specification,
                    scenario.registry,
                    scenario.externals,
                    push_mode="needed",
                    strategy=strategy,
                    register=False,
                    trace=trace,
                )
            )
        production, traced = mediators
        result = production.query(FANOUT_QUERY)
        assert exact(result) == exact(traced.query(FANOUT_QUERY))
        assert canonical(result) == canonical(
            reference_answer(production, FANOUT_QUERY)
        )

"""Property: EXPLAIN ANALYZE never changes what a query means.

The observation contract of the plan-observability subsystem: an
analyzed run (``explain_analyze``) produces bit-for-bit the same result
objects (by structural key — oids are run-specific) and the same
warnings as the plain ``query`` path, across dataset seeds, parallelism
1 and 8, fusion on and off, and a retry-masked fault schedule.  The
insight recorder only *reads* the rows flowing between operators, and
a misestimate it reports changes nothing about the run it was seen in.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import MS1, build_cs_database, build_whois_objects
from repro.datasets.staff import build_scaled_scenario
from repro.external.registry import default_registry
from repro.mediator import Mediator
from repro.oem import structural_key
from repro.reliability import (
    FaultInjectingSource,
    ManualClock,
    ResilienceConfig,
    RetryPolicy,
)
from repro.wrappers import OEMStoreWrapper, RelationalWrapper, SourceRegistry

FANOUT_QUERY = "S :- S:<cs_person {<rel 'student'>}>@med"


def canonical(objects):
    return sorted(repr(structural_key(o)) for o in objects)


def warning_signatures(warnings):
    return sorted((w.source, w.error) for w in warnings)


def build_faulty_mediator(seed, fault_rate, parallelism, fuse):
    clock = ManualClock()
    registry = SourceRegistry()
    registry.register(
        FaultInjectingSource(
            OEMStoreWrapper("whois", build_whois_objects()),
            seed=seed,
            fault_rate=fault_rate,
            latency=0.05,
            clock=clock,
        )
    )
    registry.register(RelationalWrapper("cs", build_cs_database()))
    return Mediator(
        "med",
        MS1,
        registry,
        default_registry(),
        resilience=ResilienceConfig(
            # deep retry budget: the fault schedule is fully masked, so
            # the answer cannot depend on which attempts failed
            retry=RetryPolicy(max_attempts=8, base_delay=0.01, jitter=0.0),
            breaker_threshold=100,
        ),
        clock=clock,
        parallelism=parallelism,
        fuse=fuse,
    )


class TestAnalyzeEqualsPlain:
    @given(
        people=st.integers(min_value=3, max_value=14),
        seed=st.integers(min_value=0, max_value=10_000),
        parallelism=st.sampled_from([1, 8]),
        fuse=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_scaled_scenarios(self, people, seed, parallelism, fuse):
        scenario = build_scaled_scenario(people, seed=seed)
        plain = scenario.mediator.query(FANOUT_QUERY)
        analyzed_mediator = Mediator(
            "med",
            scenario.mediator.specification,
            scenario.registry,
            scenario.externals,
            register=False,
            parallelism=parallelism,
            fuse=fuse,
        )
        report = analyzed_mediator.explain_analyze(FANOUT_QUERY)
        assert canonical(report.objects) == canonical(plain)
        assert warning_signatures(report.warnings) == warning_signatures(
            plain.warnings
        )
        # the recorder saw the rows the plan actually moved
        assert any(n.calls for n in report.insight.nodes)
        analyzed_mediator.close()

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        fault_rate=st.floats(min_value=0.0, max_value=0.3),
        parallelism=st.sampled_from([1, 8]),
        fuse=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_masked_fault_schedules(
        self, seed, fault_rate, parallelism, fuse
    ):
        plain_mediator = build_faulty_mediator(
            seed, fault_rate, parallelism, fuse
        )
        analyzed_mediator = build_faulty_mediator(
            seed, fault_rate, parallelism, fuse
        )
        expected = plain_mediator.query(FANOUT_QUERY)
        report = analyzed_mediator.explain_analyze(FANOUT_QUERY)
        assert canonical(report.objects) == canonical(expected)
        assert warning_signatures(report.warnings) == warning_signatures(
            expected.warnings
        )
        plain_mediator.close()
        analyzed_mediator.close()

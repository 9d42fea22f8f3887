"""Unit tests for tail-latency resilience: deadline slicing, adaptive
timeouts, hedged requests, full-jitter backoff, and the single-probe
half-open breaker.

Deterministic where the machinery allows it (ManualClock, seeded RNGs);
the hedge-race tests use real threads with event-gated stalls, so they
wait on explicit signals, never on wall-clock sleeps of guessed length.
"""

import contextvars
import random
import threading

import pytest

from repro.datasets import build_scaled_scenario
from repro.exec.cache import AnswerCache
from repro.exec.dispatcher import SourceDispatcher
from repro.governor.budget import (
    CancellationToken,
    QueryBudget,
    QueryCancelled,
    QueryGovernor,
)
from repro.mediator import Mediator
from repro.oem import OEMObject, parse_oem, structural_key
from repro.reliability import (
    AdaptiveTimeoutConfig,
    AdaptiveTimeoutPolicy,
    CircuitBreaker,
    DeadlineSlicer,
    FaultInjectingSource,
    HALF_OPEN,
    HealthRegistry,
    HedgeAbandoned,
    HedgeCoordinator,
    HedgePolicy,
    ManualClock,
    OPEN,
    ResilienceConfig,
    ResilienceManager,
    ResilientSource,
    RetryPolicy,
    SourceTimeoutError,
    SourceUnavailable,
    TransientSourceError,
    call_allowance_scope,
    current_call_allowance,
    current_hedge_role,
)
from repro.wrappers import OEMStoreWrapper, SourceRegistry
from repro.wrappers.base import Source

PEOPLE = """
<&x1, rec, set, {&a1}>
  <&a1, name, string, 'Ann'>
;
"""

FANOUT_QUERY = "S :- S:<cs_person {<rel 'student'>}>@med"


def make_wrapper(name="src"):
    return OEMStoreWrapper(name, parse_oem(PEOPLE))


def canonical(objects):
    return sorted(repr(structural_key(o)) for o in objects)


# -- latency tracking and adaptive timeouts -------------------------------


class TestLatencyTracker:
    """The health registry's window is the one per-source latency store."""

    def test_cold_window_returns_none(self):
        registry = HealthRegistry()
        assert registry.latency_quantile("s", 0.95) is None
        registry.record_success("s", 0.01)
        assert registry.latency_quantile("s", 0.95, min_samples=2) is None
        assert registry.latency_quantile("s", 0.95) == 0.01

    def test_sources_are_independent(self):
        registry = HealthRegistry()
        registry.record_success("a", 1.0)
        registry.record_success("b", 2.0)
        assert registry.latency_quantile("a", 0.5) == 1.0
        assert registry.latency_quantile("b", 0.5) == 2.0


class TestAdaptiveTimeoutConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            AdaptiveTimeoutConfig(quantile=1.5)
        with pytest.raises(ValueError):
            AdaptiveTimeoutConfig(multiplier=0)
        with pytest.raises(ValueError):
            AdaptiveTimeoutConfig(min_timeout=0)
        with pytest.raises(ValueError):
            AdaptiveTimeoutConfig(min_samples=0)


class TestAdaptiveTimeoutPolicy:
    def test_cold_policy_abstains(self):
        policy = AdaptiveTimeoutPolicy(health=HealthRegistry())
        assert policy.timeout_for("s") is None

    def test_warm_timeout_is_multiplier_times_quantile(self):
        policy = AdaptiveTimeoutPolicy(
            AdaptiveTimeoutConfig(quantile=1.0, multiplier=3.0,
                                  min_samples=2),
            health=HealthRegistry(),
        )
        policy.health.record_success("s", 0.010)
        assert policy.timeout_for("s") is None  # still cold
        policy.health.record_success("s", 0.020)
        assert policy.timeout_for("s") == pytest.approx(0.060)

    def test_health_registry_window_is_preferred(self):
        health = HealthRegistry()
        policy = AdaptiveTimeoutPolicy(
            AdaptiveTimeoutConfig(quantile=1.0, multiplier=2.0,
                                  min_samples=1),
            health=health,
        )
        health.record_attempt("s")
        health.record_success("s", 0.25)
        assert policy.timeout_for("s") == pytest.approx(0.5)
        assert policy.timeout_for("t") is None  # per source

    def test_floor_applies(self):
        policy = AdaptiveTimeoutPolicy(
            AdaptiveTimeoutConfig(quantile=1.0, multiplier=1.0,
                                  min_timeout=0.5, min_samples=1),
            health=HealthRegistry(),
        )
        policy.health.record_success("s", 0.001)
        assert policy.timeout_for("s") == 0.5

    def test_describe_mentions_the_knobs(self):
        text = AdaptiveTimeoutPolicy(health=HealthRegistry()).describe()
        assert "adaptive timeouts" in text
        assert "p99" in text


# -- deadline slicing ------------------------------------------------------


def make_governor(deadline, clock):
    governor = QueryGovernor(
        budget=QueryBudget(deadline=deadline), clock=clock
    )
    governor.start()
    return governor


class TestDeadlineSlicer:
    def test_needs_a_deadline(self):
        with pytest.raises(ValueError):
            DeadlineSlicer(QueryGovernor(clock=ManualClock()))

    def test_even_split_across_stages(self):
        clock = ManualClock()
        slicer = DeadlineSlicer(make_governor(12.0, clock))
        slicer.begin_plan(3)
        assert slicer.stage_allowance() == pytest.approx(4.0)
        clock.advance(2.0)
        slicer.enter_stage(2)
        # 10s left over stages 2 and 3
        assert slicer.stage_allowance() == pytest.approx(5.0)
        slicer.enter_stage(3)
        clock.advance(7.0)
        assert slicer.stage_allowance() == pytest.approx(3.0)

    def test_stage_progress_is_monotonic(self):
        slicer = DeadlineSlicer(make_governor(10.0, ManualClock()))
        slicer.begin_plan(4)
        slicer.enter_stage(3)
        slicer.enter_stage(1)  # a DFS revisit must not move back
        assert slicer.stages_left() == 2
        slicer.enter_stage(99)  # clamped to the announced plan
        assert slicer.stages_left() == 1

    def test_remaining_never_negative(self):
        clock = ManualClock()
        slicer = DeadlineSlicer(make_governor(1.0, clock))
        clock.advance(5.0)
        assert slicer.remaining() == 0.0
        assert slicer.call_allowance("s") == slicer.min_allowance

    def test_adaptive_timeout_caps_the_stage_share(self):
        adaptive = AdaptiveTimeoutPolicy(
            AdaptiveTimeoutConfig(quantile=1.0, multiplier=2.0,
                                  min_samples=1),
            health=HealthRegistry(),
        )
        adaptive.health.record_success("fast", 0.05)
        slicer = DeadlineSlicer(
            make_governor(10.0, ManualClock()), adaptive=adaptive
        )
        slicer.begin_plan(2)  # stage share: 5s
        assert slicer.call_allowance("fast") == pytest.approx(0.1)
        assert slicer.call_allowance("cold") == pytest.approx(5.0)

    def test_describe(self):
        slicer = DeadlineSlicer(make_governor(10.0, ManualClock()))
        assert "deadline slicing" in slicer.describe()


class TestCallAllowanceScope:
    def test_scope_sets_and_restores(self):
        assert current_call_allowance() is None
        with call_allowance_scope(1.5):
            assert current_call_allowance() == 1.5
            with call_allowance_scope(0.5):
                assert current_call_allowance() == 0.5
            assert current_call_allowance() == 1.5
        assert current_call_allowance() is None

    def test_allowance_travels_with_copied_context(self):
        seen = []
        with call_allowance_scope(2.0):
            context = contextvars.copy_context()
        context.run(lambda: seen.append(current_call_allowance()))
        assert seen == [2.0]


# -- full-jitter backoff ---------------------------------------------------


class TestFullJitter:
    def test_full_jitter_samples_the_whole_range(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0,
                             jitter_mode="full")
        rng = random.Random(7)
        delays = [policy.delay(2, rng) for _ in range(200)]
        assert all(0.0 <= d <= 2.0 for d in delays)
        assert min(delays) < 0.5  # the range really is [0, delay]
        assert max(delays) > 1.5

    def test_full_jitter_is_seed_deterministic(self):
        policy = RetryPolicy(jitter_mode="full")
        a = [policy.delay(n, random.Random(3)) for n in (1, 2, 3)]
        b = [policy.delay(n, random.Random(3)) for n in (1, 2, 3)]
        assert a == b

    def test_no_rng_means_the_undithered_delay(self):
        policy = RetryPolicy(base_delay=0.2, multiplier=2.0,
                             jitter_mode="full")
        assert policy.delay(2) == pytest.approx(0.4)

    def test_equal_mode_is_the_default_and_unchanged(self):
        assert RetryPolicy().jitter_mode == "equal"
        policy = RetryPolicy(base_delay=1.0, jitter=0.5)
        delay = policy.delay(1, random.Random(1))
        # equal jitter dithers around the base delay, bounded by jitter
        assert 0.5 <= delay <= 1.5

    def test_mode_is_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter_mode="decorrelated")


# -- single-probe half-open breaker ---------------------------------------


class TestSingleProbeHalfOpen:
    def make_open_breaker(self, clock):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        return breaker

    def test_only_one_probe_admitted(self):
        clock = ManualClock()
        breaker = self.make_open_breaker(clock)
        assert breaker.allow()
        assert not breaker.allow()  # the probe is still in flight
        assert not breaker.allow()

    def test_probe_failure_reopens_and_rearms(self):
        clock = ManualClock()
        breaker = self.make_open_breaker(clock)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(10.0)
        assert breaker.allow()  # next half-open window gets its probe

    def test_probe_success_closes(self):
        clock = ManualClock()
        breaker = self.make_open_breaker(clock)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.allow() and breaker.allow()

    def test_reset_clears_the_probe(self):
        clock = ManualClock()
        breaker = self.make_open_breaker(clock)
        assert breaker.allow()
        breaker.reset()
        assert breaker.allow()

    def test_threaded_half_open_admits_exactly_one(self):
        clock = ManualClock()
        breaker = self.make_open_breaker(clock)
        admitted = []
        barrier = threading.Barrier(8)

        def probe():
            barrier.wait()
            if breaker.allow():
                admitted.append(threading.get_ident())

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == 1


# -- resilient wrapper: adaptive timeouts and allowances -------------------


class TestResilientSourceAdaptive:
    def test_warm_adaptive_timeout_replaces_the_static_one(self):
        clock = ManualClock()
        policy = AdaptiveTimeoutPolicy(
            AdaptiveTimeoutConfig(quantile=1.0, multiplier=2.0,
                                  min_samples=1),
            health=HealthRegistry(),
        )
        source = ResilientSource(
            FaultInjectingSource(make_wrapper(), latency=0.4, clock=clock),
            policy=RetryPolicy(max_attempts=1),
            timeout=10.0,  # static: generous
            clock=clock,
            timeout_policy=policy,
        )
        from repro.msl import parse_rule

        rule = parse_rule("X :- X:<rec {<name 'Ann'>}>")
        assert source.effective_timeout() == 10.0  # cold: static holds
        policy.health.record_success("src", 0.05)  # warm: 0.1s
        assert source.effective_timeout() == pytest.approx(0.1)
        with pytest.raises(SourceUnavailable) as err:
            source.answer(rule)
        assert isinstance(err.value.cause, SourceTimeoutError)

    def test_allowance_bounds_the_timeout(self):
        source = ResilientSource(make_wrapper(), timeout=10.0)
        assert source.effective_timeout(0.5) == 0.5
        no_timeout = ResilientSource(make_wrapper())
        assert no_timeout.effective_timeout(0.5) == 0.5
        assert no_timeout.effective_timeout() is None

    def test_allowance_cuts_retries_short(self):
        clock = ManualClock()
        inner = FaultInjectingSource(
            make_wrapper(), fault_rate=1.0, seed=1, clock=clock
        )
        source = ResilientSource(
            inner,
            policy=RetryPolicy(max_attempts=5, base_delay=0.2, jitter=0.0),
            clock=clock,
        )
        with call_allowance_scope(0.3):
            with pytest.raises(SourceUnavailable) as err:
                source.answer(None)
        # attempt 1 fails, one 0.2s backoff fits the 0.3s allowance,
        # attempt 2 fails, the next backoff would overrun: stop at 2.
        assert err.value.attempts == 2
        assert inner.calls == 2

    def test_abandoned_call_raises_hedge_abandoned(self):
        abandon = threading.Event()
        abandon.set()
        source = ResilientSource(make_wrapper())
        from repro.reliability.hedging import abandon_scope

        with abandon_scope(abandon, "hedge"):
            with pytest.raises(HedgeAbandoned):
                source.answer(None)
        # nothing was charged to health: the call never started
        assert source.health.status("src").attempts == 0

    def test_manager_adaptive_config_reaches_wrappers(self):
        plain = ResilienceManager(ResilienceConfig())
        assert plain.wrap(make_wrapper()).timeout_policy is None
        manager = ResilienceManager(
            ResilienceConfig(adaptive=AdaptiveTimeoutConfig())
        )
        assert manager.wrap(make_wrapper()).timeout_policy is manager.adaptive
        assert "adaptive timeouts" in manager.describe()


# -- the hedge coordinator -------------------------------------------------


class GatedCall:
    """A callable whose Nth invocation blocks until released.

    ``release_on`` invocations set the release event on completion, so
    a fast hedge can wake a gated primary without wall-clock guessing.
    """

    def __init__(self, results, block_on=None, release_on=None):
        self.results = list(results)
        self.block_on = block_on or set()
        self.release_on = release_on or set()
        self.release = threading.Event()
        self.invocations = 0
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.invocations += 1
            index = self.invocations
        if index in self.block_on:
            self.release.wait(timeout=10.0)
        outcome = self.results[min(index, len(self.results)) - 1]
        if index in self.release_on:
            self.release.set()
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestHedgeCoordinator:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(delay=-1)
        with pytest.raises(ValueError):
            HedgePolicy(quantile=2.0)
        with pytest.raises(ValueError):
            HedgePolicy(max_workers=1)

    def test_fast_primary_never_hedges(self):
        coordinator = HedgeCoordinator(HedgePolicy(delay=5.0))
        try:
            assert coordinator.fetch("s", lambda: 42) == 42
            stats = coordinator.stats()
            assert stats["calls"] == 1
            assert stats["hedges_issued"] == 0
        finally:
            coordinator.shutdown()

    def test_stalled_primary_loses_to_the_hedge(self):
        call = GatedCall(["slow", "fast"], block_on={1})
        coordinator = HedgeCoordinator(HedgePolicy(delay=0.01))
        try:
            assert coordinator.fetch("s", call) == "fast"
            stats = coordinator.stats()
            assert stats["hedges_issued"] == 1
            assert stats["hedge_wins"] == 1
            assert stats["cancelled"] == 1
            call.release.set()
            assert coordinator.drain()
            assert coordinator.stats()["outstanding"] == 0
        finally:
            call.release.set()
            coordinator.shutdown()

    def test_failed_hedge_leaves_the_primary_to_win(self):
        # the hedge fails fast; its completion releases the gated
        # primary, whose success must still surface (a failed first
        # completion never ends the race)
        call = GatedCall(["recovered", TransientSourceError("hedge down")],
                         block_on={1}, release_on={2})
        coordinator = HedgeCoordinator(HedgePolicy(delay=0.01))
        try:
            assert coordinator.fetch("s", call) == "recovered"
            stats = coordinator.stats()
            assert stats["hedges_issued"] == 1
            assert stats["primary_wins"] == 1
        finally:
            call.release.set()
            coordinator.shutdown()

    def test_fast_failing_primary_raises_without_hedging(self):
        call = GatedCall([TransientSourceError("primary down")])
        coordinator = HedgeCoordinator(HedgePolicy(delay=5.0))
        try:
            with pytest.raises(TransientSourceError):
                coordinator.fetch("s", call)
            assert coordinator.stats()["hedges_issued"] == 0
        finally:
            coordinator.shutdown()

    def test_both_failing_surfaces_the_primary_error(self):
        primary_error = TransientSourceError("primary down")
        call = GatedCall([primary_error, TransientSourceError("hedge down")],
                         block_on={1}, release_on={2})
        coordinator = HedgeCoordinator(HedgePolicy(delay=0.01))
        try:
            with pytest.raises(TransientSourceError) as err:
                coordinator.fetch("s", call)
            assert "primary down" in str(err.value)
        finally:
            call.release.set()
            coordinator.shutdown()

    def test_adaptive_delay_warms_from_observed_latency(self):
        clock = ManualClock()
        policy = HedgePolicy(delay=9.0, quantile=1.0, multiplier=2.0,
                             min_samples=1)
        coordinator = HedgeCoordinator(policy, clock=clock)
        try:
            assert coordinator.delay_for("s") == 9.0  # cold
            coordinator.health.record_success("s", 0.03)
            assert coordinator.delay_for("s") == pytest.approx(0.06)
        finally:
            coordinator.shutdown()

    def test_one_latency_window_per_coordinator(self):
        # without a resilience layer the coordinator records its
        # attempts in a registry of its own ...
        coordinator = HedgeCoordinator(HedgePolicy(delay=5.0))
        try:
            coordinator.fetch("s", lambda: "ok")
            assert coordinator.health.status("s").successes == 1
        finally:
            coordinator.shutdown()
        # ... and with one it records nothing: the resilient wrapper
        # already has every attempt in the shared window
        health = HealthRegistry()
        coordinator = HedgeCoordinator(HedgePolicy(delay=5.0), health=health)
        try:
            coordinator.fetch("s", lambda: "ok")
            assert health.snapshot() == {}
        finally:
            coordinator.shutdown()

    def test_health_registry_feeds_the_delay(self):
        health = HealthRegistry()
        health.record_attempt("s")
        health.record_success("s", 0.02)
        coordinator = HedgeCoordinator(
            HedgePolicy(delay=9.0, quantile=1.0, multiplier=3.0,
                        min_samples=1),
            health=health,
        )
        try:
            assert coordinator.delay_for("s") == pytest.approx(0.06)
        finally:
            coordinator.shutdown()

    def test_hedge_role_is_visible_to_attempts(self):
        roles = []

        def observe_role():
            roles.append(current_hedge_role())
            return "ok"

        coordinator = HedgeCoordinator(HedgePolicy(delay=5.0))
        try:
            coordinator.fetch("s", observe_role)
            assert roles == ["primary"]
        finally:
            coordinator.shutdown()

    def test_describe_and_stats(self):
        coordinator = HedgeCoordinator()
        try:
            text = coordinator.describe()
            assert "hedging" in text
            assert set(coordinator.stats()) == {
                "calls", "hedges_issued", "hedge_wins", "primary_wins",
                "cancelled", "abandoned", "outstanding",
            }
        finally:
            coordinator.shutdown()


# -- dispatcher integration ------------------------------------------------


class CountingSource(Source):
    """A source that counts answers and can stall on demand."""

    def __init__(self, name="slow"):
        self.name = name
        self.calls = 0
        self._lock = threading.Lock()

    def answer(self, query):
        with self._lock:
            self.calls += 1
        return []

    def export(self):
        return []


class TestDispatcherHedging:
    def test_hedged_answer_is_cached_once(self):
        cache = AnswerCache(max_entries=8)
        coordinator = HedgeCoordinator(HedgePolicy(delay=5.0))
        dispatcher = SourceDispatcher(
            parallelism=2, cache=cache, hedging=coordinator
        )
        wrapper = make_wrapper()
        from repro.msl import parse_rule

        rule = parse_rule("X :- X:<rec {<name 'Ann'>}>")
        ship = lambda: (wrapper.answer(rule), True)
        try:
            first = dispatcher.fetch("src", "q", ship)
            second = dispatcher.fetch("src", "q", ship)
            assert canonical(first) == canonical(second)
            stats = cache.stats()
            assert stats["entries"] == 1
            assert stats["hits"] == 1
            assert dispatcher.stats()["hedging"]["calls"] == 1
        finally:
            dispatcher.shutdown()

    def test_dispatcher_is_active_and_described_with_hedging(self):
        coordinator = HedgeCoordinator()
        dispatcher = SourceDispatcher(hedging=coordinator)
        try:
            assert dispatcher.active
            assert "hedging" in dispatcher.describe()
        finally:
            dispatcher.shutdown()


# -- mediator integration --------------------------------------------------


def scaled_mediator(people=10, seed=1996, **kwargs):
    scenario = build_scaled_scenario(people, seed=seed, push_mode="needed")
    return Mediator(
        "med",
        scenario.mediator.specification,
        scenario.registry,
        scenario.externals,
        push_mode="needed",
        register=False,
        **kwargs,
    )


class TestMediatorIntegration:
    def test_hedged_answers_match_unhedged(self):
        expected = canonical(scaled_mediator().answer(FANOUT_QUERY))
        hedged = scaled_mediator(
            parallelism=4, hedge=HedgePolicy(delay=0.0)
        )
        try:
            for _ in range(3):
                assert canonical(hedged.answer(FANOUT_QUERY)) == expected
            assert hedged.hedging.drain()
            stats = hedged.hedging.stats()
            assert stats["outstanding"] == 0
            assert (
                stats["hedge_wins"] + stats["primary_wins"]
                == stats["hedges_issued"]
            )
        finally:
            hedged.dispatcher.shutdown()

    def test_hedging_surfaces_in_snapshot_explain_and_metrics(self):
        mediator = scaled_mediator(hedge=True, telemetry=True)
        try:
            mediator.answer(FANOUT_QUERY)
            snapshot = mediator.health_snapshot()
            assert "hedging" in snapshot["execution"]
            assert "hedging" in mediator.explain(FANOUT_QUERY)
            assert "repro_hedge_attempts_total" in mediator.metrics_text()
        finally:
            mediator.dispatcher.shutdown()

    def test_adaptive_timeouts_need_resilience_or_build_their_own(self):
        # adaptive timeouts are a field of the resilience configuration,
        # and deadline slicing is on exactly when they are
        for adaptive in (None, AdaptiveTimeoutConfig()):
            mediator = scaled_mediator(
                resilience=ResilienceConfig(adaptive=adaptive),
                budget=QueryBudget(deadline=30.0),
            )
            assert (mediator.resilience.adaptive is None) == (adaptive is None)
            mediator.answer(FANOUT_QUERY)
            assert (mediator.last_context.slicer is None) == (adaptive is None)

    def test_deadline_sliced_query_completes_within_budget(self):
        mediator = scaled_mediator(
            resilience=ResilienceConfig(adaptive=AdaptiveTimeoutConfig()),
            budget=QueryBudget(deadline=30.0),
        )
        results = mediator.answer(FANOUT_QUERY)
        assert results
        # a second run exercises the warm path
        assert canonical(mediator.answer(FANOUT_QUERY)) == canonical(results)


# -- cooperative cancellation mid-stage (satellite) ------------------------


class CancelAfter(Source):
    """Delegates to ``inner``; cancels ``token`` after N answers."""

    def __init__(self, inner, token, after=1):
        self.inner = inner
        self.name = inner.name
        self.token = token
        self.after = after
        self.calls = 0

    def answer(self, query):
        self.calls += 1
        result = self.inner.answer(query)
        if self.calls >= self.after:
            self.token.cancel("cancelled mid-stage by test")
        return result

    def export(self):
        return self.inner.export()

    @property
    def capability(self):
        return self.inner.capability

    @property
    def schema_facts(self):
        return self.inner.schema_facts


class TestCancellationMidStage:
    def test_cancel_between_source_calls_stops_the_run(self):
        scenario = build_scaled_scenario(
            12, seed=1996, push_mode="needed"
        )
        clock = ManualClock()
        token = CancellationToken()
        fault_sources = {}
        for name in ("whois", "cs"):
            inner = scenario.registry.resolve(name)
            scenario.registry.deregister(name)
            faulty = FaultInjectingSource(inner, latency=0.001, clock=clock)
            fault_sources[name] = faulty
            scenario.registry.register(
                CancelAfter(faulty, token, after=3)
            )
        mediator = Mediator(
            "med",
            scenario.mediator.specification,
            scenario.registry,
            scenario.externals,
            push_mode="needed",
            register=False,
            clock=clock,
            cancellation=token,
            semijoin=False,  # one cs call per tuple: calls to cancel between
        )
        with pytest.raises(QueryCancelled):
            mediator.answer(FANOUT_QUERY)
        calls_at_cancel = sum(f.calls for f in fault_sources.values())
        # the checkpoint right after the cancelling call fired: at most
        # the in-flight call finished, nothing new was shipped
        assert calls_at_cancel <= 4
        with pytest.raises(QueryCancelled):
            mediator.answer(FANOUT_QUERY)
        assert (
            sum(f.calls for f in fault_sources.values()) == calls_at_cancel
        )


# -- fault injector extensions ---------------------------------------------


class TestFaultInjectorTail:
    def test_slow_rate_stretches_some_calls(self):
        clock = ManualClock()
        source = FaultInjectingSource(
            make_wrapper(), latency=0.01, slow_rate=0.5, slow_latency=1.0,
            seed=11, clock=clock,
        )
        from repro.msl import parse_rule

        rule = parse_rule("X :- X:<rec {<name 'Ann'>}>")
        for _ in range(20):
            source.answer(rule)
        slow = sum(1 for s in clock.sleeps if s == 1.0)
        fast = sum(1 for s in clock.sleeps if s == 0.01)
        assert slow + fast == 20
        assert slow and fast

    def test_default_schedules_are_untouched(self):
        # the slow-call draw must not consume randomness when off
        a = FaultInjectingSource(make_wrapper(), fault_rate=0.5, seed=9)
        b = FaultInjectingSource(make_wrapper(), fault_rate=0.5, seed=9,
                                 slow_rate=0.0, slow_latency=5.0)
        from repro.msl import parse_rule

        rule = parse_rule("X :- X:<rec {<name 'Ann'>}>")
        outcomes_a, outcomes_b = [], []
        for outcomes, source in ((outcomes_a, a), (outcomes_b, b)):
            for _ in range(12):
                try:
                    source.answer(rule)
                    outcomes.append("ok")
                except Exception:
                    outcomes.append("err")
        assert outcomes_a == outcomes_b

    def test_die_after_flips_dead(self):
        source = FaultInjectingSource(make_wrapper(), die_after=2)
        from repro.msl import parse_rule
        from repro.wrappers.base import SourceError

        rule = parse_rule("X :- X:<rec {<name 'Ann'>}>")
        source.answer(rule)
        source.answer(rule)
        with pytest.raises(SourceError):
            source.answer(rule)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjectingSource(make_wrapper(), slow_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjectingSource(make_wrapper(), slow_latency=-1)
        with pytest.raises(ValueError):
            FaultInjectingSource(make_wrapper(), die_after=-1)

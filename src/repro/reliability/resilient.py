"""Resilient source access: timeout + retry + circuit breaker.

:class:`ResilientSource` decorates any :class:`Source` — a wrapper, a
fault injector, or a whole sub-mediator — with the full defensive
stack:

1. the per-source :class:`CircuitBreaker` is consulted before every
   attempt (open breaker ⇒ immediate :class:`SourceUnavailable`);
2. the call is made and timed on the injected clock; a call that took
   longer than ``timeout`` is discarded as a :class:`SourceTimeoutError`
   (a single-threaded engine cannot abort a call midway, so timeouts
   are enforced post-hoc — honest, and fully deterministic with a
   :class:`~repro.reliability.clock.ManualClock`);
3. the answer is validated — anything that is neither a list of OEM
   objects nor a :class:`~repro.wrappers.base.BindingRows` answer is a
   :class:`MalformedResponseError`;
4. failures are retried per :class:`RetryPolicy` (seeded backoff
   jitter, per-query deadline budget), every event lands in the shared
   :class:`HealthRegistry`, and an exhausted budget raises
   :class:`SourceUnavailable` carrying the attempt count and last error.

:class:`ResilienceManager` builds one such wrapper per source from a
single :class:`ResilienceConfig` and is what the execution context
routes ``send_query`` through.
"""

from __future__ import annotations

import random
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.msl.ast import Rule
from repro.oem.model import OEMObject
from repro.reliability.clock import Clock, MonotonicClock
from repro.reliability.deadline import (
    AdaptiveTimeoutConfig,
    AdaptiveTimeoutPolicy,
    current_call_allowance,
)
from repro.reliability.health import HealthRegistry
from repro.reliability.hedging import HedgeAbandoned, current_abandon
from repro.reliability.policy import CircuitBreaker, RetryPolicy
from repro.wrappers.base import BindingRows, Source, SourceError

__all__ = [
    "SourceTimeoutError",
    "MalformedResponseError",
    "SourceUnavailable",
    "ResilientSource",
    "ResilienceConfig",
    "ResilienceManager",
]


class SourceTimeoutError(SourceError):
    """A source call exceeded its time budget; its answer is discarded."""


class MalformedResponseError(SourceError):
    """A source returned something that is not an answer."""


class SourceUnavailable(SourceError):
    """All attempts against a source failed (or its breaker is open)."""

    def __init__(
        self, source: str, message: str, attempts: int = 0,
        cause: Exception | None = None,
    ) -> None:
        super().__init__(message)
        self.source = source
        self.attempts = attempts
        self.cause = cause


def validate_answer(source: str, result: object) -> list:
    """Reject anything that is neither a list of OEM objects nor a
    rows answer."""
    if isinstance(result, BindingRows):
        return result
    if not isinstance(result, list) or not all(
        isinstance(item, OEMObject) for item in result
    ):
        raise MalformedResponseError(
            f"source {source!r} returned a malformed OEM answer:"
            f" {type(result).__name__}"
        )
    return result


class ResilientSource(Source):
    """``inner`` behind timeout detection, retries and a breaker."""

    def __init__(
        self,
        inner: Source,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        timeout: float | None = None,
        clock: Clock | None = None,
        health: HealthRegistry | None = None,
        seed: int = 0,
        timeout_policy: AdaptiveTimeoutPolicy | None = None,
    ) -> None:
        self.inner = inner
        self.name = inner.name
        self.policy = policy or RetryPolicy()
        self.clock = clock or MonotonicClock()
        self.breaker = breaker or CircuitBreaker(clock=self.clock)
        self.timeout = timeout
        #: When set, a warm latency window *replaces* the static
        #: ``timeout`` with ``multiplier x pXX`` of observed latency;
        #: the static value only covers the cold start.
        self.timeout_policy = timeout_policy
        self.health = health or HealthRegistry()
        self.health.attach_breaker(self.name, self.breaker)
        self._rng = random.Random(seed)
        # per-call accounting: (attempts, elapsed) of the *latest* call
        # on this thread.  Thread-local so concurrent dispatcher workers
        # sharing one wrapper never read each other's figures — the
        # health registry only holds cross-call totals.
        self._local = threading.local()

    def last_call_stats(self) -> tuple[int, float]:
        """``(attempts, elapsed_seconds)`` of this thread's last call."""
        return getattr(self._local, "stats", (0, 0.0))

    @property
    def capability(self):
        return self.inner.capability

    @property
    def schema_facts(self):
        return self.inner.schema_facts

    # -- the defended call path --------------------------------------------

    def effective_timeout(self, allowance: float | None = None) -> float | None:
        """The per-attempt timeout in force for the next call.

        A warm adaptive policy replaces the static timeout (the static
        value is the cold-start fallback, not a cap — observed latency
        is the better estimate of "too slow" either way); a per-call
        deadline allowance, when one is active, bounds the result from
        above so a call can never outspend its slice of the query
        budget.
        """
        timeout = self.timeout
        if self.timeout_policy is not None:
            adaptive = self.timeout_policy.timeout_for(self.name)
            if adaptive is not None:
                timeout = adaptive
        if allowance is not None:
            timeout = allowance if timeout is None else min(timeout, allowance)
        return timeout

    def _call(self, produce: Callable[[], object]) -> list:
        started = self.clock.now()
        last_error: SourceError | None = None
        attempts = 0
        allowance = current_call_allowance()
        timeout = self.effective_timeout(allowance)
        abandon = current_abandon()
        try:
            for attempt in range(1, self.policy.max_attempts + 1):
                if abandon is not None and abandon.is_set():
                    # the hedged twin of this call already won; stop
                    # without charging the breaker or health record
                    raise HedgeAbandoned(self.name)
                if not self.breaker.allow():
                    self.health.record_rejection(self.name)
                    raise SourceUnavailable(
                        self.name,
                        f"source {self.name!r} unavailable: circuit breaker"
                        f" is open (cooldown {self.breaker.cooldown}s)",
                        attempts=attempts,
                        cause=last_error,
                    )
                attempts = attempt
                self.health.record_attempt(self.name)
                attempt_started = self.clock.now()
                try:
                    result = produce()
                    elapsed = self.clock.now() - attempt_started
                    if timeout is not None and elapsed > timeout:
                        raise SourceTimeoutError(
                            f"source {self.name!r} answered in"
                            f" {elapsed:.3f}s, over the"
                            f" {timeout:.3f}s timeout"
                        )
                    result = validate_answer(self.name, result)
                except SourceUnavailable:
                    # a nested resilient layer already gave up; don't retry
                    self.breaker.record_failure()
                    raise
                except SourceError as exc:
                    elapsed = self.clock.now() - attempt_started
                    self.breaker.record_failure()
                    self.health.record_failure(self.name, str(exc), elapsed)
                    last_error = exc
                    if attempt >= self.policy.max_attempts:
                        break
                    if abandon is not None and abandon.is_set():
                        raise HedgeAbandoned(self.name)
                    delay = self.policy.delay(attempt, self._rng)
                    if not self.policy.within_deadline(
                        self.clock.now() - started, delay
                    ):
                        break
                    if (
                        allowance is not None
                        and self.clock.now() - started + delay > allowance
                    ):
                        # the retry would start past this call's slice
                        # of the query deadline — give up now so the
                        # stage's remaining budget serves other calls
                        break
                    self.health.record_retry(self.name)
                    self.clock.sleep(delay)
                    continue
                self.breaker.record_success()
                self.health.record_success(
                    self.name, self.clock.now() - attempt_started
                )
                return result
            raise SourceUnavailable(
                self.name,
                f"source {self.name!r} unavailable after {attempts}"
                f" attempt(s): {last_error}",
                attempts=attempts,
                cause=last_error,
            ) from last_error
        finally:
            # every exit path publishes this call's figures for the
            # execution context (thread-local, so concurrent dispatcher
            # workers never see each other's calls)
            self._local.stats = (attempts, self.clock.now() - started)

    # -- the Source interface ----------------------------------------------

    def answer(self, query: Rule) -> list[OEMObject]:
        return self._call(lambda: self.inner.answer(query))

    def answer_bindings(self, query: Rule) -> list:
        return self._call(lambda: self.inner.answer_bindings(query))

    def export(self) -> Sequence[OEMObject]:
        return self._call(lambda: list(self.inner.export()))

    def reset_counters(self) -> None:
        self.inner.reset_counters()

    def stats(self) -> dict[str, object]:
        stats = dict(self.inner.stats())
        status = self.health.status(self.name)
        stats.update(
            resilient_attempts=status.attempts,
            resilient_failures=status.failures,
            resilient_rejections=status.rejections,
            breaker_state=status.breaker_state,
        )
        return stats


@dataclass(frozen=True)
class ResilienceConfig:
    """One bundle of knobs for every source behind a mediator.

    ``adaptive`` switches the static ``timeout`` into a cold-start
    fallback: once a source's latency window is warm, its timeout is
    derived from observed percentiles per the
    :class:`AdaptiveTimeoutConfig`.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    timeout: float | None = None
    breaker_threshold: int = 5
    breaker_cooldown: float = 30.0
    seed: int = 0
    adaptive: AdaptiveTimeoutConfig | None = None


class ResilienceManager:
    """Builds and caches one :class:`ResilientSource` per source name.

    All wrappers share the manager's clock and :class:`HealthRegistry`;
    each gets its own breaker and seeded jitter stream (derived from
    the config seed and the source name, so schedules stay stable as
    sources come and go).
    """

    def __init__(
        self,
        config: ResilienceConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.config = config or ResilienceConfig()
        self.clock = clock or MonotonicClock()
        self.health = HealthRegistry()
        self.adaptive: AdaptiveTimeoutPolicy | None = (
            AdaptiveTimeoutPolicy(self.config.adaptive, health=self.health)
            if self.config.adaptive is not None
            else None
        )
        self._wrapped: dict[str, ResilientSource] = {}

    def wrap(self, source: Source) -> ResilientSource:
        wrapped = self._wrapped.get(source.name)
        if wrapped is None or wrapped.inner is not source:
            config = self.config
            wrapped = ResilientSource(
                source,
                policy=config.retry,
                breaker=CircuitBreaker(
                    failure_threshold=config.breaker_threshold,
                    cooldown=config.breaker_cooldown,
                    clock=self.clock,
                ),
                timeout=config.timeout,
                clock=self.clock,
                health=self.health,
                seed=config.seed ^ (zlib.crc32(source.name.encode()) & 0xFFFF),
                timeout_policy=self.adaptive,
            )
            self._wrapped[source.name] = wrapped
        return wrapped

    def breaker_for(self, name: str) -> CircuitBreaker | None:
        wrapped = self._wrapped.get(name)
        return wrapped.breaker if wrapped else None

    def describe(self) -> str:
        """One-paragraph policy summary for ``Mediator.explain``."""
        retry = self.config.retry
        timeout = (
            f"{self.config.timeout:g}s" if self.config.timeout else "none"
        )
        deadline = f"{retry.deadline:g}s" if retry.deadline else "none"
        jitter = (
            " full jitter," if retry.jitter_mode == "full" else ""
        )
        text = (
            f"retries: {retry.max_attempts - 1} (backoff"
            f" {retry.base_delay:g}s x{retry.multiplier:g},{jitter}"
            f" cap {retry.max_delay:g}s, deadline {deadline});"
            f" timeout: {timeout};"
            f" breaker: open after {self.config.breaker_threshold}"
            f" failure(s), cooldown {self.config.breaker_cooldown:g}s"
        )
        if self.adaptive is not None:
            text += f"; {self.adaptive.describe()}"
        return text

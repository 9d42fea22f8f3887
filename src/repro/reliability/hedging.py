"""Hedged source requests: speculative duplicates for stragglers.

The tail of a fan-out query is set by its slowest source call.  When a
call has been outstanding longer than the source's typical latency
(~p95), the cheapest defence is to issue a *second*, identical call and
take whichever answer lands first — "the tail at scale" hedging.  The
:class:`HedgeCoordinator` implements it for the dispatcher:

* the primary attempt is started on the coordinator's own small pool
  (never the dispatcher's worker pool — its workers are the *callers*
  here, and hedging from the same bounded pool would deadlock it);
* after an adaptive delay (``multiplier x p`` of the source's observed
  latency from the shared health registry, static ``delay`` while
  cold) one hedge is started for a still-unresolved call;
* first *successful* result wins; the loser is cancelled
  cooperatively — an abandon :class:`threading.Event` travels by
  contextvar into the loser's resilient wrapper, which checks it
  between attempts and before backoff sleeps and bails out with
  :class:`HedgeAbandoned` (a thread cannot be aborted mid-call, so
  cancellation is cooperative and post-hoc, like the timeout layer);
* if the first completion *failed*, the other attempt keeps the call
  alive — hedging doubles as a second chance for transient faults;
* attempts, wins, cancellations, and still-outstanding losers are
  counted for spans, metrics, ``health_snapshot()`` and ``explain()``.

Determinism contract: a hedge is a *duplicate* of an idempotent read —
with deterministic sources both attempts produce the same answer, so
which one wins never changes the result set, only its latency.  Only
the winner's answer is returned (and cached, once, by the dispatcher);
the loser's is discarded, so hedges never double-count or double-cache.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from repro.reliability.clock import Clock, MonotonicClock
from repro.reliability.health import HealthRegistry
from repro.wrappers.base import SourceError

__all__ = [
    "HedgeAbandoned",
    "HedgePolicy",
    "HedgeCoordinator",
    "abandon_scope",
    "current_abandon",
    "current_hedge_role",
]

T = TypeVar("T")

#: The abandon event of the hedged call this thread is serving
#: (None outside hedged attempts).  The resilient wrapper polls it.
_ABANDON: contextvars.ContextVar[threading.Event | None] = (
    contextvars.ContextVar("repro_hedge_abandon", default=None)
)

#: Which attempt of a hedged call this thread is: "primary", "hedge",
#: or None outside hedged attempts.  Spans tag hedge attempts with it.
_ROLE: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_hedge_role", default=None
)


def current_abandon() -> threading.Event | None:
    """The abandon event the current hedged attempt should poll."""
    return _ABANDON.get()


def current_hedge_role() -> str | None:
    """``"primary"`` / ``"hedge"`` inside a hedged attempt, else None."""
    return _ROLE.get()


@contextlib.contextmanager
def abandon_scope(
    event: threading.Event, role: str
) -> Iterator[None]:
    """Install the abandon event and role for one attempt's extent."""
    abandon_token = _ABANDON.set(event)
    role_token = _ROLE.set(role)
    try:
        yield
    finally:
        _ROLE.reset(role_token)
        _ABANDON.reset(abandon_token)


class HedgeAbandoned(SourceError):
    """A hedged attempt stopped because the other attempt already won."""

    def __init__(self, source: str) -> None:
        super().__init__(
            f"hedged call to {source!r} abandoned: the other attempt won"
        )
        self.source = source


@dataclass(frozen=True)
class HedgePolicy:
    """When to issue a speculative duplicate of a source call.

    The hedge fires after ``multiplier x`` the source's observed
    ``quantile`` latency (from the health registry's sliding window),
    floored at ``min_delay``; until ``min_samples`` latencies are known
    the static ``delay`` applies.
    ``max_workers`` bounds the coordinator's attempt pool — both
    attempts of every concurrently hedged call run there.
    """

    delay: float = 0.05
    quantile: float = 0.95
    multiplier: float = 1.5
    min_delay: float = 0.001
    min_samples: int = 8
    max_workers: int = 16

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError(
                f"quantile must be in [0, 1], got {self.quantile}"
            )
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")
        if self.min_delay < 0:
            raise ValueError("min_delay must be non-negative")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if self.max_workers < 2:
            raise ValueError("max_workers must be at least 2")


class HedgeCoordinator:
    """Runs source calls with first-result-wins speculative duplicates.

    One coordinator serves a whole mediator; :meth:`fetch` is called by
    the dispatcher (from its worker threads or the coordinating thread)
    with a thunk performing the real, reliability-wrapped call.  The
    coordinator owns a separate attempt pool, so a dispatcher worker
    blocking in :meth:`fetch` never deadlocks its own pool.

    The hedge delay is read off ``health``, the resilience layer's
    registry, which records every attempt itself.  Without one the
    coordinator keeps a registry of its own and records each finished
    attempt's latency there.
    """

    def __init__(
        self,
        policy: HedgePolicy | None = None,
        clock: Clock | None = None,
        health: "HealthRegistry | None" = None,
    ) -> None:
        self.policy = policy or HedgePolicy()
        self.clock = clock or MonotonicClock()
        self._owns_health = health is None
        self.health = HealthRegistry() if health is None else health
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._pool: ThreadPoolExecutor | None = None
        # counters (under _lock); "races" are fetches where a hedge was
        # actually issued — hedge_wins + primary_wins == races once all
        # attempts have settled, which the chaos harness asserts
        self.calls = 0
        self.hedges_issued = 0
        self.hedge_wins = 0
        self.primary_wins = 0
        self.cancelled = 0  # losers signalled to abandon
        self.abandoned = 0  # attempts that bailed out via HedgeAbandoned
        self.outstanding = 0  # attempts submitted but not yet settled

    # -- lifecycle ---------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.policy.max_workers,
                    thread_name_prefix="repro-hedge",
                )
            return self._pool

    def shutdown(self) -> None:
        """Stop the attempt pool (idempotent; a new fetch restarts it)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- the hedge delay ---------------------------------------------------

    def delay_for(self, source: str) -> float:
        """Seconds to wait before hedging a call to ``source``."""
        policy = self.policy
        quantile = self.health.latency_quantile(
            source, policy.quantile, min_samples=policy.min_samples
        )
        if quantile is None or quantile <= 0:
            return policy.delay
        return max(policy.min_delay, policy.multiplier * quantile)

    # -- the hedged call ---------------------------------------------------

    def fetch(self, source: str, attempt: Callable[[], T]) -> T:
        """Run ``attempt``, hedging it if it straggles; first result wins.

        ``attempt`` must be safe to run twice concurrently (source
        calls are idempotent reads).  Returns the winner's value; the
        loser is signalled to abandon and its result (or error) is
        discarded.  If the first completion failed, the other attempt
        keeps the call alive; only when both fail does the primary's
        error (or, if the primary was abandoned, the hedge's) surface.
        """
        pool = self._ensure_pool()
        abandon = threading.Event()

        def submit(role: str):
            def run() -> T:
                if abandon.is_set():
                    # the other attempt won while this one was queued
                    with self._lock:
                        self.abandoned += 1
                    raise HedgeAbandoned(source)
                started = self.clock.now()
                with abandon_scope(abandon, role):
                    value = attempt()
                if self._owns_health:
                    self.health.record_attempt(source)
                    self.health.record_success(
                        source, self.clock.now() - started
                    )
                return value

            context = contextvars.copy_context()
            with self._lock:
                self.outstanding += 1
            try:
                future = pool.submit(context.run, run)
            except BaseException:
                with self._idle:
                    self.outstanding -= 1
                    self._idle.notify_all()
                raise
            future.add_done_callback(self._settled)
            return future

        with self._lock:
            self.calls += 1
        primary = submit("primary")
        done, _ = wait([primary], timeout=self.delay_for(source))
        if done:
            # settled before the hedge delay: no race, value or error
            # surfaces as-is
            return primary.result()
        hedge = submit("hedge")
        with self._lock:
            self.hedges_issued += 1
        pending = {primary, hedge}
        errors: dict[object, BaseException] = {}
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                error = future.exception()
                if error is None:
                    abandon.set()
                    with self._lock:
                        if future is hedge:
                            self.hedge_wins += 1
                        else:
                            self.primary_wins += 1
                        self.cancelled += len(pending)
                    return future.result()
                errors[future] = error
        # both attempts failed: surface the primary's error unless the
        # primary merely got abandoned (can't happen today — abandon is
        # only set after a win — but kept defensive)
        primary_error = errors.get(primary)
        if primary_error is None or isinstance(
            primary_error, HedgeAbandoned
        ):
            raise errors[hedge]
        raise primary_error

    def _settled(self, future) -> None:
        # retrieve the exception so discarded losers never trip
        # "exception was never retrieved" warnings
        future.exception()
        with self._idle:
            self.outstanding -= 1
            self._idle.notify_all()

    def drain(self, timeout: float = 5.0) -> bool:
        """Wait (real time) until no attempt is outstanding.

        Returns False if attempts are still in flight after ``timeout``
        seconds — the chaos harness treats that as a leaked hedge.
        """
        deadline = time.monotonic() + timeout
        with self._idle:
            while self.outstanding:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "calls": self.calls,
                "hedges_issued": self.hedges_issued,
                "hedge_wins": self.hedge_wins,
                "primary_wins": self.primary_wins,
                "cancelled": self.cancelled,
                "abandoned": self.abandoned,
                "outstanding": self.outstanding,
            }

    def describe(self) -> str:
        stats = self.stats()
        policy = self.policy
        return (
            f"hedging: after {policy.multiplier:g} x p"
            f"{policy.quantile * 100:g} (cold-start {policy.delay:g}s);"
            f" {stats['hedges_issued']} hedge(s) on {stats['calls']}"
            f" call(s), {stats['hedge_wins']} hedge win(s),"
            f" {stats['cancelled']} cancelled,"
            f" {stats['outstanding']} outstanding"
        )

    def __repr__(self) -> str:
        return (
            f"HedgeCoordinator(delay={self.policy.delay!r},"
            f" issued={self.hedges_issued})"
        )

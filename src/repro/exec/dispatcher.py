"""Concurrent source fan-out: the mediator's parallel dispatch layer.

The datamerge engine's cost is dominated by waiting on autonomous
sources, yet the seed engine executed every graph strictly serially.
This module supplies the concurrency substrate:

* :class:`SourceDispatcher` — a bounded worker pool
  (``parallelism=N``; the default ``1`` keeps today's sequential
  behaviour bit-for-bit) that

  - runs batches of independent tasks (leaf query nodes of one
    topological stage, the per-tuple instantiations of a parameterized
    query node) across worker threads,
  - deduplicates *in-flight* identical ``(source, canonical query)``
    requests single-flight style, so concurrent duplicates share one
    wire call, and
  - consults a pluggable :class:`~repro.exec.cache.AnswerCache` before
    the reliability layer ships anything;

* :class:`TaskScope` — a per-task accumulator for source attempts,
  latency, and degradation warnings.  Worker threads record into their
  own scope; the engine merges scopes back in deterministic
  (topological / tuple) order, which is how parallel runs keep the
  sequential run's trace attribution and warning order.

The scope travels via :mod:`contextvars` and the dispatcher submits
tasks with a copied context, so code deep inside a worker (the
execution context's ``send_query``) finds the right scope without any
plumbing through call signatures.

Determinism contract: with deterministic sources, a fixed seed, and a
:class:`~repro.reliability.clock.ManualClock`, a parallel run produces
the same result objects and the same warnings (after aggregation) as a
sequential run — single-flight sharing and cache hits can only remove
*duplicate* wire calls, never change what any call returns.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

from repro.exec.cache import AnswerCache
from repro.oem.model import OEMObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reliability.hedging import HedgeCoordinator
    from repro.serving.bulkhead import BulkheadRegistry

__all__ = [
    "SourceDispatcher",
    "TaskScope",
    "TaskOutcome",
    "current_scope",
    "scope_active",
]

T = TypeVar("T")

#: The task scope active on this thread of control (None outside tasks).
_SCOPE: contextvars.ContextVar["TaskScope | None"] = contextvars.ContextVar(
    "repro_exec_scope", default=None
)


class TaskScope:
    """Per-task accounting: source attempts, latency, warnings.

    Each task gets its own scope, so workers never contend; merging
    back into the parent (a node's scope, or the execution context)
    happens on the coordinating thread in deterministic order.
    """

    __slots__ = ("attempts", "latency", "warnings")

    def __init__(self) -> None:
        self.attempts = 0
        self.latency = 0.0
        self.warnings: list = []

    def merge(self, other: "TaskScope") -> None:
        self.attempts += other.attempts
        self.latency += other.latency
        self.warnings.extend(other.warnings)

    def __repr__(self) -> str:
        return (
            f"TaskScope(attempts={self.attempts}, latency={self.latency},"
            f" {len(self.warnings)} warning(s))"
        )


def current_scope() -> TaskScope | None:
    """The scope the current task records into (None when unscoped)."""
    return _SCOPE.get()


class scope_active:
    """Install ``scope`` as the current task scope for a ``with`` block.

    A plain class (not a generator context manager): one opens around
    every plan run and every pooled task.
    """

    __slots__ = ("_scope", "_token")

    def __init__(self, scope: TaskScope) -> None:
        self._scope = scope

    def __enter__(self) -> TaskScope:
        self._token = _SCOPE.set(self._scope)
        return self._scope

    def __exit__(self, *exc_info: object) -> None:
        _SCOPE.reset(self._token)


class TaskOutcome:
    """What one dispatched task produced: a value or an error, plus its
    scope.  Outcomes come back in submission order regardless of the
    order tasks finished in."""

    __slots__ = ("value", "error", "scope")

    def __init__(self) -> None:
        self.value: object | None = None
        self.error: BaseException | None = None
        self.scope = TaskScope()


class _Flight:
    """One in-flight source call that concurrent duplicates wait on."""

    __slots__ = ("_done", "_value", "_error")

    def __init__(self) -> None:
        self._done = threading.Event()
        self._value: list[OEMObject] | None = None
        self._error: BaseException | None = None

    def set_value(self, value: list[OEMObject]) -> None:
        self._value = value
        self._done.set()

    def set_error(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def wait(self) -> list[OEMObject]:
        self._done.wait()
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value


class SourceDispatcher:
    """Schedules source calls across a bounded worker pool.

    ``parallelism=1`` (the default) never creates a thread: batches run
    inline on the calling thread in submission order, which is exactly
    the seed engine's behaviour.  A cache may be attached even at
    ``parallelism=1`` — memoization is orthogonal to concurrency.
    """

    def __init__(
        self,
        parallelism: int = 1,
        cache: AnswerCache | None = None,
        hedging: "HedgeCoordinator | None" = None,
        bulkheads: "BulkheadRegistry | None" = None,
    ) -> None:
        if not isinstance(parallelism, int) or parallelism < 1:
            raise ValueError(
                f"parallelism must be a positive integer,"
                f" got {parallelism!r}"
            )
        self.parallelism = parallelism
        self.cache = cache
        self.hedging = hedging
        self.bulkheads = bulkheads
        #: When set, a callable consulted before each hedged dispatch;
        #: returning False runs the call unhedged (brownout rung 1).
        self.hedge_gate: Callable[[], bool] | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._inflight: dict[tuple[str, str], _Flight] = {}
        self.dispatched = 0
        self.shared = 0  # requests answered by another request's flight

    # -- lifecycle ---------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """True when worker threads are in play."""
        return self.parallelism > 1

    @property
    def active(self) -> bool:
        """True when ``send_query`` must route through the dispatcher
        (worker threads, a cache to consult, hedging, or bulkheads)."""
        return (
            self.parallelism > 1
            or self.cache is not None
            or self.hedging is not None
            or self.bulkheads is not None
        )

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.parallelism,
                    thread_name_prefix="repro-exec",
                )
            return self._pool

    def shutdown(self) -> None:
        """Stop the worker pool (idempotent; a new batch restarts it)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if self.hedging is not None:
            self.hedging.shutdown()

    # -- cached, deduplicated source calls ---------------------------------

    def fetch(
        self,
        source: str,
        query_text: str,
        ship: Callable[[], tuple[list[OEMObject], bool]],
    ) -> list[OEMObject]:
        """One source call through the cache and single-flight layers.

        ``ship`` performs the real (reliability-wrapped) call and
        returns ``(answer, cacheable)`` — degraded answers come back
        with ``cacheable=False`` and are never stored.  Concurrent
        ``fetch`` calls with the same key share the first caller's
        flight: the leader ships, followers block on the shared result
        (or re-raise the leader's error).

        With a hedge coordinator attached, the (single) shipping call
        routes through it — hedging composes *under* the cache and the
        single-flight layer, so a hedged call is still one flight, its
        winning answer is stored at most once, and the loser's answer
        is discarded before it can reach either layer.
        """
        cache = self.cache
        if cache is not None:
            hit, value = cache.lookup(source, query_text)
            if hit:
                assert value is not None
                return value
        if not self.parallel:
            # single-threaded: there is never a concurrent duplicate
            value, cacheable = self._perform(source, ship)
            if cache is not None and cacheable:
                cache.store(source, query_text, value)
            return value
        key = (source, query_text)
        with self._lock:
            flight = self._inflight.get(key)
            if flight is None:
                flight = self._inflight[key] = _Flight()
                leader = True
                self.dispatched += 1
            else:
                leader = False
                self.shared += 1
        if not leader:
            return flight.wait()
        try:
            value, cacheable = self._perform(source, ship)
        except BaseException as exc:
            flight.set_error(exc)
            raise
        else:
            flight.set_value(value)
            if cache is not None and cacheable:
                cache.store(source, query_text, value)
            return value
        finally:
            with self._lock:
                self._inflight.pop(key, None)

    def _perform(
        self,
        source: str,
        ship: Callable[[], tuple[list[OEMObject], bool]],
    ) -> tuple[list[OEMObject], bool]:
        """Ship once, hedged when a coordinator is attached.

        Each hedged attempt runs under a *fresh* :class:`TaskScope`
        (installed inside the coordinator's copied context), and only
        the winner's scope is merged back into the caller's — the
        losing attempt's warnings, attempt counts and latency are
        discarded with its answer, so hedging never double-counts.

        Bulkhead permits wrap each individual wire attempt (so a
        hedged pair holds two permits while both run — hedging is
        extra load and must not bypass the cap), and ``hedge_gate``
        lets the brownout controller turn hedging off under pressure
        without tearing down the coordinator.
        """
        bulkheads = self.bulkheads
        if bulkheads is not None:
            inner_ship = ship

            def ship() -> tuple[list[OEMObject], bool]:
                with bulkheads.permit(source):
                    return inner_ship()

        hedging = self.hedging
        if hedging is not None and self.hedge_gate is not None:
            if not self.hedge_gate():
                hedging = None
        if hedging is None:
            return ship()
        parent = current_scope()

        def attempt() -> tuple[list[OEMObject], bool, TaskScope]:
            scope = TaskScope()
            with scope_active(scope):
                value, cacheable = ship()
            return value, cacheable, scope

        value, cacheable, scope = hedging.fetch(source, attempt)
        if parent is not None:
            parent.merge(scope)
        return value, cacheable

    # -- batch execution ---------------------------------------------------

    def run_tasks(
        self, thunks: Sequence[Callable[[], object]]
    ) -> list[TaskOutcome]:
        """Run ``thunks``, each in its own :class:`TaskScope`.

        Outcomes are returned in submission order; an exception inside
        a task is captured on its outcome (never raised here), so the
        caller can surface the *first* failure deterministically after
        every task has settled.  At ``parallelism=1`` the batch runs
        inline, in order, on the calling thread.
        """
        outcomes = [TaskOutcome() for _ in thunks]
        if not self.parallel or len(thunks) <= 1:
            for thunk, outcome in zip(thunks, outcomes):
                self._run_scoped(thunk, outcome)
            return outcomes
        pool = self._ensure_pool()
        futures = []
        for thunk, outcome in zip(thunks, outcomes):
            context = contextvars.copy_context()
            futures.append(
                pool.submit(context.run, self._run_scoped, thunk, outcome)
            )
        for future in futures:
            future.result()  # task errors live on the outcome
        return outcomes

    @staticmethod
    def _run_scoped(thunk: Callable[[], object], outcome: TaskOutcome) -> None:
        with scope_active(outcome.scope):
            try:
                outcome.value = thunk()
            except BaseException as exc:  # surfaced by the coordinator
                outcome.error = exc

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, object]:
        stats: dict[str, object] = {
            "parallelism": self.parallelism,
            "dispatched": self.dispatched,
            "shared": self.shared,
        }
        if self.cache is not None:
            stats["cache"] = self.cache.stats()
        if self.hedging is not None:
            stats["hedging"] = self.hedging.stats()
        if self.bulkheads is not None:
            stats["bulkheads"] = self.bulkheads.stats()
        return stats

    def describe(self) -> str:
        """One-paragraph summary for ``Mediator.explain``."""
        lines = [
            f"parallelism: {self.parallelism}"
            + ("" if self.parallel else " (sequential)")
            + f"; in-flight dedup: {self.shared} shared"
            f" of {self.dispatched + self.shared} requests"
        ]
        if self.cache is not None:
            lines.append(self.cache.describe())
        if self.hedging is not None:
            lines.append(self.hedging.describe())
        if self.bulkheads is not None:
            lines.append(self.bulkheads.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:
        cache = ", cache" if self.cache is not None else ""
        hedging = ", hedging" if self.hedging is not None else ""
        bulkheads = ", bulkheads" if self.bulkheads is not None else ""
        return (
            f"SourceDispatcher(parallelism={self.parallelism}"
            f"{cache}{hedging}{bulkheads})"
        )

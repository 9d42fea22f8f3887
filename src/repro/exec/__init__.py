"""Parallel execution for the datamerge engine.

PR 1 made source access *survive* failure; PR 2 bounded what a query
may *consume*; this package makes the mediator *fast* under
latency-bound plans by overlapping source calls:

* :mod:`repro.exec.dispatcher` — :class:`SourceDispatcher`, a bounded
  worker pool that fans out independent plan nodes stage by stage and
  the per-tuple batch of parameterized queries, deduplicating
  in-flight identical ``(source, canonical query)`` requests
  single-flight style; plus the :class:`TaskScope` machinery that
  keeps per-task accounting (attempts, latency, warnings)
  deterministic under concurrency;
* :mod:`repro.exec.cache` — :class:`AnswerCache`, a thread-safe
  LRU + TTL memo of source answers keyed by canonical unparsed query,
  consulted before the reliability layer, with per-source invalidation
  and hit/miss statistics.

``parallelism=1`` with no cache is the one-worker case of the engine's
single stage loop (leaves run inline, no thread is ever created); see
``docs/performance.md`` for semantics and tuning guidance.
"""

from repro.exec.cache import AnswerCache
from repro.exec.dispatcher import (
    SourceDispatcher,
    TaskOutcome,
    TaskScope,
    current_scope,
    scope_active,
)
from repro.exec.profile import Profiler

__all__ = [
    "AnswerCache",
    "Profiler",
    "SourceDispatcher",
    "TaskOutcome",
    "TaskScope",
    "current_scope",
    "scope_active",
]

"""Fault tolerance for mediation over autonomous sources.

The paper's sources — a campus ``whois`` service, a live relational
database — are exactly the kind that get slow, flaky, or disappear.
This package gives the MSI pipeline a defensive access layer:

* :mod:`repro.reliability.clock` — injectable time (tests never sleep);
* :mod:`repro.reliability.faults` — deterministic fault injection for
  testing and benchmarking;
* :mod:`repro.reliability.policy` — retry backoff and circuit breakers;
* :mod:`repro.reliability.resilient` — the composed resilient wrapper
  and the per-mediator :class:`ResilienceManager`;
* :mod:`repro.reliability.health` — per-source health accounting and
  the structured :class:`SourceWarning` carried by degraded answers;
* :mod:`repro.reliability.deadline` — deadline slicing across plan
  stages and latency-derived adaptive per-source timeouts;
* :mod:`repro.reliability.hedging` — speculative duplicate requests
  for straggling source calls, first result wins.
"""

from repro.reliability.clock import Clock, ManualClock, MonotonicClock
from repro.reliability.deadline import (
    AdaptiveTimeoutConfig,
    AdaptiveTimeoutPolicy,
    DeadlineSlicer,
    call_allowance_scope,
    current_call_allowance,
)
from repro.reliability.hedging import (
    HedgeAbandoned,
    HedgeCoordinator,
    HedgePolicy,
    current_hedge_role,
)
from repro.reliability.faults import (
    FaultInjectingSource,
    MALFORMED,
    MALFORMED_KINDS,
    TransientSourceError,
)
from repro.reliability.health import (
    HealthRegistry,
    SourceHealth,
    SourceWarning,
    aggregate_warnings,
)
from repro.reliability.policy import (
    CLOSED,
    CircuitBreaker,
    HALF_OPEN,
    OPEN,
    RetryPolicy,
)
from repro.reliability.resilient import (
    MalformedResponseError,
    ResilienceConfig,
    ResilienceManager,
    ResilientSource,
    SourceTimeoutError,
    SourceUnavailable,
)

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "Clock",
    "FaultInjectingSource",
    "HALF_OPEN",
    "HealthRegistry",
    "MALFORMED",
    "MALFORMED_KINDS",
    "MalformedResponseError",
    "ManualClock",
    "MonotonicClock",
    "OPEN",
    "ResilienceConfig",
    "ResilienceManager",
    "ResilientSource",
    "RetryPolicy",
    "SourceHealth",
    "SourceTimeoutError",
    "SourceUnavailable",
    "SourceWarning",
    "TransientSourceError",
    "aggregate_warnings",
]

"""Deadline propagation and adaptive per-source timeouts.

A :class:`~repro.governor.budget.QueryBudget` deadline bounds the whole
run, but on its own it cannot stop one straggling source call from
consuming the entire budget: the governor only checks *between* calls.
This module slices the run deadline into per-stage and per-call time
allowances and derives per-source timeouts from observed latency, so a
stage never spends the whole query budget waiting on one straggler:

* :class:`AdaptiveTimeoutPolicy` — replaces a static source timeout
  with ``multiplier x pXX`` of the source's observed latency (from the
  :class:`~repro.reliability.health.HealthRegistry` window, the one
  latency store), falling back to the static value while the window is
  cold;
* :class:`DeadlineSlicer` — splits the governor's remaining wall-clock
  budget evenly across the plan stages still to run
  (``remaining / stages_left``) and caps each source call at
  ``min(stage share, adaptive timeout)``;
* :func:`call_allowance_scope` — a :mod:`contextvars` carrier so the
  allowance computed at dispatch reaches the resilient wrapper deep in
  a worker thread without threading it through every call signature.

Everything reads time from the injectable clock the governor and
resilience layer already share, so slicing is exactly testable with a
:class:`~repro.reliability.clock.ManualClock`.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.governor.budget import QueryGovernor
    from repro.reliability.health import HealthRegistry

__all__ = [
    "AdaptiveTimeoutConfig",
    "AdaptiveTimeoutPolicy",
    "DeadlineSlicer",
    "call_allowance_scope",
    "current_call_allowance",
]

#: The per-call time allowance active on this thread of control
#: (None = unsliced: only static/adaptive timeouts apply).
_ALLOWANCE: contextvars.ContextVar[float | None] = contextvars.ContextVar(
    "repro_call_allowance", default=None
)


def current_call_allowance() -> float | None:
    """The wall-clock seconds the current source call may spend."""
    return _ALLOWANCE.get()


@contextlib.contextmanager
def call_allowance_scope(seconds: float | None) -> Iterator[None]:
    """Install a per-call time allowance for a ``with`` block.

    The allowance travels by contextvar, so it survives the dispatcher
    handing the call to a worker (workers run in a copied context) and
    reaches the resilient wrapper without signature plumbing.
    """
    token = _ALLOWANCE.set(seconds)
    try:
        yield
    finally:
        _ALLOWANCE.reset(token)


@dataclass(frozen=True)
class AdaptiveTimeoutConfig:
    """Knobs for latency-derived per-source timeouts.

    A warm source's timeout is ``multiplier x`` its observed
    ``quantile`` latency, floored at ``min_timeout``; until
    ``min_samples`` latencies have been observed the policy abstains
    and the static timeout (if any) applies unchanged.
    """

    quantile: float = 0.99
    multiplier: float = 3.0
    min_timeout: float = 0.001
    min_samples: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError(
                f"quantile must be in [0, 1], got {self.quantile}"
            )
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")
        if self.min_timeout <= 0:
            raise ValueError("min_timeout must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")


class AdaptiveTimeoutPolicy:
    """Per-source timeouts tracked from live latency percentiles, read
    off the shared :class:`HealthRegistry` window (every resilient
    attempt lands there)."""

    def __init__(
        self,
        config: AdaptiveTimeoutConfig | None = None,
        *,
        health: "HealthRegistry",
    ) -> None:
        self.config = config or AdaptiveTimeoutConfig()
        self.health = health

    def quantile_for(
        self, source: str, quantile: float | None = None
    ) -> float | None:
        """The observed latency quantile, or ``None`` while cold."""
        config = self.config
        return self.health.latency_quantile(
            source,
            config.quantile if quantile is None else quantile,
            min_samples=config.min_samples,
        )

    def timeout_for(self, source: str) -> float | None:
        """The adaptive timeout for ``source``, or ``None`` while cold
        (cold ⇒ the caller's static timeout applies unchanged)."""
        value = self.quantile_for(source)
        if value is None or value <= 0:
            return None
        return max(self.config.min_timeout, self.config.multiplier * value)

    def describe(self) -> str:
        config = self.config
        return (
            f"adaptive timeouts: {config.multiplier:g} x p"
            f"{config.quantile * 100:g} (warm after"
            f" {config.min_samples} sample(s),"
            f" floor {config.min_timeout:g}s)"
        )


class DeadlineSlicer:
    """Slices a governor's wall-clock deadline across plan stages.

    The engine announces the plan shape with :meth:`begin_plan` and
    calls :meth:`enter_stage` as execution advances; every source call
    asks :meth:`call_allowance` for its share:
    ``remaining_budget / stages_left``, further capped by the adaptive
    timeout when the source's latency window is warm — so one call can
    never monopolize time that later stages still need, and a call to a
    historically-fast source is cut off long before the stage share.

    Stage bookkeeping is written only by the engine's coordinating
    thread; worker threads just read it, and a stale read merely yields
    the previous (more conservative) stage's share.
    """

    def __init__(
        self,
        governor: "QueryGovernor",
        adaptive: AdaptiveTimeoutPolicy | None = None,
        min_allowance: float = 0.001,
    ) -> None:
        deadline = governor.budget.deadline
        if deadline is None:
            raise ValueError("DeadlineSlicer needs a budget with a deadline")
        if min_allowance <= 0:
            raise ValueError("min_allowance must be positive")
        self.governor = governor
        self.deadline = deadline
        self.adaptive = adaptive
        self.min_allowance = min_allowance
        self._total_stages = 1
        self._stage = 1

    def begin_plan(self, total_stages: int) -> None:
        """Announce a plan about to execute with ``total_stages`` stages."""
        self._total_stages = max(1, total_stages)
        self._stage = 1

    def enter_stage(self, index: int) -> None:
        """Advance to 1-based stage ``index`` of the announced plan.

        Monotonic: progress must never move backwards, whatever order
        a caller announces stages in (:meth:`begin_plan` resets it for
        the next plan).
        """
        self._stage = min(max(self._stage, index), self._total_stages)

    def remaining(self) -> float:
        """Wall-clock seconds left before the run deadline."""
        return max(0.0, self.deadline - self.governor.elapsed)

    def stages_left(self) -> int:
        return max(1, self._total_stages - self._stage + 1)

    def stage_allowance(self) -> float:
        """The current stage's even share of the remaining budget."""
        return self.remaining() / self.stages_left()

    def call_allowance(self, source: str) -> float:
        """Seconds one call to ``source`` may spend right now."""
        allowance = self.stage_allowance()
        if self.adaptive is not None:
            hint = self.adaptive.timeout_for(source)
            if hint is not None:
                allowance = min(allowance, hint)
        return max(self.min_allowance, allowance)

    def describe(self) -> str:
        text = (
            f"deadline slicing: {self.deadline:g}s over"
            f" {self._total_stages} stage(s)"
        )
        if self.adaptive is not None:
            text += f"; {self.adaptive.describe()}"
        return text

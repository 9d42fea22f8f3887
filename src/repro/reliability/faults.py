"""Deterministic fault injection over any :class:`Source`.

A :class:`FaultInjectingSource` decorates a wrapper (or a whole
sub-mediator) and, driven by one seeded ``random.Random``, injects the
failure modes an autonomous source exhibits in the wild:

* transient errors (:class:`TransientSourceError`) at ``fault_rate``;
* simulated latency — the injected clock is advanced, never slept on;
  ``slow_rate`` / ``slow_latency`` add a heavy tail: the occasional
  call stalls at ``slow_latency`` instead of ``latency`` (the shape
  hedging and adaptive timeouts are built to absorb);
* empty answers at ``empty_rate`` (the source "worked" but lost data);
* malformed answers at ``malformed_rate`` — the shape is picked by
  ``malformed_kind``: ``"flat"`` (non-OEM garbage, the classic), or
  the governor-era kinds ``"malformed_typed"`` (an object whose
  declared type lies about its value), ``"malformed_deep"`` (absurdly
  nested but otherwise valid OEM), and ``"malformed_cyclic"`` (a
  reference cycle) — everything an answer sanitizer must catch;
* a ``dead`` switch for sustained outages (breaker tests flip it);
  ``die_after=N`` flips it automatically after N calls, simulating a
  source that dies mid-query.

The same seed always yields the same schedule — the outcome of call
*n* depends only on the seed and *n* — which is what lets the test
suite assert retry and degradation behaviour exactly.  The slow-call
draw consumes randomness only when ``slow_rate > 0``, so existing
seeded schedules are untouched by the default configuration.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.msl.ast import Rule
from repro.oem.model import OEMObject
from repro.reliability.clock import Clock, ManualClock
from repro.wrappers.base import Source, SourceError

__all__ = [
    "TransientSourceError",
    "FaultInjectingSource",
    "MALFORMED",
    "MALFORMED_KINDS",
]


class TransientSourceError(SourceError):
    """An injected momentary failure: a retry may well succeed."""


#: Sentinel object returned inside a "malformed" answer.  It is not an
#: :class:`OEMObject`, so response validation must reject the answer.
MALFORMED = "<<malformed-oem-response>>"

#: Recognised shapes for an injected malformed answer.
MALFORMED_KINDS = frozenset({"flat", "deep", "typed", "cyclic"})


def _malformed_deep(depth: int = 100) -> OEMObject:
    """A validly-typed object nested far past any sane answer depth."""
    obj = OEMObject("leaf", "bottom", "string")
    for level in range(depth):
        obj = OEMObject(f"level{depth - level}", (obj,), "set")
    return obj


def _malformed_typed() -> OEMObject:
    """An object whose declared type lies about its value.

    The constructor validates type/value agreement, so the corruption
    is applied afterwards with ``object.__setattr__`` — exactly how a
    buggy wrapper ships a record that *looks* like OEM but is not.
    """
    obj = OEMObject("count", 7, "integer")
    object.__setattr__(obj, "value", "seven")  # integer carrying a str
    bad_label = OEMObject("name", "Joe Chung", "string")
    object.__setattr__(bad_label, "label", 42)  # non-string label
    return OEMObject("person", (obj, bad_label), "set")


def _malformed_cyclic() -> OEMObject:
    """A set object whose child tuple points back at an ancestor."""
    inner = OEMObject("inner", (), "set")
    outer = OEMObject("outer", (inner,), "set")
    object.__setattr__(inner, "value", (outer,))
    return outer


class FaultInjectingSource(Source):
    """Wrap ``inner`` with a seeded, deterministic fault schedule.

    The wrapper keeps ``inner``'s name, capability and schema facts, so
    it can be registered (or passed to a resilient wrapper) anywhere
    the bare source could.  Each injected outcome is appended to
    :attr:`outcomes` (``"ok"``, ``"fault"``, ``"empty"``,
    ``"malformed"`` or ``"dead"``) for assertions.
    """

    def __init__(
        self,
        inner: Source,
        seed: int = 0,
        fault_rate: float = 0.0,
        empty_rate: float = 0.0,
        malformed_rate: float = 0.0,
        malformed_kind: str = "flat",
        latency: float = 0.0,
        slow_rate: float = 0.0,
        slow_latency: float = 0.0,
        dead: bool = False,
        die_after: int | None = None,
        clock: Clock | None = None,
    ) -> None:
        for name, rate in (
            ("fault_rate", fault_rate),
            ("empty_rate", empty_rate),
            ("malformed_rate", malformed_rate),
            ("slow_rate", slow_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if latency < 0 or slow_latency < 0:
            raise ValueError("latency must be non-negative")
        if die_after is not None and die_after < 0:
            raise ValueError("die_after must be non-negative")
        if malformed_kind not in MALFORMED_KINDS:
            raise ValueError(
                f"malformed_kind must be one of"
                f" {sorted(MALFORMED_KINDS)}, got {malformed_kind!r}"
            )
        self.inner = inner
        self.name = inner.name
        self.seed = seed
        self.fault_rate = fault_rate
        self.empty_rate = empty_rate
        self.malformed_rate = malformed_rate
        self.malformed_kind = malformed_kind
        self.latency = latency
        self.slow_rate = slow_rate
        self.slow_latency = slow_latency
        self.dead = dead
        self.die_after = die_after
        self.clock = clock or ManualClock()
        self._rng = random.Random(seed)
        self.calls = 0
        self.inner_calls = 0
        self.outcomes: list[str] = []

    @property
    def capability(self):
        return self.inner.capability

    @property
    def schema_facts(self):
        return self.inner.schema_facts

    # -- schedule ----------------------------------------------------------

    def _draw_outcome(self) -> str:
        """One seeded draw; the dead switch overrides the schedule."""
        if self.dead:
            return "dead"
        roll = self._rng.random()
        if roll < self.fault_rate:
            return "fault"
        if roll < self.fault_rate + self.empty_rate:
            return "empty"
        if roll < self.fault_rate + self.empty_rate + self.malformed_rate:
            return "malformed"
        return "ok"

    def _deliver(self, produce) -> list:
        self.calls += 1
        if self.die_after is not None and self.calls > self.die_after:
            self.dead = True
        delay = self.latency
        if self.slow_rate and self._rng.random() < self.slow_rate:
            # an occasional stall: this is the extra draw that makes
            # heavy-tailed schedules; it only happens with slow_rate
            # set, so default-configured seeded schedules are unchanged
            delay = self.slow_latency
        if delay:
            self.clock.sleep(delay)
        outcome = self._draw_outcome()
        self.outcomes.append(outcome)
        if outcome == "dead":
            raise SourceError(f"source {self.name!r} is down")
        if outcome == "fault":
            raise TransientSourceError(
                f"injected transient fault at {self.name!r}"
                f" (call {self.calls})"
            )
        if outcome == "empty":
            return []
        if outcome == "malformed":
            return self._malformed_answer()
        self.inner_calls += 1
        return produce()

    def _malformed_answer(self) -> list[OEMObject]:
        """Build one malformed answer in the configured shape."""
        if self.malformed_kind == "deep":
            return [_malformed_deep()]
        if self.malformed_kind == "typed":
            return [_malformed_typed()]
        if self.malformed_kind == "cyclic":
            return [_malformed_cyclic()]
        return [MALFORMED]  # type: ignore[list-item]

    # -- the Source interface ----------------------------------------------

    def answer(self, query: Rule) -> list[OEMObject]:
        return self._deliver(lambda: self.inner.answer(query))

    def answer_bindings(self, query: Rule) -> list:
        # an injected empty or malformed answer stays OEM: the mediator
        # sanitizes and matches it like any OEM answer
        return self._deliver(lambda: self.inner.answer_bindings(query))

    def export(self) -> Sequence[OEMObject]:
        return self._deliver(lambda: list(self.inner.export()))

    def reset_counters(self) -> None:
        self.calls = 0
        self.inner_calls = 0
        self.outcomes.clear()
        self.inner.reset_counters()

    def stats(self) -> dict[str, object]:
        stats = dict(self.inner.stats())
        stats.update(
            fault_calls=self.calls,
            fault_outcomes=len(self.outcomes),
            faults_injected=sum(
                1 for outcome in self.outcomes if outcome != "ok"
            ),
        )
        return stats

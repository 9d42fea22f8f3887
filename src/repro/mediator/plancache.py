"""Plan once, run many: what a mediator remembers per query shape.

The logical datamerge program and the physical graph of Figure 2.5
"depend on the query and the specification" — and not on the query's
constants: a *shape* is a query with its constants lifted out
(:mod:`repro.msl.lift`), and one :class:`Planned` per shape serves every
call of it, the call's constants travelling in
``ExecutionContext.params``.  This module is the memory; the planning
itself is ``Mediator._planned``, the one place the expander and the
optimizer are called from.

When a remembered plan is *not* reused:

* what makes it possibly **illegal** is counted — sources registered or
  deregistered, statistics sampled / restored / cleared, a breaker
  changing state, an external declared, a planning setting assigned —
  and compared as one :attr:`Planned.stamp`;
* what makes it possibly **not the cheapest** is drift: the plan
  records the statistics it was costed with, and a value now off by
  more than :data:`~repro.obs.insight.MISESTIMATE_FACTOR` plans it
  again (cold-start learning re-plans as it always did; steady state
  hits).  This is the one reaction to a wrong estimate: what a run
  learns reaches the next call of the shape, never the run itself;
* a shape whose planning would have to *read* a lifted constant
  (:class:`~repro.msl.lift.ValueDependent`) is marked
  :attr:`Shape.per_query` and planned per query, with its constants in
  place, like any query was before there was a cache.

Lookups are a ``dict.get`` and a few comparisons; the one lock orders
insertions, evictions and the counters, and is never held while
anything is planned, so a hit never waits for a planner.  A
:class:`Planned` is never modified after it is stored, and neither is
the plan inside it.
"""

from __future__ import annotations

import threading
from typing import Hashable

from repro.mediator.logical import LogicalDatamergeProgram
from repro.mediator.plan import PhysicalPlan
from repro.mediator.statistics import SourceStatistics
from repro.msl.ast import Rule
from repro.msl.lift import param_names
from repro.obs.insight import MISESTIMATE_FACTOR, q_error

__all__ = ["PLAN_CACHE_ENTRIES", "Shape", "Planned", "PlanCache"]

#: Shapes a mediator keeps (and query texts it remembers the shape of);
#: the oldest goes first.
PLAN_CACHE_ENTRIES = 256


class Planned:
    """One planning of one shape."""

    __slots__ = (
        "program",
        "plan",
        "stamp",
        "capabilities",
        "cardinalities",
        "weights",
    )

    def __init__(
        self,
        program: LogicalDatamergeProgram | None,
        plan: PhysicalPlan,
        stamp: tuple,
        capabilities: tuple,
        statistics: SourceStatistics,
    ) -> None:
        self.program = program
        self.plan = plan
        self.stamp = stamp
        #: (source, its capability) for every source the plan ships to
        self.capabilities = capabilities
        # the statistics the optimizer costed this plan with: the base
        # cardinality of every (source, label) an estimate came from,
        # and the access-cost weight of every source
        buckets: dict[tuple[str, str], None] = {}
        for node in plan.nodes():
            key = node.estimate_key
            if key is None:
                continue
            buckets[(key[0], key[1])] = None
            for shard in getattr(node, "shard_names", ()):
                buckets[(shard, key[1])] = None
        self.cardinalities = tuple(
            (source, label, statistics.base_cardinality(source, label))
            for source, label in buckets
        )
        self.weights = tuple(
            (source, statistics.cost_weight(source))
            for source in dict.fromkeys(source for source, _ in buckets)
        )
        # whatever the plan computes lazily is computed now, so that
        # running it never assigns to it
        plan.stages()

    def drift(self, statistics: SourceStatistics) -> str | None:
        """Which recorded statistic is now off by more than
        :data:`~repro.obs.insight.MISESTIMATE_FACTOR`."""
        for source, label, then in self.cardinalities:
            now = statistics.base_cardinality(source, label)
            if now != then and q_error(then, now) > MISESTIMATE_FACTOR:
                return (
                    f"cardinality of {source}/{label} drifted"
                    f" {then:.0f} -> {now:.0f}"
                )
        for source, then in self.weights:
            now = statistics.cost_weight(source)
            if now != then and q_error(then, now) > MISESTIMATE_FACTOR:
                return (
                    f"cost weight of {source} drifted {then:.2f} -> {now:.2f}"
                )
        return None


class Shape:
    """One query shape: a template and what is known about it."""

    __slots__ = ("template", "names", "materialize", "per_query", "planned")

    def __init__(
        self, template: "Rule | int", constants: int, materialize: str | None
    ) -> None:
        #: the lifted query — or, for what ``export()`` plans, the index
        #: of a rule of the specification
        self.template = template
        #: placeholder names, in the order the constants of a call come
        self.names = param_names(constants)
        #: why queries of this shape are answered by materialization
        #: (structure alone decides), or None
        self.materialize = materialize
        #: why this shape is planned per query, or None (plan reusable)
        self.per_query: str | None = None
        self.planned: Planned | None = None


class PlanCache:
    """Bounded, structurally keyed memory of shapes, plus counters."""

    def __init__(self) -> None:
        self._shapes: dict[Hashable, Shape] = {}
        self._texts: dict[tuple, Shape] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.replans = 0
        self.last_invalidation: str | None = None

    def shape(self, key: Hashable) -> Shape | None:
        """The shape stored under ``key``: a template, or whatever else
        names a thing that is planned (a specification rule's index)."""
        return self._shapes.get(key)

    def text_shape(self, key: tuple) -> Shape | None:
        """The shape of query texts with scan key ``key``
        (:func:`repro.msl.lift.scan_shape`)."""
        return self._texts.get(key)

    def store(self, key: Hashable, shape: Shape) -> Shape:
        """File ``shape`` under ``key`` (or return the one a concurrent
        caller filed first)."""
        return self._file(self._shapes, key, shape)

    def store_text(self, key: tuple, shape: Shape) -> None:
        self._file(self._texts, key, shape)

    def _file(self, table: dict, key: Hashable, shape: Shape) -> Shape:
        with self._lock:
            existing = table.get(key)
            if existing is not None:
                return existing
            if len(table) >= PLAN_CACHE_ENTRIES:
                table.pop(next(iter(table)))
            table[key] = shape
        return shape

    def count(self, outcome: str, cause: str | None = None) -> None:
        """Count one lookup: a ``hit``, a ``miss`` (the shape had no
        plan), or a ``replan`` (it had one, unusable because ``cause``)."""
        with self._lock:
            if outcome == "hit":
                self.hits += 1
            elif outcome == "miss":
                self.misses += 1
            else:
                self.replans += 1
                self.last_invalidation = cause

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "replans": self.replans,
            "entries": len(self._shapes),
        }

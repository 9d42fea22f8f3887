"""Source statistics for cost-based optimization.

Section 3.5: when "the wrappers do not provide cost and statistics
information ... the optimizer has to rely on ad-hoc heuristics ... or
tries to build its own statistics database that is based on results of
previous queries and on sampling".  This module is that statistics
database: the engine feeds back (source, top-level label, result count)
observations after every shipped query, and the optimizer asks for
cardinality estimates when ordering joins.

Estimates are deliberately simple — per (source, label) exponential
moving averages with a selectivity discount per constant condition —
because the point the paper makes (and our benchmarks reproduce) is the
*difference* between knowing nothing and knowing roughly which pattern
is small.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.msl.ast import Const, Param, Pattern
from repro.msl.lift import ValueDependent
from repro.msl.walk import OID, VALUE, children, slots

__all__ = [
    "SourceStatistics",
    "DEFAULT_CARDINALITY",
    "DEFAULT_SELECTIVITY",
    "REFERENCE_LATENCY",
]

#: Assumed result size for a never-seen (source, label) pair.
DEFAULT_CARDINALITY = 100.0

#: Assumed fraction of objects surviving one constant condition.
DEFAULT_SELECTIVITY = 0.1

#: Weight of the newest observation in the moving average.
_ALPHA = 0.5

#: Latency (seconds) at which a source's cost weight doubles.  A source
#: answering in ~10ms keeps weight ~1; one answering in 100ms costs ~11x.
REFERENCE_LATENCY = 0.010

#: Cost-weight penalty per breaker state: probing sources are risky,
#: open ones should only be visited when nothing else binds the query.
_BREAKER_PENALTY = {"closed": 1.0, "half_open": 10.0, "open": 100.0}

#: Q-error observations kept per (source, label) window.
_QERROR_WINDOW = 64


@dataclass
class _LabelStats:
    average: float = DEFAULT_CARDINALITY
    observations: int = 0

    def observe(self, count: int) -> None:
        if self.observations == 0:
            self.average = float(count)
        else:
            self.average = _ALPHA * count + (1.0 - _ALPHA) * self.average
        self.observations += 1


@dataclass
class _SourceCost:
    """Observed per-source access cost: latency EMA + breaker state."""

    latency: float = 0.0
    breaker_state: str = "closed"
    observations: int = 0

    def observe(self, latency: float | None, breaker_state: str | None) -> None:
        if latency is not None:
            if self.observations == 0:
                self.latency = float(latency)
            else:
                self.latency = (
                    _ALPHA * latency + (1.0 - _ALPHA) * self.latency
                )
            self.observations += 1
        if breaker_state is not None:
            self.breaker_state = breaker_state

    def weight(self) -> float:
        penalty = _BREAKER_PENALTY.get(self.breaker_state, 1.0)
        if self.observations == 0:
            return penalty
        return (1.0 + self.latency / REFERENCE_LATENCY) * penalty


class _QErrorWindow:
    """Bounded ring of recent q-error observations for one key."""

    __slots__ = ("values", "total", "_next")

    def __init__(self) -> None:
        self.values: list[float] = []
        self.total = 0
        self._next = 0

    def observe(self, value: float) -> None:
        if len(self.values) < _QERROR_WINDOW:
            self.values.append(value)
        else:
            self.values[self._next] = value
            self._next = (self._next + 1) % _QERROR_WINDOW
        self.total += 1

    def summary(self) -> dict[str, float | int]:
        ordered = sorted(self.values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            median = ordered[mid]
        else:
            median = (ordered[mid - 1] + ordered[mid]) / 2.0
        return {
            "observations": self.total,
            "median": median,
            "max": ordered[-1],
        }


@dataclass
class SourceStatistics:
    """Cardinality observations per (source, top-level label), plus
    value-level selectivities per (source, label, child label, value)
    gathered by sampling."""

    default_cardinality: float = DEFAULT_CARDINALITY
    selectivity: float = DEFAULT_SELECTIVITY
    _stats: dict[tuple[str, str], _LabelStats] = field(default_factory=dict)
    _value_stats: dict[tuple[str, str, str, object], _LabelStats] = field(
        default_factory=dict
    )
    # the (source, label, child) triples _value_stats has any value for
    _sampled_children: set[tuple[str, str, str]] = field(default_factory=set)
    #: Bumped by whatever changes the statistics other than by one more
    #: observation — sampling, a restore, a clear, a breaker changing
    #: state: a plan made before it is planned again (observations
    #: drift; see ``Mediator``'s plan cache for how far they may).
    generation: int = 0
    _source_costs: dict[str, _SourceCost] = field(default_factory=dict)
    _qerrors: dict[tuple[str, str, str], _QErrorWindow] = field(
        default_factory=dict
    )
    # concurrent queries feed observations from engine threads; EMA
    # updates are read-modify-write, so guard every mutation
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # -- feedback -----------------------------------------------------------

    def record(self, source: str, pattern: Pattern, count: float) -> None:
        """Feed back that ``pattern`` at ``source`` returned ``count`` rows
        (a mean per probe when the observation comes from a batch).

        The observation is normalised by the pattern's selectivity so
        that what is stored approximates the label's *base* cardinality.
        """
        label = _label_of(pattern)
        if label is None:
            return
        # mirror estimate(): the top label names the bucket, it is not a
        # filter — normalising by it too made fed-back estimates a
        # systematic 1/selectivity too high (q-error stuck at 10x
        # instead of converging)
        conditions = count_constant_conditions(pattern) - 1
        discount = self.selectivity**conditions
        base_estimate = count / discount if discount > 0 else count
        with self._lock:
            entry = self._stats.setdefault((source, label), _LabelStats())
            entry.observe(int(base_estimate))

    def record_label(self, source: str, label: str, count: int) -> None:
        """Direct observation of a label's cardinality (sampling)."""
        with self._lock:
            entry = self._stats.setdefault((source, label), _LabelStats())
            entry.observe(count)

    def observe_source(
        self,
        source: str,
        latency: float | None = None,
        breaker_state: str | None = None,
    ) -> None:
        """Feed back a source's observed access cost.

        ``latency`` is a per-call latency sample (typically the health
        window's p50); ``breaker_state`` is the circuit breaker's
        current state.  Both feed :meth:`cost_weight`.
        """
        if latency is None and breaker_state is None:
            return
        with self._lock:
            entry = self._source_costs.setdefault(source, _SourceCost())
            if breaker_state not in (None, entry.breaker_state):
                self.generation += 1
            entry.observe(latency, breaker_state)

    def cost_weight(self, source: str) -> float:
        """Observed access-cost multiplier for one source.

        1.0 for a never-observed source (so cold planning is unchanged);
        grows with the latency EMA relative to :data:`REFERENCE_LATENCY`
        and is multiplied by a breaker-state penalty (half-open 10x,
        open 100x) so the optimizer deprioritizes struggling sources.
        """
        entry = self._source_costs.get(source)
        if entry is None:
            return 1.0
        return entry.weight()

    def record_qerror(
        self, source: str, label: str, kind: str, value: float
    ) -> None:
        """Feed one q-error observation for a (source, label, kind) key.

        ``kind`` distinguishes ``scan`` estimates (leaf cardinality)
        from ``join`` decisions (bind-join output).
        """
        with self._lock:
            window = self._qerrors.setdefault(
                (source, label, kind), _QErrorWindow()
            )
            window.observe(value)

    def qerror_summary(self) -> dict[str, dict[str, float | int]]:
        """Recent q-error windows as ``source/label/kind`` -> summary."""
        with self._lock:
            return {
                f"{source}/{label}/{kind}": window.summary()
                for (source, label, kind), window in sorted(
                    self._qerrors.items()
                )
                if window.values
            }

    def sample_source(self, source: "object", limit: int | None = None) -> int:
        """Probe a source's export and record per-label cardinalities
        *and* per-(child label, value) selectivities.

        This is the "sampling" half of Section 3.5's statistics
        database.  ``source`` is anything with ``name`` and ``export()``
        (a :class:`~repro.wrappers.base.Source`); at most ``limit``
        top-level objects are examined (None = all).  Counts observed
        from a truncated sample are scaled up proportionally.  Returns
        the number of objects examined.
        """
        from collections import Counter

        name = source.name  # type: ignore[attr-defined]
        export = source.export()  # type: ignore[attr-defined]
        total = len(export)
        if limit is not None and total > limit:
            examined = export[:limit]
            scale = total / limit
        else:
            examined = export
            scale = 1.0
        counts = Counter(obj.label for obj in examined)
        value_counts: Counter = Counter()
        for obj in examined:
            for child in obj.children:
                if child.is_atomic:
                    try:
                        hash(child.value)
                    except TypeError:
                        continue
                    value_counts[
                        (obj.label, child.label, child.value)
                    ] += 1
        for label, count in counts.items():
            self.record_label(name, label, int(count * scale))
        with self._lock:
            for (label, child, value), count in value_counts.items():
                entry = self._value_stats.setdefault(
                    (name, label, child, value), _LabelStats()
                )
                entry.observe(int(count * scale))
                self._sampled_children.add((name, label, child))
            self.generation += 1
        return len(examined)

    def value_selectivity(
        self, source: str, label: str | None, child: str, value: object
    ) -> float:
        """Fraction of ``label`` objects whose ``child`` equals ``value``.

        Falls back to the default selectivity when nothing was sampled.
        """
        if label is None:
            return self.selectivity
        try:
            hash(value)
        except TypeError:
            return self.selectivity
        entry = self._value_stats.get((source, label, child, value))
        if entry is None or entry.observations == 0:
            return self.selectivity
        base = self.base_cardinality(source, label)
        if base <= 0:
            return self.selectivity
        return min(1.0, entry.average / base)

    # -- estimation -----------------------------------------------------------

    def base_cardinality(self, source: str, label: str | None) -> float:
        if label is None:
            return self.default_cardinality
        entry = self._stats.get((source, label))
        if entry is None or entry.observations == 0:
            return self.default_cardinality
        return entry.average

    def estimate(self, source: str, pattern: Pattern) -> float:
        """Estimated result size of shipping ``pattern`` to ``source``.

        Value-level selectivities from sampling are used per constant
        child condition when available; other constant conditions fall
        back to the default selectivity.
        """
        label = _label_of(pattern)
        base = self.base_cardinality(source, label)
        estimate = base
        accounted = 0
        for child, value in constant_child_conditions(pattern):
            if value.__class__ is Param:
                # a lifted constant: the default selectivity is what
                # every value gets unless this child was sampled, and
                # then the estimate is the value's own
                if (source, label, child) in self._sampled_children:
                    raise ValueDependent(
                        f"sampled value statistics exist for"
                        f" {source}/{label}/{child}"
                    )
                estimate *= self.selectivity
            else:
                estimate *= self.value_selectivity(
                    source, label, child, value
                )
            accounted += 1
        # remaining conditions (oid constants, top-level value constants)
        remaining = count_constant_conditions(pattern) - accounted
        if label is not None:
            remaining -= 1  # the top label itself is not a filter here
        if remaining > 0:
            estimate *= self.selectivity**remaining
        return estimate

    def sharded_estimate(
        self, source: str, shard_names: "Sequence[str]", pattern: Pattern
    ) -> float:
        """Estimated result size across the surviving shards.

        Shard-qualified source names (``big#3``) accrue their own
        per-label cardinalities through the engine's normal feedback,
        so each observed shard contributes its own estimate; a shard
        never observed contributes an even split of the *logical*
        source's estimate instead of a full default each (eight unseen
        shards are one source, not eight).
        """
        if not shard_names:
            return 0.0
        label = _label_of(pattern)
        whole = self.estimate(source, pattern)
        total = 0.0
        for name in shard_names:
            if label is not None and self.has_observations(name, label):
                total += self.estimate(name, pattern)
            else:
                total += whole / len(shard_names)
        return total

    def has_observations(self, source: str, label: str) -> bool:
        entry = self._stats.get((source, label))
        return entry is not None and entry.observations > 0

    def clear(self) -> None:
        with self._lock:
            self._stats.clear()
            self._value_stats.clear()
            self._sampled_children.clear()
            self._source_costs.clear()
            self._qerrors.clear()
            self.generation += 1

    # -- persistence ----------------------------------------------------------

    def snapshot_dict(self) -> dict:
        """JSON-serialisable snapshot of the statistics database.

        Captures label cardinalities, sampled value selectivities (for
        JSON-representable values only), and per-source cost
        observations; q-error windows are diagnostics, not estimates,
        and are not persisted.
        """
        with self._lock:
            labels = [
                {
                    "source": source,
                    "label": label,
                    "average": entry.average,
                    "observations": entry.observations,
                }
                for (source, label), entry in sorted(self._stats.items())
            ]
            values = [
                {
                    "source": source,
                    "label": label,
                    "child": child,
                    "value": value,
                    "average": entry.average,
                    "observations": entry.observations,
                }
                for (source, label, child, value), entry in sorted(
                    self._value_stats.items(), key=lambda kv: repr(kv[0])
                )
                if isinstance(value, (str, int, float, bool)) or value is None
            ]
            costs = [
                {
                    "source": source,
                    "latency": entry.latency,
                    "breaker_state": entry.breaker_state,
                    "observations": entry.observations,
                }
                for source, entry in sorted(self._source_costs.items())
            ]
        return {
            "version": 1,
            "default_cardinality": self.default_cardinality,
            "selectivity": self.selectivity,
            "labels": labels,
            "values": values,
            "source_costs": costs,
        }

    def restore_dict(self, snapshot: Mapping) -> None:
        """Merge a :meth:`snapshot_dict` payload back in (warm start).

        Restored entries *replace* same-key entries; keys absent from
        the snapshot are left untouched, so a restore can layer warm
        estimates over live ones.
        """
        version = snapshot.get("version")
        if version != 1:
            raise ValueError(f"unsupported statistics snapshot v{version!r}")
        with self._lock:
            for row in snapshot.get("labels", ()):
                self._stats[(str(row["source"]), str(row["label"]))] = (
                    _LabelStats(
                        average=float(row["average"]),
                        observations=int(row["observations"]),
                    )
                )
            for row in snapshot.get("values", ()):
                key = (
                    str(row["source"]),
                    str(row["label"]),
                    str(row["child"]),
                    row["value"],
                )
                self._value_stats[key] = _LabelStats(
                    average=float(row["average"]),
                    observations=int(row["observations"]),
                )
                self._sampled_children.add(key[:3])
            for row in snapshot.get("source_costs", ()):
                self._source_costs[str(row["source"])] = _SourceCost(
                    latency=float(row["latency"]),
                    breaker_state=str(row["breaker_state"]),
                    observations=int(row["observations"]),
                )
            self.generation += 1


def constant_child_conditions(
    pattern: Pattern,
) -> list[tuple[str, object]]:
    """(child label, constant value) filters of a pattern's direct items
    (including rest conditions).  A lifted constant of a query template
    is a filter too; it is listed as its :class:`Param`."""
    return [
        (str(child.label.value), _filter_value(child.value))
        for child in children(pattern)
        if child.label.__class__ is Const
        and child.value.__class__ in (Const, Param)
    ]


def _filter_value(term) -> object:
    return term.value if term.__class__ is Const else term


def _label_of(pattern: Pattern) -> str | None:
    if isinstance(pattern.label, Const):
        return str(pattern.label.value)
    return None


def count_constant_conditions(pattern: Pattern) -> int:
    """Number of constant filters a pattern carries (its "boundness").

    This is the quantity behind the paper's join-order heuristic: "the
    outer patterns of the join order are the ones that have the greatest
    number of conditions".  A *condition* is a constant that narrows the
    result: the top-level label (it selects the collection/relation), a
    constant oid, and every constant **value** at any depth (a lifted
    parameter is some constant).  Constant sub-object labels with
    variable values (``<name N>``) are structural requirements, not
    filters, and do not count.
    """
    count = 1 if isinstance(pattern.label, Const) else 0
    for kind, term, _ in slots(pattern):
        if (kind is OID and term.__class__ is Const) or (
            kind is VALUE and term.__class__ in (Const, Param)
        ):
            count += 1
    return count

"""Sharded source tier: partitioned wrappers and semi-join shipping.

A :class:`ShardedSource` registry entry presents N shard wrappers as one
logical source.  The partition scheme (hash or range on a key label)
is declared up front, so the optimizer can *prune* shards from
pushed-down constants on the partition label, and the parameterized-
query path can switch from one probe per input tuple to **semi-join
shipping**: one batched ``IN``-style filter (:class:`SemiJoinFilter`)
per surviving shard, with an exact mediator-side demultiplexing of the
returned superset.

Everything here is deterministic: partition routing uses
:func:`encode_value` + BLAKE2 digests, never Python's seeded
``hash()``, so shard assignment is stable across processes and runs.

Naming convention: the shards of logical source ``big`` are addressed
as ``big#0`` … ``big#N-1``.  The qualified name is used *everywhere* —
wrapper name, registry resolution, answer-cache keys, circuit-breaker
and bulkhead keys, health records, and degrade warnings — so a dead
shard surfaces exactly like any other dead source.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Iterable, Mapping, Sequence

from repro.msl.ast import (
    Const,
    Param,
    Pattern,
    PatternCondition,
    PatternItem,
    Rule,
    SetPattern,
)
from repro.msl.compile import compile_head_item, evaluate_rule_compiled
from repro.msl.errors import MSLSemanticError
from repro.oem.compare import finish
from repro.oem.model import OEMObject
from repro.oem.oid import OidGenerator
from repro.wrappers.base import (
    BindingRows,
    Source,
    SourceError,
    check_source_query,
)
from repro.wrappers.capability import Capability, FULL_CAPABILITY

__all__ = [
    "encode_value",
    "HashPartition",
    "RangePartition",
    "SemiJoinFilter",
    "SemiJoinQuery",
    "ShardedSource",
    "shard_name",
    "partition_forest",
]


def encode_value(value: object) -> bytes:
    """A canonical byte encoding of an atomic OEM value.

    Values that compare equal must encode equal — numerics are the trap
    (``1 == 1.0`` but ``repr`` differs), so every int/float exactly
    representable as a float encodes through ``float.hex()``, and both
    zeros (``0.0 == -0.0``) as ``0.0``.  Used by hash partitioning, by
    the mediator's probe demultiplexer and by the SQLite store's value
    index, so they must never disagree.
    """
    if isinstance(value, bool):
        return b"b:1" if value else b"b:0"
    if isinstance(value, (int, float)):
        try:
            as_float = float(value)
        except OverflowError:
            return f"i:{value!r}".encode()
        if as_float == value:
            return f"n:{(as_float or 0.0).hex()}".encode()
        return f"i:{value!r}".encode()
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8", "surrogatepass")
    if isinstance(value, bytes):
        return b"y:" + value
    return f"o:{type(value).__name__}:{value!r}".encode()


def _stable_hash(value: object) -> int:
    return int.from_bytes(
        blake2b(encode_value(value), digest_size=8).digest(), "big"
    )


def shard_name(logical: str, index: int) -> str:
    """The qualified name of shard ``index`` of logical source ``logical``."""
    return f"{logical}#{index}"


@dataclass(frozen=True)
class HashPartition:
    """Route by a stable hash of the key-label value."""

    label: str
    shards: int

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("a partition needs at least one shard")

    def shard_of(self, value: object) -> int | None:
        """The shard owning ``value``; ``None`` = cannot route (broadcast)."""
        try:
            return _stable_hash(value) % self.shards
        except Exception:  # unencodable value: cannot prune
            return None

    def describe(self) -> str:
        return f"hash({self.label!r}) % {self.shards}"


@dataclass(frozen=True)
class RangePartition:
    """Route by sorted upper-exclusive boundaries on the key label.

    ``boundaries`` has ``shards - 1`` entries: shard ``i`` owns values
    in ``[boundaries[i-1], boundaries[i])``.
    """

    label: str
    boundaries: tuple

    def __post_init__(self) -> None:
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValueError("range boundaries must be sorted")

    @property
    def shards(self) -> int:
        return len(self.boundaries) + 1

    def shard_of(self, value: object) -> int | None:
        try:
            return bisect.bisect_right(self.boundaries, value)
        except TypeError:  # incomparable with the boundaries: broadcast
            return None

    def describe(self) -> str:
        return f"range({self.label!r}, boundaries={list(self.boundaries)!r})"


def _value_sort_key(value: object) -> tuple[str, str]:
    return (type(value).__name__, repr(value))


class SemiJoinFilter:
    """One shipped probe-value filter: ``label IN values``.

    ``param`` names the template variable being filtered; ``label`` is
    the direct-child label its values appear under.  Membership is
    Python equality (``1 == 1.0 == True``), so the filter admits a
    superset of what the matcher would; the mediator demultiplexes the
    answer exactly.
    """

    __slots__ = ("param", "label", "values")

    def __init__(self, param: str, label: str, values: frozenset) -> None:
        self.param = param
        self.label = label
        self.values = values

    def admits(self, value: object) -> bool:
        try:
            return value in self.values
        except TypeError:
            return False

    def admits_object(self, obj: OEMObject) -> bool:
        """Does ``obj`` have a direct child passing this filter?"""
        for child in obj.children:
            if child.label == self.label and child.is_atomic:
                if self.admits(child.value):
                    return True
        return False

    def canonical(self) -> str:
        body = ",".join(
            repr(v) for v in sorted(self.values, key=_value_sort_key)
        )
        return f"{self.param}/{self.label} IN {{{body}}}"

    def __repr__(self) -> str:
        return f"SemiJoinFilter({self.canonical()})"


class SemiJoinQuery:
    """A batched probe: one projection query plus shipped value filters.

    Stands in for a :class:`~repro.msl.ast.Rule` on the wire — the
    execution context, dispatcher, cache, and reliability decorators
    only ever take ``str(query)`` and forward the object, so this rides
    the existing single-flight / answer-cache / retry machinery
    unchanged.  ``str()`` is canonical: sorted filter sets plus the rule
    text, so identical batches dedup and cache.
    """

    __slots__ = ("rule", "filters", "_text")

    is_semijoin = True

    def __init__(
        self, rule: Rule, filters: Sequence[SemiJoinFilter]
    ) -> None:
        self.rule = rule
        self.filters = tuple(
            sorted(filters, key=lambda f: (f.param, f.label))
        )
        self._text: str | None = None

    @property
    def head(self):
        return self.rule.head

    @property
    def tail(self):
        return self.rule.tail

    def __str__(self) -> str:
        if self._text is None:
            filters = "; ".join(f.canonical() for f in self.filters)
            self._text = f"SEMIJOIN[{filters}] {self.rule}"
        return self._text

    def __repr__(self) -> str:
        return f"SemiJoinQuery({self})"


def partition_forest(
    objects: Iterable[OEMObject],
    partition: "HashPartition | RangePartition",
) -> list[list[OEMObject]]:
    """Split a forest into per-shard lists, preserving relative order.

    Routing reads the first direct atomic child carrying the partition
    label; objects without one go to shard 0 (they can never match a
    query that filters on the partition label, so any stable home is
    sound).  The unsharded *reference* store for an equivalence check
    is the shard-major concatenation of the returned lists.
    """
    shards: list[list[OEMObject]] = [[] for _ in range(partition.shards)]
    for obj in objects:
        target = 0
        for child in obj.children:
            if child.label == partition.label and child.is_atomic:
                routed = partition.shard_of(child.value)
                if routed is not None:
                    target = routed
                break
        shards[target].append(obj)
    return shards


class ShardedSource(Source):
    """N shard wrappers behind one logical source name.

    The shards must be named ``<logical>#<index>`` (see
    :func:`shard_name`) so that every per-source mechanism downstream —
    answer-cache keys, breakers, bulkheads, health, warnings — keys by
    the shard, not the logical source.  Registering the
    :class:`ShardedSource` makes both the logical name and every
    qualified shard name resolvable
    (:meth:`~repro.wrappers.registry.SourceRegistry.resolve` forwards
    ``big#3`` to :meth:`shard`).

    Answering through the *logical* name still works — a single-pattern
    query is pruned on partition-label constants and fanned (serially)
    across the surviving shards, shard-major order — but the optimizer
    exploits the declared partition much harder: shard-pruned parallel
    leaf scans and per-shard semi-join batches.
    """

    def __init__(
        self,
        name: str,
        shards: Sequence[Source],
        partition: "HashPartition | RangePartition",
    ) -> None:
        if not name or not name.isidentifier():
            raise SourceError(f"invalid source name {name!r}")
        if len(shards) != partition.shards:
            raise SourceError(
                f"partition {partition.describe()} expects"
                f" {partition.shards} shard(s), got {len(shards)}"
            )
        for index, shard in enumerate(shards):
            expected = shard_name(name, index)
            if shard.name != expected:
                raise SourceError(
                    f"shard {index} of {name!r} must be named"
                    f" {expected!r}, got {shard.name!r}"
                )
        self.name = name
        self.shards = tuple(shards)
        self.partition = partition
        # cross-shard joins answered here, over the union forest, their
        # objects numbered by one generator, as a wrapper's are
        self.queries_answered = 0
        self.objects_returned = 0
        self._oidgen = OidGenerator(f"&{name}_")

    @classmethod
    def build(
        cls,
        name: str,
        partition: "HashPartition | RangePartition",
        make_shard: Callable[[int, str], Source],
    ) -> "ShardedSource":
        """Construct shards via ``make_shard(index, qualified_name)``."""
        shards = [
            make_shard(index, shard_name(name, index))
            for index in range(partition.shards)
        ]
        return cls(name, shards, partition)

    # -- shard addressing ---------------------------------------------------

    def shard(self, index: int) -> Source:
        if not 0 <= index < len(self.shards):
            raise SourceError(
                f"source {self.name!r} has no shard {index}"
                f" (it has {len(self.shards)})"
            )
        return self.shards[index]

    def shard_names(self) -> list[str]:
        return [shard_name(self.name, i) for i in range(len(self.shards))]

    def prune_for_pattern(
        self, pattern: Pattern, params: "Mapping[str, object] | None" = None
    ) -> tuple[list[str], int]:
        """Surviving shard names for a shipped pattern + pruned count.

        Pruning keys off constant values on the partition label among
        the pattern's *direct* child items (descendant items don't
        constrain direct children, so they never prune).  Unroutable
        constants broadcast; conflicting constants prune everything.
        A ``$name`` placeholder there routes by its value in ``params``
        and prunes nothing when ``params`` has none for it — a template
        is planned over every shard and pruned when it is bound (see
        :meth:`routing_params`).
        """
        owners: set[int] | None = None
        for term in self._partition_terms(pattern):
            if isinstance(term, Const):
                routed = self.partition.shard_of(term.value)
            elif params is not None and term.name in params:
                routed = self.partition.shard_of(params[term.name])
            else:
                continue
            if routed is None:
                continue
            owned = {routed}
            owners = owned if owners is None else owners & owned
        if owners is None:
            survivors = list(range(len(self.shards)))
        else:
            survivors = sorted(owners)
        names = [shard_name(self.name, i) for i in survivors]
        return names, len(self.shards) - len(survivors)

    def routing_params(self, pattern: Pattern) -> tuple[str, ...]:
        """The placeholders of ``pattern`` whose values would prune
        shards: those sitting where :meth:`prune_for_pattern` looks."""
        return tuple(
            term.name
            for term in self._partition_terms(pattern)
            if isinstance(term, Param)
        )

    def _partition_terms(self, pattern: Pattern):
        """Constant and placeholder values under the partition label
        among ``pattern``'s direct child items."""
        value = pattern.value
        if isinstance(value, SetPattern):
            for item in value.items:
                if not isinstance(item, PatternItem) or item.descendant:
                    continue
                p = item.pattern
                if (
                    isinstance(p.label, Const)
                    and str(p.label.value) == self.partition.label
                    and isinstance(p.value, (Const, Param))
                ):
                    yield p.value

    # -- the Source interface ----------------------------------------------

    @property
    def capability(self) -> Capability:
        return self.shards[0].capability if self.shards else FULL_CAPABILITY

    def answer(self, query) -> list[OEMObject]:
        """The shards' answers as one answer, finished
        (:func:`~repro.oem.compare.finish`): two shards may build the
        same object, or objects one semantic oid fuses."""
        shards = self._fanned(query)
        if shards is None:
            return finish(self._answer_joined(query))
        result: list[OEMObject] = []
        for shard in shards:
            result.extend(shard.answer(query))
        return finish(result)

    def answer_bindings(self, query) -> "list[OEMObject] | BindingRows":
        """The answers of the shards ``query`` fans out to, concatenated
        in shard order: rows when every shard answered with rows,
        otherwise objects, each rows answer built back into the carrier
        objects it stands for."""
        shards = self._fanned(query)
        if shards is None:
            return self._answer_joined(query)
        answers = [shard.answer_bindings(query) for shard in shards]
        if answers and all(isinstance(a, BindingRows) for a in answers):
            return BindingRows(
                answers[0].columns, (row for a in answers for row in a)
            )
        result: list[OEMObject] = []
        for answer in answers:
            if isinstance(answer, BindingRows):
                build = compile_head_item(query.head[0], answer.columns)
                for row in answer:
                    result.extend(build(row, self._oidgen))
            else:
                result.extend(answer)
        return result

    def _fanned(self, query) -> "list[Source] | None":
        """The shards ``query`` goes to, in shard order, or ``None`` for
        a multi-pattern tail, which joins across shards.

        A single pattern is pruned on its partition-label constants; a
        semi-join batch is routed by its filter on the partition label.
        """
        if isinstance(query, SemiJoinQuery):
            route = next(
                (
                    f
                    for f in query.filters
                    if f.label == self.partition.label
                ),
                None,
            )
            if route is None:
                return list(self.shards)
            owned: set[int] = set()
            for value in route.values:
                routed = self.partition.shard_of(value)
                if routed is None:
                    return list(self.shards)
                owned.add(routed)
            return [self.shards[index] for index in sorted(owned)]
        patterns = [
            c for c in query.tail if isinstance(c, PatternCondition)
        ]
        if len(patterns) != 1:
            return None
        names, _ = self.prune_for_pattern(patterns[0].pattern)
        return [self.shards[int(n.rpartition("#")[2])] for n in names]

    def _answer_joined(self, query) -> list[OEMObject]:
        # no per-shard decomposition exists, so evaluate over the union
        # forest — after the checks any one shard would have made
        check_source_query(query, self.name, self.capability)
        forest = list(self.export())
        try:
            result = evaluate_rule_compiled(
                query,
                {None: forest, self.name: forest},
                None,
                self._oidgen,
                check=False,
            )
        except MSLSemanticError as exc:
            raise SourceError(f"{self.name}: {exc}") from exc
        self.queries_answered += 1
        self.objects_returned += len(result)
        return result

    def export(self) -> Sequence[OEMObject]:
        result: list[OEMObject] = []
        for shard in self.shards:
            result.extend(shard.export())
        return result

    @property
    def schema_facts(self):
        return self.shards[0].schema_facts if self.shards else None

    def stats(self) -> dict[str, object]:
        totals: dict[str, object] = {"shards": len(self.shards)}
        queries, objects = self.queries_answered, self.objects_returned
        for shard in self.shards:
            stats = shard.stats()
            queries += int(stats.get("queries_answered", 0) or 0)
            objects += int(stats.get("objects_returned", 0) or 0)
        totals["queries_answered"] = queries
        totals["objects_returned"] = objects
        return totals

    def reset_counters(self) -> None:
        self.queries_answered = self.objects_returned = 0
        for shard in self.shards:
            shard.reset_counters()

    def describe(self) -> str:
        kinds = {type(s).__name__ for s in self.shards}
        return (
            f"{self.name}: {len(self.shards)} shard(s) by"
            f" {self.partition.describe()}"
            f" [{', '.join(sorted(kinds))}]"
        )

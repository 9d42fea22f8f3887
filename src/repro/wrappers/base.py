"""The source interface: what mediators see.

Figure 1.1: wrappers "convert data from each source into a common model"
and "provide a common query language for extracting information".  In
this codebase every queryable component — wrapper or mediator — is a
:class:`Source`: it has a name, answers MSL queries with OEM objects,
and advertises a :class:`~repro.wrappers.capability.Capability`.
Mediators compose because they are Sources themselves.

:class:`Wrapper` adds the bookkeeping shared by concrete wrappers:
query counting (for the statistics module), capability enforcement, and
the default answer path through the compiled MSL evaluator.
"""

from __future__ import annotations

import abc
from typing import Iterator, Sequence

from repro.external.registry import ExternalRegistry
from repro.msl.analysis import check_rule
from repro.msl.ast import (
    Comparison,
    Const,
    Pattern,
    PatternCondition,
    PatternItem,
    Rule,
    SetPattern,
)
from repro.msl.compile import CompileCache
from repro.msl.errors import MSLSemanticError
from repro.oem.model import OEMObject
from repro.oem.oid import OidGenerator
from repro.wrappers.capability import (
    Capability,
    CapabilityViolation,
    FULL_CAPABILITY,
)

__all__ = [
    "Source",
    "Wrapper",
    "SourceError",
    "MalformedAnswerError",
    "check_source_query",
    "first_pattern",
    "labelled_children",
]


def _valid_source_name(name: str) -> bool:
    """Identifiers, plus the shard-qualified form ``logical#<index>``.

    Shards of a :class:`~repro.wrappers.sharding.ShardedSource` carry
    their qualified name directly so that cache keys, breakers,
    bulkheads, health records, and warnings all key per shard.
    """
    if not name:
        return False
    base, sep, index = name.partition("#")
    if not base.isidentifier():
        return False
    return not sep or index.isdigit()


def first_pattern(query: Rule) -> Pattern | None:
    """The first tail pattern of ``query`` — the one native access
    paths narrow on (further patterns re-match anyway)."""
    condition = next(query.pattern_conditions(), None)
    return None if condition is None else condition.pattern


def labelled_children(pattern: Pattern) -> Iterator[tuple[str, object]]:
    """``(label, value term)`` of each depth-1 child ``pattern`` names
    by a constant label — set items and the conditions the view
    expander pushed into the Rest variable alike.

    A child matching each one is a necessary condition for the object
    to match wherever the condition arrived, so an access path may
    narrow on any of them (on ``(label, value)`` when the value term is
    a :class:`Const`).
    """
    value = pattern.value
    if not isinstance(value, SetPattern):
        return
    children = [
        item.pattern
        for item in value.items
        if isinstance(item, PatternItem) and not item.descendant
    ]
    if value.rest is not None:
        children.extend(value.rest.conditions)
    for child in children:
        if isinstance(child.label, Const):
            yield str(child.label.value), child.value


class SourceError(Exception):
    """A query could not be served by a source."""


def check_source_query(
    query: Rule, name: str, capability: Capability
) -> None:
    """Reject a query the source ``name`` must not evaluate: one
    addressed elsewhere, or one beyond its advertised ``capability`` —
    a real autonomous source would refuse it, and so do we."""
    check_rule(query)
    # a shard wrapper ("big#2") also answers queries addressed to
    # its logical source ("big"): the sharded entry fans logical
    # queries to shards without rewriting their source annotations
    accepted = (None, name, name.partition("#")[0])
    for condition in query.tail:
        if isinstance(condition, PatternCondition):
            if condition.source not in accepted:
                raise SourceError(
                    f"query for source {condition.source!r} sent to"
                    f" {name!r}"
                )
            try:
                capability.check(condition.pattern)
            except CapabilityViolation as exc:
                raise SourceError(str(exc)) from exc
        elif isinstance(condition, Comparison):
            # a source may advertise the ability to evaluate
            # comparisons locally (capability-based rewriting then
            # ships them instead of compensating at the mediator)
            if not capability.supports_comparisons:
                raise SourceError(
                    f"source {name!r} cannot evaluate comparison"
                    f" {condition}"
                )
        else:
            # external calls are mediator-side business
            raise SourceError(
                f"source {name!r} cannot evaluate non-pattern"
                f" condition {condition}"
            )


class MalformedAnswerError(SourceError):
    """A source's answer contained structurally invalid OEM.

    Raised by the governor's strict-mode
    :class:`~repro.governor.sanitizer.AnswerSanitizer` when an answer
    carries a non-OEM item, a corrupt label or atom type, a cycle, or
    exceeds the nesting-depth / answer-size budget.  It is a
    :class:`SourceError`, so a degrade-mode mediator treats a
    malformed source exactly like an unavailable one.
    """

    def __init__(self, source: str, issues: Sequence[str]) -> None:
        preview = "; ".join(issues[:3])
        more = f" (+{len(issues) - 3} more)" if len(issues) > 3 else ""
        super().__init__(
            f"source {source!r} returned malformed OEM: {preview}{more}"
        )
        self.source = source
        self.issues = list(issues)


class Source(abc.ABC):
    """Anything that answers MSL queries with OEM objects."""

    name: str

    @abc.abstractmethod
    def answer(self, query: Rule) -> list[OEMObject]:
        """Evaluate ``query`` and return the materialized result objects."""

    @abc.abstractmethod
    def export(self) -> Sequence[OEMObject]:
        """The source's full OEM view (its top-level objects).

        For a mediator this materializes the view — potentially
        expensive, which is exactly why MSI pushes conditions instead.
        """

    @property
    def capability(self) -> Capability:
        """What the source can filter; full capability by default."""
        return FULL_CAPABILITY

    @property
    def schema_facts(self):
        """Structural facts the source exports (footnote 1), or ``None``.

        ``None`` means nothing is known — the open-world default for
        semi-structured sources.  See :mod:`repro.wrappers.facts`.
        """
        return None

    def stats(self) -> dict[str, object]:
        """Operational counters for registry-level snapshots.

        Sources without bookkeeping report nothing; :class:`Wrapper`
        and the reliability decorators add theirs.
        """
        return {}

    def reset_counters(self) -> None:
        """Zero any operational counters (benchmark harness hook)."""


class Wrapper(Source):
    """Base class for concrete wrappers.

    Subclasses implement :meth:`export` (the source's OEM view) and may
    override :meth:`candidates` to exploit native access paths (indexes,
    relational selections) for a given query.
    """

    def __init__(
        self,
        name: str,
        capability: Capability | None = None,
        registry: ExternalRegistry | None = None,
    ) -> None:
        if not _valid_source_name(name):
            raise SourceError(f"invalid source name {name!r}")
        self.name = name
        self._capability = capability or FULL_CAPABILITY
        self._registry = registry
        self._oidgen = OidGenerator(f"&{name}_")
        # repeated (parameterized) queries compile once
        self._compile_cache = CompileCache(registry)
        self.queries_answered = 0
        self.objects_returned = 0

    @property
    def capability(self) -> Capability:
        return self._capability

    # -- subclass surface ---------------------------------------------------

    @abc.abstractmethod
    def export(self) -> Sequence[OEMObject]:
        """The source's full OEM view (its top-level objects)."""

    def candidates(self, query: Rule) -> Sequence[OEMObject]:
        """Top-level objects that might satisfy ``query``.

        The default is the full export; subclasses with native access
        paths narrow this (and that narrowing is exactly the "pushed
        down" work the mediator saves by shipping conditions here).
        """
        return self.export()

    # -- the Source interface -------------------------------------------------

    def answer(self, query: Rule) -> list[OEMObject]:
        """Answer one MSL query against this source.

        The query's tail patterns must all be addressed to this source
        (``@name``) or carry no source annotation.  Patterns are checked
        against the advertised capability first — a real autonomous
        source would reject what it cannot evaluate, and so do we.

        A :class:`~repro.wrappers.sharding.SemiJoinQuery` (a projection
        query plus batched value filters) is accepted when the
        capability advertises ``supports_batch_filters`` — recognized
        structurally to keep this module import-free of the sharding
        layer.
        """
        if getattr(query, "is_semijoin", False):
            return self.answer_semijoin(query)
        compiled = self._admit(query)
        return self._evaluate(compiled, self.candidates(query))

    def _admit(self, query: Rule):
        """Check ``query`` against what this source accepts and compile
        it — each at most once per *shape*.

        Both the verdict of :func:`check_source_query` and the compiled
        matcher depend on the query's structure, never on the values of
        its constants (a constant is filterable or not by the label it
        sits under), so both are remembered on the compile cache's entry
        for the query's shape: a query that differs from an accepted one
        only in a constant skips the check and the compilation.  A
        rejected query remembers nothing and is rejected again, with
        its own text in the message, every time it is sent.
        """
        compiled = self._compile_cache.rule(query, compile=False)
        if (
            compiled is None
            or compiled.template.accepted is not self._capability
        ):
            check_source_query(query, self.name, self._capability)
            compiled = self._compile_cache.rule(query)
            compiled.template.accepted = self._capability
        return compiled

    def answer_semijoin(self, query) -> list[OEMObject]:
        """Evaluate one batched semi-join probe.

        The shipped rule is the projection query; the filters restrict
        candidates to objects whose direct children pass every value
        filter (a superset of the probe tuples' matches — the mediator
        demultiplexes exactly).  One call replaces one wire probe per
        distinct parameter tuple.
        """
        if not self._capability.supports_batch_filters:
            raise SourceError(
                f"source {self.name!r} does not accept batched semi-join"
                f" filters (capability {self._capability.name!r})"
            )
        compiled = self._admit(query.rule)
        return self._evaluate(compiled, self.semijoin_candidates(query))

    def semijoin_candidates(self, query) -> Sequence[OEMObject]:
        """Candidates passing the batch's value filters.

        The default filters :meth:`candidates` objects one by one;
        subclasses with native access paths (inverted indexes, SQL)
        override this with an indexed union over the filter values.
        """
        forest = self.candidates(query.rule)
        for shipped in query.filters:
            forest = [
                obj for obj in forest if shipped.admits_object(obj)
            ]
        return forest

    def _evaluate(
        self, compiled, forest: Sequence[OEMObject]
    ) -> list[OEMObject]:
        # the logical alias mirrors check_source_query: a shard evaluates
        # queries still annotated with its logical source name
        forests = {
            None: forest,
            self.name: forest,
            self.name.partition("#")[0]: forest,
        }
        try:
            result = compiled.evaluate(
                forests, self._registry, self._oidgen, check=False
            )
        except MSLSemanticError as exc:
            raise SourceError(f"{self.name}: {exc}") from exc
        self.queries_answered += 1
        self.objects_returned += len(result)
        return result

    def reset_counters(self) -> None:
        """Zero the query/object counters (benchmarks use this)."""
        self.queries_answered = 0
        self.objects_returned = 0

    def stats(self) -> dict[str, object]:
        compiled = self._compile_cache.stats()
        return {
            "queries_answered": self.queries_answered,
            "objects_returned": self.objects_returned,
            "compile_hits": compiled["hits"],
            "compile_misses": compiled["misses"],
            "compile_rules": compiled["rules"],
        }

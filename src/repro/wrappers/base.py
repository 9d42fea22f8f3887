"""The source interface: what mediators see.

Figure 1.1: wrappers "convert data from each source into a common model"
and "provide a common query language for extracting information".  In
this codebase every queryable component — wrapper or mediator — is a
:class:`Source`: it has a name, answers MSL queries with OEM objects,
and advertises a :class:`~repro.wrappers.capability.Capability`.
Mediators compose because they are Sources themselves.

The mediator ships each pattern as a *projection query* whose head is
a :class:`Carrier` (Section 3.1's Qw and Qcs) and asks for the answer
through :meth:`Source.answer_bindings`.  Any source may answer with the
carrier objects, which the mediator matches to read the bindings back
(the paper's extractor); a :class:`Wrapper` answers with the bindings
its matcher already holds, or that its source computes natively
(:meth:`Wrapper._native_rows`), as :class:`BindingRows`.

:class:`Wrapper` adds the bookkeeping shared by concrete wrappers:
query counting (for the statistics module), capability enforcement, and
the default answer path through the compiled MSL evaluator.
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, Sequence

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
    Var,
    VarItem,
)
from repro.msl.compile import CompileCache
from repro.msl.errors import MSLSemanticError
from repro.msl.walk import children
from repro.oem.compare import finish, structural_key
from repro.oem.model import OEMObject
from repro.oem.oid import Oid, OidGenerator
from repro.wrappers.capability import (
    Capability,
    CapabilityViolation,
    FULL_CAPABILITY,
)

__all__ = [
    "BindingRows",
    "Carrier",
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
    for child in children(pattern):
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


def _bare(pattern: Pattern) -> bool:
    return (
        pattern.oid is None
        and pattern.type is None
        and pattern.object_var is None
    )


class Carrier:
    """The head of a projection query, read as the columns it carries.

    Section 3.1 ships each pattern as a projection query whose head is
    a synthetic *carrier* object (Qw, Qcs) with one child per projected
    variable, in column order: ``<bind_for_src {<bind_for_V V> ...}>``,
    an object variable ``O`` spliced in as ``<bind_for_O {O}>``.  An OEM
    answer holds such objects; matching :attr:`pattern` against them
    reads the bindings back — the paper's extractor ``epw``, whose
    output row is one cell per column: an atom (an oid-slot variable
    as its text), the tuple a set-valued or Rest variable holds, or the
    object an object variable matched.
    """

    __slots__ = ("columns", "objects", "pattern", "text")

    def __init__(
        self, columns: Sequence[str], objects: frozenset, pattern: Pattern
    ) -> None:
        self.columns = tuple(columns)
        #: the columns projected as objects
        self.objects = objects
        #: the extractor pattern: the head, with each object column
        #: written ``<bind_for_O {O:<_ _>}>`` so it binds the object
        self.pattern = pattern
        self.text = str(pattern)

    @classmethod
    def of(cls, query) -> "Carrier | None":
        """The carrier ``query``'s head is, or ``None`` when it is not
        one (one child per distinct variable, each labelled
        ``bind_for_<variable>``)."""
        if len(query.head) != 1:
            return None
        (head,) = query.head
        if not (
            isinstance(head, Pattern)
            and _bare(head)
            and isinstance(head.label, Const)
            and isinstance(head.value, SetPattern)
            and head.value.rest is None
        ):
            return None
        columns: list[str] = []
        objects: set[str] = set()
        items: list[PatternItem] = []
        for item in head.value.items:
            if not isinstance(item, PatternItem) or item.descendant:
                return None
            child = item.pattern
            value = child.value
            if isinstance(value, SetPattern) and value.rest is None:
                if len(value.items) != 1 or not isinstance(
                    value.items[0], VarItem
                ):
                    return None
                var = value.items[0].var
                objects.add(var.name)
                item = PatternItem(
                    Pattern(
                        label=child.label,
                        value=SetPattern(
                            (
                                PatternItem(
                                    Pattern(
                                        Var("_"), Var("_"), object_var=var
                                    )
                                ),
                            )
                        ),
                    )
                )
            elif isinstance(value, Var):
                var = value
            else:
                return None
            if (
                not _bare(child)
                or var.is_anonymous
                or var.name in columns
                or child.label != Const(f"bind_for_{var.name}")
            ):
                return None
            columns.append(var.name)
            items.append(item)
        pattern = Pattern(label=head.label, value=SetPattern(tuple(items)))
        return cls(columns, frozenset(objects), pattern)


class BindingRows(list):
    """A projection query answered as rows (:meth:`Source.answer_bindings`).

    One tuple per object the query's :class:`Carrier` head would have
    built, in answer order, with the cells the carrier's extractor
    would read back out of it, in ``columns`` order.
    """

    __slots__ = ("columns",)

    def __init__(
        self, columns: Sequence[str], rows: Iterable[tuple] = ()
    ) -> None:
        super().__init__(rows)
        self.columns = tuple(columns)


#: Exact atom types a carrier child holds unchanged, with the OEM type
#: it infers for them (part of the child's structural key).
_CARRIED_ATOMS = {
    int: "integer",
    float: "real",
    bool: "boolean",
    bytes: "bytes",
    type(None): "null",
}


def _carried_rows(compiled, frames: Sequence[tuple]) -> "BindingRows | None":
    """``frames`` as the rows the mediator would read back out of the
    carrier objects built from them, or ``None`` when the rule's head is
    not a :class:`Carrier` or a cell would not come back as it is.

    The carrier round trip turns an oid into its text and an object in
    a value slot into a one-member set.  Carriers are deduplicated
    structurally, so the rows are too, on the key each cell's carrier
    child has: a string by itself, another atom with its OEM type, a
    set by its members' keys, a spliced object by its own.
    """
    template = compiled.template
    carried = template.carried
    if carried is None:
        carrier = Carrier.of(template.rule)
        index = template.layout.index
        carried = template.carried = (
            False
            if carrier is None
            else (
                carrier.columns,
                tuple(
                    (index[name], name in carrier.objects)
                    for name in carrier.columns
                ),
            )
        )
    if carried is False:
        return None
    columns, registers = carried
    rows = BindingRows(columns)
    seen: set[tuple] = set()
    for frame in frames:
        cells: list[object] = []
        key: list[object] = []
        for register, spliced in registers:
            value = frame[register]
            kind = type(value)
            if spliced:
                if kind is not OEMObject:
                    return None
                key.append(structural_key(value))
            elif kind is str:
                key.append(value)
            elif kind is tuple:
                key.append(frozenset(structural_key(m) for m in value))
            elif kind in _CARRIED_ATOMS:
                key.append((_CARRIED_ATOMS[kind], value))
            elif isinstance(value, Oid):
                value = value.text
                key.append(value)
            elif kind is OEMObject:
                key.append(frozenset((structural_key(value),)))
                value = (value,)
            else:
                return None
            cells.append(value)
        distinct = tuple(key)
        if distinct not in seen:
            seen.add(distinct)
            rows.append(tuple(cells))
    return rows


class Source(abc.ABC):
    """Anything that answers MSL queries with OEM objects."""

    name: str

    @abc.abstractmethod
    def answer(self, query: Rule) -> list[OEMObject]:
        """Evaluate ``query`` and return the materialized result objects."""

    def answer_bindings(self, query: Rule) -> "list[OEMObject] | BindingRows":
        """Answer a projection query — the form the mediator ships.

        The answer is either the OEM objects of :meth:`answer` (this
        default: the mediator matches the :class:`Carrier` pattern
        against them) or, from a source that can do better, the
        :class:`BindingRows` that match would produce.
        """
        return self.answer(query)

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

        The answer is finished (:func:`~repro.oem.compare.finish`):
        objects sharing a semantic oid are fused, as a mediator's are.
        """
        compiled = self._admitted(query)
        frames = self._frames(compiled, query)
        return self._answered(finish(compiled.build(frames, self._oidgen)))

    def answer_bindings(self, query: Rule) -> "list[OEMObject] | BindingRows":
        """Answer a projection query with the rows the matcher holds.

        The cells are the ones the mediator would read back out of the
        carrier objects :meth:`answer` builds (:class:`Carrier`), in the
        same order and with the carriers' structural duplicates dropped
        — without building a carrier or minting its oids.  Anything the
        round trip would not carry unchanged (a query that is not a
        projection, a cell outside the carrier's atom types) is
        answered with the objects instead.  So is every query to a
        wrapper whose :meth:`answer` was redefined, on its class or on
        the instance: that method says what the source answers.
        """
        redefined = type(self).answer is not Wrapper.answer
        if redefined or "answer" in self.__dict__:
            return self.answer(query)
        compiled = self._admitted(query)
        rows = self._native_rows(compiled, query)
        if rows is None:
            frames = self._frames(compiled, query)
            rows = _carried_rows(compiled, frames)
            if rows is None:
                return self._answered(
                    finish(compiled.build(frames, self._oidgen))
                )
        return self._answered(rows)

    def _admitted(self, query):
        """The compiled rule of ``query`` (of a semi-join probe's rule),
        admitted by :meth:`_admit`.

        A semi-join probe is accepted only when the capability
        advertises ``supports_batch_filters``.
        """
        if getattr(query, "is_semijoin", False):
            if not self._capability.supports_batch_filters:
                raise SourceError(
                    f"source {self.name!r} does not accept batched semi-join"
                    f" filters (capability {self._capability.name!r})"
                )
            return self._admit(query.rule)
        return self._admit(query)

    def _native_rows(self, compiled, query) -> "BindingRows | None":
        """The rows of an admitted projection query, computed in the
        source's own language, or ``None``: match the candidates (the
        default).  Rows must equal what :meth:`answer_bindings` reads
        off the matched frames, cell for cell and in order."""
        return None

    def _frames(self, compiled, query) -> list[tuple]:
        """The frames of an admitted ``query``: its candidates, matched.

        A semi-join probe's filters restrict the candidates to objects
        whose direct children pass every value filter (a superset of
        the probe tuples' matches — the mediator demultiplexes
        exactly): one call replaces one wire probe per distinct
        parameter tuple.
        """
        if getattr(query, "is_semijoin", False):
            forest = self.semijoin_candidates(query)
        else:
            forest = self.candidates(query)
        # the logical alias mirrors check_source_query: a shard evaluates
        # queries still annotated with its logical source name
        forests = {
            None: forest,
            self.name: forest,
            self.name.partition("#")[0]: forest,
        }
        try:
            return compiled.frames(forests, self._registry, check=False)
        except MSLSemanticError as exc:
            raise SourceError(f"{self.name}: {exc}") from exc

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

    def _answered(self, result: list) -> list:
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

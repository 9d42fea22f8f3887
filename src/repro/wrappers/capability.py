"""Query-capability descriptions for sources.

Section 3.5: "the limited query capabilities of the underlying sources
may prohibit even simple algebraic optimizations ... For example, the
source whois may not be able to evaluate the condition on 'year'".  This
module models that: each wrapper advertises a :class:`Capability`, and
the optimizer consults it to decide which conditions can be pushed into
the source query and which must be *compensated* at the mediator (the
capabilities-based rewriting of [PGH], in miniature).

:meth:`Capability.split` takes a pattern destined for the source and
returns ``(relaxed_pattern, residual_conditions)``: the relaxed pattern
is guaranteed acceptable to the source; the residual conditions are
comparisons the mediator must apply to the returned bindings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.msl.ast import Comparison, Const, Param, Pattern, Term, Var
from repro.msl.walk import VALUE, descendants, rebuild

__all__ = [
    "Capability",
    "FULL_CAPABILITY",
    "BATCH_CAPABILITY",
    "CapabilityViolation",
]


class CapabilityViolation(Exception):
    """A source received a query it advertises it cannot evaluate."""


@dataclass(frozen=True)
class Capability:
    """What value-filters a source can evaluate.

    Attributes
    ----------
    filterable_labels:
        when not ``None``, the source can only apply constant/comparison
        filters to sub-objects carrying these labels; filters on other
        labels must be compensated at the mediator.
    supports_wildcards:
        whether descendant (``..``) items may be shipped ("some sources
        may not support them", Section 2).
    supports_comparisons:
        whether non-equality rest-condition comparisons can be shipped.
    supports_batch_filters:
        whether the source accepts batched ``IN``-style value filters
        (:class:`~repro.wrappers.sharding.SemiJoinQuery`); when set,
        the parameterized-query path ships one semi-join batch per
        probe group and shard instead of one probe per input tuple.
    name:
        a display name for plans and error messages.
    """

    filterable_labels: frozenset[str] | None = None
    supports_wildcards: bool = True
    supports_comparisons: bool = True
    supports_batch_filters: bool = False
    name: str = "capability"

    # -- checks -----------------------------------------------------------

    def can_filter(self, label: object) -> bool:
        if self.filterable_labels is None:
            return True
        return isinstance(label, str) and label in self.filterable_labels

    def accepts(self, pattern: Pattern) -> bool:
        """Would the source accept ``pattern`` as-is?"""
        relaxed, residual = self.split(pattern)
        return not residual and relaxed == pattern

    def check(self, pattern: Pattern) -> None:
        """Raise :class:`CapabilityViolation` unless acceptable."""
        if not self.accepts(pattern):
            raise CapabilityViolation(
                f"source capability {self.name!r} rejects pattern {pattern}"
            )

    # -- rewriting -----------------------------------------------------------

    def split(
        self, pattern: Pattern
    ) -> tuple[Pattern, list[Comparison]]:
        """Relax ``pattern`` to what the source accepts + residual filters.

        Constant values on unfilterable sub-object labels are replaced by
        fresh variables and returned as equality comparisons for the
        mediator to apply.  Descendant items on a wildcard-less source
        are *not* relaxable (there is no variable trick that recovers
        them) and raise :class:`CapabilityViolation`.
        """
        wildcards = () if self.supports_wildcards else descendants(pattern)
        if wildcards:
            raise CapabilityViolation(
                f"source capability {self.name!r} does not support"
                f" descendant ('..') patterns: {wildcards[0]}"
            )
        residual: list[Comparison] = []
        relaxed = rebuild(pattern, partial(self._relaxed, pattern, residual))
        return relaxed, residual

    def _relaxed(
        self, root: Pattern, residual: list[Comparison], kind: str, term, p
    ):
        # a constant value below the top is a filter on its label (a
        # template's lifted constant included: whether it can be shipped
        # depends on the label, not on the value)
        if (
            kind is VALUE
            and p is not root
            and term.__class__ in (Const, Param)
            and not self.can_filter(_label_text(p.label))
        ):
            var = Var(f"_Cap{len(residual) + 1}")
            residual.append(Comparison(var, "=", term))
            return var
        return term


def _label_text(label: Term) -> object:
    if isinstance(label, Const):
        return label.value
    return label


#: The capability of a fully-capable source (a conventional DBMS wrapper).
FULL_CAPABILITY = Capability(name="full")

#: Full capability plus batched semi-join filters — the default of the
#: in-process wrappers (relational, OEM store, SQLite store).  Kept apart
#: from :data:`FULL_CAPABILITY`, the default of every other
#: :class:`~repro.wrappers.base.Source` (a mediator used as a source, a
#: custom wrapper), which is probed per tuple.
BATCH_CAPABILITY = Capability(
    supports_batch_filters=True, name="full+batch"
)

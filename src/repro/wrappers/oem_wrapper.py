"""A wrapper over an in-memory OEM store (semi-structured sources).

This is the ``whois`` kind of source: objects with no regular schema,
some fields present on some objects only.  The store holds top-level OEM
objects directly; an optional inverted index over (child label, atomic
value) pairs narrows candidate top-level objects for queries with
constant sub-object filters — standing in for whatever native access
paths a real source would have.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.external.registry import ExternalRegistry
from repro.msl.ast import Const, Rule
from repro.oem.model import OEMObject
from repro.wrappers.base import Wrapper, first_pattern, labelled_children
from repro.wrappers.capability import BATCH_CAPABILITY, Capability

__all__ = ["OEMStoreWrapper"]


class OEMStoreWrapper(Wrapper):
    """Wrapper exporting a mutable collection of OEM objects.

    >>> from repro.oem import parse_oem
    >>> from repro.msl.parser import parse_rule
    >>> w = OEMStoreWrapper('whois', parse_oem(
    ...     "<&1, person, set, {&2}> <&2, name, string, 'Ann'>"))
    >>> [o.value for o in w.answer(parse_rule('<n N> :- <person {<name N>}>'))]
    ['Ann']
    """

    def __init__(
        self,
        name: str,
        objects: Iterable[OEMObject] = (),
        capability: Capability | None = None,
        registry: ExternalRegistry | None = None,
        indexed: bool = True,
        export_facts: bool = False,
    ) -> None:
        super().__init__(name, capability or BATCH_CAPABILITY, registry)
        self._objects: list[OEMObject] = list(objects)
        self._indexed = indexed
        self._index: dict[tuple[str, object], set[int]] | None = None
        self._label_index: dict[str, set[int]] | None = None
        self._export_facts = export_facts
        self._facts_cache = None

    # -- store mutation -----------------------------------------------------

    def add(self, *objects: OEMObject) -> None:
        """Add top-level objects to the store."""
        self._objects.extend(objects)
        self._invalidate()

    def remove_where(self, label: str) -> int:
        """Remove all top-level objects carrying ``label``."""
        before = len(self._objects)
        self._objects = [o for o in self._objects if o.label != label]
        self._invalidate()
        return before - len(self._objects)

    def clear(self) -> None:
        self._objects.clear()
        self._invalidate()

    def __len__(self) -> int:
        return len(self._objects)

    def _invalidate(self) -> None:
        self._index = None
        self._label_index = None
        self._facts_cache = None

    @property
    def schema_facts(self):
        """Facts derived from the *current* store contents, when the
        store opted in (``export_facts=True``).  A store that keeps
        accepting arbitrary new shapes should not opt in — derived facts
        are closed-world and would wrongly prune future shapes."""
        if not self._export_facts:
            return None
        if self._facts_cache is None:
            from collections import defaultdict

            from repro.wrappers.facts import SchemaFacts

            children: dict[str, set[str]] = defaultdict(set)
            for obj in self._objects:
                kids = children[obj.label]
                for child in obj.children:
                    kids.add(child.label)
            self._facts_cache = SchemaFacts(children)
        return self._facts_cache

    # -- the Wrapper surface ---------------------------------------------------

    def export(self) -> Sequence[OEMObject]:
        return self._objects

    def candidates(self, query: Rule) -> Sequence[OEMObject]:
        """Narrow the export using the store's inverted index.

        Only the query's *first* top-level pattern guides the narrowing
        (further patterns re-match anyway); the index covers top-level
        label plus (direct child label, atomic value) filters.
        """
        if not self._indexed or not self._objects:
            return self._objects
        first = first_pattern(query)
        if first is None:
            return self._objects

        self._ensure_index()
        assert self._index is not None and self._label_index is not None
        candidate_ids: set[int] | None = None

        if isinstance(first.label, Const):
            candidate_ids = set(
                self._label_index.get(str(first.label.value), set())
            )

        for label, value in labelled_children(first):
            if isinstance(value, Const):
                matched = self._index.get((label, value.value), set())
                candidate_ids = (
                    set(matched)
                    if candidate_ids is None
                    else candidate_ids & matched
                )
        if candidate_ids is None:
            return self._objects
        return [self._objects[i] for i in sorted(candidate_ids)]

    def semijoin_candidates(self, query) -> Sequence[OEMObject]:
        """Indexed batch narrowing: one index union per filter value.

        Each value set resolves through the inverted index (the union
        over its values, intersected across filters).  Candidates come
        back in store position order — the same order the per-tuple
        probe path sees, which is what keeps semi-join shipping
        bit-for-bit equivalent.
        """
        if not self._indexed or not self._objects:
            return super().semijoin_candidates(query)
        self._ensure_index()
        assert self._index is not None and self._label_index is not None
        candidate_ids: set[int] | None = None
        first = first_pattern(query.rule)
        if first is not None and isinstance(first.label, Const):
            candidate_ids = set(
                self._label_index.get(str(first.label.value), set())
            )
        for shipped in query.filters:
            matched: set[int] = set()
            for value in shipped.values:
                matched |= self._index.get((shipped.label, value), set())
            candidate_ids = (
                matched
                if candidate_ids is None
                else candidate_ids & matched
            )
        if candidate_ids is None:
            return self._objects
        return [self._objects[i] for i in sorted(candidate_ids)]

    def _ensure_index(self) -> None:
        if self._index is not None:
            return
        index: dict[tuple[str, object], set[int]] = defaultdict(set)
        label_index: dict[str, set[int]] = defaultdict(set)
        for position, obj in enumerate(self._objects):
            label_index[obj.label].add(position)
            for child in obj.children:
                if child.is_atomic:
                    try:
                        index[(child.label, child.value)].add(position)
                    except TypeError:  # unhashable — skip silently
                        continue
        self._index = dict(index)
        self._label_index = dict(label_index)

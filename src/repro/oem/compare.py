"""Structural comparison, hashing, duplicate elimination and object
fusion for OEM.

The MSL semantics call for duplicate elimination of view objects "in the
OEM context" (the paper's footnote 9 admits their engine lacked the
feature; we provide it).  Two OEM objects are *structurally equal* when
they have the same label, the same type, and — recursively — the same
value, where set values compare as **bags turned into sets**: order is
irrelevant and duplicated members collapse.  Object-ids are ignored,
because the ids of view objects are arbitrary.

Section 2, "Other Features": "MSL allows the specification of *semantic
object-id's* that semantically identify an exported object ... Semantic
object-id's provide a powerful mechanism for object fusion."  (The full
treatment is the companion paper [PGM], "Object Fusion in Mediator
Systems".)  A rule head gives its object the oid term ``&person(N)``;
every binding — possibly produced by *different rules* — that evaluates
the term to the same :class:`~repro.oem.oid.SemanticOid` describes the
*same* view object, so their sub-objects are merged into one fused
object (:func:`fuse_objects`).

:func:`finish` is both steps in the semantics' order, and the one place
an answer's objects are deduplicated and fused: every answer route of a
mediator, a wrapper and a sharded source ends in it.
"""

from __future__ import annotations

from typing import Iterable, Hashable

from repro.oem.model import OEMObject
from repro.oem.oid import SemanticOid

__all__ = [
    "structural_key",
    "dedup_key",
    "structural_hash",
    "structurally_equal",
    "eliminate_duplicates",
    "finish",
    "fuse_objects",
    "has_semantic_oids",
    "is_subobject_set",
    "key_computations",
]

#: Number of structural keys actually computed (cache misses).  Joins,
#: dedup, and cache canonicalization over an already-keyed forest should
#: leave this counter unchanged; tests assert exactly that.
_key_computations = 0


def key_computations() -> int:
    """Total structural-key computations so far (memoization misses)."""
    return _key_computations


def structural_key(obj: OEMObject) -> Hashable:
    """A hashable key capturing the structure of ``obj`` (oids ignored).

    Set values are canonicalised as a frozenset of the children's keys,
    so the key is insensitive to sub-object order and to duplicate
    sub-objects.  Objects are immutable, so the key is computed once and
    memoized on the object itself — repeated joins/dedup/cache lookups
    over the same forest never re-walk the tree.
    """
    cached = obj._skey
    if cached is not None:
        return cached
    global _key_computations
    _key_computations += 1
    if obj.is_set:
        child_keys = frozenset(structural_key(c) for c in obj.children)
        key: Hashable = (obj.label, "set", child_keys)
    else:
        key = (obj.label, obj.type, obj.value)
    object.__setattr__(obj, "_skey", key)
    return key


def dedup_key(obj: OEMObject) -> Hashable:
    """What makes ``obj`` a duplicate of another answer object.

    Its :func:`structural_key`, paired with its oid when that is a
    :class:`SemanticOid`: a semantic oid names one view object, so two
    objects with distinct semantic oids are two objects even when the
    oid's arguments are not among their sub-objects.  Plain oids are
    arbitrary and ignored.
    """
    key = obj._skey
    if key is None:
        key = structural_key(obj)
    if obj.oid.__class__ is SemanticOid:
        return (obj.oid, key)
    return key


def structural_hash(obj: OEMObject) -> int:
    """Hash consistent with :func:`structurally_equal`."""
    return hash(structural_key(obj))


def structurally_equal(a: OEMObject, b: OEMObject) -> bool:
    """True when ``a`` and ``b`` have identical structure (oids ignored)."""
    if a is b:
        return True
    if a.label != b.label or a.type != b.type:
        return False
    if a.is_set:
        return structural_key(a) == structural_key(b)
    return a.value == b.value


def eliminate_duplicates(objects: Iterable[OEMObject]) -> list[OEMObject]:
    """Drop duplicated objects (equal :func:`dedup_key`), keeping first
    occurrences.

    This implements the duplicate elimination that the MSL semantics
    prescribe for the objects a mediator (or query) generates.
    """
    seen: set[Hashable] = set()
    unique: list[OEMObject] = []
    for obj in objects:
        key = dedup_key(obj)
        if key not in seen:
            seen.add(key)
            unique.append(obj)
    return unique


def has_semantic_oids(objects: Iterable[OEMObject]) -> bool:
    """True when any top-level object carries a semantic oid."""
    return any(isinstance(obj.oid, SemanticOid) for obj in objects)


def finish(objects: Iterable[OEMObject]) -> list[OEMObject]:
    """The answer ``objects`` stand for: duplicates (equal
    :func:`dedup_key`) dropped, first occurrences kept (footnote 9),
    then objects sharing a semantic oid fused (:func:`fuse_objects`).

    An OEM answer holds no two objects with one oid; every answer route
    ends here, so the plan route, the materialization route, a
    wrapper's answer and a sharded source's agree.  The dedup pass
    also notes whether any kept object has a semantic oid, so an answer
    without one is not walked again.
    """
    seen: set[Hashable] = set()
    unique: list[OEMObject] = []
    semantic = False
    for obj in objects:
        key = dedup_key(obj)
        if key not in seen:
            seen.add(key)
            unique.append(obj)
            if obj.oid.__class__ is SemanticOid:
                semantic = True
    return fuse_objects(unique) if semantic else unique


def fuse_objects(objects: Iterable[OEMObject]) -> list[OEMObject]:
    """Merge objects whose semantic object-ids coincide.

    Objects with plain oids pass through untouched (their identity is
    arbitrary, so there is nothing to fuse on).  For objects sharing a
    :class:`SemanticOid`:

    * their labels must agree (a semantic oid names one object; rules
      disagreeing on its label is a specification error);
    * atomic objects must carry equal values;
    * set objects are merged by unioning their sub-objects (recursively
      fusing sub-objects that themselves carry semantic oids), with
      structural duplicate elimination.

    Order is preserved: a fused object appears at the position of its
    first contributor.
    """
    order: list[object] = []
    groups: dict[object, list[OEMObject]] = {}
    passthrough: dict[int, OEMObject] = {}

    for position, obj in enumerate(objects):
        if isinstance(obj.oid, SemanticOid):
            key = obj.oid
            if key not in groups:
                groups[key] = []
                order.append(("fuse", key))
            groups[key].append(obj)
        else:
            order.append(("plain", position))
            passthrough[position] = obj

    result: list[OEMObject] = []
    for kind, key in order:
        if kind == "plain":
            result.append(passthrough[key])  # type: ignore[index]
            continue
        result.append(_fuse_group(groups[key]))  # type: ignore[index]
    return result


def _fuse_group(group: list[OEMObject]) -> OEMObject:
    first = group[0]
    if len(group) == 1:
        if first.is_set and has_semantic_oids(first.children):
            return first.with_children(fuse_objects(first.children))
        return first
    labels = {obj.label for obj in group}
    if len(labels) != 1:
        raise ValueError(
            f"objects with semantic oid {first.oid} disagree on label:"
            f" {sorted(labels)}"
        )
    if all(obj.is_atomic for obj in group):
        values = {obj.value for obj in group}
        if len(values) != 1:
            raise ValueError(
                f"atomic objects with semantic oid {first.oid} disagree"
                f" on value: {sorted(map(repr, values))}"
            )
        return first
    if any(obj.is_atomic for obj in group):
        raise ValueError(
            f"objects with semantic oid {first.oid} mix atomic and set"
            f" values"
        )
    merged_children: list[OEMObject] = []
    for obj in group:
        merged_children.extend(obj.children)
    fused_children = fuse_objects(merged_children)
    return OEMObject(
        first.label,
        eliminate_duplicates(fused_children),
        "set",
        first.oid,
    )


def is_subobject_set(
    smaller: Iterable[OEMObject], larger: Iterable[OEMObject]
) -> bool:
    """True when every object in ``smaller`` structurally occurs in ``larger``.

    Used by tests and by view-expansion containment checks.
    """
    larger_keys = {structural_key(o) for o in larger}
    return all(structural_key(o) in larger_keys for o in smaller)

"""Object fusion via semantic object-ids.

Section 2, "Other Features": "MSL allows the specification of *semantic
object-id's* that semantically identify an exported object ... Semantic
object-id's provide a powerful mechanism for object fusion."  (The full
treatment is the companion paper [PGM], "Object Fusion in Mediator
Systems".)

The mechanism: a rule head gives its object the oid term
``&person(N)``.  Every binding — possibly produced by *different rules*
— that evaluates the term to the same :class:`~repro.oem.oid.SemanticOid`
describes the *same* view object, so their sub-objects are merged into
one fused object.  This is how a mediator can combine information about
a person appearing in only one source with information from both,
without the join-only behaviour of the running example's ``med``.

Naming note: this is **object** fusion, a semantic feature of the
result set.  It is unrelated to :mod:`repro.mediator.pipeline`, which
implements **operator** fusion — a physical-plan optimization that
merges straight-line datamerge operators into single pipeline nodes.
"""

from __future__ import annotations

from typing import Iterable

from repro.oem.compare import eliminate_duplicates
from repro.oem.model import OEMObject
from repro.oem.oid import SemanticOid

__all__ = ["fuse_objects", "has_semantic_oids"]


def has_semantic_oids(objects: Iterable[OEMObject]) -> bool:
    """True when any top-level object carries a semantic oid."""
    return any(isinstance(obj.oid, SemanticOid) for obj in objects)


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
        if first.is_set:
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

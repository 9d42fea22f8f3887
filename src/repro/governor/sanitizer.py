"""Deep validation and quarantine of source OEM answers.

The reliability layer's ``validate_answer`` only checks that an answer
is a list of :class:`~repro.oem.model.OEMObject` — one non-object item
fails the whole answer, and a *corrupt* object (a wrapper handing out
structures with broken labels, lying atom types, absurd nesting, or
reference cycles) sails straight into a binding table and crashes the
datamerge run far from its cause.

The :class:`AnswerSanitizer` walks every answer before it enters a
table and checks, per object:

* the item is an :class:`OEMObject` at all;
* the label is a non-empty string;
* the declared type agrees with the carried value
  (:func:`repro.oem.model.infer_type`; ``real`` accepts ``int``,
  matching the model's own coercion);
* set values are tuples of objects;
* nesting depth stays within ``max_depth``;
* no object appears on its own ancestor path (cycle detection — only
  possible for objects corrupted past the model's immutability, which
  is exactly what a hostile or buggy wrapper can do);
* the total object count stays within ``max_objects``.

In **lenient** mode each malformed sub-object is *quarantined*: it is
dropped, its well-formed siblings survive (parents are rebuilt via
``with_children``), and one structured
:class:`~repro.reliability.health.SourceWarning` per issue is attached
to the run.  In **strict** mode the first pass collects all issues and
raises :class:`~repro.wrappers.base.MalformedAnswerError` naming them.

A :class:`~repro.wrappers.base.BindingRows` answer is checked as the
carrier objects its rows stand for: a row is a depth-1 object with one
depth-2 child per cell, and the objects a cell holds sit below that
child.  It gets the issues, verdicts and repairs those carriers would —
a row whose carrier would lose a column, or an object column its
object, no longer matches, and is dropped.
"""

from __future__ import annotations

from typing import Sequence

from repro.oem.model import (
    ATOMIC_TYPES,
    OEMObject,
    OEMTypeError,
    SET_TYPE,
    infer_type,
)
from repro.reliability.health import SourceWarning
from repro.wrappers.base import BindingRows, MalformedAnswerError

__all__ = ["AnswerSanitizer", "DEFAULT_MAX_DEPTH"]

#: Nesting depth accepted when no budget says otherwise.  Far beyond
#: any sane mediated answer (the paper's views nest 3-4 deep) yet small
#: enough to stop a recursion bomb before Python's own limit does.
DEFAULT_MAX_DEPTH = 64


class _Quarantined(Exception):
    """Internal: strict mode aborts the walk at the first batch of issues."""


class AnswerSanitizer:
    """Validates (and in lenient mode repairs) source answers.

    Stateless and shareable: per-answer bookkeeping lives on the stack
    of :meth:`sanitize`, so one sanitizer can serve every source behind
    a mediator.
    """

    def __init__(
        self,
        max_depth: int | None = DEFAULT_MAX_DEPTH,
        max_objects: int | None = None,
        mode: str = "lenient",
    ) -> None:
        if mode not in ("lenient", "strict"):
            raise ValueError(
                f"mode must be 'lenient' or 'strict', got {mode!r}"
            )
        if max_depth is not None and max_depth <= 0:
            raise ValueError("max_depth must be positive")
        if max_objects is not None and max_objects <= 0:
            raise ValueError("max_objects must be positive")
        self.max_depth = max_depth
        self.max_objects = max_objects
        self.mode = mode

    def describe(self) -> str:
        depth = self.max_depth if self.max_depth is not None else "unlimited"
        size = (
            self.max_objects if self.max_objects is not None else "unlimited"
        )
        return f"{self.mode} (max_depth={depth}, max_objects={size})"

    # -- entry point -------------------------------------------------------

    def sanitize(
        self, source: str, objects: Sequence[object]
    ) -> tuple[list, list[SourceWarning]]:
        """Validate one answer from ``source``.

        Returns the surviving objects (or rows, for a
        :class:`~repro.wrappers.base.BindingRows` answer) plus one
        warning per quarantined issue; raises
        :class:`MalformedAnswerError` in strict mode as soon as any
        issue is found.
        """
        issues: list[str] = []
        counter = [0]  # objects admitted so far, shared down the walk
        if isinstance(objects, BindingRows):
            clean: list = BindingRows(objects.columns)
            keep = self._sanitize_row
        else:
            clean = []
            keep = self._sanitize_root
        try:
            for item in objects:
                kept = keep(item, issues, counter)
                if kept is not None:
                    clean.append(kept)
        except _Quarantined:
            pass
        if issues and self.mode == "strict":
            raise MalformedAnswerError(source, issues)
        warnings = [
            SourceWarning(
                source=source, message=issue, error="MalformedAnswer"
            )
            for issue in issues
        ]
        return clean, warnings

    # -- the recursive walk ------------------------------------------------

    def _reject(self, issues: list[str], issue: str) -> None:
        issues.append(issue)
        if self.mode == "strict":
            raise _Quarantined

    def _sanitize_root(self, obj, issues, counter) -> OEMObject | None:
        return self._sanitize(obj, 1, frozenset(), issues, counter)

    def _sanitize_row(self, row: tuple, issues, counter) -> tuple | None:
        """One row as its carrier: the row itself at depth 1, a child
        per cell at depth 2, a cell's objects from depth 3."""
        if not self._room(1, issues, counter):
            return None
        counter[0] += 1
        cells: list[object] = []
        matches = True
        for cell in row:
            if not self._room(2, issues, counter):
                matches = False
                continue
            counter[0] += 1
            if isinstance(cell, OEMObject):
                cell = self._sanitize(cell, 3, frozenset(), issues, counter)
                matches = matches and cell is not None
            elif isinstance(cell, tuple):
                kept = [
                    member
                    for member in (
                        self._sanitize(m, 3, frozenset(), issues, counter)
                        for m in cell
                    )
                    if member is not None
                ]
                if len(kept) != len(cell) or any(
                    a is not b for a, b in zip(kept, cell)
                ):
                    cell = tuple(kept)
            cells.append(cell)
        return tuple(cells) if matches else None

    def _room(self, depth: int, issues: list[str], counter: list[int]) -> bool:
        """The depth and answer-size limits, for one more object at
        ``depth``."""
        if self.max_depth is not None and depth > self.max_depth:
            self._reject(
                issues,
                f"nesting depth {depth} exceeds limit {self.max_depth};"
                " subtree quarantined",
            )
            return False
        if (
            self.max_objects is not None
            and counter[0] >= self.max_objects
        ):
            self._reject(
                issues,
                f"answer exceeds {self.max_objects} objects;"
                " remainder quarantined",
            )
            return False
        return True

    def _sanitize(
        self,
        obj: object,
        depth: int,
        ancestors: frozenset[int],
        issues: list[str],
        counter: list[int],
    ) -> OEMObject | None:
        if not isinstance(obj, OEMObject):
            self._reject(
                issues,
                f"non-OEM item of type {type(obj).__name__} quarantined",
            )
            return None
        if id(obj) in ancestors:
            self._reject(
                issues,
                f"cycle detected at object labelled {obj.label!r};"
                " back-edge quarantined",
            )
            return None
        if not self._room(depth, issues, counter):
            return None
        label = obj.label
        if not isinstance(label, str) or not label:
            self._reject(
                issues, f"object with invalid label {label!r} quarantined"
            )
            return None
        counter[0] += 1
        if obj.type == SET_TYPE:
            return self._sanitize_set(obj, depth, ancestors, issues, counter)
        return self._sanitize_atom(obj, issues)

    def _sanitize_atom(
        self, obj: OEMObject, issues: list[str]
    ) -> OEMObject | None:
        declared = obj.type
        if declared not in ATOMIC_TYPES:
            self._reject(
                issues,
                f"object {obj.label!r} declares unknown type"
                f" {declared!r}; quarantined",
            )
            return None
        value = obj.value
        if isinstance(value, (OEMObject, tuple, list, set, frozenset)):
            # never repr an untrusted structured value: a corrupted
            # self-referential object would recurse without bound
            self._reject(
                issues,
                f"object {obj.label!r} declares atomic type {declared!r}"
                f" but carries a {type(value).__name__}; quarantined",
            )
            return None
        try:
            inferred = infer_type(value)
        except OEMTypeError:
            self._reject(
                issues,
                f"object {obj.label!r} carries un-OEM value of type"
                f" {type(value).__name__}; quarantined",
            )
            return None
        if inferred != declared and not (
            declared == "real" and inferred == "integer"
        ):
            self._reject(
                issues,
                f"object {obj.label!r} declares type {declared!r} but"
                f" carries {inferred!r}; quarantined",
            )
            return None
        return obj

    def _sanitize_set(
        self,
        obj: OEMObject,
        depth: int,
        ancestors: frozenset[int],
        issues: list[str],
        counter: list[int],
    ) -> OEMObject | None:
        value = obj.value
        if not isinstance(value, tuple):
            self._reject(
                issues,
                f"set object {obj.label!r} carries non-tuple value"
                f" {type(value).__name__}; quarantined",
            )
            return None
        path = ancestors | {id(obj)}
        kept: list[OEMObject] = []
        changed = False
        for child in value:
            clean = self._sanitize(child, depth + 1, path, issues, counter)
            if clean is None:
                changed = True
            else:
                if clean is not child:
                    changed = True
                kept.append(clean)
        if not changed:
            return obj
        # rebuild through the model constructor so the repaired object
        # is a first-class, fully-validated OEMObject again
        return OEMObject(obj.label, tuple(kept), SET_TYPE, obj.oid)

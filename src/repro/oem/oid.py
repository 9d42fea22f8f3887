"""Object identifiers for OEM objects.

The paper treats object-ids "as arbitrary strings that are used to link
objects to their subobjects", and notes that a mediator may use "any
arbitrary unique strings" for the objects it creates.  Two kinds exist:

* :class:`Oid` — a plain opaque identifier (``&12``, ``&p1``, ``x032`` ...).
* :class:`SemanticOid` — a *semantic object-id* (Section 2, "Other
  Features"): a functor applied to values, e.g. ``person('Joe Chung')``,
  which "semantically identifies an exported object" and has "meaning
  beyond the mediator call that yielded it".  Semantic oids are the
  mechanism behind object fusion (:mod:`repro.mediator.fusion`): two rules
  producing objects with the same semantic oid contribute sub-objects to a
  single fused object.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterable

__all__ = ["Oid", "SemanticOid", "fresh_oid", "OidGenerator"]


class Oid:
    """An opaque object identifier.

    Oids compare by their text, so that a parsed ``&p1`` is the same
    identifier wherever it occurs.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        if not isinstance(text, str) or not text:
            raise ValueError(f"oid text must be a non-empty string: {text!r}")
        object.__setattr__(self, "text", text)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Oid is immutable")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SemanticOid):
            return False
        if isinstance(other, Oid):
            return self.text == other.text
        if isinstance(other, str):
            return self.text == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.text)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Oid({self.text!r})"


class SemanticOid(Oid):
    """A semantic object-id: ``functor(arg1, ..., argn)``.

    Arguments are atoms (or nested oids).  Equality is by functor and
    arguments, which is exactly what makes fusion work: every rule that
    derives a sub-object for ``person('Joe Chung')`` targets the *same*
    view object.
    """

    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: Iterable[object]) -> None:
        if not functor:
            raise ValueError("semantic oid functor must be non-empty")
        args = tuple(args)
        text = f"{functor}({', '.join(_render(a) for a in args)})"
        super().__init__(text)
        object.__setattr__(self, "functor", functor)
        object.__setattr__(self, "args", args)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SemanticOid):
            # MSL keeps booleans apart from numbers (values_equal), even
            # though Python's 1 == True; equal texts have equal booleans
            return (
                self.functor == other.functor
                and self.args == other.args
                and (
                    self.text == other.text
                    or all(
                        isinstance(a, bool) is isinstance(b, bool)
                        for a, b in zip(self.args, other.args)
                    )
                )
            )
        return False

    def __hash__(self) -> int:
        return hash((self.functor, self.args))

    def __repr__(self) -> str:
        return f"SemanticOid({self.functor!r}, {self.args!r})"


def _render(arg: object) -> str:
    if isinstance(arg, str):
        if "'" in arg or "\\" in arg:
            # escaped as the OEM printer escapes strings, so that
            # distinct argument lists never share a text
            arg = arg.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{arg}'"
    return str(arg)


class OidGenerator:
    """Thread-safe generator of unique synthetic oids.

    Each generator owns a prefix so that ids from different components
    (sources, the mediator's memory, view objects) are visibly distinct,
    as in the paper's figures (``&12``, ``x032``, ``&cp1``).
    """

    def __init__(self, prefix: str = "&") -> None:
        self.prefix = prefix
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    def __call__(self) -> Oid:
        with self._lock:
            number = next(self._counter)
        return Oid(f"{self.prefix}{number}")

    def reset(self) -> None:
        """Restart numbering (used by tests for reproducible output)."""
        with self._lock:
            self._counter = itertools.count(1)


#: The process-wide default generator used when an object is created
#: without an explicit oid.
_default_generator = OidGenerator("&_")


def fresh_oid() -> Oid:
    """Allocate a process-unique synthetic object-id."""
    return _default_generator()

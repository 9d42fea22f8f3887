"""Tables: tuple storage for the mini relational engine.

A :class:`Table` owns a schema and a list of tuples, enforces the schema
and key constraints on insert, and supports schema evolution in place —
the paper's motivating scenario where "an attribute 'birthday' may appear
in either of the two sources, or the 'e_mail' attribute may be dropped",
often "without notification to the mediator implementor".
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from repro.relational.schema import Attribute, RelationSchema, SchemaError

__all__ = ["Table", "IntegrityError"]


class IntegrityError(SchemaError):
    """A key constraint was violated."""


class Table:
    """One relation instance: schema + tuples.

    :attr:`version` counts the mutations that change what the table
    holds — an insert, a delete that removed rows, an attribute added
    or dropped — so a reader that remembered something derived from
    the table knows when to derive it again.

    >>> t = Table(RelationSchema('r', ['a']))
    >>> t.version
    0
    >>> _ = t.insert('x'); t.delete_where(lambda r: False); t.version
    0
    1
    """

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self._rows: list[tuple] = []
        self._key_index: dict[tuple, int] = {}
        self.version = 0

    # -- basic accessors ------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def rows(self) -> list[tuple]:
        """A snapshot copy of all tuples."""
        return list(self._rows)

    def row_dicts(self) -> Iterator[dict[str, object]]:
        """Tuples as attribute-name dictionaries."""
        names = self.schema.attribute_names
        for row in self._rows:
            yield dict(zip(names, row))

    # -- mutation -----------------------------------------------------------

    def _key_of(self, row: tuple) -> tuple | None:
        if not self.schema.key:
            return None
        return tuple(row[self.schema.position(k)] for k in self.schema.key)

    def insert(self, *values: object, **named: object) -> tuple:
        """Insert one tuple, given positionally or by attribute name.

        >>> from repro.relational.schema import RelationSchema
        >>> t = Table(RelationSchema('r', ['a', 'b']))
        >>> t.insert('x', 'y'); t.insert(b='q', a='p'); len(t)
        ('x', 'y')
        ('p', 'q')
        2
        """
        if values and named:
            raise SchemaError(
                "insert takes positional or named values, not both"
            )
        if named:
            row_list: list[object] = [None] * self.schema.arity
            for name, value in named.items():
                row_list[self.schema.position(name)] = value
            row = tuple(row_list)
        else:
            row = tuple(values)
        self.schema.validate_tuple(row)
        key = self._key_of(row)
        if key is not None:
            if key in self._key_index:
                raise IntegrityError(
                    f"duplicate key {key!r} in relation {self.name!r}"
                )
            self._key_index[key] = len(self._rows)
        self._rows.append(row)
        self.version += 1
        return row

    def insert_many(self, rows: Iterable[tuple]) -> int:
        """Insert many positional tuples; returns the count inserted."""
        count = 0
        for row in rows:
            self.insert(*row)
            count += 1
        return count

    def delete_where(self, predicate: Callable[[Mapping[str, object]], bool]) -> int:
        """Delete tuples whose dict form satisfies ``predicate``."""
        names = self.schema.attribute_names
        keep: list[tuple] = []
        removed = 0
        for row in self._rows:
            if predicate(dict(zip(names, row))):
                removed += 1
            else:
                keep.append(row)
        if removed:
            self._rows = keep
            self._rebuild_key_index()
            self.version += 1
        return removed

    def _rebuild_key_index(self) -> None:
        self._key_index.clear()
        for index, row in enumerate(self._rows):
            key = self._key_of(row)
            if key is not None:
                self._key_index[key] = index

    # -- schema evolution ----------------------------------------------------

    def add_attribute(
        self, attribute: Attribute | str, default: object = None
    ) -> None:
        """Append an attribute, padding existing tuples with ``default``.

        This is the "birthday appears" scenario: existing mediator
        specifications written with Rest variables pick the new attribute
        up automatically.
        """
        schema = self.schema.with_attribute(attribute)
        new_attr = schema.attributes[-1]
        if not new_attr.admits(default):
            raise SchemaError(
                f"default {default!r} does not fit new attribute"
                f" {new_attr.name!r}"
            )
        self.schema = schema
        self._rows = [row + (default,) for row in self._rows]
        self.version += 1

    def drop_attribute(self, attribute: str) -> None:
        """Remove an attribute and its column from every tuple."""
        position = self.schema.position(attribute)
        self.schema = self.schema.without_attribute(attribute)
        self._rows = [
            row[:position] + row[position + 1 :] for row in self._rows
        ]
        self._rebuild_key_index()
        self.version += 1

    def __repr__(self) -> str:
        return (
            f"Table({self.name}"
            f"({', '.join(self.schema.attribute_names)}), {len(self)} rows)"
        )

"""Binding tables: what flows along the arcs of a datamerge graph.

Figure 3.6: "the rectangles next to the arcs of the graph represent
tables that flow during a sample run ... Typically, the tuples of the
tables carry bindings for the logical datamerge program variables."

A :class:`BindingTable` has named columns and rows of bound values
(atoms, OEM objects, or object sets).  The display form mimics the
figure, including the heading row the paper adds "for readability".

Physically the table is a hybrid row/columnar store.  The row list is
authoritative — governor row-admission accounting, plan nodes, and the
display form all see the classic rows/columns API — but the relational
operations that hash on values (:meth:`natural_join`,
:func:`add_distinct`) work on lazily materialised struct-of-arrays views:
per-column arrays of memoized ``value_key`` results built once per
(table, column) via :meth:`key_column` instead of being recomputed for
every probe of every row.  Columns that hold only exact ``str`` atoms
skip key construction entirely and hash the raw values ("exact" keys).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.msl.bindings import value_key
from repro.oem.model import OEMObject
from repro.oem.printer import to_inline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.governor.budget import QueryGovernor

__all__ = ["BindingTable", "TableError", "add_distinct", "key_array"]


class TableError(Exception):
    """Malformed table operation (unknown column, arity mismatch, ...)."""


def key_array(column: Sequence[object]) -> tuple[list[object], bool]:
    """``(keys, exact)`` for one column of values.

    ``exact`` means every value is exactly a ``str``: raw strings are
    their own hash keys (``value_key`` equality for two strings is
    plain string equality), so the column itself doubles as the key
    array with zero per-value work.  Otherwise every value is lowered
    to its canonical ``value_key``.  Shared with the fused pipeline's
    constructor stage so fused dedup partitions rows identically.
    """
    for value in column:
        if type(value) is not str:
            return [value_key(v) for v in column], False
    return list(column), True


def _join_keys(column: tuple[list, bool]) -> tuple[list, bool]:
    """A :func:`key_array` column as join keys: ``values_equal`` makes
    ``1`` and ``1.0`` (and ``0`` and ``-0.0``) one value, so an integral
    float keys as the int it equals.  Deduplication keeps the
    type-strict keys."""
    keys, exact = column
    if exact or not any(
        key[0] == "atom" and key[1] == "float" for key in keys
    ):
        return column
    return [
        ("atom", "int", int(key[2]))
        if key[0] == "atom" and key[1] == "float" and key[2].is_integer()
        else key
        for key in keys
    ], False


def add_distinct(
    rows: Sequence[tuple[object, ...]],
    key_cols: Sequence[Sequence[object]],
    add: Callable[[tuple[object, ...]], None],
) -> None:
    """``add`` the first row of ``rows`` for every distinct key.

    ``key_cols`` are :func:`key_array` columns aligned with ``rows``;
    over zero columns every row has the same (empty) key.
    """
    seen: set[object] = set()
    if len(key_cols) == 1:
        (keys,) = key_cols
        for i, row in enumerate(rows):
            key = keys[i]
            if key not in seen:
                seen.add(key)
                add(row)
    else:
        for i, row in enumerate(rows):
            key = tuple(col[i] for col in key_cols)
            if key not in seen:
                seen.add(key)
                add(row)


class BindingTable:
    """An in-memory table of variable bindings.

    A table may carry a :class:`~repro.governor.budget.QueryGovernor`:
    every row admission is then charged against the query's row budgets
    (per-table and run-total) and checked for cooperative cancellation.
    Tables derived by the relational operations inherit the governor.
    Without one (the default), admission is a plain list append.
    """

    __slots__ = ("columns", "rows", "governor", "_positions", "_keys", "_keys_len")

    def __init__(
        self,
        columns: Sequence[str],
        rows: Iterable[Sequence[object]] = (),
        governor: "QueryGovernor | None" = None,
    ) -> None:
        self.columns: tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise TableError(f"duplicate column names in {self.columns}")
        self._positions = {name: i for i, name in enumerate(self.columns)}
        self.rows: list[tuple[object, ...]] = []
        self.governor = governor
        # memoized columnar key arrays: position -> (keys, exact),
        # valid only while len(rows) == _keys_len (rows only ever grow)
        self._keys: dict[int, tuple[list[object], bool]] | None = None
        self._keys_len = -1
        add = self._appender()
        arity = len(self.columns)
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise TableError(
                    f"row of arity {len(row)} does not fit columns"
                    f" {list(self.columns)}"
                )
            add(row)

    # -- basic access ----------------------------------------------------

    def position(self, column: str) -> int:
        try:
            return self._positions[column]
        except KeyError:
            raise TableError(
                f"no column {column!r}; columns are {list(self.columns)}"
            ) from None

    def has_column(self, column: str) -> bool:
        return column in self._positions

    def column_values(self, column: str) -> list[object]:
        position = self.position(column)
        return [row[position] for row in self.rows]

    def append(self, row: Sequence[object]) -> None:
        row = tuple(row)
        if len(row) != len(self.columns):
            raise TableError(
                f"row of arity {len(row)} does not fit columns"
                f" {list(self.columns)}"
            )
        if self.governor is None or self.governor.admit_row(self):
            self.rows.append(row)

    def _admit(self, row: tuple[object, ...]) -> None:
        """Governed fast-path append: no arity check, budget charged."""
        if self.governor.admit_row(self):
            self.rows.append(row)

    def _appender(self) -> Callable[[tuple[object, ...]], None]:
        """The cheapest correct way to add pre-shaped rows to this table.

        Hot paths (joins, extends, plan nodes) bind this once per
        table: ungoverned tables get the raw ``list.append``, governed
        tables the budget-charging path.
        """
        if self.governor is None:
            return self.rows.append
        return self.governor.row_admitter(self)

    def key_column(self, position: int) -> tuple[list[object], bool]:
        """Memoized ``(keys, exact)`` array for one column (by position).

        The cache is keyed by table length: rows are append-only, so a
        length mismatch is the complete staleness signal even for rows
        added through the raw ``_appender`` path.  Callers must treat
        the returned list as read-only.
        """
        if self._keys is None or self._keys_len != len(self.rows):
            self._keys = {}
            self._keys_len = len(self.rows)
        entry = self._keys.get(position)
        if entry is None:
            column = [row[position] for row in self.rows]
            entry = self._keys[position] = key_array(column)
        return entry

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[object, ...]]:
        return iter(self.rows)

    def row_dict(self, row: Sequence[object]) -> dict[str, object]:
        return dict(zip(self.columns, row))

    # -- relational-ish operations ---------------------------------------

    def project(self, columns: Sequence[str]) -> "BindingTable":
        positions = [self.position(c) for c in columns]
        return BindingTable(
            columns,
            ([row[p] for p in positions] for row in self.rows),
            governor=self.governor,
        )

    def filter(
        self, predicate: Callable[[dict[str, object]], bool]
    ) -> "BindingTable":
        return self.filter_rows(
            lambda row: predicate(self.row_dict(row))
        )

    def filter_rows(
        self, predicate: Callable[[tuple[object, ...]], bool]
    ) -> "BindingTable":
        """Like :meth:`filter`, but the predicate sees the raw row tuple.

        The compiled plan nodes use this with positional accessors so
        the hot loop never materialises a per-row dict.
        """
        return BindingTable(
            self.columns,
            (row for row in self.rows if predicate(row)),
            governor=self.governor,
        )

    def extend(
        self,
        new_columns: Sequence[str],
        expander: Callable[[dict[str, object]], Iterable[Sequence[object]]],
    ) -> "BindingTable":
        """For each row, append zero or more value tuples for new columns.

        Rows for which ``expander`` yields nothing are dropped (the
        natural semantics of a dependent join).
        """
        return self.extend_rows(
            new_columns,
            lambda row: expander(self.row_dict(row)),
        )

    def extend_rows(
        self,
        new_columns: Sequence[str],
        expander: Callable[
            [tuple[object, ...]], Iterable[Sequence[object]]
        ],
    ) -> "BindingTable":
        """Like :meth:`extend`, but the expander sees the raw row tuple."""
        overlap = set(new_columns) & set(self.columns)
        if overlap:
            raise TableError(f"columns {sorted(overlap)} already exist")
        result = BindingTable(
            tuple(self.columns) + tuple(new_columns), governor=self.governor
        )
        add = result._appender()
        arity = len(new_columns)
        for row in self.rows:
            for extension in expander(row):
                extension = tuple(extension)
                if len(extension) != arity:
                    raise TableError(
                        f"expander produced arity {len(extension)},"
                        f" expected {arity}"
                    )
                add(row + extension)
        return result

    def natural_join(self, other: "BindingTable") -> "BindingTable":
        """Hash join on all shared columns (structural value equality)."""
        shared = [c for c in self.columns if other.has_column(c)]
        other_only = [c for c in other.columns if not self.has_column(c)]
        result = BindingTable(
            tuple(self.columns) + tuple(other_only), governor=self.governor
        )
        add = result._appender()
        if not shared:
            cross_positions = [other.position(c) for c in other_only]
            for left in self.rows:
                for right in other.rows:
                    add(
                        left
                        + tuple(right[p] for p in cross_positions)
                    )
            return result
        # Build/probe on memoized key columns, with numbers keyed as
        # ``values_equal`` compares them (:func:`_join_keys`).  Key
        # equality is then ``values_equal`` for every value class
        # (atoms carry their type name in the key, so bool/int never
        # alias; objects and object sets key on the same structural
        # identity that ``values_equal`` compares), so no per-row
        # verification pass is needed after the hash lookup.
        shared_other = [other.position(c) for c in shared]
        shared_self = [self.position(c) for c in shared]
        right_keys = [_join_keys(other.key_column(p)) for p in shared_other]
        left_keys = [_join_keys(self.key_column(p)) for p in shared_self]
        # An exact (raw-string) key column only hashes compatibly with
        # another exact column; against a canonical column, lift the
        # raw strings to their canonical atom keys on the fly.
        for i, ((lk, le), (rk, re)) in enumerate(zip(left_keys, right_keys)):
            if le and not re:
                left_keys[i] = ([("atom", "str", v) for v in lk], False)
            elif re and not le:
                right_keys[i] = ([("atom", "str", v) for v in rk], False)
        positions_other_only = [other.position(c) for c in other_only]
        index: dict[object, list[tuple[object, ...]]] = {}
        if len(shared) == 1:
            rkeys = right_keys[0][0]
            for i, right in enumerate(other.rows):
                index.setdefault(rkeys[i], []).append(right)
            lkeys = left_keys[0][0]
            for i, left in enumerate(self.rows):
                for right in index.get(lkeys[i], ()):
                    add(
                        left + tuple(right[p] for p in positions_other_only)
                    )
        else:
            rcols = [keys for keys, _ in right_keys]
            for i, right in enumerate(other.rows):
                index.setdefault(
                    tuple(col[i] for col in rcols), []
                ).append(right)
            lcols = [keys for keys, _ in left_keys]
            for i, left in enumerate(self.rows):
                key = tuple(col[i] for col in lcols)
                for right in index.get(key, ()):
                    add(
                        left + tuple(right[p] for p in positions_other_only)
                    )
        return result

    # -- display (the Figure 3.6 rectangles) ------------------------------

    def render(self, max_rows: int = 20, max_width: int = 40) -> str:
        """Render as an ASCII table with a heading row."""

        def cell(value: object) -> str:
            if isinstance(value, OEMObject):
                text = to_inline(value)
            elif isinstance(value, tuple):
                text = "{" + " ".join(to_inline(o) for o in value) + "}"
            elif isinstance(value, str):
                text = f"'{value}'"
            else:
                text = str(value)
            if len(text) > max_width:
                text = text[: max_width - 3] + "..."
            return text

        header = list(self.columns)
        body = [
            [cell(v) for v in row] for row in self.rows[:max_rows]
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body), 1)
            if body
            else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in body:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(row, widths))
            )
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"BindingTable({list(self.columns)}, {len(self.rows)} rows)"
        )

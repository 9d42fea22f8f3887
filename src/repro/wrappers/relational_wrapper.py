"""A wrapper exporting a relational database as OEM objects.

Figure 2.2 of the paper: the ``cs`` wrapper turns each tuple of

.. code-block:: text

    employee(first_name, last_name, title, reports_to)
    student(first_name, last_name, year)

into a top-level OEM object labelled with the **relation name**, with one
sub-object per attribute — "notice how the schema information has now
been incorporated into the individual OEM objects".  That relocation of
schema into data is what lets MSL variables range over relation names
(the schematic-discrepancy resolution of the running example).

NULL attributes are simply omitted from the exported object: relational
missing values become OEM irregularity, which MSL handles natively.

A tuple is translated once per table version, not once per query: the
wrapper keeps a :class:`_Snapshot` of each table — its rows and schema
as of one :attr:`~repro.relational.table.Table.version`, plus one slot
per row for that row's OEM object, filled the first time a scan
selects the row.  Objects are immutable, so every later answer hands
out the same instances until the table changes.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from repro.external.registry import ExternalRegistry
from repro.msl.ast import Const, Pattern, Rule
from repro.oem.model import OEMObject, SET_TYPE
from repro.oem.oid import Oid
from repro.relational.database import Database
from repro.relational.query import Selection
from repro.relational.table import Table
from repro.wrappers.base import Wrapper, first_pattern, labelled_children
from repro.wrappers.capability import BATCH_CAPABILITY, Capability

__all__ = ["RelationalWrapper"]

#: A relation name that ends in a digit, or holds a digit followed by
#: ``_``: its row numbers would run into the name (``t1`` row 1 and
#: ``t`` row 11 both read ``t11``), so they are set off with ``.``.
_RUNS_ON = re.compile(r"[0-9](?:_|$)")


def _row_separator(relation: str) -> str:
    """What stands between a relation name and a row number in an oid.

    Nothing, for a name no row number can run into — today's oids —
    else ``.``, which no identifier contains and the OEM parser
    accepts in an oid.
    """
    return "." if _RUNS_ON.search(relation) else ""


class _Snapshot:
    """One version of one table, as the wrapper serves it.

    The version is read before the schema and rows, so a mutation that
    races the copy leaves the snapshot already stale, never stale
    unnoticed.  A scan tests the snapshot's own rows against its own
    schema: one answer never mixes two versions.
    """

    __slots__ = ("table", "version", "schema", "rows", "objects", "stem")

    def __init__(self, wrapper: str, table: Table) -> None:
        self.table = table
        self.version = table.version
        self.schema = table.schema
        self.rows = table.rows()
        #: the OEM object of each row, translated on first use
        self.objects: list[OEMObject | None] = [None] * len(self.rows)
        #: every oid of the table starts with this, then the row number
        self.stem = f"&{wrapper}_{table.name}{_row_separator(table.name)}"

    def current(self, table: Table) -> bool:
        return self.table is table and self.version == table.version


class RelationalWrapper(Wrapper):
    """Wrapper over a :class:`~repro.relational.database.Database`.

    >>> from repro.relational.schema import RelationSchema
    >>> db = Database('cs')
    >>> t = db.create_table(RelationSchema('student',
    ...     ['first_name', 'last_name', 'year']))
    >>> _ = t.insert('Nick', 'Naive', 3)
    >>> w = RelationalWrapper('cs', db)
    >>> w.export()[0].label
    'student'
    """

    def __init__(
        self,
        name: str,
        database: Database,
        capability: Capability | None = None,
        registry: ExternalRegistry | None = None,
    ) -> None:
        super().__init__(name, capability or BATCH_CAPABILITY, registry)
        self.database = database
        # table name -> its latest snapshot; a table dropped and
        # re-created under the name is a different table object
        self._snapshots: dict[str, _Snapshot] = {}

    @property
    def schema_facts(self):
        """The catalog as schema facts (footnote 1): table names are the
        only possible top-level labels, attribute names the only possible
        sub-object labels.  Recomputed per call, so live schema evolution
        (ALTER TABLE) is reflected immediately."""
        from repro.wrappers.facts import SchemaFacts

        return SchemaFacts(
            {
                table.name: table.schema.attribute_names
                for table in self.database.tables()
            }
        )

    # -- OEM translation -----------------------------------------------------

    def _tuple_to_oem(
        self, snapshot: _Snapshot, row_number: int, row: tuple
    ) -> OEMObject:
        """One relational tuple as an OEM object (Figure 2.2's shape)."""
        stem = f"{snapshot.stem}{row_number}"
        children = []
        for attr, value in zip(snapshot.schema.attributes, row):
            if value is None:
                continue  # NULL: the sub-object is simply absent
            oid = Oid(f"{stem}_{attr.name}")
            children.append(OEMObject(attr.name, value, None, oid))
        return OEMObject(snapshot.schema.name, children, SET_TYPE, Oid(stem))

    def _snapshot(self, table: Table) -> _Snapshot:
        snapshot = self._snapshots.get(table.name)
        if snapshot is None or not snapshot.current(table):
            snapshot = self._snapshots[table.name] = _Snapshot(
                self.name, table
            )
        return snapshot

    def _objects(
        self, snapshot: _Snapshot, positions: Iterable[int]
    ) -> list[OEMObject]:
        """The objects of the snapshot's rows at ``positions``,
        translating each row the first time it is asked for."""
        slots, rows = snapshot.objects, snapshot.rows
        objects = []
        for at in positions:
            obj = slots[at]
            if obj is None:
                # the row number is the row's position in the table, so
                # equal tuples keep distinct oids, stable across answers
                obj = self._tuple_to_oem(snapshot, at + 1, rows[at])
                slots[at] = obj
            objects.append(obj)
        return objects

    def export(self) -> Sequence[OEMObject]:
        objects: list[OEMObject] = []
        for table in self.database.tables():
            snapshot = self._snapshot(table)
            objects.extend(self._objects(snapshot, range(len(snapshot.rows))))
        return objects

    # -- native access path ------------------------------------------------

    def candidates(self, query: Rule) -> Sequence[OEMObject]:
        """Translate the query's first pattern into relational selections.

        * a constant top-level label names the relation to scan;
        * constant-valued direct sub-object patterns whose labels are
          attributes become equality selections;
        * a pattern naming an attribute the relation lacks yields no rows
          from that relation (it can never match).

        Anything subtler falls back to matching over the translated
        objects — the wrapper stays correct, just less selective.
        """
        first = first_pattern(query)
        if first is None:
            return self.export()
        return self._scan(first, ())

    def semijoin_candidates(self, query) -> Sequence[OEMObject]:
        """One pass per relation for a whole probe batch: each shipped
        filter is an ``attribute IN values`` selection applied beside
        the pattern's own, *before* any tuple is translated to OEM."""
        first = first_pattern(query.rule)
        if first is None:
            return super().semijoin_candidates(query)
        return self._scan(first, query.filters)

    def _scan(self, first: Pattern, filters: Sequence) -> list[OEMObject]:
        if isinstance(first.label, Const):
            relation = str(first.label.value)
            if not self.database.has_table(relation):
                return []
            tables = [self.database.table(relation)]
        else:
            tables = list(self.database.tables())

        required, selections = _pattern_filters(first)
        required.update(shipped.label for shipped in filters)
        objects: list[OEMObject] = []
        for table in tables:
            snapshot = self._snapshot(table)
            schema = snapshot.schema
            if any(not schema.has_attribute(attr) for attr in required):
                continue
            tests = [
                (schema.position(s.attribute), s.holds) for s in selections
            ] + [
                (schema.position(shipped.label), shipped.admits)
                for shipped in filters
            ]
            # rows are tested before any is translated: a cold probe
            # translates only its matches
            objects.extend(
                self._objects(
                    snapshot,
                    [
                        at
                        for at, row in enumerate(snapshot.rows)
                        if all(holds(row[column]) for column, holds in tests)
                    ],
                )
            )
        return objects


def _pattern_filters(
    pattern: Pattern,
) -> tuple[set[str], list[Selection]]:
    """Required attribute names and equality selections from a pattern."""
    required: set[str] = set()
    selections: list[Selection] = []
    for attribute, value in labelled_children(pattern):
        required.add(attribute)
        if isinstance(value, Const):
            selections.append(Selection(attribute, "=", value.value))
    return required, selections

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
"""

from __future__ import annotations

from typing import Sequence

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
        self, table: Table, row_number: int, row: tuple
    ) -> OEMObject:
        """One relational tuple as an OEM object (Figure 2.2's shape)."""
        children = []
        for attr, value in zip(table.schema.attributes, row):
            if value is None:
                continue  # NULL: the sub-object is simply absent
            oid = Oid(f"&{self.name}_{table.name}{row_number}_{attr.name}")
            children.append(OEMObject(attr.name, value, None, oid))
        return OEMObject(
            table.name,
            children,
            SET_TYPE,
            Oid(f"&{self.name}_{table.name}{row_number}"),
        )

    def export(self) -> Sequence[OEMObject]:
        # row numbers are positions in the table, so oids are stable
        # across repeated exports of unchanged data
        return [
            self._tuple_to_oem(table, number, row)
            for table in self.database.tables()
            for number, row in enumerate(table, 1)
        ]

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
            schema = table.schema
            if any(not schema.has_attribute(attr) for attr in required):
                continue
            tests = [
                (schema.position(s.attribute), s.holds) for s in selections
            ] + [
                (schema.position(shipped.label), shipped.admits)
                for shipped in filters
            ]
            # the row number rides along with the selected tuple, so a
            # probe costs O(matches) and equal tuples keep distinct oids
            objects.extend(
                self._tuple_to_oem(table, number, row)
                for number, row in enumerate(table, 1)
                if all(holds(row[at]) for at, holds in tests)
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

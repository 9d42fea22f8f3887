"""A disk-backed OEM store wrapper on stdlib :mod:`sqlite3`.

The in-memory :class:`~repro.wrappers.oem_wrapper.OEMStoreWrapper` holds
its whole forest (plus an inverted index) in Python objects — fine for
tens of thousands of records, hopeless for the million-object scenarios
the shard benchmarks run in CI.  This wrapper persists the forest in one
adjacency-encoded table and, as the paper's wrappers do, translates the
MSL queries it is sent into its own language.

A *flat* projection query — one pattern with a constant top label and
plain ``<label term>`` items, each term a constant, a parameter, ``_``
or a variable occurring once (:func:`_flat`) — is answered by one
indexed join whose columns are the carrier's cells: no OEM object is
built and no frame is matched.  Every other query takes the object
path: one indexed statement fetches the node rows of the objects the
first pattern's constants and the shipped semi-join filters narrow to,
the objects are rebuilt from them, and the compiled matcher runs.  So
does a flat query whose constant the index cannot decide (NaN, a value
of no atomic type, a ``$param`` nobody filled in), and one whose answer
binds a column to a set-valued child or a NaN.  The native statement
is translated once per compiled query shape.

Layout: one row per OEM node, keyed ``(root, node)`` where ``node`` is
the preorder ordinal inside its top-level object (the root itself is
node 0, so ``parent = 0`` selects exactly the direct children — the
level both the value index and semi-join filters address).  Atomic
values are stored twice: ``raw`` round-trips the Python value by OEM
type, and ``enc`` holds the canonical
:func:`~repro.wrappers.sharding.encode_value` bytes so numeric equality
(``1 == 1.0``, ``0.0 == -0.0``) matches in SQL exactly as it does in
the in-memory matcher and the partition hash.  ``PRAGMA user_version``
1 marks a file whose ``enc`` column encodes both zeros alike; opening
an older file re-encodes its ``-0.0`` atoms once.  (Shards an older
version partitioned on a key holding ``-0.0`` must be re-partitioned:
the hash of ``-0.0`` changed with its encoding.)

By default the wrapper advertises
:data:`~repro.wrappers.capability.BATCH_CAPABILITY`: a disk-backed
store is precisely the source where shipping one ``IN`` filter beats a
thousand per-tuple probes.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
from typing import Iterable, Sequence

from repro.external.registry import ExternalRegistry
from repro.msl.ast import (
    Const,
    Param,
    Pattern,
    PatternCondition,
    PatternItem,
    Rule,
    SetPattern,
    Var,
)
from repro.oem.model import OEMObject, SET_TYPE
from repro.wrappers.base import (
    BindingRows,
    Carrier,
    Wrapper,
    first_pattern,
    labelled_children,
)
from repro.wrappers.capability import BATCH_CAPABILITY, Capability
from repro.wrappers.sharding import encode_value

__all__ = ["SQLiteOEMStoreWrapper"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS nodes (
    root   INTEGER NOT NULL,
    node   INTEGER NOT NULL,
    parent INTEGER,
    label  TEXT NOT NULL,
    kind   TEXT NOT NULL,
    raw    TEXT,
    enc    BLOB,
    oid    TEXT,
    PRIMARY KEY (root, node)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS nodes_top_label
    ON nodes(label, root) WHERE parent IS NULL;
CREATE INDEX IF NOT EXISTS nodes_child_value
    ON nodes(label, enc, root) WHERE parent = 0;
"""

#: Rows per executemany batch during bulk loads.
_LOAD_BATCH = 20_000


def _encode_raw(kind: str, value: object) -> str | None:
    """Round-trippable text form of an atomic value, by OEM type."""
    if kind == "string":
        return value  # type: ignore[return-value]
    if kind == "bytes":
        return value.hex()  # type: ignore[union-attr]
    if kind == "boolean":
        return "1" if value else "0"
    if kind == "null":
        return None
    return repr(value)  # integer / real


def _decode_raw(kind: str, raw: str | None) -> object:
    if kind == "string":
        return raw
    if kind == "bytes":
        return bytes.fromhex(raw or "")
    if kind == "boolean":
        return raw == "1"
    if kind == "null":
        return None
    if kind == "integer":
        return int(raw)  # type: ignore[arg-type]
    try:  # "real" admits ints; repr round-trips either
        return int(raw)  # type: ignore[arg-type]
    except ValueError:
        return float(raw)  # type: ignore[arg-type]


class SQLiteOEMStoreWrapper(Wrapper):
    """Wrapper over an adjacency-encoded OEM forest in SQLite.

    >>> from repro.oem.builders import atom, obj
    >>> w = SQLiteOEMStoreWrapper('store')
    >>> w.add(obj('person', atom('name', 'Ann'), atom('year', 2)))
    >>> from repro.msl.parser import parse_rule
    >>> [o.value for o in w.answer(parse_rule('<n N> :- <person {<name N>}>'))]
    ['Ann']
    """

    def __init__(
        self,
        name: str,
        path: str = ":memory:",
        objects: Iterable[OEMObject] = (),
        capability: Capability | None = None,
        registry: ExternalRegistry | None = None,
    ) -> None:
        super().__init__(name, capability or BATCH_CAPABILITY, registry)
        #: projection queries answered by one SQL join, without objects
        self.native_answers = 0
        # compiled query shape -> its native answer (see _translate),
        # bounded like the compile cache that holds the shapes
        self._translations: dict[object, tuple | None] = {}
        # shard probes arrive on dispatcher pool threads; one connection
        # guarded by a lock serializes this shard while shards still
        # overlap with each other (each has its own connection)
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.Lock()
        with self._lock:
            self._conn.executescript(_SCHEMA)
            if self._conn.execute("PRAGMA user_version").fetchone()[0] < 1:
                # a store written while -0.0 had an encoding of its own
                # holds it under that: re-encode once, so both zeros
                # match a zero constant
                self._conn.execute(
                    "UPDATE nodes SET enc = ? WHERE enc = ?",
                    (encode_value(0.0), b"n:-0x0.0p+0"),
                )
                self._conn.execute("PRAGMA user_version = 1")
                self._conn.commit()
            row = self._conn.execute(
                "SELECT COALESCE(MAX(root), -1) FROM nodes"
            ).fetchone()
        self._next_root = int(row[0]) + 1
        if objects:
            self.add(*objects)

    def close(self) -> None:
        self._conn.close()

    # -- store mutation -----------------------------------------------------

    def add(self, *objects: OEMObject) -> None:
        """Insert top-level objects, preserving arrival order."""
        rows: list[tuple] = []
        for obj in objects:
            rows.extend(self._rows_for(self._next_root, obj))
            self._next_root += 1
        with self._lock:
            self._conn.executemany(
                "INSERT INTO nodes VALUES (?,?,?,?,?,?,?,?)", rows
            )
            self._conn.commit()

    def load_records(
        self,
        label: str,
        records: Iterable[Sequence[tuple[str, object]]],
    ) -> int:
        """Stream flat ``(field, value)`` records in without building OEM.

        The bulk-load fast path for generated datasets: each record
        becomes one ``<label {...atoms...}>`` top-level object.  Objects
        are materialized only when a query later selects them, so a
        million-record load never holds a million :class:`OEMObject`
        trees.  Returns the number of records loaded.
        """
        batch: list[tuple] = []
        loaded = 0
        for fields in records:
            root = self._next_root
            self._next_root += 1
            loaded += 1
            batch.append(
                (root, 0, None, label, SET_TYPE, None, None, f"&{label}{root}")
            )
            for position, (field, value) in enumerate(fields, start=1):
                kind = _infer_kind(value)
                batch.append(
                    (
                        root,
                        position,
                        0,
                        field,
                        kind,
                        _encode_raw(kind, value),
                        encode_value(value),
                        f"&{label}{root}.{position}",
                    )
                )
            if len(batch) >= _LOAD_BATCH:
                self._flush(batch)
                batch = []
        if batch:
            self._flush(batch)
        return loaded

    def _flush(self, rows: list[tuple]) -> None:
        with self._lock:
            self._conn.executemany(
                "INSERT INTO nodes VALUES (?,?,?,?,?,?,?,?)", rows
            )
            self._conn.commit()

    def _rows_for(self, root: int, obj: OEMObject) -> list[tuple]:
        rows: list[tuple] = []
        counter = itertools.count()

        def walk(o: OEMObject, parent: int | None) -> None:
            node = next(counter)
            if o.is_set:
                rows.append(
                    (root, node, parent, o.label, SET_TYPE, None, None,
                     str(o.oid))
                )
                for child in o.children:
                    walk(child, node)
            else:
                rows.append(
                    (
                        root,
                        node,
                        parent,
                        o.label,
                        o.type,
                        _encode_raw(o.type, o.value),
                        encode_value(o.value),
                        str(o.oid),
                    )
                )

        walk(obj, None)
        return rows

    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM nodes WHERE parent IS NULL"
            ).fetchone()
        return int(row[0])

    # -- the Wrapper surface -------------------------------------------------

    def export(self) -> Sequence[OEMObject]:
        return self._objects((None, ()), ())

    def candidates(self, query: Rule) -> Sequence[OEMObject]:
        """Indexed narrowing mirroring the in-memory wrapper's: the
        objects carrying the first pattern's constant top label and
        constant direct-child values, in root (insertion) order — the
        in-memory store-position order — from one statement."""
        return self._objects(_narrowing(query), ())

    def semijoin_candidates(self, query) -> Sequence[OEMObject]:
        """Batch narrowing: :meth:`candidates`, further restricted to
        the objects with a direct child passing each shipped filter."""
        return self._objects(_narrowing(query.rule), query.filters)

    def _objects(self, narrowing, filters) -> list[OEMObject]:
        """The objects passing ``narrowing`` (see :func:`_narrowing`)
        and ``filters``, rebuilt from their node rows."""
        top, values = narrowing
        args: list[object] = []
        tests = []
        for label, value in values:
            enc_test = "= " + _arg(args, encode_value(value))
            tests.append(_child_test(label, enc_test, args))
        tests.extend(_filter_tests(filters, args))
        top_test = None if top is None else f"t.label = {_arg(args, top)}"
        tables, where = _narrowed(tests, top_test)
        sql = (
            "SELECT n.root, n.node, n.parent, n.label, n.kind, n.raw, n.oid"
            f" FROM {tables} CROSS JOIN nodes AS n"
            f" WHERE {where} AND n.root = t.root ORDER BY n.root, n.node"
        )
        with self._lock:
            rows = self._conn.execute(sql, args).fetchall()
        return _reconstruct(rows)

    def _native_rows(self, compiled, query) -> "BindingRows | None":
        """A flat projection query (see :func:`_flat`) answered by one
        indexed join whose columns are the carrier's cells.

        ``None`` — match the candidates instead — for any other shape,
        for a constant the index cannot decide (NaN, or a value of no
        atomic type), and for an answer holding a cell the carrier
        round trip would change: a set-valued child bound to a column,
        or a NaN, which equals no other NaN, not even its copy.
        """
        try:
            native = self._translations[compiled.template]
        except KeyError:
            native = self._translated(compiled.template)
        if native is None:
            return None
        columns, sql, fixed, terms, shape = native
        values = _encoded(terms, compiled.params)
        if values is None:
            return None
        args = fixed + values
        if getattr(query, "is_semijoin", False) and query.filters:
            args = [*args]
            sql = _native_sql(*shape, _filter_tests(query.filters, args))
        with self._lock:
            fetched = self._conn.execute(sql, args).fetchall()
        rows = BindingRows(columns)
        seen: set[tuple] = set()
        width = 2 * len(columns)
        for row in fetched:
            cells: list[object] = []
            key: list[object] = []
            for at in range(0, width, 2):
                kind, raw = row[at], row[at + 1]
                if kind == "string":
                    cells.append(raw)
                    key.append(raw)
                    continue
                if kind == SET_TYPE:
                    return None
                value = _decode_raw(kind, raw)
                if value != value:
                    return None
                cells.append(value)
                # the carrier child's structural key: atom and its type
                key.append((type(value), value))
            distinct = tuple(key)
            if distinct not in seen:
                seen.add(distinct)
                rows.append(tuple(cells))
        self.native_answers += 1
        return rows

    def _translated(self, template) -> tuple | None:
        """:func:`_translate` ``template``'s rule, remembered for the
        next query of its shape."""
        native = _translate(template.rule)
        with self._lock:
            if len(self._translations) >= self._compile_cache.max_entries:
                self._translations.pop(next(iter(self._translations)))
            self._translations[template] = native
        return native

    def stats(self) -> dict[str, object]:
        return {**super().stats(), "native_answers": self.native_answers}

    def reset_counters(self) -> None:
        super().reset_counters()
        self.native_answers = 0


# -- translation: one query shape, in SQL ----------------------------------


def _narrowing(rule: Rule) -> tuple:
    """``(top label or None, ((child label, value), ...))``: what
    narrows the objects ``rule``'s first pattern can match — its
    constant top label and each constant value of a direct child it
    names by a constant label.  A ``$param`` nobody filled in narrows
    nothing: the matcher decides."""
    first = first_pattern(rule)
    if first is None:
        return None, ()
    top = str(first.label.value) if isinstance(first.label, Const) else None
    values = tuple(
        (label, term.value)
        for label, term in labelled_children(first)
        if isinstance(term, Const)
    )
    return top, values


def _flat(rule: Rule) -> tuple | None:
    """``(columns, (top label, items, cells))`` of a *flat* projection
    query, or ``None``.

    Flat: a :class:`Carrier` head of atom columns over one pattern
    condition with a constant string top label and a set value of
    plain ``<label term>`` items — constant labels, no Rest, no oid,
    type or object variable anywhere — each term a constant, a
    parameter, an anonymous variable or a variable occurring once.
    ``items`` holds each item's ``(label, constant/parameter term or
    None)`` in written order; ``cells`` the item binding each column.
    """
    carrier = Carrier.of(rule)
    if carrier is None or carrier.objects or len(rule.tail) != 1:
        return None
    (condition,) = rule.tail
    if not isinstance(condition, PatternCondition):
        return None
    first = condition.pattern
    if (
        not _plain(first)
        or not isinstance(first.value, SetPattern)
        or first.value.rest is not None
    ):
        return None
    items: list[tuple] = []
    binders: dict[str, int] = {}
    for position, item in enumerate(first.value.items):
        if not isinstance(item, PatternItem) or item.descendant:
            return None
        child = item.pattern
        term = child.value
        if not _plain(child) or not isinstance(term, (Const, Param, Var)):
            return None
        if isinstance(term, Var):
            if not term.is_anonymous:
                if term.name in binders:
                    return None
                binders[term.name] = position
            term = None
        items.append((child.label.value, term))
    if not all(name in binders for name in carrier.columns):
        return None
    cells = tuple(binders[name] for name in carrier.columns)
    return carrier.columns, (first.label.value, tuple(items), cells)


def _plain(pattern: Pattern) -> bool:
    """A constant string label, and no oid, type or object variable."""
    return (
        isinstance(pattern.label, Const)
        and isinstance(pattern.label.value, str)
        and pattern.oid is None
        and pattern.type is None
        and pattern.object_var is None
    )


def _translate(rule: Rule) -> tuple | None:
    """The native answer of a compiled query shape: for a :func:`_flat`
    ``rule``, ``(columns, SQL, fixed arguments, value terms, shape)``;
    else ``None``."""
    flat = _flat(rule)
    if flat is None:
        return None
    columns, shape = flat
    top, items, _ = shape
    return (
        columns,
        _native_sql(*shape, []),
        (top, *(label for label, _ in items)),
        tuple(term for _, term in items if term is not None),
        shape,
    )


#: Python types whose values the ``enc`` column compares exactly as the
#: matcher does (NaN aside, which equals nothing).
_ENCODABLE = frozenset({str, int, float, bool, bytes, type(None)})


def _encoded(terms: tuple, params) -> tuple | None:
    """The ``enc`` bytes of each constant or parameter value, or
    ``None`` when one is missing or the index cannot decide it."""
    values = []
    for term in terms:
        if type(term) is Const:
            value = term.value
        elif params is not None and term.name in params:
            value = params[term.name]
        else:
            return None
        if type(value) not in _ENCODABLE or value != value:
            return None
        values.append(encode_value(value))
    return tuple(values)


#: Semi-join filter values bound per statement, at most; padded, at
#: most twice as many variables, well under the 999 every SQLite build
#: binds.  A batch beyond this is inlined as blob literals.
_BIND_BUDGET = 400


def _arg(args: list, value: object) -> str:
    """Append ``value`` to ``args``; its numbered placeholder."""
    args.append(value)
    return f"?{len(args)}"


def _child_test(label: str, enc_test: str, args: list) -> str:
    """A direct child labelled ``label`` whose ``enc`` passes
    ``enc_test``, for a query on ``nodes`` unaliased."""
    return f"label = {_arg(args, label)} AND enc {enc_test}"


def _filter_tests(filters, args: list) -> list[str]:
    """One :func:`_child_test` per shipped semi-join filter.

    Values are bound while a batch holds at most ``_BIND_BUDGET`` of
    them, each list padded with its last value to a power-of-two
    length: a connection then caches a handful of statements, not one
    per batch (or, inlined, one per call).  A larger batch is inlined
    as hex blob literals, which no variable limit bounds.
    """
    bind = sum(len(f.values) for f in filters) <= _BIND_BUDGET
    tests = []
    for shipped in filters:
        encoded = [encode_value(v) for v in shipped.values]
        if bind:
            if encoded:
                size = 1 << (len(encoded) - 1).bit_length()
                encoded += encoded[-1:] * (size - len(encoded))
            marks = ",".join(_arg(args, e) for e in encoded)
        else:
            marks = ",".join(f"X'{e.hex()}'" for e in encoded)
        tests.append(_child_test(shipped.label, f"IN ({marks})", args))
    return tests


def _narrowed(tests: list[str], top_test: str | None) -> tuple[str, str]:
    """``(tables, condition)`` selecting the root node ``t`` of each
    object passing ``top_test`` and with a direct child passing each
    of ``tests``.

    The first test drives from the ``nodes_child_value`` index and
    reaches ``t`` by primary key; without one, ``t`` comes from the
    ``nodes_top_label`` index.  The rest are probes by primary key.
    """
    if tests:
        tables = f"{_roots(tests[0])} CROSS JOIN nodes AS t"
        where = ["t.root = d.root AND t.node = 0"]
    else:
        tables = "nodes AS t"
        where = ["t.parent IS NULL"]
    if top_test is not None:
        where.append(top_test)
    where.extend(_has_child(test) for test in tests[1:])
    return tables, " AND ".join(where)


def _roots(test: str) -> str:
    """The root set ``d`` of the objects with a direct child passing
    ``test``, read off the ``nodes_child_value`` index."""
    return (
        f"(SELECT DISTINCT root FROM nodes WHERE parent = 0 AND {test}) AS d"
    )


def _has_child(test: str) -> str:
    """Does the object rooted at ``t`` have a direct child passing
    ``test``?  A probe by primary key."""
    return (
        "EXISTS (SELECT 1 FROM nodes AS s WHERE s.root = t.root"
        f" AND s.parent = 0 AND {test})"
    )


def _native_sql(top: str, items: tuple, cells: tuple, probes: list) -> str:
    """The statement answering a flat shape: per match, the ``(kind,
    raw)`` of the child bound to each column, in the matcher's order.

    One alias ``c<i>`` per item, distinct for items of one label (the
    matcher's injectivity); rows in root order, then by each item's
    child in written order, which is how the set matcher enumerates
    (preorder ordinals grow with child position).  Arguments: ``?1``
    the top label, ``?2``… the item labels, then the value terms'
    encodings in item order, then the semi-join filters' (``probes``,
    from :func:`_filter_tests`).  The first valued item drives from
    the ``nodes_child_value`` index, or else the first filter, or else
    the ``nodes_top_label`` index; ``t`` and every other item are
    reached by primary key.
    """
    valued = [i for i, (_, term) in enumerate(items) if term is not None]
    value_arg = {i: 2 + len(items) + k for k, i in enumerate(valued)}
    tests = [
        f"c{i}.parent = 0 AND c{i}.label = ?{2 + i}"
        + (f" AND c{i}.enc = ?{value_arg[i]}" if i in value_arg else "")
        for i in range(len(items))
    ]
    order = list(range(len(items)))
    if valued:
        lead = valued[0]
        order.remove(lead)
        tables = [f"nodes AS c{lead}", "nodes AS t"]
        where = [tests[lead], f"t.root = c{lead}.root AND t.node = 0"]
    elif probes:
        tables = [_roots(probes[0]), "nodes AS t"]
        where = ["t.root = d.root AND t.node = 0"]
        probes = probes[1:]
    else:
        tables = ["nodes AS t"]
        where = ["t.parent IS NULL"]
    where.append("t.label = ?1 AND t.kind = 'set'")
    for i in order:
        tables.append(f"nodes AS c{i}")
        where.append(f"c{i}.root = t.root AND {tests[i]}")
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i][0] == items[j][0]:
                where.append(f"c{i}.node <> c{j}.node")
    where.extend(_has_child(probe) for probe in probes)
    select = ", ".join(f"c{i}.kind, c{i}.raw" for i in cells) or "NULL"
    ordered = ", ".join(["t.root", *(f"c{i}.node" for i in range(len(items)))])
    return (
        f"SELECT {select} FROM {' CROSS JOIN '.join(tables)}"
        f" WHERE {' AND '.join(where)} ORDER BY {ordered}"
    )


def _reconstruct(rows: Sequence[tuple]) -> list[OEMObject]:
    """The top-level objects whose node rows ``rows`` holds (ordered
    by root, then node), in root order."""
    by_root: dict[int, dict[int, tuple]] = {}
    children: dict[int, dict[int, list[int]]] = {}
    for row in rows:
        root, node, parent = row[0], row[1], row[2]
        by_root.setdefault(root, {})[node] = row
        if parent is not None:
            children.setdefault(root, {}).setdefault(parent, []).append(node)
    return [
        _build(nodes, children.get(root, {}), 0)
        for root, nodes in by_root.items()
    ]


def _build(
    rows: dict[int, tuple], children: dict[int, list[int]], node: int
) -> OEMObject:
    """The object rooted at ``node`` of one stored tree (its rows by
    node id, its child lists by parent id)."""
    _, _, _, label, kind, raw, oid = rows[node]
    if kind == SET_TYPE:
        kids = [
            _build(rows, children, child) for child in children.get(node, [])
        ]
        return OEMObject(label, kids, SET_TYPE, oid)
    return OEMObject(label, _decode_raw(kind, raw), kind, oid)


def _infer_kind(value: object) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "real"
    if isinstance(value, bytes):
        return "bytes"
    if value is None:
        return "null"
    return "string"

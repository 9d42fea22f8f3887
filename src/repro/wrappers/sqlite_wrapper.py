"""A disk-backed OEM store wrapper on stdlib :mod:`sqlite3`.

The in-memory :class:`~repro.wrappers.oem_wrapper.OEMStoreWrapper` holds
its whole forest (plus an inverted index) in Python objects — fine for
tens of thousands of records, hopeless for the million-object scenarios
the shard benchmarks run in CI.  This wrapper persists the forest in one
adjacency-encoded table and answers the same two narrowing calls —
:meth:`candidates` and :meth:`semijoin_candidates` — with indexed SQL,
reconstructing only the matching top-level objects.

Layout: one row per OEM node, keyed ``(root, node)`` where ``node`` is
the preorder ordinal inside its top-level object (the root itself is
node 0, so ``parent = 0`` selects exactly the direct children — the
level both the value index and semi-join filters address).  Atomic
values are stored twice: ``raw`` round-trips the Python value by OEM
type, and ``enc`` holds the canonical
:func:`~repro.wrappers.sharding.encode_value` bytes so numeric equality
(``1 == 1.0``) matches in SQL exactly as it does in the in-memory
matcher and the partition hash.

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
from repro.msl.ast import Const, Pattern, Rule
from repro.oem.model import OEMObject, SET_TYPE
from repro.wrappers.base import (
    SourceError,
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

#: Values per SQL ``IN`` list (well under SQLite's bound-variable cap).
_IN_CHUNK = 500


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
        # shard probes arrive on dispatcher pool threads; one connection
        # guarded by a lock serializes this shard while shards still
        # overlap with each other (each has its own connection)
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.Lock()
        with self._lock:
            self._conn.executescript(_SCHEMA)
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
        with self._lock:
            roots = [
                r[0]
                for r in self._conn.execute(
                    "SELECT root FROM nodes WHERE parent IS NULL"
                    " ORDER BY root"
                )
            ]
        return self._reconstruct(roots)

    def candidates(self, query: Rule) -> Sequence[OEMObject]:
        """Indexed narrowing mirroring the in-memory wrapper's.

        The first pattern's constant top label and constant direct-child
        values each narrow via an index scan; results come back in root
        (insertion) order, matching the in-memory store-position order.
        """
        first = first_pattern(query)
        if first is None:
            return self.export()
        roots = self._narrow(first)
        if roots is None:
            return self.export()
        return self._reconstruct(sorted(roots))

    def semijoin_candidates(self, query) -> Sequence[OEMObject]:
        """Batch narrowing: one indexed ``IN`` scan per shipped filter.

        Selective value filters run first; the top-label requirement is
        then checked only against their survivors, so a probe batch
        never materializes the (potentially store-sized) full label
        extent.
        """
        roots: set[int] | None = None
        for shipped in query.filters:
            matched: set[int] = set()
            encoded = [encode_value(v) for v in shipped.values]
            with self._lock:
                for chunk in _chunks(encoded, _IN_CHUNK):
                    marks = ",".join("?" * len(chunk))
                    matched.update(
                        r[0]
                        for r in self._conn.execute(
                            f"SELECT root FROM nodes WHERE parent = 0"
                            f" AND label = ? AND enc IN ({marks})",
                            [shipped.label, *chunk],
                        )
                    )
            roots = matched if roots is None else roots & matched
        first = first_pattern(query.rule)
        label = (
            str(first.label.value)
            if first is not None and isinstance(first.label, Const)
            else None
        )
        if label is not None:
            if roots is None:
                roots = self._label_extent(label)
            else:
                roots = self._label_check(roots, label)
        if roots is None:
            return self.export()
        return self._reconstruct(sorted(roots))

    def _narrow(self, first: Pattern) -> set[int] | None:
        """Root ids matching the pattern's indexable constants, or
        ``None`` when nothing narrows (caller falls back to the export).

        Constant direct-child values narrow first (they are the
        selective index scans); the constant top label is then verified
        only for their survivors — fetching the whole label extent is
        the last resort, taken only when no value constant exists.
        """
        roots: set[int] | None = None
        for label, value in labelled_children(first):
            if isinstance(value, Const):
                with self._lock:
                    matched = {
                        r[0]
                        for r in self._conn.execute(
                            "SELECT root FROM nodes WHERE parent = 0"
                            " AND label = ? AND enc = ?",
                            (label, encode_value(value.value)),
                        )
                    }
                roots = matched if roots is None else roots & matched
        if isinstance(first.label, Const):
            label = str(first.label.value)
            if roots is None:
                roots = self._label_extent(label)
            else:
                roots = self._label_check(roots, label)
        return roots

    def _label_extent(self, label: str) -> set[int]:
        """Every root whose top-level label is ``label``."""
        with self._lock:
            return {
                r[0]
                for r in self._conn.execute(
                    "SELECT root FROM nodes WHERE parent IS NULL"
                    " AND label = ?",
                    (label,),
                )
            }

    def _label_check(self, roots: set[int], label: str) -> set[int]:
        """The subset of ``roots`` whose top-level label is ``label``."""
        checked: set[int] = set()
        with self._lock:
            for chunk in _chunks(sorted(roots), _IN_CHUNK):
                marks = ",".join("?" * len(chunk))
                checked.update(
                    r[0]
                    for r in self._conn.execute(
                        f"SELECT root FROM nodes WHERE parent IS NULL"
                        f" AND label = ? AND root IN ({marks})",
                        [label, *chunk],
                    )
                )
        return checked

    def _reconstruct(self, roots: Sequence[int]) -> list[OEMObject]:
        """Materialize the top-level objects for ``roots``, in order."""
        if not roots:
            return []
        rows: list[tuple] = []
        with self._lock:
            for chunk in _chunks(list(roots), _IN_CHUNK):
                marks = ",".join("?" * len(chunk))
                rows.extend(
                    self._conn.execute(
                        f"SELECT root, node, parent, label, kind, raw, oid"
                        f" FROM nodes WHERE root IN ({marks})"
                        f" ORDER BY root, node",
                        chunk,
                    )
                )
        by_root: dict[int, dict[int, tuple]] = {}
        children: dict[int, dict[int, list[int]]] = {}
        for row in rows:
            root, node, parent = row[0], row[1], row[2]
            by_root.setdefault(root, {})[node] = row
            if parent is not None:
                children.setdefault(root, {}).setdefault(parent, []).append(
                    node
                )

        out = []
        for root in roots:
            if root not in by_root:
                raise SourceError(
                    f"source {self.name!r}: no object with root id {root}"
                )
            out.append(_build(by_root[root], children.get(root, {}), 0))
        return out


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


def _chunks(items: list, size: int):
    for start in range(0, len(items), size):
        yield items[start : start + size]

"""The source protocol law "bindings ≡ OEM" (ROADMAP 9b, 9c).

The mediator ships each pattern as a projection query and asks for the
answer through ``Source.answer_bindings``.  A wrapper answers with the
rows its matcher holds; a source that speaks only OEM answers with the
carrier objects, which the mediator matches where they arrive.  Two
laws, on generated worlds:

* **per query** — for every projection query the optimizer ships (and,
  with semi-join shipping on, its batched form), a wrapper's rows equal
  the rows the call site reads out of that wrapper's OEM answer, cell
  for cell (atom types, oids of spliced objects) and in order.  Checked
  on ``OEMStoreWrapper``, ``RelationalWrapper``, an
  ``SQLiteOEMStoreWrapper`` holding the same objects, and a
  ``ShardedSource`` over each OEM store.
* **per mediator** — one mediator over OEM-only proxies (a ``Source``
  with nothing but ``answer`` and ``export``) returns the same answers,
  oids, order and warnings as the same mediator over the wrappers.

And a governor's sanitizer reads a rows answer as the carriers it
stands for: same quarantine warnings, same strict verdict, same rows
surviving.

And the SQLite store's native answer — one SQL join over its node
table for a flat projection query — is its object path's answer: the
same rows, cell for cell and in order, the same counters, on generated
irregular stores.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.external import default_registry
from repro.governor import AnswerSanitizer, QueryGovernor
from repro.mediator import ExecutionContext, Mediator
from repro.msl import parse_rule
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
from repro.oem import atom, obj
from repro.wrappers import (
    BATCH_CAPABILITY,
    HashPartition,
    OEMStoreWrapper,
    SemiJoinFilter,
    SemiJoinQuery,
    ShardedSource,
    Source,
    SourceRegistry,
    SQLiteOEMStoreWrapper,
    partition_forest,
    shard_name,
)
from repro.wrappers.base import Carrier, MalformedAnswerError
from repro.wrappers.sharding import encode_value

from tests.property.strategies import (
    BIND_JOIN_SPECS,
    bind_join_scenarios,
    prepared_cases,
)
from tests.property.test_prepared_properties import build_world
from tests.property.test_semijoin_properties import (
    build_forests,
    build_registry,
)
from tests.reference import OEMOnly

#: Spliced objects, oid-slot and Rest variables in one shipped pattern,
#: a bind join whose semi-join filter meets 1 / 1.0 / True keys, and a
#: Rest variable alone, where two records whose rests differ only in a
#: repeated member make one carrier.
SLOTS_SPEC = (
    "<f {<o O> <r R> <k K> <t T> | Rest}> :-"
    " R:<O rec {<key K> | Rest}>@s AND <tag {<key K> <t T>}>@s ;"
    "<g {<k K> | Rest}> :- <rec {<key K> | Rest}>@s"
)
SLOT_KEYS = [1, 1.0, True, "1", 2, 2.5]


class Shipped:
    """Every projection query a run ships, with its source."""

    kinds = frozenset({"source-call"})
    opens = frozenset()

    def __init__(self) -> None:
        self.queries = []

    def end(self, event) -> None:
        if not event.attributes.get("export"):
            self.queries.append((event.name, event.subject))


def watched(mediator: Mediator, shipped: Shipped) -> Mediator:
    build = mediator._context

    def context():
        built = build()
        if shipped not in built.subscribers:
            built.subscribers += (shipped,)
        return built

    mediator._context = context
    return mediator


def proxied(registry: SourceRegistry) -> SourceRegistry:
    return SourceRegistry(
        *(
            source if isinstance(source, Mediator) else OEMOnly(source)
            for source in registry
        )
    )


def cell(value):
    """A cell as the law compares it: its type, and its repr (oids
    included), member by member for a set."""
    if isinstance(value, tuple):
        return tuple(map(cell, value))
    return type(value).__name__, repr(value)


def rows_of(source: Source, query, governor=None):
    """The rows the mediator's call site makes of ``source``'s answer,
    and the warnings the call left."""
    context = ExecutionContext(
        sources=SourceRegistry(source),
        externals=default_registry(),
        governor=governor,
    )
    rows = context.send_query(source.name, query, Carrier.of(query))
    return (
        [tuple(map(cell, row)) for row in rows],
        [w.render() for w in context.warnings],
    )


def twins(source: Source) -> list[Source]:
    """``source``, and for an OEM store the SQLite store and the
    two-shard source holding the same objects."""
    if not isinstance(source, OEMStoreWrapper):
        return [source]
    forest = list(source.export())
    disk = SQLiteOEMStoreWrapper(source.name)
    disk.add(*forest)
    labels = [c.label for o in forest for c in o.children if c.is_atomic]
    common = max(sorted(set(labels)), key=labels.count, default="k")
    partition = HashPartition(common, 2)
    sharded = ShardedSource(
        source.name,
        [
            OEMStoreWrapper(shard_name(source.name, i), part)
            for i, part in enumerate(partition_forest(forest, partition))
        ],
        partition,
    )
    return [source, disk, sharded]


def check(name, spec, registry, externals, queries, **kwargs) -> None:
    def mediator(sources):
        return Mediator(
            name, spec, sources, externals, register=False, **kwargs
        )

    shipped = Shipped()
    plain = watched(mediator(registry), shipped)
    oem = mediator(proxied(registry))
    try:
        for query in queries:
            got, expected = plain.query(query), oem.query(query)
            assert [repr(o) for o in got] == [repr(o) for o in expected]
            assert [str(w) for w in got.warnings] == [
                str(w) for w in expected.warnings
            ]
    finally:
        plain.close()
        oem.close()
    for source_name, query in shipped.queries:
        for source in twins(registry.resolve(source_name)):
            rows, _ = rows_of(source, query)
            assert rows == rows_of(OEMOnly(source), query)[0]
            if isinstance(source, SQLiteOEMStoreWrapper):
                source.close()


class TestBindingsEqualOEM:
    @given(prepared_cases(), st.booleans())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_prepared_worlds(self, case, semijoin):
        name, registered, registry = build_world(case["world"], case["seed"])
        check(
            name,
            registered.specification,
            registry,
            registered.externals,
            [case["shape"].format(*row) for row in case["constants"]],
            push_mode=registered.expander.push_mode,
            semijoin=semijoin,
        )

    @given(bind_join_scenarios(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bind_join_worlds(self, scenario, semijoin):
        check(
            "med",
            BIND_JOIN_SPECS[scenario["spec"]] + " ;",
            build_registry(scenario, build_forests(scenario)),
            default_registry(),
            ["H :- H:<hit {}>@med"],
            semijoin=semijoin,
        )

    @given(
        st.lists(
            st.tuples(st.sampled_from(SLOT_KEYS), st.sampled_from("xy")),
            max_size=6,
        ),
        st.lists(
            st.tuples(st.sampled_from(SLOT_KEYS), st.booleans()),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_oid_object_and_rest_slots(self, tags, records, semijoin):
        store = OEMStoreWrapper(
            "s",
            [
                obj(
                    "rec",
                    atom("key", key),
                    *(atom("n", 0) for _ in range(1 + twice)),
                )
                for key, twice in records
            ]
            + [obj("tag", atom("key", key), atom("t", t)) for key, t in tags],
        )
        check(
            "med",
            SLOTS_SPEC + " ;",
            SourceRegistry(store),
            default_registry(),
            ["X :- X:<f {}>@med", "X :- X:<g {}>@med"]
            + [f"X :- X:<f {{<k {k}>}}>@med" for k in ("1", "1.0", "true")],
            semijoin=semijoin,
        )


#: Qw of the first slots rule, as the optimizer ships it.
SLOTS_QUERY = parse_rule(
    "<bind_for_s {<bind_for_K K> <bind_for_O O> <bind_for_R {R}>"
    " <bind_for_Rest Rest>}> :- R:<O rec {<key K> | Rest}>"
)


def nested(depth: int):
    """A chain of ``depth`` set objects over one atom."""
    inner = atom("x", depth)
    for level in range(depth):
        inner = obj(f"level{level}", inner)
    return inner


class TestSanitizedRowsAreSanitizedCarriers:
    @given(
        st.lists(
            st.tuples(st.sampled_from(SLOT_KEYS), st.integers(0, 3)),
            max_size=5,
        ),
        st.one_of(st.none(), st.integers(1, 8)),
        st.one_of(st.none(), st.integers(1, 40)),
        st.sampled_from(["lenient", "strict"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_verdicts(self, records, max_depth, max_objects, mode):
        store = OEMStoreWrapper(
            "s",
            [
                obj("rec", atom("key", key), nested(depth), atom("n", at))
                for at, (key, depth) in enumerate(records)
            ],
        )

        def verdict(source):
            governor = QueryGovernor(
                sanitizer=AnswerSanitizer(max_depth, max_objects, mode)
            )
            try:
                return rows_of(source, SLOTS_QUERY, governor)
            except MalformedAnswerError as exc:
                return exc.issues

        assert verdict(store) == verdict(OEMOnly(store))


# -- the SQLite store's native answer ----------------------------------------

NAN = float("nan")
#: Values that the index and the matcher must agree on: numerics equal
#: across types but not with booleans, both zeros, NaN (equal to
#: nothing), and one of every other atom type.
NATIVE_VALUES = [1, 1.0, True, False, 0, -0.0, 2.5, "1", "a", b"a", None, NAN]
NATIVE_LABELS = ["k", "v"]


class ObjectPath(SQLiteOEMStoreWrapper):
    """The same store, answering every query by matching objects."""

    def _native_rows(self, compiled, query):
        return None


#: Stored atoms: NaN rarely, as one in a column sends the answer to
#: the object path.
atoms = st.tuples(
    st.sampled_from(NATIVE_LABELS),
    st.sampled_from(NATIVE_VALUES[:-1] * 3 + [NAN]),
)


@st.composite
def irregular(draw):
    """A top-level object off the records' regular shape: another
    label, a set-valued child, or an atom where a set belongs."""
    children = [
        atom(label, value)
        for label, value in draw(st.lists(atoms, max_size=4))
    ]
    if draw(st.booleans()):
        children.insert(
            draw(st.integers(0, len(children))),
            obj(draw(st.sampled_from(NATIVE_LABELS)), atom("x", 1)),
        )
    label = draw(st.sampled_from(["rec", "rec", "other"]))
    if not children and draw(st.booleans()):
        return atom(label, draw(st.sampled_from(NATIVE_VALUES)))
    return obj(label, *children)


@st.composite
def flat_queries(draw):
    """A flat projection query: ``<rec {...}>`` items with constant,
    anonymous, once-occurring variable and unfilled ``$param`` terms,
    a carrier over some of its variables in any order, and maybe
    semi-join filters, some with more values than a statement binds."""
    items = []
    variables = []
    kinds = ["const"] * 2 + ["var"] * 4 + ["anon"] * 2 + ["param"]
    for position in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "const":
            term = Const(draw(st.sampled_from(NATIVE_VALUES)))
        elif kind == "var":
            term = Var(f"V{position}")
            variables.append(term.name)
        elif kind == "anon":
            term = Var("_")
        else:
            term = Param("p")
        label = draw(st.sampled_from(NATIVE_LABELS))
        items.append(PatternItem(Pattern(Const(label), term)))
    columns = draw(st.permutations(variables))
    columns = columns[draw(st.integers(0, 1)):]
    head = Pattern(
        Const("bind_for_s"),
        SetPattern(
            tuple(
                PatternItem(Pattern(Const(f"bind_for_{name}"), Var(name)))
                for name in columns
            )
        ),
    )
    top = draw(st.sampled_from(["rec", "rec", "rec", "other"]))
    rule = Rule(
        (head,),
        (PatternCondition(Pattern(Const(top), SetPattern(tuple(items)))),),
    )
    filters = []
    shipped = st.lists(st.sampled_from(NATIVE_LABELS), min_size=1, max_size=2)
    for label in draw(st.one_of(st.just([]), shipped)):
        values = draw(st.lists(st.sampled_from(NATIVE_VALUES), max_size=6))
        if draw(st.integers(0, 4)) == 0:
            values += range(3, 1200)
        filters.append(SemiJoinFilter("F", label, frozenset(values)))
    return SemiJoinQuery(rule, filters) if filters else rule


def outcome(store, query):
    """``(rows as the law compares them, rows)``, or the error's type
    and message: both paths must fail alike."""
    try:
        rows = store.answer_bindings(query)
    except Exception as exc:
        return (type(exc).__name__, str(exc)), None
    return [tuple(map(cell, row)) for row in rows], rows


def admitted(stored, query) -> bool:
    """Does ``stored`` pass every filter ``query`` ships: a direct atom
    child of the filter's label whose value encodes as one of the
    filter's values?  (A filter admits by encoding, a superset of the
    matches the mediator demultiplexes exactly.)"""
    for shipped in getattr(query, "filters", ()):
        wanted = {encode_value(value) for value in shipped.values}
        if not stored.is_set or not any(
            child.label == shipped.label
            and not child.is_set
            and encode_value(child.value) in wanted
            for child in stored.children
        ):
            return False
    return True


def carried_unchanged(rows) -> bool:
    """Does no row hold a cell the native answer leaves to objects: a
    set-valued child, or a NaN?"""
    return all(
        not isinstance(value, tuple) and value == value
        for row in rows
        for value in row
    )


class TestNativeAnswerIsTheObjectPath:
    @given(
        st.sampled_from(["rec", "other"]),
        st.lists(
            st.lists(atoms, min_size=1, max_size=5), min_size=1, max_size=8
        ),
        st.lists(irregular(), max_size=4),
        st.lists(flat_queries(), min_size=1, max_size=4),
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_same_rows_counters_and_native_route(
        self, label, records, objects, queries
    ):
        native, reference = SQLiteOEMStoreWrapper("s"), ObjectPath("s")
        stored = [
            obj(label, *(atom(field, value) for field, value in record))
            for record in records
        ] + objects
        try:
            for store in (native, reference):
                store.load_records(label, records)
                store.add(*objects)
            for query in queries:
                before = native.native_answers
                (got, _), (expected, rows) = (
                    outcome(native, query),
                    outcome(reference, query),
                )
                assert got == expected, str(query)
                counters = ("queries_answered", "objects_returned")
                assert [native.stats()[c] for c in counters] == [
                    reference.stats()[c] for c in counters
                ]
                rule = getattr(query, "rule", query)
                terms = [
                    item.pattern.value
                    for item in rule.tail[0].pattern.value.items
                ]
                # an unfilled parameter, or a NaN constant, which the
                # index would equate with every stored NaN
                undecidable = any(
                    isinstance(term, Param)
                    or (isinstance(term, Const) and term.value != term.value)
                    for term in terms
                )
                ran = native.native_answers - before
                if undecidable or rows is None:
                    assert ran == 0
                    continue
                assert ran == carried_unchanged(rows)
                if ran:
                    # a reference sharing no SQL with the store: the
                    # plain rule, matched in memory over the stored
                    # objects the shipped filters admit
                    memory = OEMStoreWrapper(
                        "s",
                        [o for o in stored if admitted(o, query)],
                        capability=BATCH_CAPABILITY,
                    )
                    assert outcome(memory, rule)[0] == expected
        finally:
            native.close()
            reference.close()

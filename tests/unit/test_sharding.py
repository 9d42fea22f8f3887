"""Unit tests for the sharded source tier.

Covers the partition schemes and their deterministic routing, shard
pruning, the semi-join wire protocol (filters, canonical query text), the disk-backed SQLite store, registry resolution of
shard-qualified names, the engine's semi-join counters, and the
answer-cache behaviour with shard-qualified source names.
"""

import pytest

from repro.datasets import probe_keys, record_stream, route_records
from repro.exec import AnswerCache
from repro.external.registry import default_registry
from repro.mediator import Mediator
from repro.msl.parser import parse_query
from repro.oem import structural_key
from repro.oem.builders import atom, obj
from repro.wrappers import (
    BATCH_CAPABILITY,
    FULL_CAPABILITY,
    Capability,
    HashPartition,
    OEMStoreWrapper,
    RangePartition,
    SemiJoinFilter,
    SemiJoinQuery,
    ShardedSource,
    SourceError,
    SourceRegistry,
    SQLiteOEMStoreWrapper,
    partition_forest,
    shard_name,
)
from repro.wrappers.sharding import encode_value

from ..reference import OEMOnly

SPEC = (
    "<hit {<k K> <p P>}> :- <probe {<key K>}>@driver"
    " AND <rec {<key K> <payload P>}>@big"
)
QUERY = "H :- H:<hit {}>@med"


def canonical(objects):
    return sorted(repr(structural_key(o)) for o in objects)


def record(key, payload):
    return obj("rec", atom("key", key), atom("payload", payload))


def make_records(count):
    return [record(k, f"p{k}") for k in range(count)]


def make_sharded(records, shards, store=OEMStoreWrapper):
    partition = HashPartition("key", shards)
    forests = partition_forest(records, partition)
    wrappers = []
    for index, forest in enumerate(forests):
        if store is SQLiteOEMStoreWrapper:
            wrapper = SQLiteOEMStoreWrapper(shard_name("big", index))
            wrapper.add(*forest)
        else:
            wrapper = OEMStoreWrapper(
                shard_name("big", index),
                forest,
                capability=BATCH_CAPABILITY,
            )
        wrappers.append(wrapper)
    return ShardedSource("big", wrappers, partition)


def make_mediator(keys, records, shards=4, store=OEMStoreWrapper, **kwargs):
    registry = SourceRegistry()
    registry.register(
        OEMStoreWrapper(
            "driver", [obj("probe", atom("key", k)) for k in keys]
        )
    )
    if shards == 0:
        registry.register(
            OEMStoreWrapper("big", records, capability=BATCH_CAPABILITY)
        )
    else:
        registry.register(make_sharded(records, shards, store=store))
    return Mediator(
        "med", SPEC, registry, default_registry(), **kwargs
    )


# -- canonical value encoding -------------------------------------------------


class TestEncodeValue:
    def test_equal_numerics_encode_equal(self):
        assert encode_value(1) == encode_value(1.0)
        assert encode_value(0) == encode_value(0.0)
        assert encode_value(-3) == encode_value(-3.0)

    def test_bools_are_not_integers(self):
        assert encode_value(True) != encode_value(1)
        assert encode_value(False) != encode_value(0)

    def test_types_do_not_collide(self):
        values = [1, "1", b"1", True, None]
        encoded = {encode_value(v) for v in values}
        assert len(encoded) == len(values)

    def test_zeros_encode_equal(self):
        # 0.0 == -0.0, so the two must hash, route and index alike
        assert encode_value(-0.0) == encode_value(0.0) == encode_value(0)
        partition = HashPartition("k", 4)
        assert partition.shard_of(-0.0) == partition.shard_of(0.0)

    @pytest.mark.parametrize("store", ["memory", "sqlite", "sharded"])
    def test_both_zeros_answer_a_zero_constant(self, store):
        records = [
            obj("r", atom("k", -0.0), atom("v", "negative")),
            obj("r", atom("k", 0), atom("v", "integer")),
        ]
        if store == "memory":
            source = OEMStoreWrapper("s", records)
        elif store == "sqlite":
            source = SQLiteOEMStoreWrapper("s", objects=records)
        else:
            partition = HashPartition("k", 4)
            source = ShardedSource(
                "s",
                [
                    OEMStoreWrapper(shard_name("s", index), forest)
                    for index, forest in enumerate(
                        partition_forest(records, partition)
                    )
                ],
                partition,
            )
        query = parse_query(
            "<bind_for_s {<bind_for_V V>}> :- <r {<k 0> <v V>}>"
        )
        assert sorted(source.answer_bindings(query)) == [
            ("integer",),
            ("negative",),
        ]

    def test_huge_int_distinct_from_neighbour(self):
        # 2**63 and 2**63 + 1 collapse to the same float; the encoding
        # must keep them apart (they are != as ints)
        assert encode_value(2**63 + 1) != encode_value(2**63)


# -- partition schemes --------------------------------------------------------


class TestPartitions:
    def test_hash_routing_is_stable_and_in_range(self):
        part = HashPartition("key", 5)
        again = HashPartition("key", 5)
        for value in [0, 1, "x", 3.5, b"raw", True, None]:
            routed = part.shard_of(value)
            assert routed is not None and 0 <= routed < 5
            assert routed == again.shard_of(value)

    def test_hash_equal_numerics_route_together(self):
        part = HashPartition("key", 7)
        assert part.shard_of(2) == part.shard_of(2.0)

    def test_hash_requires_a_shard(self):
        with pytest.raises(ValueError):
            HashPartition("key", 0)

    def test_range_routing(self):
        part = RangePartition("key", (10, 20))
        assert part.shards == 3
        assert part.shard_of(5) == 0
        assert part.shard_of(10) == 1  # boundaries are upper-exclusive
        assert part.shard_of(19) == 1
        assert part.shard_of(20) == 2

    def test_range_incomparable_broadcasts(self):
        part = RangePartition("key", (10, 20))
        assert part.shard_of("not-a-number") is None

    def test_range_boundaries_must_be_sorted(self):
        with pytest.raises(ValueError):
            RangePartition("key", (20, 10))

    def test_partition_forest_routes_and_preserves(self):
        records = make_records(50)
        part = HashPartition("key", 4)
        forests = partition_forest(records, part)
        assert sum(len(f) for f in forests) == 50
        for index, forest in enumerate(forests):
            for o in forest:
                key = next(c.value for c in o.children if c.label == "key")
                assert part.shard_of(key) == index

    def test_partition_forest_keyless_goes_to_shard_zero(self):
        orphan = obj("rec", atom("other", 1))
        forests = partition_forest([orphan], HashPartition("key", 3))
        assert forests[0] == [orphan]


# -- the semi-join wire protocol ----------------------------------------------


class TestSemiJoinProtocol:
    def test_filter_membership_is_python_equality(self):
        # a superset of what the matcher admits: the mediator's
        # demultiplexer separates 1 / 1.0 / True exactly
        filt = SemiJoinFilter("K", "key", frozenset([1]))
        assert filt.admits(1.0) and filt.admits(True)
        assert not filt.admits("1") and not filt.admits([1])

    def test_admits_object_checks_direct_children(self):
        filt = SemiJoinFilter("K", "key", values=frozenset([1, 2]))
        assert filt.admits_object(record(1, "x"))
        assert not filt.admits_object(record(9, "x"))
        nested = obj("rec", obj("sub", atom("key", 1)))
        assert not filt.admits_object(nested)

    def test_canonical_text_is_order_insensitive(self):
        rule = parse_query("R :- R:<rec {<key K>}>@big")
        a = SemiJoinQuery(
            rule, [SemiJoinFilter("K", "key", values=frozenset([2, 1]))]
        )
        b = SemiJoinQuery(
            rule, [SemiJoinFilter("K", "key", values=frozenset([1, 2]))]
        )
        assert str(a) == str(b)
        assert str(a).startswith("SEMIJOIN[")
        assert SemiJoinQuery.is_semijoin

    def test_wrapper_answers_semijoin_only_with_capability(self):
        # the batch query is a full-variable projection rule: the
        # shipped filters restrict it, no template parameters remain
        rule = parse_query(
            "<bind_for_big {<bind_for_K K> <bind_for_P P>}> :-"
            " <rec {<key K> <payload P>}>@big"
        )
        query = SemiJoinQuery(
            rule, [SemiJoinFilter("K", "key", values=frozenset([1, 3]))]
        )
        batch = OEMStoreWrapper(
            "big", make_records(10), capability=BATCH_CAPABILITY
        )
        answer = batch.answer(query)
        keys = sorted(
            c.value
            for o in answer
            for c in o.children
            if c.label == "bind_for_P"
        )
        assert keys == ["p1", "p3"]
        plain = OEMStoreWrapper(
            "big", make_records(10), capability=FULL_CAPABILITY
        )
        with pytest.raises(SourceError):
            plain.answer(query)


# -- sharded sources ----------------------------------------------------------


class TestShardedSource:
    def test_shard_names_are_validated(self):
        part = HashPartition("key", 2)
        good = [
            OEMStoreWrapper(shard_name("big", i), []) for i in range(2)
        ]
        bad = [OEMStoreWrapper("big#0", []), OEMStoreWrapper("oops", [])]
        ShardedSource("big", good, part)
        with pytest.raises(SourceError):
            ShardedSource("big", bad, part)
        with pytest.raises(SourceError):
            ShardedSource("big", good[:1], part)

    def test_registry_resolves_shard_qualified_names(self):
        source = make_sharded(make_records(20), 4)
        registry = SourceRegistry()
        registry.register(source)
        assert registry.resolve("big") is source
        assert registry.resolve("big#2") is source.shard(2)
        assert "big#3" in registry
        assert "big#9" not in registry
        with pytest.raises(SourceError):
            source.shard(9)

    def test_prune_for_pattern(self):
        source = make_sharded(make_records(20), 4)
        part = source.partition
        pattern = parse_query(
            "R :- R:<rec {<key 7> <payload P>}>@big"
        ).tail[0].pattern
        names, pruned = source.prune_for_pattern(pattern)
        assert names == [shard_name("big", part.shard_of(7))]
        assert pruned == 3
        unbound = parse_query(
            "R :- R:<rec {<key K> <payload P>}>@big"
        ).tail[0].pattern
        names, pruned = source.prune_for_pattern(unbound)
        assert len(names) == 4 and pruned == 0

    def test_conflicting_constants_prune_everything(self):
        source = make_sharded(make_records(20), 4)
        part = source.partition
        # two different keys owned by different shards cannot both hold
        a, b = 0, next(
            k for k in range(1, 20)
            if part.shard_of(k) != part.shard_of(0)
        )
        pattern = parse_query(
            f"R :- R:<rec {{<key {a}> <key {b}>}}>@big"
        ).tail[0].pattern
        names, pruned = source.prune_for_pattern(pattern)
        assert names == [] and pruned == 4

    def test_logical_answer_equals_unsharded(self):
        records = make_records(30)
        sharded = make_sharded(records, 3)
        reference = OEMStoreWrapper("big", records)
        query = parse_query("R :- R:<rec {<key 7> <payload P>}>@big")
        assert canonical(sharded.answer(query)) == canonical(
            reference.answer(query)
        )
        assert canonical(sharded.export()) != []
        assert len(list(sharded.export())) == 30

    def test_cross_shard_join_is_checked_and_counted(self):
        # a multi-pattern tail has no per-shard decomposition, so the
        # logical source evaluates it over the union forest — behind
        # the same capability check, and into the same counters, as
        # every other path (it used to bypass both)
        def person(name, dept):
            return obj("person", atom("name", name), atom("dept", dept))

        forest = [
            person("Joe", "CS"),
            person("Ann", "EE"),
            obj("boss", atom("name", "Joe")),
        ]
        names_only = Capability(filterable_labels=frozenset({"name"}))
        partition = HashPartition("name", 2)

        def sharded(capability):
            return ShardedSource(
                "s",
                [
                    OEMStoreWrapper(shard_name("s", i), part, capability)
                    for i, part in enumerate(
                        partition_forest(forest, partition)
                    )
                ],
                partition,
            )

        single = parse_query("<hit N> :- <person {<name N> <dept 'CS'>}>@s")
        join = parse_query(
            "<hit N> :- <person {<name N> <dept 'CS'>}>@s"
            " AND <boss {<name N>}>@s"
        )
        restricted = sharded(names_only)
        for query in (single, join):
            with pytest.raises(SourceError, match="dept"):
                OEMStoreWrapper("s", forest, names_only).answer(query)
            with pytest.raises(SourceError, match="dept"):
                restricted.answer(query)
        assert restricted.stats()["queries_answered"] == 0

        capable = sharded(FULL_CAPABILITY)
        assert [o.value for o in capable.answer(join)] == ["Joe"]
        stats = capable.stats()
        assert stats["queries_answered"] == 1
        assert stats["objects_returned"] == 1
        capable.reset_counters()
        assert capable.stats()["queries_answered"] == 0

    def test_cross_shard_answers_carry_disjoint_oids(self):
        # the union-forest path mints the oids of the objects it builds:
        # like a wrapper's, they never repeat from one answer to the next
        sharded = make_sharded(make_records(12), 3)
        join = parse_query(
            "<pair {<a P>}> :- <rec {<key K> <payload P>}>@big"
            " AND <rec {<key K>}>@big"
        )
        first, second = sharded.answer(join), sharded.answer(join)
        oids = [str(o.oid) for o in first + second]
        assert len(first) == 12
        assert len(set(oids)) == len(oids) == 24

    def test_bindings_of_mixed_shards_are_their_carriers(self):
        # a shard answering with objects turns the whole answer into
        # objects: the other shards' rows become the carriers they are
        records = make_records(12)
        sharded = make_sharded(records, 3)
        oem_only = OEMOnly(sharded.shards[1])
        mixed = ShardedSource(
            "big",
            [sharded.shards[0], oem_only, sharded.shards[2]],
            sharded.partition,
        )
        rule = parse_query(
            "<bind_for_big {<bind_for_K K> <bind_for_P P>}> :-"
            " <rec {<key K> <payload P>}>@big"
        )
        rows = sharded.answer_bindings(rule)
        assert rows.columns == ("K", "P")
        assert sorted(rows) == [(k, f"p{k}") for k in range(12)]
        objects = mixed.answer_bindings(rule)
        assert canonical(objects) == canonical(
            OEMStoreWrapper("big", records).answer(rule)
        )

    def test_describe_mentions_partition(self):
        source = make_sharded(make_records(4), 2)
        text = source.describe()
        assert "2 shard(s)" in text and "hash('key') % 2" in text


# -- the disk-backed store ----------------------------------------------------


class TestSQLiteStore:
    def test_round_trips_all_value_types(self):
        rich = obj(
            "rec",
            atom("key", 1),
            atom("s", "text"),
            atom("f", 2.5),
            atom("b", True),
            atom("raw", b"\x00\xff"),
            atom("n", None),
            obj("nested", atom("inner", "deep")),
        )
        store = SQLiteOEMStoreWrapper("big")
        store.add(rich)
        assert canonical(store.export()) == canonical([rich])
        store.close()

    def test_reopening_an_older_file_re_encodes_negative_zero(self, tmp_path):
        path = str(tmp_path / "store.db")
        store = SQLiteOEMStoreWrapper("s", path)
        store.add(obj("r", atom("k", -0.0), atom("v", "negative")))
        # as an older version wrote it: -0.0 under an encoding of its
        # own, and no user_version
        store._conn.execute(
            "UPDATE nodes SET enc = ? WHERE label = 'k'", (b"n:-0x0.0p+0",)
        )
        store._conn.execute("PRAGMA user_version = 0")
        store._conn.commit()
        store.close()
        query = parse_query(
            "<bind_for_s {<bind_for_V V>}> :- <r {<k 0> <v V>}>"
        )
        reopened = SQLiteOEMStoreWrapper("s", path)
        assert list(reopened.answer_bindings(query)) == [("negative",)]
        version = reopened._conn.execute("PRAGMA user_version").fetchone()
        assert version == (1,)
        reopened.close()

    def test_matches_in_memory_wrapper(self):
        records = make_records(40)
        disk = SQLiteOEMStoreWrapper("big")
        disk.add(*records)
        memory = OEMStoreWrapper(
            "big", records, capability=BATCH_CAPABILITY
        )
        for text in (
            "R :- R:<rec {<key 7> <payload P>}>@big",
            "R :- R:<rec {<payload 'p3'>}>@big",
            "R :- R:<rec {}>@big",
        ):
            query = parse_query(text)
            assert canonical(disk.answer(query)) == canonical(
                memory.answer(query)
            ), text
        rule = parse_query(
            "<bind_for_big {<bind_for_K K> <bind_for_P P>}> :-"
            " <rec {<key K> <payload P>}>@big"
        )
        semi = SemiJoinQuery(
            rule, [SemiJoinFilter("K", "key", values=frozenset([1, 5, 9]))]
        )
        assert canonical(disk.answer(semi)) == canonical(memory.answer(semi))
        assert len(disk) == 40
        disk.close()

    def test_load_records_streams(self):
        store = SQLiteOEMStoreWrapper("big")
        store.load_records(
            "rec", ([("key", k), ("payload", f"p{k}")] for k in range(25))
        )
        assert len(store) == 25
        query = parse_query("R :- R:<rec {<key 7> <payload P>}>@big")
        assert len(store.answer(query)) == 1
        store.close()

    def test_generator_routing_matches_partition(self):
        part = HashPartition("key", 4)
        stores = [
            SQLiteOEMStoreWrapper(shard_name("big", i)) for i in range(4)
        ]
        for index, batch in route_records(
            record_stream(200), part, 4, chunk=32
        ):
            stores[index].load_records("rec", batch)
        assert sum(len(s) for s in stores) == 200
        for index, store in enumerate(stores):
            for o in store.export():
                key = next(
                    c.value for c in o.children if c.label == "key"
                )
                assert part.shard_of(key) == index
            store.close()

    @pytest.mark.parametrize(
        "text, filters, index",
        [
            ("<rec {<key 7> <payload P>}>", [], "nodes_child_value"),
            (
                "<rec {<key K> <payload P>}>",
                [("key", [1, 5, 9])],
                "nodes_child_value",
            ),
            (
                "<rec {<payload 'p3'> <key K>}>",
                [("key", [3, 4])],
                "nodes_child_value",
            ),
            (
                "<rec {<key K>}>",
                [("key", [3]), ("payload", ["p3"])],
                "nodes_child_value",
            ),
            ("<rec {<key K> <payload P>}>", [], "nodes_top_label"),
        ],
        ids=["point", "semijoin", "two-item", "two-filter", "extent"],
    )
    def test_statements_are_index_driven(self, text, filters, index):
        # a statement must reach the records through an index or the
        # primary key: a full SCAN of nodes is a whole-store read per
        # probe, and driving a selective query from the label extent
        # (the plan a correlated ``t.root IN (...)`` filter gets) is a
        # whole-extent read
        store = SQLiteOEMStoreWrapper("big")
        store.add(*make_records(50))
        variables = sorted(
            {t for t in text.replace(">", " ").split() if t.isupper()}
        )
        head = " ".join(f"<bind_for_{v} {v}>" for v in variables)
        rule = parse_query(f"<bind_for_big {{{head}}}> :- {text}")
        shipped = [
            SemiJoinFilter(label, label, frozenset(values))
            for label, values in filters
        ]
        query = SemiJoinQuery(rule, shipped) if shipped else rule
        executed = []
        store._conn.set_trace_callback(executed.append)
        native = store.answer_bindings(query)
        objects = store.answer(query)
        store._conn.set_trace_callback(None)
        assert len(native) == len(objects) > 0
        assert store.stats()["native_answers"] == 1
        assert len(executed) == 2  # one per answer
        for statement in executed:
            steps = [
                row[3]
                for row in store._conn.execute(
                    "EXPLAIN QUERY PLAN " + statement
                )
            ]
            # a step names its table by alias; a scan of a derived
            # root set (a CO-ROUTINE or MATERIALIZE step) is allowed
            derived = {
                step.split()[-1]
                for step in steps
                if step.startswith(("CO-ROUTINE", "MATERIALIZE"))
            }
            scans = [
                step
                for step in steps
                if step.startswith("SCAN") and step.split()[1] not in derived
            ]
            assert steps and not scans, steps
            first = next(s for s in steps if s.startswith(("SEARCH", "SCAN")))
            assert index in first, steps
        store.close()

    def test_probe_keys_is_deterministic(self):
        assert probe_keys(20, 100, seed=5) == probe_keys(20, 100, seed=5)
        assert probe_keys(20, 100, seed=5) != probe_keys(20, 100, seed=6)


# -- end-to-end through the mediator ------------------------------------------


class TestMediatorIntegration:
    def test_semijoin_collapses_probes(self):
        keys = [1, 3, 5, 7, 9, 3, 5]  # duplicates exercise dedup
        records = make_records(50)
        reference = make_mediator(keys, records, shards=0, semijoin=False)
        expected = canonical(reference.query(QUERY).objects())
        med = make_mediator(keys, records, shards=4, parallelism=4)
        got = canonical(med.query(QUERY).objects())
        assert got == expected
        context = med.last_context
        assert context.semijoin_batches <= 4
        assert context.semijoin_probes == 5  # deduped
        assert context.semijoin_probes_saved >= 1
        assert context.shards_scanned >= 0
        med.close()
        reference.close()

    def test_sqlite_shards_match_reference(self):
        keys = [2, 4, 6, 8]
        records = make_records(30)
        reference = make_mediator(keys, records, shards=0, semijoin=False)
        expected = canonical(reference.query(QUERY).objects())
        med = make_mediator(
            keys, records, shards=3, store=SQLiteOEMStoreWrapper
        )
        assert canonical(med.query(QUERY).objects()) == expected
        med.close()
        reference.close()

    def test_label_parameter_groups_batches_per_shard(self):
        # a label variable has no direct-child witness: probes group by
        # it, and each group still routes its keys to the owning shards
        spec = (
            "<hit {<r R> <k K> <p P>}> :- <probe {<rel R> <key K>}>@driver"
            " AND <R {<key K> <payload P>}>@big"
        )
        records = make_records(40) + [
            obj("arc", atom("key", k), atom("payload", f"a{k}"))
            for k in range(0, 40, 3)
        ]
        pairs = [
            ("rec", 1), ("arc", 3), ("rec", 3), ("ghost", 5),
            ("arc", 4), ("rec", 1), ("arc", 39.0),
        ]
        probes = [
            obj("probe", atom("rel", rel), atom("key", k)) for rel, k in pairs
        ]

        def run(big, **kwargs):
            registry = SourceRegistry(OEMStoreWrapper("driver", probes), big)
            med = Mediator("med", spec, registry, **kwargs)
            try:
                return [repr(o) for o in med.query(QUERY)], med.last_context
            finally:
                med.close()

        expected, _ = run(OEMStoreWrapper("big", records), semijoin=False)
        assert len(expected) == 4  # rec 1, arc 3, rec 3, arc 39
        got, context = run(make_sharded(records, 4), parallelism=4)
        assert got == expected
        assert context.semijoin_probes == 6  # (rec, 1) probed twice
        # one batch per (group, shard owning one of the group's keys)
        owner = HashPartition("key", 4).shard_of
        assert context.semijoin_batches == len(
            {(rel, owner(k)) for rel, k in pairs}
        )

    def test_semijoin_off_still_correct(self):
        keys = [1, 2, 3]
        records = make_records(20)
        med = make_mediator(keys, records, shards=2, semijoin=False)
        reference = make_mediator(keys, records, shards=0, semijoin=False)
        assert canonical(med.query(QUERY).objects()) == canonical(
            reference.query(QUERY).objects()
        )
        assert med.last_context.semijoin_batches == 0
        med.close()
        reference.close()

    def test_explain_shows_sharding(self):
        med = make_mediator([1], make_records(10), shards=4)
        text = med.explain(QUERY)
        assert "-- sharding --" in text
        assert "semijoin: on" in text
        assert "4 shard(s)" in text
        assert "semijoin IN $K_r1 x4 shards" in text
        med.close()

    def test_telemetry_counters(self):
        med = make_mediator(
            [1, 3, 5], make_records(30), shards=4, telemetry=True
        )
        med.query(QUERY)
        assert med.telemetry.semijoin_batches_total.value() >= 1
        assert med.telemetry.semijoin_probes_saved_total.value() >= 0
        med.close()

    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_telemetry_counters_match_context_exactly(self, parallelism):
        # the Prometheus series are flushed from the per-query
        # ExecutionContext: on a fresh mediator, one sharded query must
        # leave them exactly equal to the context counters — no drops,
        # no double counting — at any parallelism
        med = make_mediator(
            [1, 3, 5, 7, 9],
            make_records(40),
            shards=4,
            telemetry=True,
            parallelism=parallelism,
        )
        med.query(QUERY)
        context = med.last_context
        assert context.semijoin_batches >= 1  # non-vacuous
        assert (
            med.telemetry.semijoin_batches_total.value()
            == context.semijoin_batches
        )
        assert (
            med.telemetry.semijoin_probes_saved_total.value()
            == context.semijoin_probes_saved
        )
        assert (
            med.telemetry.shards_pruned_total.value()
            == context.shards_pruned
        )
        med.close()


# -- answer-cache keys with shard-qualified names -----------------------------


class TestShardedAnswerCache:
    def test_no_cross_shard_hits(self):
        cache = AnswerCache(max_entries=16)
        answer = [record(1, "x")]
        cache.store("big#0", "Q", answer)
        hit, got = cache.lookup("big#0", "Q")
        assert hit and canonical(got) == canonical(answer)
        hit, got = cache.lookup("big#1", "Q")
        assert not hit and got is None
        hit, got = cache.lookup("big", "Q")
        assert not hit

    def test_invalidation_hits_only_the_named_shard(self):
        cache = AnswerCache(max_entries=16)
        for index in range(3):
            cache.store(f"big#{index}", "Q", [])
        assert cache.invalidate("big#1") == 1
        assert cache.lookup("big#0", "Q")[0]
        assert not cache.lookup("big#1", "Q")[0]
        assert cache.lookup("big#2", "Q")[0]

    def test_mediator_caches_per_shard(self):
        cache = AnswerCache(max_entries=64)
        med = make_mediator(
            [1, 3, 5], make_records(30), shards=4, cache=cache
        )
        first = canonical(med.query(QUERY).objects())
        assert canonical(med.query(QUERY).objects()) == first
        assert cache.hits > 0
        for source in cache.hits_by_source:
            # every cached source call is shard-qualified or the driver:
            # the logical name never appears as a cache key
            assert source == "driver" or "#" in source
        med.close()

"""Plan once, run many: the plan cache, the wrapper-side compile cache,
and the budget that keeps the saving from eroding.

The warm path of a parameterised lookup must do *no* shape-only work —
no parse, no expansion, no planning, no fusion pass, no compilation —
on either side of ``Source.answer``; what makes a remembered plan be
made again is tested one cause at a time; and the three places planning
could read a lifted constant's value each either move to bind time or
fall back to planning the query as written, never a guess.
"""

import inspect
import pathlib
import sys
import threading

import pytest

from repro.datasets import build_scaled_scenario, build_scenario, record_stream
from repro.exec import AnswerCache
from repro.external.registry import ExternalRegistry, default_registry
from repro.governor import BudgetExceeded, QueryBudget
from repro.mediator import Mediator
from repro.mediator import mediator as mediator_module
from repro.mediator import plancache
from repro.mediator.optimizer import CostBasedOptimizer
from repro.mediator.plan import ShardedQueryNode
from repro.mediator.pipeline import plan_operators
from repro.mediator.view_expander import ViewExpander
from repro.msl import compile as compile_module
from repro.msl import parse_query, parse_rule
from repro.msl import parser as parser_module
from repro.oem import atom, obj, structural_key
from repro.reliability import (
    FaultInjectingSource,
    ManualClock,
    ResilienceConfig,
    RetryPolicy,
)
from repro.wrappers import (
    Capability,
    Source,
    HashPartition,
    OEMStoreWrapper,
    RelationalWrapper,
    ShardedSource,
    SourceError,
    SourceRegistry,
    SQLiteOEMStoreWrapper,
    Wrapper,
    partition_forest,
    shard_name,
    sqlite_wrapper,
)

sys.path.insert(0, str(pathlib.Path(__file__).parents[2] / "tools"))
import opcount  # noqa: E402  (tools/ is not a package)

POINT_SPEC = "<item {<key K> <payload P>}> :- <rec {<key K> <payload P>}>@big"
JOE = "X :- X:<cs_person {<name 'Joe Chung'>}>@med"


def lookup(key) -> str:
    return f"X :- X:<item {{<key {key}>}}>@med"


@pytest.fixture
def point():
    """A ``point_lookup``-shaped mediator over 2 000 SQLite records."""
    store = SQLiteOEMStoreWrapper("big")
    store.load_records("rec", record_stream(2000))
    mediator = Mediator(
        "med", POINT_SPEC, SourceRegistry(store), default_registry()
    )
    yield mediator, store
    mediator.close()
    store.close()


def described(mediator, query):
    """The plan a query runs, as text with its constants in place."""
    planned, params = mediator._planned(*mediator._shape_of(query))
    return planned.plan.describe(params)


# -- the budget --------------------------------------------------------------


class TestWarmPathBudget:
    def test_no_shape_only_work_after_warm_up(self, point, monkeypatch):
        mediator, store = point
        for key in range(20):
            assert len(mediator.answer(lookup(key))) == 1
        calls: dict[str, int] = {}

        def spy(owner, name):
            original = getattr(owner, name)
            label = f"{getattr(owner, '__name__', owner)}.{name}"

            def counted(*args, **kwargs):
                calls[label] = calls.get(label, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        spy(ViewExpander, "expand")
        spy(CostBasedOptimizer, "plan_program")
        spy(CostBasedOptimizer, "plan_rule")
        spy(mediator_module, "fuse_plan")
        spy(parser_module._Parser, "__init__")
        spy(compile_module.CompiledRule, "__init__")
        before = (mediator._plans.stats(), store.stats())

        keys = iter(range(100, 300))
        for _ in range(200):
            key = next(keys)
            (item,) = mediator.answer(lookup(key))
            assert item.get("key") == key

        assert calls == {}
        plans, held = mediator._plans.stats(), store.stats()
        assert plans["hits"] - before[0]["hits"] == 200
        assert plans["misses"] == 1  # the shape, once
        assert plans["replans"] <= 1  # cold-start statistics, once
        assert held["compile_misses"] == before[1]["compile_misses"]
        assert held["compile_rules"] <= 2
        hits, misses = held["compile_hits"], held["compile_misses"]
        assert hits / (hits + misses) >= 0.99

    def test_function_calls_per_warm_op(self, point):
        mediator, _ = point
        keys = iter(range(2000))

        def operation():
            mediator.answer(lookup(next(keys)))

        counted = opcount.count(operation, ops=200)
        # 2 343 at the parent of the plan cache, 1 514 of them
        # shape-only; ~540 while the store rebuilt and re-matched each
        # record, ~435 once it answered in SQL
        assert counted["calls_per_op"] <= 480
        assert counted["unreachable_per_op"] == 0

    def test_a_warm_point_lookup_is_one_statement_and_no_store_object(
        self, point, monkeypatch
    ):
        mediator, store = point
        keys = iter(range(2000))

        def operation():
            mediator.answer(lookup(next(keys)))

        for _ in range(20):
            operation()
        built = []
        build = sqlite_wrapper._build
        monkeypatch.setattr(
            sqlite_wrapper,
            "_build",
            lambda *args: built.append(args) or build(*args),
        )
        before = store.stats()["native_answers"]
        counted = opcount.count(operation, ops=50, warmup=0, stores=[store])
        # one indexed join, where the store ran three statements and
        # rebuilt the record as an OEM object for its matcher
        assert counted["statements_per_op"] == 1
        assert built == []
        # every op of the four counted runs of 50, answered natively
        assert store.stats()["native_answers"] - before == 4 * 50

    def test_a_warm_export_mints_no_wrapper_oid(self):
        # the wrappers answer the export's projection queries with the
        # rows their matchers hold: no carrier object, so no oid
        operation, workload = opcount.workload_operation("view_export")
        minted = []
        try:
            for source in workload.mediator.sources:
                if isinstance(source, Wrapper):
                    source._oidgen = (
                        lambda mint=source._oidgen: minted.append(1) or mint()
                    )
            counted = opcount.count(operation, ops=20)
        finally:
            workload.close()
        assert minted == []
        # 38 604 before the wrappers answered with rows, 21 382 after,
        # 16 251 once tuples were translated once per table version
        # and decomp resolved once per node run
        assert counted["calls_per_op"] <= 17_800
        assert counted["unreachable_per_op"] == 0

    def test_a_warm_fusion_export_builds_no_copy(self):
        operation, workload = opcount.workload_operation("bib_fusion")
        try:
            counted = opcount.count(operation, ops=20)
        finally:
            workload.close()
        # 932 while a semantic-oid group of one was rebuilt as an equal
        # copy; the answer trees hold 650
        assert counted["objects_per_op"] <= 872
        assert counted["unreachable_per_op"] == 0

    def test_a_warm_export_translates_no_tuple_and_resolves_once(
        self, monkeypatch
    ):
        operation, workload = opcount.workload_operation("view_export")
        calls = {"_tuple_to_oem": 0, "select": 0}

        def spy(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        try:
            for _ in range(5):
                operation()
            spy(RelationalWrapper, "_tuple_to_oem")
            spy(ExternalRegistry, "select")
            for _ in range(10):
                operation()
        finally:
            workload.close()
        # per op, 51 and 60 before: a translation per cs tuple probed,
        # a selection per whois person
        assert calls == {"_tuple_to_oem": 0, "select": 10}

    def test_parsed_queries_hit_the_same_shape(self, point):
        mediator, _ = point
        mediator.answer(lookup(1))
        mediator.answer(parse_query(lookup(2)))
        mediator.answer(lookup("'no such key'"))
        assert mediator._plans.stats()["entries"] == 1

    def test_constructor_plans_and_compiles_nothing(self):
        scenario = build_scenario()
        assert scenario.mediator._plans.stats() == {
            "hits": 0, "misses": 0, "replans": 0, "entries": 0,
        }
        assert scenario.mediator._compile_cache.stats()["misses"] == 0

    def test_the_cache_is_bounded(self, point, monkeypatch):
        mediator, _ = point
        monkeypatch.setattr(plancache, "PLAN_CACHE_ENTRIES", 4)
        for width in range(1, 9):
            items = " ".join(f"<key {i}>" for i in range(width))
            mediator.answer(f"X :- X:<item {{{items}}}>@med")
        assert mediator._plans.stats()["entries"] == 4
        assert len(mediator._plans._texts) == 4


# -- one path, no knob -------------------------------------------------------


class TestOnePlanningCallSite:
    def test_only_plan_calls_the_planner(self):
        for method in (
            Mediator._run_query,
            Mediator.export,
            Mediator.explain,
            Mediator.explain_analyze,
            Mediator._planned,
            Mediator._execute,
        ):
            source = inspect.getsource(method)
            for callee in ("expander.expand", "plan_program", "plan_rule",
                           "fuse_plan("):
                assert callee not in source, (method.__name__, callee)
        planner = inspect.getsource(Mediator._plan)
        assert "expander.expand" in planner and "fuse_plan(" in planner

    def test_no_public_prepared_form(self):
        assert not [
            name
            for name in dir(Mediator)
            if "prepare" in name.lower() and not name.startswith("_")
        ]
        import repro

        assert not [n for n in dir(repro) if "prepare" in n.lower()]

    def test_explain_and_export_share_the_cache(self):
        scenario = build_scaled_scenario(10)
        mediator = scenario.mediator
        mediator.export()
        mediator.export()
        mediator.export()
        stats = mediator._plans.stats()
        assert stats["misses"] == len(mediator.specification.rules)
        assert stats["hits"] >= stats["misses"]
        before = stats["misses"]
        mediator.answer(JOE)
        mediator.explain(JOE)
        mediator.explain_analyze(JOE)
        assert mediator._plans.stats()["misses"] == before + 1


# -- soundness: the three value-dependent cases ------------------------------


class TestValueDependentPlanning:
    def test_a_constant_meeting_a_head_constant_is_planned_per_query(self):
        store = OEMStoreWrapper(
            "s", [obj("r", atom("k", 1), atom("v", "a")),
                  obj("r", atom("k", 2), atom("v", "b"))]
        )
        mediator = Mediator(
            "med",
            "<view {<kind 'x'> <k K>}> :- <r {<k K> <v 'a'>}>@s ;"
            "<view {<kind 'y'> <k K>}> :- <r {<k K> <v 'b'>}>@s",
            SourceRegistry(store),
        )
        answers = {
            kind: [o.get("k") for o in mediator.answer(
                f"X :- X:<view {{<kind '{kind}'>}}>@med")]
            for kind in ("x", "y", "z")
        }
        assert answers == {"x": [1], "y": [2], "z": []}
        text = mediator.explain("X :- X:<view {<kind 'x'>}>@med")
        assert "plan cache: planned per query" in text
        assert "meets a constant of the specification" in text
        # the query as written was planned: only the matching rule is left
        assert "(1 rule(s))" in text

    def test_a_constant_becoming_a_label_is_planned_per_query(self):
        scenario = build_scaled_scenario(12)
        text = scenario.mediator.explain(
            "X :- X:<cs_person {<rel 'student'>}>@med"
        )
        assert "plan cache: planned per query" in text
        assert "label, type or oid slot" in text
        assert "<student {" in text  # planned with the constant in place

    def test_sampled_value_statistics_are_read_per_query(self, point):
        mediator, store = point
        assert "shape reusable" in mediator.explain(lookup(5))
        mediator.statistics.sample_source(store, limit=50)
        text = mediator.explain(lookup(5))
        assert "plan cache: planned per query" in text
        assert "sampled value statistics exist for big/rec/key" in text
        (item,) = mediator.answer(lookup(7))
        assert item.get("key") == 7

    def test_shards_are_pruned_when_the_template_is_bound(self):
        partition = HashPartition("key", 4)
        rows = [obj("rec", atom("key", k), atom("payload", f"p{k}"))
                for k in range(40)]
        shards = [
            OEMStoreWrapper(shard_name("big", i), forest)
            for i, forest in enumerate(partition_forest(rows, partition))
        ]
        mediator = Mediator(
            "med", POINT_SPEC,
            SourceRegistry(ShardedSource("big", shards, partition)),
        )
        for key in (3, 17, 29):
            (item,) = mediator.answer(lookup(key))
            assert item.get("key") == key
            context = mediator.last_context
            assert (context.shards_scanned, context.shards_pruned) == (1, 3)
            owner = shard_name("big", partition.shard_of(key))
            assert context.queries_sent == {owner: 1}
        text = mediator.explain(lookup(3))
        assert "plan cache: shape reusable" in text
        planned, _ = mediator._planned(*mediator._shape_of(lookup(3)))
        (leaf,) = [n for n in plan_operators(planned.plan)
                   if isinstance(n, ShardedQueryNode)]
        assert leaf.routed is not None and len(leaf.shard_names) == 4
        assert mediator._plans.stats()["entries"] == 1

    def test_a_pruned_bind_join_target_is_planned_per_query(self):
        partition = HashPartition("key", 2)
        rows = [obj("rec", atom("key", k), atom("tag", k % 2))
                for k in range(8)]
        shards = [
            OEMStoreWrapper(shard_name("big", i), forest)
            for i, forest in enumerate(partition_forest(rows, partition))
        ]
        driver = OEMStoreWrapper(
            "drv", [obj("probe", atom("tag", 1), atom("a", "x"),
                        atom("b", "y"), atom("c", "z"))]
        )
        mediator = Mediator(
            "med",
            # the driver's three constants put it first in the join
            # order; rec is then probed with T bound and K a constant
            "<hit {<k K> <t T>}> :-"
            " <probe {<tag T> <a 'x'> <b 'y'> <c 'z'>}>@drv"
            " AND <rec {<key K> <tag T>}>@big",
            SourceRegistry(driver, ShardedSource("big", shards, partition)),
        )
        (hit,) = mediator.answer("X :- X:<hit {<k 3>}>@med")
        assert (hit.get("k"), hit.get("t")) == (3, 1)
        text = mediator.explain("X :- X:<hit {<k 3>}>@med")
        assert "plan cache: planned per query" in text
        assert "pruned by a constant of the query" in text
        assert "param-query big" in text and "x1 shards" in text


# -- invalidation ------------------------------------------------------------


class TestReplanning:
    @staticmethod
    def fresh(scenario, **kwargs):
        return Mediator(
            "med", scenario.mediator.specification, scenario.registry,
            scenario.externals, register=False, **kwargs,
        )

    def warm(self, mediator, query=JOE):
        for _ in range(4):
            mediator.answer(query)
        stats = mediator._plans.stats()
        return stats["misses"] + stats["replans"]

    def test_steady_state_hits(self):
        scenario = build_scenario()
        planned = self.warm(scenario.mediator)
        for _ in range(10):
            scenario.mediator.answer(JOE)
        stats = scenario.mediator._plans.stats()
        assert stats["misses"] + stats["replans"] == planned

    def test_reregistering_a_narrower_source_replans_once(self):
        scenario = build_scenario()
        mediator = scenario.mediator
        planned = self.warm(mediator)
        whois = scenario.registry.resolve("whois")
        narrow = OEMStoreWrapper(
            "whois", whois.export(),
            capability=Capability(filterable_labels=frozenset({"dept"})),
        )
        scenario.registry.deregister("whois")
        scenario.registry.register(narrow)
        (joe,) = mediator.answer(JOE)
        mediator.answer(JOE)
        stats = mediator._plans.stats()
        assert stats["misses"] + stats["replans"] == planned + 1
        assert "registered or deregistered" in mediator._plans.last_invalidation
        # the name filter is now compensated at the mediator
        assert "filter _Cap1" in described(mediator, JOE)
        twin = self.fresh(scenario)
        assert described(twin, JOE) == described(mediator, JOE)
        (twin_joe,) = twin.answer(JOE)
        assert structural_key(twin_joe) == structural_key(joe)

    def test_restore_statistics_replans_once(self):
        scenario = build_scenario()
        mediator = scenario.mediator
        planned = self.warm(mediator)
        mediator.restore_statistics(mediator.statistics_snapshot())
        mediator.answer(JOE)
        mediator.answer(JOE)
        stats = mediator._plans.stats()
        assert stats["misses"] + stats["replans"] == planned + 1
        assert "sampled or restored" in mediator._plans.last_invalidation

    def test_an_opened_breaker_replans_once(self):
        scenario = build_scenario()
        clock = ManualClock()
        flaky = FaultInjectingSource(
            scenario.registry.resolve("cs"), clock=clock
        )
        scenario.registry.deregister("cs")
        scenario.registry.register(flaky)
        mediator = self.fresh(
            scenario,
            clock=clock,
            on_source_failure="degrade",
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1), breaker_threshold=1,
                breaker_cooldown=1000.0,
            ),
        )
        planned = self.warm(mediator)
        flaky.dead = True
        mediator.answer(JOE)  # the failure opens the breaker
        flaky.dead = False
        assert mediator.health_snapshot()["sources"]["cs"].breaker_state == "open"
        mediator.answer(JOE)
        mediator.answer(JOE)
        stats = mediator._plans.stats()
        assert stats["misses"] + stats["replans"] == planned + 1
        assert "breaker" in mediator._plans.last_invalidation

    def test_a_hundredfold_cardinality_drift_replans_once(self):
        scenario = build_scenario()
        mediator = scenario.mediator
        planned = self.warm(mediator)
        was = mediator.statistics.base_cardinality("whois", "person")
        for _ in range(12):
            mediator.statistics.record_label("whois", "person", int(was * 100))
        mediator.answer(JOE)
        stats = mediator._plans.stats()
        assert stats["misses"] + stats["replans"] == planned + 1
        assert "cardinality of whois/person drifted" in (
            mediator._plans.last_invalidation
        )
        twin = self.fresh(scenario)
        twin.restore_statistics(mediator.statistics_snapshot())
        assert described(twin, JOE) == described(mediator, JOE)
        # small drift is not a reason
        mediator.statistics.record_label("whois", "person", int(was * 110))
        mediator.answer(JOE)
        after = mediator._plans.stats()
        assert after["misses"] + after["replans"] == planned + 1

    @pytest.mark.parametrize(
        "assign",
        [
            lambda m: setattr(m.optimizer, "strategy", "statistics"),
            lambda m: setattr(m.expander, "push_mode", "needed"),
            lambda m: setattr(m, "semijoin", False),
            lambda m: setattr(m, "fuse", False),
        ],
        ids=["strategy", "push_mode", "semijoin", "fuse"],
    )
    def test_assigning_a_planning_setting_replans_once(self, assign):
        scenario = build_scenario()
        mediator = scenario.mediator
        planned = self.warm(mediator)
        assign(mediator)
        mediator.answer(JOE)
        mediator.answer(JOE)
        stats = mediator._plans.stats()
        assert stats["misses"] + stats["replans"] == planned + 1
        assert "was assigned" in mediator._plans.last_invalidation


# -- hit and miss behave alike -----------------------------------------------


class TestHitEqualsMiss:
    def test_degrade_mode_warns_the_same(self):
        def run(warm):
            scenario = build_scenario()
            clock = ManualClock()
            flaky = FaultInjectingSource(
                scenario.registry.resolve("cs"), clock=clock
            )
            scenario.registry.deregister("cs")
            scenario.registry.register(flaky)
            mediator = Mediator(
                "med", scenario.mediator.specification, scenario.registry,
                scenario.externals, register=False,
                on_source_failure="degrade",
            )
            for _ in range(warm):
                mediator.answer(JOE)
            flaky.dead = True
            result = mediator.query(JOE)
            return (
                [repr(o) for o in result],
                [(w.source, w.error) for w in result.warnings],
            )

        assert run(warm=0) == run(warm=3)
        assert [source for source, _ in run(warm=3)[1]] == ["cs"]

    def test_a_row_ceiling_stops_the_same(self):
        def run(warm):
            scenario = build_scaled_scenario(20)
            mediator = Mediator(
                "med", scenario.mediator.specification, scenario.registry,
                scenario.externals, register=False,
            )
            query = "X :- X:<cs_person {<year 3>}>@med"
            for _ in range(warm):
                mediator.answer(query)
            mediator.budget = QueryBudget(max_rows_per_table=1)
            with pytest.raises(BudgetExceeded) as caught:
                mediator.answer(query)
            mediator.budget_mode = "truncate"
            clipped = mediator.query(query)
            return (
                str(caught.value),
                [repr(o) for o in clipped],
                [str(w) for w in clipped.warnings],
            )

        assert run(warm=0) == run(warm=3)

    def test_threads_share_one_plan(self, point):
        """More clients than cores on one remembered plan, switching
        threads every few bytecodes: every answer is the sequential
        one, and not one lookup goes uncounted."""
        mediator, _ = point

        def fields(key):
            (item,) = mediator.answer(lookup(key))
            return [(c.label, c.value) for c in item.children]

        expected = {key: fields(key) for key in range(200)}
        before = mediator._plans.stats()
        failures: list = []

        def client(offset):
            try:
                for step in range(200):
                    key = (offset * 37 + step) % 200
                    if fields(key) != expected[key]:
                        failures.append(key)
            except Exception as exc:  # pragma: no cover - reported below
                failures.append(exc)

        threads = [
            threading.Thread(target=client, args=(n,)) for n in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        after = mediator._plans.stats()
        assert after["entries"] == 1
        assert after["misses"] == before["misses"]
        assert (
            after["hits"] + after["replans"]
            - before["hits"] - before["replans"]
        ) == 8 * 200


# -- the far side ------------------------------------------------------------


class TestWrapperSideShapes:
    def test_a_new_constant_is_a_compile_hit(self):
        store = OEMStoreWrapper(
            "s", [obj("rec", atom("k", v)) for v in range(50)]
        )
        for value in range(50):
            (found,) = store.answer(
                parse_rule(f"X :- X:<rec {{<k {value}>}}>@s")
            )
            assert found.get("k") == value
        stats = store.stats()
        assert (stats["compile_rules"], stats["compile_misses"]) == (1, 1)
        assert stats["compile_hits"] == 49

    def test_a_violation_raises_on_every_call_of_its_shape(self):
        store = OEMStoreWrapper(
            "s", [obj("rec", atom("k", 1), atom("v", 2))],
            capability=Capability(filterable_labels=frozenset({"k"})),
        )
        for value in (1, 2, 3):
            store.answer(parse_rule(f"X :- X:<rec {{<k {value}>}}>@s"))
        for value in (1, 2, 3):
            with pytest.raises(SourceError) as caught:
                store.answer(parse_rule(f"X :- X:<rec {{<v {value}>}}>@s"))
            assert f"<v {value}>" in str(caught.value)
        assert store.stats()["queries_answered"] == 3
        assert store.stats()["compile_rules"] == 1  # nothing kept for <v _>

    def test_the_verdict_reads_structure_alone(self):
        from repro.wrappers.base import check_source_query

        capabilities = [
            Capability(),
            Capability(filterable_labels=frozenset({"a"})),
            Capability(supports_comparisons=False),
            Capability(supports_wildcards=False),
        ]
        shapes = [
            "X :- X:<r {{<a {0}> <b {1}>}}>@s",
            "X :- X:<r {{<a {0}> | R:{{<b {1}>}}}}>@s",
            "X :- X:<r {{<a V> .. <b {0}>}}>@s AND V > {1}",
            "X :- X:<r {{<a {0}>}}>@other AND <q {1}>@s",
            "<o V> :- <r {{<c {{<a {0}>}}> <b V>}}>@s AND V != {1}",
        ]
        constants = [(1, 2), ("'x'", "'y'"), ("true", 1.5), (7, 7)]
        for capability in capabilities:
            for shape in shapes:
                verdicts = set()
                for pair in constants:
                    try:
                        check_source_query(
                            parse_rule(shape.format(*pair)), "s", capability
                        )
                        verdicts.add(True)
                    except SourceError:
                        verdicts.add(False)
                assert len(verdicts) == 1, (capability, shape)

    def test_the_mediators_own_matcher_hits_too(self):
        store = OEMStoreWrapper(
            "s", [obj("e", atom("from", i), atom("to", i + 1))
                  for i in range(5)]
        )
        mediator = Mediator(
            "g",
            "<path {<from A> <to B>}> :- <e {<from A> <to B>}>@s ;"
            "<path {<from A> <to C>}> :- <e {<from A> <to B>}>@s"
            " AND <path {<from B> <to C>}>@g",
            SourceRegistry(store),
        )
        for start in range(4):
            reached = mediator.answer(f"X :- X:<path {{<from {start}>}}>@g")
            assert len(reached) == 5 - start
        stats = mediator._compile_cache.stats()
        # the two view rules and the query's one shape
        assert stats["rules"] == 3


# -- what the operator sees --------------------------------------------------


class TestVisibility:
    def test_explain_reports_the_plan_cache(self, point):
        mediator, _ = point
        for key in range(5):
            mediator.answer(lookup(key))
        text = mediator.explain(lookup(9))
        (line,) = [l for l in text.splitlines() if l.startswith("plan cache:")]
        assert "shape reusable (1 constant(s) bound per call)" in line
        assert "1 miss(es)" in line and "last invalidation:" in line
        # the plan is shown as this call runs it, not as the template
        assert "<key 9>" in text and "$#0" not in text
        assert "compile cache of big: 1 rule(s)" in text

    def test_explain_shows_each_calls_constants(self):
        scenario = build_scenario()
        for name in ("Joe Chung", "Nick Naive"):
            text = scenario.mediator.explain(
                f"X :- X:<cs_person {{<name '{name}'>}}>@med"
            )
            assert f"<name '{name}'>" in text
            assert "$#" not in text

    def test_last_program_is_the_calls_program(self):
        scenario = build_scenario(push_mode="needed")
        scenario.mediator.answer(JOE)
        scenario.mediator.answer(
            "X :- X:<cs_person {<name 'Nick Naive'>}>@med"
        )
        assert "'Nick Naive'" in str(scenario.mediator.last_program)
        assert "$#" not in str(scenario.mediator.last_program)

    def test_wrapper_stats_and_labelled_series(self, point):
        mediator, store = point
        for key in range(10):
            mediator.answer(lookup(key))
        stats = store.stats()
        assert {"compile_hits", "compile_misses", "compile_rules"} <= set(stats)
        text = mediator.metrics_text()
        assert 'repro_compile_cache_hits_total{cache="source:big"} 9' in text
        assert 'repro_compile_cache_misses_total{cache="source:big"} 1' in text
        assert 'repro_compile_cache_rules{cache="mediator"}' in text
        assert "repro_plan_cache_hits_total 9" in text or (
            "repro_plan_cache_hits_total 8" in text
        )
        assert "repro_plan_cache_entries 1" in text
        import lint_prometheus

        assert lint_prometheus.lint(text) == []

    def test_shards_report_under_their_qualified_names(self):
        partition = HashPartition("key", 2)
        shards = [
            OEMStoreWrapper(shard_name("big", i), []) for i in range(2)
        ]
        mediator = Mediator(
            "med", POINT_SPEC,
            SourceRegistry(ShardedSource("big", shards, partition)),
        )
        mediator.answer(lookup(1))
        text = mediator.metrics_text()
        assert 'cache="source:big#0"' in text
        assert 'cache="source:big#1"' in text

    def test_traced_mediators_print_the_calls_constants(self):
        scenario = build_scenario(trace=True)
        scenario.mediator.answer(JOE)
        rendered = scenario.mediator.engine.render_trace()
        assert "'Joe Chung'" in rendered and "$#" not in rendered

    def test_a_traced_lookup_with_a_new_constant_is_a_hit(self):
        # a traced mediator plans through the same shapes as any other:
        # its trace is described under the call's constants instead
        mediator = build_scenario(trace=True).mediator
        mediator.answer(JOE)
        before = mediator._plans.stats()
        (nick,) = mediator.answer(
            "X :- X:<cs_person {<name 'Nick Naive'>}>@med"
        )
        assert nick.get("name") == "Nick Naive"
        after = mediator._plans.stats()
        assert after["hits"] == before["hits"] + 1
        assert (after["misses"], after["entries"]) == (
            before["misses"], before["entries"]
        )
        rendered = mediator.engine.render_trace()
        assert "'Nick Naive'" in rendered and "'Joe Chung'" not in rendered
        assert "$#" not in rendered


# -- two constants that used to print alike ----------------------------------


class TestTextKeyedCachesTellConstantsApart:
    """``Const('true')`` printed bare, exactly as ``Const(True)`` does,
    and the answer cache and the single-flight table key on the printed
    query: the boolean's rows came back for the string's query."""

    SPEC = "<item {<flag F> <n N>}> :- <rec {<flag F> <n N>}>@s"

    @staticmethod
    def store():
        return OEMStoreWrapper(
            "s",
            [
                obj("rec", atom("flag", True), atom("n", "boolean")),
                obj("rec", atom("flag", "true"), atom("n", "string")),
                obj("rec", atom("flag", "a\\b"), atom("n", "backslash")),
                obj("rec", atom("flag", "ab"), atom("n", "plain")),
            ],
        )

    def names(self, mediator, constant):
        return [
            o.get("n")
            for o in mediator.answer(f"X :- X:<item {{<flag {constant}>}}>@med")
        ]

    def test_answer_cache(self):
        mediator = Mediator(
            "med", self.SPEC, SourceRegistry(self.store()),
            cache=AnswerCache(),
        )
        assert self.names(mediator, "true") == ["boolean"]
        assert self.names(mediator, "'true'") == ["string"]
        assert self.names(mediator, "'a\\\\b'") == ["backslash"]
        assert self.names(mediator, "'ab'") == ["plain"]
        assert mediator.cache.hits == 0

    def test_single_flight_at_parallelism_four(self):
        """Two queries in flight at once that differ only in such a
        constant: the second used to join the first one's flight."""
        inner = self.store()
        entered = threading.Semaphore(0)
        release = threading.Event()

        class Held(Source):
            name = "s"
            capability = inner.capability

            def answer(self, query):
                entered.release()
                release.wait(10)
                return inner.answer(query)

            def export(self):
                return inner.export()

        mediator = Mediator(
            "med", self.SPEC, SourceRegistry(Held()), parallelism=4
        )
        answers: dict[str, list] = {}

        def client(constant):
            answers[constant] = self.names(mediator, constant)

        threads = [
            threading.Thread(target=client, args=(constant,))
            for constant in ("true", "'true'")
        ]
        try:
            for thread in threads:
                thread.start()
                # the fixed code ships both; a shared flight never
                # reaches the source a second time
                entered.acquire(timeout=2)
        finally:
            release.set()
            for thread in threads:
                thread.join()
            mediator.close()
        assert answers == {"true": ["boolean"], "'true'": ["string"]}

    def test_rules_differing_in_such_a_constant_both_survive(self):
        # the expander drops duplicate logical rules by structure, so
        # nothing that merely prints alike can be taken for one
        store = OEMStoreWrapper(
            "s",
            [obj("r", atom("a", 1), atom("k", True)),
             obj("r", atom("a", 2), atom("k", "true"))],
        )
        mediator = Mediator(
            "med",
            "<v {<a A>}> :- <r {<a A> <k true>}>@s ;"
            "<v {<a A>}> :- <r {<a A> <k 'true'>}>@s",
            SourceRegistry(store),
        )
        program = mediator.expander.expand(parse_query("X :- X:<v {}>@med"))
        assert len(program) == 2
        found = mediator.answer("X :- X:<v {}>@med")
        assert sorted(o.get("a") for o in found) == [1, 2]

"""Unit tests for datasets, unparse, and miscellaneous corners."""

import gc

import pytest

from repro.datasets import (
    LABELS,
    build_bibliography,
    build_scaled_scenario,
    build_scenario,
    deep_object,
    normalize_author,
    random_forest,
    record_forest,
    record_stream,
)
from repro.external.registry import default_registry
from repro.mediator import Mediator
from repro.msl import (
    format_rule,
    format_rules,
    format_specification,
    parse_rule,
    parse_specification,
)
from repro.oem import count_objects, depth, walk
from repro.wrappers import SourceRegistry, SQLiteOEMStoreWrapper


class TestGenerators:
    def test_record_forest_size_and_shape(self):
        forest = record_forest(25)
        assert len(forest) == 25
        assert all(o.label == "person" for o in forest)

    def test_record_forest_regular_without_irregularity(self):
        forest = record_forest(10, irregular_fraction=0.0)
        shapes = {tuple(c.label for c in o.children) for o in forest}
        assert len(shapes) == 1

    def test_record_forest_irregular(self):
        forest = record_forest(60, irregular_fraction=1.0, seed=1)
        shapes = {tuple(sorted(c.label for c in o.children)) for o in forest}
        assert len(shapes) > 1
        assert any(
            o.first("extra") is not None for o in forest
        )

    def test_record_forest_deterministic(self):
        from repro.oem import structural_key

        a = record_forest(10, seed=9)
        b = record_forest(10, seed=9)
        assert [structural_key(x) for x in a] == [
            structural_key(y) for y in b
        ]

    def test_deep_object_depth_and_fanout(self):
        o = deep_object(6, fanout=3)
        assert depth(o) == 6
        assert len(o.children) == 3

    def test_deep_object_unique_leaf(self):
        o = deep_object(5, fanout=2, leaf_label="goal")
        found = [n for n in walk([o]) if n.label == "goal"]
        assert len(found) == 1

    def test_random_forest_bounded(self):
        forest = random_forest(20, max_depth=3, seed=2)
        assert len(forest) == 20
        assert all(depth(o) <= 3 for o in forest)
        assert all(o.label in LABELS for o in forest)

    def test_random_forest_deterministic(self):
        from repro.oem import structural_key

        assert [structural_key(x) for x in random_forest(5, seed=4)] == [
            structural_key(y) for y in random_forest(5, seed=4)
        ]


class TestScaledScenario:
    def test_sizes(self):
        scenario = build_scaled_scenario(30, seed=6)
        assert len(scenario.whois) == 30
        in_cs = sum(len(t) for t in scenario.cs.database.tables())
        assert 0 < in_cs <= 30

    def test_names_unique(self):
        scenario = build_scaled_scenario(40, seed=6)
        names = [o.get("name") for o in scenario.whois.export()]
        assert len(names) == len(set(names))

    def test_deterministic(self):
        from repro.oem import structural_key

        a = build_scaled_scenario(15, seed=8)
        b = build_scaled_scenario(15, seed=8)
        assert [structural_key(o) for o in a.whois.export()] == [
            structural_key(o) for o in b.whois.export()
        ]

    def test_view_size_tracks_match_fraction(self):
        high = build_scaled_scenario(40, seed=2, match_fraction=1.0)
        low = build_scaled_scenario(40, seed=2, match_fraction=0.3)
        assert len(high.mediator.export()) > len(low.mediator.export())


class TestNormalizeAuthor:
    def test_first_last(self):
        assert normalize_author("Gio Wiederhold") == [("Wiederhold, Gio",)]

    def test_already_normalised_idempotent(self):
        assert normalize_author("Wiederhold, Gio") == [("Wiederhold, Gio",)]

    def test_single_word_passes_through(self):
        assert normalize_author("Prince") == [("Prince",)]

    def test_garbage_fails(self):
        assert normalize_author("") == []
        assert normalize_author(None) == []
        assert normalize_author(",") == []


class TestBibliographyBuild:
    def test_overlap_zero(self):
        scenario = build_bibliography(papers=10, overlap_fraction=0.0, seed=1)
        dept = {r[0] for r in scenario.deptbib.database.table("paper")}
        web = {o.get("title") for o in scenario.webbib.export()}
        assert not dept & web

    def test_overlap_full(self):
        scenario = build_bibliography(papers=10, overlap_fraction=1.0, seed=1)
        dept = {r[0] for r in scenario.deptbib.database.table("paper")}
        web = {o.get("title") for o in scenario.webbib.export()}
        assert dept == web


class TestUnparse:
    def test_format_rule_layout(self):
        rule = parse_rule("<a X> :- <b X>@s AND <c X>@t AND X > 1")
        text = format_rule(rule)
        lines = text.splitlines()
        assert lines[0].endswith(":-")
        assert lines[1].strip() == "<b X>@s"
        assert lines[2].strip().startswith("AND")
        assert len(lines) == 4

    def test_format_rules_blank_line_separated(self):
        rules = [parse_rule("<a X> :- <b X>@s")] * 2
        assert format_rules(rules).count("\n\n") == 1

    def test_format_specification_includes_externals(self):
        spec = parse_specification(
            "<a X> :- <b X>@s ; EXT f(bound, free) BY to_upper"
        )
        text = format_specification(spec)
        assert "EXT f(bound, free) BY to_upper" in text

    def test_formatted_rule_reparses(self):
        rule = parse_rule(
            "<cs_person {<name N> | R}> :- <p {<name N> | R}>@w AND f(N, U)"
        )
        again = parse_rule(format_rule(rule))
        assert str(again) == str(rule)


class TestScenarioOptions:
    def test_strategy_option_propagates(self):
        scenario = build_scenario(strategy="fetch_all")
        assert scenario.mediator.optimizer.strategy == "fetch_all"

    def test_trace_option_propagates(self):
        scenario = build_scenario(trace=True)
        assert scenario.mediator.engine.trace_enabled


class TestNoCyclicGarbage:
    """Answering a query must leave nothing for the cycle collector.

    A recursive closure (a nested ``def`` that calls itself) or a class
    built per call is a reference cycle; a handful per query made the
    collector run every fourth point lookup, which is where the tail of
    the latency distribution came from.  Refcounting alone has to free
    everything a query allocates.
    """

    @staticmethod
    def _unreachable_after(operation, times=3):
        operation()  # warm caches and lazily-built state first
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                operation()
            return gc.collect()
        finally:
            if was_enabled:
                gc.enable()

    def test_point_lookup_over_sqlite_view(self):
        store = SQLiteOEMStoreWrapper("big")
        store.load_records("rec", record_stream(200))
        mediator = Mediator(
            "med",
            "<item {<key K> <payload P>}> :- <rec {<key K> <payload P>}>@big",
            SourceRegistry(store),
            default_registry(),
        )
        keys = iter(range(100))

        def lookup():
            key = next(keys)
            assert len(mediator.answer(f"X :- X:<item {{<key {key}>}}>@med")) == 1

        try:
            assert self._unreachable_after(lookup) == 0
        finally:
            mediator.close()
            store.close()

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_lookups_on_a_remembered_plan(self, parallelism):
        # the warm path: plan looked up, constants bound, nothing
        # planned or compiled — and still nothing for the collector
        store = SQLiteOEMStoreWrapper("big")
        store.load_records("rec", record_stream(200))
        mediator = Mediator(
            "med",
            "<item {<key K> <payload P>}> :- <rec {<key K> <payload P>}>@big",
            SourceRegistry(store),
            default_registry(),
            parallelism=parallelism,
        )
        keys = iter(range(200))

        def lookup():
            key = next(keys)
            assert len(mediator.answer(f"X :- X:<item {{<key {key}>}}>@med")) == 1

        try:
            for _ in range(5):
                lookup()  # past the cold-start re-plan
            assert self._unreachable_after(lookup, times=50) == 0
            stats = mediator._plans.stats()
            assert stats["hits"] >= 50 and stats["entries"] == 1
        finally:
            mediator.close()
            store.close()

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_ms1_export_with_bind_join(self, parallelism):
        scenario = build_scaled_scenario(20)
        mediator = Mediator(
            "med_again",
            scenario.mediator.specification,
            scenario.mediator.sources,
            scenario.mediator.externals,
            parallelism=parallelism,
        )
        try:
            assert self._unreachable_after(mediator.export) == 0
        finally:
            mediator.close()

    def test_bibliography_fusion_export(self):
        mediator = build_bibliography(20).mediator
        assert self._unreachable_after(mediator.export) == 0

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_watched_runs_leave_nothing_either(self, parallelism):
        # events, spans and analyze records are per-query allocations
        # too: every subscriber on, still nothing for the collector
        scenario = build_scaled_scenario(20)
        mediator = Mediator(
            "med_again",
            scenario.mediator.specification,
            scenario.mediator.sources,
            scenario.mediator.externals,
            parallelism=parallelism,
            telemetry=True,
        )
        query = "X :- X:<cs_person {<name N>}>@med_again"
        try:
            assert self._unreachable_after(mediator.export) == 0
            assert self._unreachable_after(
                lambda: mediator.explain_analyze(query)
            ) == 0
        finally:
            mediator.close()

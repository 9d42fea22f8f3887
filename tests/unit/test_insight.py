"""Unit tests for the plan-observability subsystem (:mod:`repro.obs.insight`).

Covers EXPLAIN ANALYZE (report shape, rendering, per-operator
attribution), q-error tracking into the statistics store
and the telemetry registry, misestimates as the analyze report and the
telemetry counter see them, the observed-cost feedback loop into the
optimizer, and statistics snapshot/restore persistence.
"""

import json
import time

import pytest

from repro.datasets import JOE_CHUNG_QUERY, MS1, build_scenario
from repro.datasets.staff import build_scaled_scenario
from repro.mediator import Mediator, MediatorError, SourceStatistics
from repro.obs import AnalyzeReport, QueryInsight
from repro.obs.insight import MISESTIMATE_FACTOR, q_error
from repro.oem import atom, obj, structural_key
from repro.wrappers import OEMStoreWrapper, SourceRegistry

ALL_QUERY = "ALL :- ALL:<cs_person {}>@med"


def canonical(objects):
    return sorted(repr(structural_key(o)) for o in objects)


def fresh_mediator(scenario, **kwargs):
    return Mediator(
        "med",
        scenario.mediator.specification,
        scenario.registry,
        scenario.externals,
        register=False,
        **kwargs,
    )


# -- q-error ------------------------------------------------------------------


class TestQError:
    def test_symmetric_factor(self):
        assert q_error(10, 10) == 1.0
        assert q_error(2, 8) == 4.0
        assert q_error(8, 2) == 4.0

    def test_zero_rows_are_floored(self):
        assert q_error(0, 0) == 1.0
        assert q_error(1, 0) == 2.0  # act floored at 0.5
        assert q_error(0, 5) == 10.0  # est floored at 0.5


# -- EXPLAIN ANALYZE ----------------------------------------------------------


class TestExplainAnalyze:
    def test_answers_match_plain_query(self):
        expected = canonical(build_scenario().mediator.answer(
            JOE_CHUNG_QUERY
        ))
        report = build_scenario().mediator.explain_analyze(
            JOE_CHUNG_QUERY
        )
        assert canonical(report.objects) == expected
        assert report.seconds > 0.0

    def test_nodes_carry_estimates_and_actuals(self):
        report = build_scenario().mediator.explain_analyze(
            JOE_CHUNG_QUERY
        )
        doc = report.to_dict()
        assert doc["version"] == 3
        assert "reranks" not in doc
        assert doc["result_objects"] == 1
        estimated = [
            n for n in doc["nodes"] if n["estimated_rows"] is not None
        ]
        assert estimated
        # leaf estimates name their statistics bucket
        keyed = [n for n in estimated if n["estimate"] is not None]
        assert any(
            n["estimate"]["source"] == "whois"
            and n["estimate"]["label"] == "person"
            and n["estimate"]["kind"] == "scan"
            for n in keyed
        )
        executed = [n for n in doc["nodes"] if n["calls"]]
        assert executed
        assert all(n["qerror"] is None or n["qerror"] >= 1.0
                   for n in doc["nodes"])

    def test_fused_constituents_attributed_per_stage(self):
        # every operator is a node of the plan production runs, reported
        # under its plan number at its own stage (one past its deepest
        # input's) with its own rows
        report = build_scenario().mediator.explain_analyze(
            JOE_CHUNG_QUERY
        )
        doc = report.to_dict()
        assert doc["version"] == 3
        nodes = doc["nodes"]
        assert [n["key"] for n in nodes] == [
            str(number) for number in range(1, len(nodes) + 1)
        ]
        by_key = {n["key"]: n for n in nodes}
        for node in nodes:
            assert "parent" not in node and "constituents" not in node
            assert node["calls"] == 1
            inputs = [by_key[key] for key in node["inputs"]]
            assert node["stage"] == 1 + max(
                (child["stage"] for child in inputs), default=0
            )
            assert node["rows_in"] == sum(
                child["rows_out"] for child in inputs
            )
        assert {n["stage"] for n in nodes} == set(
            range(1, max(n["stage"] for n in nodes) + 1)
        )

    def test_node_figures_agree_at_parallelism_1_and_4(self):
        # one run_node times every operator where it runs: a pooled
        # leaf reports real wall time (it used to report the resilient
        # layer's latency, 0.0 on a default mediator) and the same rows
        query = "X :- X:<cs_person {<name N>}>@med"
        docs = {}
        for parallelism in (1, 4):
            med = fresh_mediator(
                build_scaled_scenario(400), parallelism=parallelism
            )
            docs[parallelism] = med.explain_analyze(query).to_dict()
            med.close()
        for doc in docs.values():
            leaves = [n for n in doc["nodes"] if n["kind"] == "QueryNode"]
            assert leaves
            for node in doc["nodes"]:
                if node in leaves or node["source_seconds"] > 0.0:
                    assert node["calls"] == 1
                    assert node["seconds"] > 0.0, node["description"]
                    assert node["source_seconds"] > 0.0, node["description"]
        rows = {
            parallelism: {
                n["key"]: (n["rows_in"], n["rows_out"])
                for n in doc["nodes"]
            }
            for parallelism, doc in docs.items()
        }
        assert rows[1] == rows[4]

    def test_source_time_is_measured_without_a_resilient_wrapper(self):
        # a default mediator has no ResilienceManager to time the call:
        # the engine measures it, so the analyze ``source`` column, the
        # trace entry and the run total all see the 5 ms
        class Slow(OEMStoreWrapper):
            def answer(self, query):
                time.sleep(0.005)
                return super().answer(query)

        med = Mediator(
            "m",
            "<a X> :- <rec {<name X>}>@s",
            SourceRegistry(Slow("s", [obj("rec", atom("name", "n"))])),
            trace=True,
        )
        report = med.explain_analyze("X :- X:<a V>@m")
        assert len(report.objects) == 1
        (leaf,) = [
            n for n in report.to_dict()["nodes"] if n["kind"] == "QueryNode"
        ]
        assert leaf["seconds"] >= leaf["source_seconds"] >= 0.005
        context = med.last_context
        assert context.source_latency >= 0.005
        # the plan is two operators: query, constructor
        assert [e.latency >= 0.005 for e in context.trace] == [True, False]
        assert [e.attempts for e in context.trace] == [1, 0]

    def test_render_is_an_annotated_tree(self):
        report = build_scenario().mediator.explain_analyze(
            JOE_CHUNG_QUERY
        )
        text = report.render()
        assert "-- explain analyze:" in text
        assert "est" in text and "actual" in text and "miss" in text
        assert "[1]" in text

    def test_json_round_trips(self):
        report = build_scenario().mediator.explain_analyze(
            JOE_CHUNG_QUERY
        )
        doc = json.loads(report.to_json())
        assert doc == json.loads(json.dumps(report.to_dict()))

    def test_empty_insight_renders_fallback(self):
        report = AnalyzeReport("Q", QueryInsight(), [])
        assert "no physical plan" in report.render()

    def test_qerror_metrics_exported(self):
        med = fresh_mediator(build_scenario(), telemetry=True)
        med.answer(JOE_CHUNG_QUERY)
        text = med.metrics_text()
        assert "repro_estimate_qerror_bucket" in text
        assert 'kind="scan"' in text
        med.close()

    def test_explain_shows_statistics_section(self):
        med = build_scenario().mediator
        med.answer(JOE_CHUNG_QUERY)
        text = med.explain(JOE_CHUNG_QUERY)
        assert "-- statistics --" in text
        assert "q-error" in text


# -- misestimates -------------------------------------------------------------


def misestimate_count(mediator):
    """The ``repro_misestimate_events_total`` samples, summed."""
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in mediator.metrics_text().splitlines()
        if line.startswith("repro_misestimate_events_total{")
    )


class TestMisestimates:
    def test_underestimate_fires_event(self):
        # 60 persons behind an estimate discounted by the constant
        # conditions: actual exceeds the estimate far beyond 4x
        med = fresh_mediator(build_scaled_scenario(60), telemetry=True)
        report = med.explain_analyze(ALL_QUERY)
        doc = report.to_dict()
        assert doc["misestimates"]
        entry = doc["misestimates"][0]
        assert entry["actual_rows"] > (
            entry["estimated_rows"] * MISESTIMATE_FACTOR
        )
        assert set(entry) == {
            "node", "description", "estimated_rows", "actual_rows", "qerror"
        }
        flagged = [n for n in doc["nodes"] if n["misestimates"]]
        assert entry["node"] in {n["key"] for n in flagged}
        assert "misestimates (actual > 4x estimate):" in report.render()
        # the counter flags the same nodes the report lists
        assert misestimate_count(med) == len(doc["misestimates"])
        med.close()

    def test_analyze_off_still_detects(self):
        # the counter is telemetry's, not --explain-analyze's: a plain
        # query counts its misestimates too
        med = fresh_mediator(build_scaled_scenario(60), telemetry=True)
        med.answer(ALL_QUERY)
        assert misestimate_count(med) >= 1
        med.close()


# -- the statistics feedback loop ---------------------------------------------


class TestFeedbackLoop:
    def test_qerror_median_non_increasing_after_warmup(self):
        # acceptance: repeated runs feed observed cardinalities back
        # into the statistics store, so estimates converge and the
        # cumulative median q-error never grows after the first run
        med = build_scaled_scenario(40).mediator
        medians = []
        for _ in range(4):
            med.answer(ALL_QUERY)
            summary = med.statistics.qerror_summary()
            key = next(k for k in summary if k.endswith("/scan"))
            medians.append(summary[key]["median"])
        assert medians[0] > 1.0  # cold estimates start wrong
        for earlier, later in zip(medians[1:], medians[2:]):
            assert later <= earlier

    def test_batched_probes_keep_feeding_cardinalities(self):
        # a semi-join batch answers many probes at once, so the engine's
        # per-call feedback skips it; the shipping node records the mean
        # matches per probe instead, and the optimizer must end up
        # knowing what the per-tuple run would have taught it
        learned = {}
        for semijoin in (True, False):
            scenario = build_scaled_scenario(60)
            med = fresh_mediator(scenario, semijoin=semijoin)
            for _ in range(3):
                med.export()
            learned[semijoin] = med.statistics
        for label in ("employee", "student"):
            assert learned[True].has_observations("cs", label)
            batched = learned[True].base_cardinality("cs", label)
            per_tuple = learned[False].base_cardinality("cs", label)
            # agreement within the factor below which an estimate
            # counts as right
            assert q_error(batched, per_tuple) <= MISESTIMATE_FACTOR
        assert (
            learned[True].qerror_summary() == learned[False].qerror_summary()
        )

    def test_degraded_batches_teach_nothing(self):
        # a dead source's batch is an absence, not an observation
        from repro.reliability import FaultInjectingSource

        scenario = build_scaled_scenario(20)
        scenario.registry.deregister("cs")
        scenario.registry.register(
            FaultInjectingSource(scenario.cs, dead=True)
        )
        med = fresh_mediator(scenario, on_source_failure="degrade")
        result = med.query(ALL_QUERY)
        assert result.warnings and med.last_context.semijoin_batches
        assert not med.statistics.has_observations("cs", "employee")
        assert not med.statistics.has_observations("cs", "student")

    def test_cost_weight_from_latency_and_breaker(self):
        stats = SourceStatistics()
        assert stats.cost_weight("never-seen") == 1.0
        stats.observe_source("slow", latency=0.1)
        stats.observe_source("fast", latency=0.001)
        assert stats.cost_weight("slow") > stats.cost_weight("fast") > 1.0
        stats.observe_source("down", breaker_state="open")
        assert stats.cost_weight("down") == 100.0
        stats.observe_source("probing", breaker_state="half_open")
        assert stats.cost_weight("probing") == 10.0

    def test_observed_latency_deprioritizes_a_source(self):
        # two otherwise-identical sources: the one observed slow must
        # rank later once the feedback loop has run
        stats = SourceStatistics()
        stats.observe_source("whois", latency=0.5, breaker_state="closed")
        assert stats.cost_weight("whois") > 10.0

    def test_health_window_feeds_statistics(self):
        from repro.reliability import ResilienceConfig, RetryPolicy

        scenario = build_scenario()
        med = fresh_mediator(
            scenario,
            resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=2)),
        )
        for _ in range(4):  # p50 needs min_samples=3 in the window
            med.answer(JOE_CHUNG_QUERY)
        snapshot = med.statistics.snapshot_dict()
        observed = {row["source"] for row in snapshot["source_costs"]}
        assert "whois" in observed and "cs" in observed
        assert med.statistics.cost_weight("whois") >= 1.0


class TestStatisticsPersistence:
    def build(self):
        stats = SourceStatistics()
        stats.record_label("whois", "person", 42)
        stats.observe_source("whois", latency=0.02, breaker_state="closed")
        stats.record_qerror("whois", "person", "scan", 3.0)
        return stats

    def test_snapshot_round_trips_through_json(self):
        stats = self.build()
        snapshot = json.loads(json.dumps(stats.snapshot_dict()))
        assert snapshot["version"] == 1
        fresh = SourceStatistics()
        fresh.restore_dict(snapshot)
        assert fresh.has_observations("whois", "person")
        assert fresh.cost_weight("whois") == pytest.approx(
            stats.cost_weight("whois")
        )

    def test_mediator_snapshot_restore(self):
        scenario = build_scenario()
        warm = scenario.mediator
        warm.answer(JOE_CHUNG_QUERY)
        snapshot = warm.statistics_snapshot()
        assert snapshot["labels"]
        cold = fresh_mediator(scenario)
        assert not cold.statistics.has_observations("whois", "person")
        cold.restore_statistics(snapshot)
        assert cold.statistics.has_observations("whois", "person")

    def test_restore_rejects_bad_snapshots(self):
        med = build_scenario().mediator
        with pytest.raises(MediatorError):
            med.restore_statistics({"version": 99})
        with pytest.raises(MediatorError):
            med.restore_statistics("not-a-snapshot")
        with pytest.raises(MediatorError):
            med.restore_statistics({"version": 1, "labels": [{}]})

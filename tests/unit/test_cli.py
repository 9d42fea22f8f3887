"""Unit tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main

SPEC = """
<cs_person {<name N> <rel R> | Rest1}> :-
    <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois ;
"""

WHOIS = """
<&p1, person, set, {&n1,&d1,&rel1}>
  <&n1, name, string, 'Joe Chung'>
  <&d1, dept, string, 'CS'>
  <&rel1, relation, string, 'employee'>
;
"""


@pytest.fixture
def files(tmp_path):
    spec = tmp_path / "med.msl"
    spec.write_text(SPEC)
    whois = tmp_path / "whois.oem"
    whois.write_text(WHOIS)
    return spec, whois


def run(argv, stdin_text=""):
    stdout, stderr = io.StringIO(), io.StringIO()
    status = main(
        argv, stdout=stdout, stderr=stderr, stdin=io.StringIO(stdin_text)
    )
    return status, stdout.getvalue(), stderr.getvalue()


class TestCLI:
    def test_query_flag(self, files):
        spec, whois = files
        status, out, err = run(
            [
                "--spec", str(spec),
                "--source", f"whois={whois}",
                "--query", "X :- X:<cs_person {<name 'Joe Chung'>}>@med",
                "--format", "inline",
            ]
        )
        assert status == 0, err
        assert "'Joe Chung'" in out
        assert "cs_person" in out

    def test_export_flag(self, files):
        spec, whois = files
        status, out, _ = run(
            ["--spec", str(spec), "--source", f"whois={whois}", "--export"]
        )
        assert status == 0
        assert out.count("cs_person") == 1

    def test_python_format(self, files):
        spec, whois = files
        status, out, _ = run(
            [
                "--spec", str(spec),
                "--source", f"whois={whois}",
                "--export",
                "--format", "python",
            ]
        )
        assert status == 0
        assert "{'name': 'Joe Chung', 'rel': 'employee'}" in out

    def test_explain_flag(self, files):
        spec, whois = files
        status, out, _ = run(
            [
                "--spec", str(spec),
                "--source", f"whois={whois}",
                "--query", "X :- X:<cs_person {<name N>}>@med",
                "--explain",
            ]
        )
        assert status == 0
        assert "logical datamerge program" in out
        assert "physical datamerge graph" in out

    def test_stdin_queries(self, files):
        spec, whois = files
        status, out, _ = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--format", "inline"],
            stdin_text="X :- X:<cs_person {<rel 'employee'>}>@med\n\n",
        )
        assert status == 0
        assert "cs_person" in out

    def test_facts_suffix(self, files, tmp_path):
        spec, whois = files
        status, out, _ = run(
            [
                "--spec", str(spec),
                "--source", f"whois={whois}:facts",
                "--export",
            ]
        )
        assert status == 0

    def test_missing_spec_file(self, files, tmp_path):
        _, whois = files
        status, _, err = run(
            ["--spec", str(tmp_path / "ghost.msl"), "--source", f"w={whois}"]
        )
        assert status == 2
        assert "cannot read" in err

    def test_bad_source_syntax(self, files):
        spec, _ = files
        status, _, err = run(["--spec", str(spec), "--source", "nonsense"])
        assert status == 2
        assert "NAME=FILE" in err

    def test_missing_source_file(self, files, tmp_path):
        spec, _ = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"w={tmp_path / 'no.oem'}"]
        )
        assert status == 2

    def test_unparseable_source_file(self, files, tmp_path):
        spec, _ = files
        bad = tmp_path / "bad.oem"
        bad.write_text("<<<not oem>>>")
        status, _, err = run(
            ["--spec", str(spec), "--source", f"w={bad}"]
        )
        assert status == 2
        assert "cannot parse" in err

    def test_bad_specification(self, files, tmp_path):
        _, whois = files
        bad = tmp_path / "bad.msl"
        bad.write_text("<a X> :- <b Y>@whois")  # unsafe head variable
        status, _, err = run(
            ["--spec", str(bad), "--source", f"whois={whois}"]
        )
        assert status == 2
        assert "bad specification" in err

    def test_bad_query_reports_and_continues(self, files):
        spec, whois = files
        status, out, err = run(
            [
                "--spec", str(spec),
                "--source", f"whois={whois}",
                "--query", "garbage :-",
                "--query", "X :- X:<cs_person {<name N>}>@med",
                "--format", "inline",
            ]
        )
        assert status == 1  # one query failed
        assert "error" in err
        assert "cs_person" in out  # the good query still ran


class TestResilienceFlags:
    def test_flags_on_healthy_sources_change_nothing(self, files):
        spec, whois = files
        argv = [
            "--spec", str(spec),
            "--source", f"whois={whois}",
            "--query", "X :- X:<cs_person {<name 'Joe Chung'>}>@med",
            "--format", "inline",
        ]
        plain = run(argv)
        defended = run(
            argv + ["--retries", "2", "--source-timeout", "5", "--degrade"]
        )
        assert plain[0] == defended[0] == 0
        assert plain[1] == defended[1]
        assert defended[2] == ""  # healthy sources: no warnings

    def test_negative_retries_rejected(self, files):
        spec, whois = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", "X :- X:<cs_person {<name N>}>@med",
             "--retries", "-1"]
        )
        assert status == 2
        assert "--retries" in err

    def test_non_positive_timeout_rejected(self, files):
        spec, whois = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", "X :- X:<cs_person {<name N>}>@med",
             "--source-timeout", "0"]
        )
        assert status == 2
        assert "--source-timeout" in err

    def test_explain_shows_resilience_section(self, files):
        spec, whois = files
        status, out, _ = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", "X :- X:<cs_person {<name N>}>@med",
             "--explain", "--retries", "1", "--degrade"]
        )
        assert status == 0
        assert "-- resilience --" in out
        assert "on_source_failure=degrade" in out

    def test_unparsable_query_reports_position(self, files):
        spec, whois = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", "X :- X:<cs_person {< }>@med"]
        )
        assert status == 1
        assert "invalid MSL query" in err
        assert "line 1" in err


class TestGovernorFlags:
    QUERY = "X :- X:<cs_person {<name N>}>@med"

    def test_budget_flags_on_small_query_change_nothing(self, files):
        spec, whois = files
        argv = [
            "--spec", str(spec),
            "--source", f"whois={whois}",
            "--query", self.QUERY,
            "--format", "inline",
        ]
        plain = run(argv)
        governed = run(
            argv
            + ["--deadline", "60", "--max-rows", "1000",
               "--max-total-rows", "10000", "--max-result-objects", "100"]
        )
        assert plain[0] == governed[0] == 0
        assert plain[1] == governed[1]
        assert governed[2] == ""  # within budget: no warnings

    def test_strict_budget_exceeded_fails_query(self, files):
        spec, whois = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--max-total-rows", "1"]
        )
        assert status == 1
        assert "budget" in err
        assert "max_total_rows" in err

    def test_truncate_mode_finishes_with_warnings(self, files):
        spec, whois = files
        status, out, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--max-total-rows", "1",
             "--budget-mode", "truncate", "--format", "inline"]
        )
        assert status == 0
        assert "warning:" in err
        assert "max_total_rows" in err

    def test_max_result_objects_truncates_answer(self, files):
        spec, whois = files
        status, out, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--max-result-objects", "1",
             "--budget-mode", "truncate", "--format", "inline"]
        )
        assert status == 0
        assert out.count("cs_person") <= 1

    def test_non_positive_budget_values_rejected(self, files):
        spec, whois = files
        for flag in ("--max-rows", "--max-total-rows",
                     "--max-result-objects"):
            status, _, err = run(
                ["--spec", str(spec), "--source", f"whois={whois}",
                 "--query", self.QUERY, flag, "0"]
            )
            assert status == 2
            assert flag in err
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--deadline", "-1"]
        )
        assert status == 2
        assert "--deadline" in err

    def test_explain_shows_governor_section(self, files):
        spec, whois = files
        status, out, _ = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--explain",
             "--max-total-rows", "50", "--budget-mode", "truncate"]
        )
        assert status == 0
        assert "-- governor --" in out
        assert "max_total_rows=50" in out
        assert "mode: truncate" in out

    def test_quarantine_flag_accepted(self, files):
        spec, whois = files
        status, out, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--quarantine-malformed",
             "--format", "inline"]
        )
        assert status == 0
        assert "cs_person" in out  # well-formed file: nothing quarantined
        assert err == ""


class TestObservabilityFlags:
    QUERY = "X :- X:<cs_person {<name N>}>@med"

    def test_trace_out_writes_parseable_span_tree(self, files, tmp_path):
        spec, whois = files
        trace = tmp_path / "trace.jsonl"
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--trace-out", str(trace)]
        )
        assert status == 0, err
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line
        ]
        assert records, "trace file is empty"
        assert all(r["record"] == "span" for r in records)
        kinds = {r["kind"] for r in records}
        assert "query" in kinds
        assert "source-call" in kinds
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 1
        assert roots[0]["status"] == "ok"
        ids = {r["span_id"] for r in records}
        assert all(
            r["parent_id"] in ids
            for r in records
            if r["parent_id"] is not None
        )

    def test_metrics_out_writes_prometheus_text(self, files, tmp_path):
        spec, whois = files
        metrics = tmp_path / "metrics.prom"
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--metrics-out", str(metrics)]
        )
        assert status == 0, err
        text = metrics.read_text()
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{status="ok"} 1' in text
        assert 'repro_source_calls_total{source="whois"}' in text

    def test_sample_rate_zero_keeps_no_spans(self, files, tmp_path):
        spec, whois = files
        trace = tmp_path / "trace.jsonl"
        status, _, _ = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--trace-out", str(trace),
             "--trace-sample-rate", "0"]
        )
        assert status == 0
        assert trace.read_text() == ""

    def test_slow_query_log_reports_on_stderr(self, files, tmp_path):
        spec, whois = files
        trace = tmp_path / "trace.jsonl"
        # threshold 0ms: every query is "slow", even unsampled ones
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--trace-out", str(trace),
             "--trace-sample-rate", "0", "--slow-query-ms", "0"]
        )
        assert status == 0
        assert "slow query" in err
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line
        ]
        assert len(records) == 1  # the slow root survived sampling
        assert records[0]["kind"] == "query"
        assert records[0]["attributes"]["slow"] is True

    def test_bad_sample_rate_rejected(self, files):
        spec, whois = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--trace-sample-rate", "1.5"]
        )
        assert status == 2
        assert "--trace-sample-rate" in err

    def test_negative_slow_query_ms_rejected(self, files):
        spec, whois = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--slow-query-ms", "-1"]
        )
        assert status == 2
        assert "--slow-query-ms" in err

    def test_no_obs_flags_leaves_telemetry_disabled(self, files):
        spec, whois = files
        status, out, _ = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--explain"]
        )
        assert status == 0
        assert "telemetry: disabled" in out


class TestServingFlags:
    QUERY = "X :- X:<cs_person {<name N>}>@med"

    def test_admission_flags_on_light_load_change_nothing(self, files):
        spec, whois = files
        argv = [
            "--spec", str(spec),
            "--source", f"whois={whois}",
            "--query", self.QUERY,
            "--format", "inline",
        ]
        plain = run(argv)
        gated = run(
            argv + ["--max-concurrent", "2", "--queue-depth", "4",
                    "--tenant", "cli", "--priority", "3"]
        )
        assert plain[0] == gated[0] == 0
        assert plain[1] == gated[1]
        assert gated[2] == ""  # nothing shed: no errors

    def test_explain_shows_serving_section(self, files):
        spec, whois = files
        status, out, _ = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--explain", "--max-concurrent", "2"]
        )
        assert status == 0
        assert "-- serving --" in out
        assert "admission:" in out

    def test_non_positive_max_concurrent_rejected(self, files):
        spec, whois = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--max-concurrent", "0"]
        )
        assert status == 2
        assert "--max-concurrent" in err

    def test_queue_depth_requires_max_concurrent(self, files):
        spec, whois = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--queue-depth", "4"]
        )
        assert status == 2
        assert "--queue-depth" in err
        assert "--max-concurrent" in err

    def test_negative_queue_depth_rejected(self, files):
        spec, whois = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--max-concurrent", "2",
             "--queue-depth", "-1"]
        )
        assert status == 2
        assert "--queue-depth" in err

    def test_blank_tenant_rejected(self, files):
        spec, whois = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--tenant", "  "]
        )
        assert status == 2
        assert "--tenant" in err

    def test_metrics_include_admission_series_when_gated(
        self, files, tmp_path
    ):
        spec, whois = files
        metrics = tmp_path / "metrics.prom"
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--max-concurrent", "2",
             "--metrics-out", str(metrics)]
        )
        assert status == 0, err
        text = metrics.read_text()
        assert "repro_admission_submitted_total 1" in text
        assert "repro_admission_concurrency_limit" in text


class TestExplainAnalyzeFlags:
    QUERY = "X :- X:<cs_person {<name 'Joe Chung'>}>@med"

    def test_explain_analyze_prints_answer_and_tree(self, files):
        spec, whois = files
        status, out, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--explain-analyze"]
        )
        assert status == 0, err
        assert "Joe Chung" in out  # the answer still comes first
        assert "-- explain analyze:" in out
        assert "est" in out and "actual" in out

    def test_analyze_out_writes_json_lines(self, files, tmp_path):
        spec, whois = files
        report = tmp_path / "analyze.jsonl"
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--query", self.QUERY,
             "--explain-analyze", "--analyze-out", str(report)]
        )
        assert status == 0, err
        lines = report.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            doc = json.loads(line)
            assert doc["version"] == 3
            assert doc["result_objects"] == 1
            assert doc["nodes"]

    def test_analyze_out_requires_explain_analyze(self, files, tmp_path):
        spec, whois = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY,
             "--analyze-out", str(tmp_path / "a.jsonl")]
        )
        assert status == 2
        assert "--analyze-out" in err

    def test_explain_conflicts_with_analyze(self, files):
        spec, whois = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--explain", "--explain-analyze"]
        )
        assert status == 2
        assert "--explain-analyze" in err


class TestStatisticsFlags:
    QUERY = "X :- X:<cs_person {<name 'Joe Chung'>}>@med"

    def test_stats_round_trip(self, files, tmp_path):
        spec, whois = files
        stats = tmp_path / "stats.json"
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--stats-out", str(stats)]
        )
        assert status == 0, err
        snapshot = json.loads(stats.read_text())
        assert snapshot["version"] == 1
        assert any(
            row["source"] == "whois" for row in snapshot["labels"]
        )
        status, out, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--stats-in", str(stats)]
        )
        assert status == 0, err
        assert "Joe Chung" in out

    def test_stats_in_missing_file_rejected(self, files, tmp_path):
        spec, whois = files
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY,
             "--stats-in", str(tmp_path / "missing.json")]
        )
        assert status == 2
        assert "cannot read" in err

    def test_stats_in_invalid_snapshot_rejected(self, files, tmp_path):
        spec, whois = files
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99}')
        status, _, err = run(
            ["--spec", str(spec), "--source", f"whois={whois}",
             "--query", self.QUERY, "--stats-in", str(bad)]
        )
        assert status == 2
        assert "snapshot" in err


class TestPublicSurface:
    def test_knobs_are_spelled_out(self):
        # every constructor keyword (22) and CLI option (38), as
        # literals: a new knob, or a removed one, is a reviewed diff of
        # this test, not a number someone re-counts by hand
        import inspect

        from repro.cli import build_parser
        from repro.mediator import Mediator

        parameters = list(inspect.signature(Mediator).parameters)
        assert parameters == [
            "name", "specification", "sources", "externals",
            "push_mode", "strategy", "trace", "register",
            "on_source_failure", "resilience",
            "clock", "budget", "budget_mode", "on_malformed_answer",
            "cancellation", "parallelism", "cache", "telemetry",
            "hedge", "admission",
            "bulkheads", "semijoin",
        ]
        options = sorted(
            option
            for action in build_parser()._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
        assert options == [
            "--adaptive-timeouts", "--analyze-out", "--budget-mode",
            "--cache", "--cache-ttl", "--deadline", "--degrade",
            "--explain", "--explain-analyze", "--export", "--format",
            "--hedge", "--hedge-delay", "--max-concurrent",
            "--max-result-objects", "--max-rows", "--max-total-rows",
            "--mediator", "--metrics-out",
            "--no-semijoin", "--parallelism", "--priority",
            "--push-mode", "--quarantine-malformed", "--query",
            "--queue-depth", "--retries", "--shard", "--slow-query-ms",
            "--source", "--source-timeout", "--spec", "--stats-in",
            "--stats-out", "--strategy", "--tenant", "--trace-out",
            "--trace-sample-rate",
        ]

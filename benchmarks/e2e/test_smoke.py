"""Smoke test for the e2e suite: ``run.py --quick`` end to end.

Not collected by tier-1 (``testpaths = ["tests"]``); run it with
``python -m pytest benchmarks/e2e/test_smoke.py``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_quick_suite_reports_every_metric_and_accounts_for_its_time():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads((HERE / "out" / "report.json").read_text())
    assert {"git_sha", "python", "nproc", "seed", "generated_at"} <= set(
        report["_meta"]
    )
    runs = {(run["workload"], run["trace"]): run for run in report["runs"]}
    workloads = [entry["name"] for entry in SPEC["workloads"]]
    assert set(runs) == {(w, t) for w in workloads for t in (0, 1)}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {"failed_ratio"}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert all(NAME.fullmatch(name) for name in [*workloads, *end_to_end, *per_layer])
    for workload in workloads:
        untraced, traced = runs[workload, 0], runs[workload, 1]
        assert end_to_end <= set(untraced["metrics"]), workload
        assert untraced["metrics"]["failed_ratio"] == 0, workload
        assert untraced["samples"]["latency_ms"]["n"] == untraced["attempted"]
        assert per_layer <= set(traced["metrics"]), workload
        assert traced["failed"] == 0, workload
        # what the report attributes to layers, plus the residual, is
        # the traced wall time: nothing counted twice, nothing dropped
        accounting = traced["accounting"]
        attributed = sum(accounting["layers_s"].values())
        wall = accounting["wall_s"]
        assert abs(attributed + accounting["residual_s"] - wall) <= 0.01 * wall
    spans = (HERE / "out" / "spans.jsonl").read_text().splitlines()
    assert spans and {"name", "start", "end", "parent", "op"} <= set(
        json.loads(spans[0])
    )

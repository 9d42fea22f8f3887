"""Experiment A1 — the telemetry→optimizer feedback loop pays for itself.

Two promises the adaptive-statistics subsystem must keep
(docs/observability.md):

* **adaptivity** — on a skewed two-source join (a 400-object source
  behind a slow per-call wire vs a 4-object one), cold statistics
  order the join as written and ship one probe per huge-side row;
  after one observed run, the persisted statistics snapshot
  (``--stats-out`` → ``--stats-in``) flips the join order and the warm
  mediator answers at least 1.2x faster.  Answers are asserted equal
  *before* anything is timed;
* **cost** — the always-on q-error recording (each executed node's
  estimate against its actual rows, fed to the statistics database)
  must stay within noise when nothing is analyzing: the median paired
  ratio of the default engine against the same engine with
  ``ExecutionContext.observe_node`` stubbed out must be <= 1.02,
  measured with :mod:`bench_obs`'s palindrome-cycle method.

Everything is deterministic: fixed datasets, no faults, no cache; the
skew comes from call *counts* (400 probes vs 4) across a uniform
per-call sleep, so the 1.2x floor is structural, not load-dependent.
"""

import gc
import time

from repro.datasets import build_scaled_scenario
from repro.external.registry import default_registry
from repro.mediator import Mediator
from repro.mediator.engine import ExecutionContext
from repro.oem import structural_key
from repro.oem.builders import atom, obj
from repro.wrappers import OEMStoreWrapper, SourceRegistry

HUGE_ROWS = 400
TINY_ROWS = 4
CALL_SLEEP = 0.0002
SPEC = (
    "<pair {<k K> <b B> <t T>}> :-"
    " <big {<k K> <payload B>}>@huge"
    " AND <small {<k K> <note T>}>@tiny ;"
)
QUERY = "P :- P:<pair {}>@med"

OVERHEAD_PEOPLE = 50
OVERHEAD_SEGMENTS = 4
OVERHEAD_CYCLES = 10
OVERHEAD_WARMUP = 8
FANOUT_QUERY = "S :- S:<cs_person {<rel 'student'>}>@med"
JSON_FILE = "BENCH_adaptive.json"


def canonical(objects):
    return sorted(repr(structural_key(o)) for o in objects)


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


class SlowWire(OEMStoreWrapper):
    """An OEM store whose every answer pays a fixed wire delay.

    The delay models per-call latency; it is identical for both
    sources, so the only thing that separates the two join orders is
    how many calls each one ships.
    """

    def answer(self, query):
        time.sleep(CALL_SLEEP)
        return super().answer(query)


def _skewed_registry():
    registry = SourceRegistry()
    registry.register(
        SlowWire(
            "huge",
            [
                obj("big", atom("k", i), atom("payload", f"p{i}"))
                for i in range(HUGE_ROWS)
            ],
        )
    )
    registry.register(
        SlowWire(
            "tiny",
            [
                obj("small", atom("k", i), atom("note", f"n{i}"))
                for i in range(TINY_ROWS)
            ],
        )
    )
    return registry


def _skewed_mediator(registry):
    return Mediator(
        "med",
        SPEC,
        registry,
        default_registry(),
        strategy="statistics",
        register=False,
    )


def _first_scan_source(mediator):
    """The source of the first leaf the plan scans (join-order probe)."""
    report = mediator.explain_analyze(QUERY)
    for node in report.to_dict()["nodes"]:
        if node["estimate"] is not None:
            return node["estimate"]["source"], report
    raise AssertionError("no estimated leaf in the analyze report")


def test_warm_statistics_flip_join_order(artifact_sink, bench_json_sink):
    """Cold vs statistics-warmed join order on the skewed scenario."""
    registry = _skewed_registry()

    # -- correctness first: both orders must mean the same query
    cold_probe = _skewed_mediator(registry)
    cold_source, cold_report = _first_scan_source(cold_probe)
    snapshot = cold_probe.statistics_snapshot()  # warmed by the run

    warm_probe = _skewed_mediator(registry)
    warm_probe.restore_statistics(snapshot)
    warm_source, warm_report = _first_scan_source(warm_probe)

    assert canonical(cold_report.objects) == canonical(warm_report.objects)
    assert len(cold_report.objects) == TINY_ROWS
    assert cold_source == "huge", (
        f"cold statistics should keep the written order, got {cold_source}"
    )
    assert warm_source == "tiny", (
        f"warm statistics should flip the join order, got {warm_source}"
    )

    # -- then timing: fresh mediators, paired cold/warm cycles.  The
    # cold mediator's statistics are cleared after every answer (it
    # would warm itself up from its own feedback otherwise); the warm
    # one re-restores the snapshot so both stay in their steady state.
    cold = _skewed_mediator(registry)
    warm = _skewed_mediator(registry)
    warm.restore_statistics(snapshot)
    ratios = []
    cold_ms = warm_ms = None
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            timed = {"cold": 0.0, "warm": 0.0}
            for key in ("cold", "warm", "warm", "cold"):
                mediator = cold if key == "cold" else warm
                start = time.perf_counter()
                mediator.answer(QUERY)
                timed[key] += time.perf_counter() - start
                if key == "cold":
                    cold.statistics.clear()
            gc.collect()
            ratios.append(timed["cold"] / timed["warm"])
            cold_ms = timed["cold"] / 2.0 * 1e3
            warm_ms = timed["warm"] / 2.0 * 1e3
    finally:
        gc.enable()
    speedup = _median(ratios)

    artifact_sink(
        "adaptive statistics flip a skewed join (cold vs warm)",
        f"huge={HUGE_ROWS} rows, tiny={TINY_ROWS} rows,"
        f" wire delay {CALL_SLEEP * 1e3:.1f}ms/call\n"
        f"cold order : {cold_source} first"
        f" -> {HUGE_ROWS} bind-join probes, {cold_ms:8.2f} ms/answer\n"
        f"warm order : {warm_source} first"
        f" -> {TINY_ROWS} bind-join probes, {warm_ms:8.2f} ms/answer\n"
        f"median paired speedup: x{speedup:.2f} (target >= 1.2)",
    )
    bench_json_sink(
        JSON_FILE,
        "join_order",
        {
            "huge_rows": HUGE_ROWS,
            "tiny_rows": TINY_ROWS,
            "call_sleep_ms": CALL_SLEEP * 1e3,
            "query": QUERY,
            "cold_first_source": cold_source,
            "warm_first_source": warm_source,
            "cold_ms": round(cold_ms, 3),
            "warm_ms": round(warm_ms, 3),
            "median_paired_speedup": round(speedup, 3),
        },
    )

    assert speedup >= 1.2, (
        f"warm statistics speedup x{speedup:.2f}, expected >= 1.2"
    )


def _overhead_segment(scenario):
    """Palindrome-paired ratios: default engine vs stubbed hooks.

    ``bare`` runs with ``ExecutionContext.observe_node`` replaced by a
    no-op for the duration of its timed slice — the engine minus this
    PR's observation work; ``off`` is the shipped default (hooks live,
    no analyze attached); ``analyze`` runs ``explain_analyze``.
    """

    def build(**kwargs):
        return Mediator(
            "med",
            scenario.mediator.specification,
            scenario.registry,
            scenario.externals,
            push_mode="needed",
            register=False,
            **kwargs,
        )

    configs = {"bare": build(), "off": build(), "analyze": build()}
    for mediator in configs.values():
        for _ in range(OVERHEAD_WARMUP):
            mediator.answer(FANOUT_QUERY)

    original = ExecutionContext.observe_node
    stub = lambda self, node, rows_out: None
    order = ["bare", "off", "analyze", "analyze", "off", "bare"]
    ratios = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(OVERHEAD_CYCLES):
            timed = dict.fromkeys(configs, 0.0)
            for key in order:
                mediator = configs[key]
                if key == "bare":
                    ExecutionContext.observe_node = stub
                try:
                    start = time.perf_counter()
                    if key == "analyze":
                        mediator.explain_analyze(FANOUT_QUERY)
                    else:
                        mediator.answer(FANOUT_QUERY)
                    timed[key] += time.perf_counter() - start
                finally:
                    ExecutionContext.observe_node = original
            gc.collect()
            ratios.append(
                (
                    timed["off"] / timed["bare"],
                    timed["analyze"] / timed["bare"],
                    timed["bare"] / 2.0,
                )
            )
    finally:
        gc.enable()
        ExecutionContext.observe_node = original
    return ratios


def test_analyze_off_overhead_within_noise(
    artifact_sink, bench_json_sink, benchmark
):
    """The always-on hooks cost <= 2% when nothing is analyzing."""
    scenario = build_scaled_scenario(
        OVERHEAD_PEOPLE, seed=1996, push_mode="needed"
    )
    samples = []
    for _ in range(OVERHEAD_SEGMENTS):
        samples.extend(_overhead_segment(scenario))
    off_ratio = _median([s[0] for s in samples])
    analyze_ratio = _median([s[1] for s in samples])
    bare_ms = min(s[2] for s in samples) * 1e3

    artifact_sink(
        "plan-observability overhead (scaled scenario)",
        f"people={OVERHEAD_PEOPLE} segments={OVERHEAD_SEGMENTS}"
        f" cycles={OVERHEAD_CYCLES}\n"
        f"hooks stubbed     : {bare_ms:8.3f} ms/answer (baseline)\n"
        f"analyze off       : x{off_ratio:.3f}  (target <= 1.02)\n"
        f"explain analyze   : x{analyze_ratio:.3f}  (informational)",
    )
    bench_json_sink(
        JSON_FILE,
        "overhead",
        {
            "people": OVERHEAD_PEOPLE,
            "segments": OVERHEAD_SEGMENTS,
            "cycles": OVERHEAD_CYCLES,
            "query": FANOUT_QUERY,
            "baseline_ms": round(bare_ms, 4),
            "off_median_paired_ratio": round(off_ratio, 4),
            "analyze_median_paired_ratio": round(analyze_ratio, 4),
        },
    )

    result = benchmark(
        Mediator(
            "med",
            scenario.mediator.specification,
            scenario.registry,
            scenario.externals,
            push_mode="needed",
            register=False,
        ).answer,
        FANOUT_QUERY,
    )
    assert result
    assert off_ratio <= 1.02, (
        f"analyze-off hook overhead x{off_ratio:.3f}, expected within noise"
    )

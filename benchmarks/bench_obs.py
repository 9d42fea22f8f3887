"""Experiment O1 — cost and fidelity of the telemetry subsystem.

Two promises the observability layer must keep before it can sit in
every mediator (docs/observability.md):

* **cost** — telemetry off (the default) must leave the query path
  untouched: neither the tracer nor the metrics subscribe to the run,
  so the events only they would read build no payload.  Even
  telemetry *on* with ``trace_sample_rate=0.0`` — the tracer is not
  subscribed under an unsampled root, the metrics are — must stay
  within noise of the bare engine (median paired ratio
  <= 1.02), and full tracing at ``sample_rate=1.0`` must cost at most
  15% on the scaling scenario;
* **fidelity** — a traced ``parallelism=8`` federated query must
  export (via JSONL) a single-rooted span tree whose ``source-call``
  spans match the ``SourceRegistry`` call counters *exactly*: a span
  is emitted when and only when a query actually ships.

Everything is deterministic: seeded scaled scenario, no faults, no
cache, unique per-person parameterized queries (so single-flight never
merges calls).
"""

import gc
import json
import time

from repro.datasets import build_scaled_scenario
from repro.mediator import Mediator
from repro.obs import JsonLinesExporter, Telemetry

PEOPLE = 50
SEGMENTS = 5
CYCLES = 10
WARMUP = 8
FANOUT_PEOPLE = 24
FANOUT_QUERY = "S :- S:<cs_person {<rel 'student'>}>@med"
JSON_FILE = "BENCH_obs.json"


def _mediator(scenario, **telemetry_kwargs):
    return Mediator(
        "med",
        scenario.mediator.specification,
        scenario.registry,
        scenario.externals,
        push_mode="needed",
        register=False,
        **telemetry_kwargs,
    )


def _overhead_segment(scenario, query, cycles=CYCLES, warmup=WARMUP):
    """Per-cycle paired ratios from one set of fresh mediators.

    Each cycle times the three configurations in palindrome order
    (``bare noop traced traced noop bare``), so linear drift within the
    ~50ms cycle cancels exactly and a load spike lands on all three
    alike.  A fresh mediator trio per segment keeps one instance's
    allocation-layout luck from biasing a whole run.
    """
    configs = {
        "bare": _mediator(scenario),
        "noop": _mediator(
            scenario, telemetry=Telemetry(trace_sample_rate=0.0)
        ),
        "traced": _mediator(
            scenario, telemetry=Telemetry(trace_sample_rate=1.0)
        ),
    }
    for mediator in configs.values():
        for _ in range(warmup):
            mediator.answer(query)
    tracer = configs["traced"].telemetry.tracer
    tracer.clear()
    order = ["bare", "noop", "traced", "traced", "noop", "bare"]
    ratios = []
    # collector pauses land on whole cycles otherwise (the suite runs
    # this module with a large heap from earlier benchmarks); collect
    # between cycles instead, outside the timed region
    gc.collect()
    gc.disable()
    try:
        for _ in range(cycles):
            timed = dict.fromkeys(configs, 0.0)
            for key in order:
                start = time.perf_counter()
                configs[key].answer(query)
                timed[key] += time.perf_counter() - start
            tracer.clear()
            gc.collect()
            ratios.append(
                (
                    timed["noop"] / timed["bare"],
                    timed["traced"] / timed["bare"],
                    timed["bare"] / 2.0,
                )
            )
    finally:
        gc.enable()
    return ratios


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def test_overhead_disabled_and_traced(
    artifact_sink, bench_json_sink, benchmark
):
    """Telemetry off / sampled-out / fully traced vs the bare engine.

    The workload is the federated fan-out query: per-person
    parameterized source calls doing real matching work, the shape
    telemetry is meant to observe.  Every measurement cycle times all
    three configurations back to back in palindrome order, the run is
    split across several fresh mediator trios, and the reported figure
    is the median of the pooled per-cycle paired ratios — a load
    spike, drift, or one instance's allocation-layout luck corrupts a
    few ratios; the median discards them.
    """
    scenario = build_scaled_scenario(PEOPLE, seed=1996, push_mode="needed")
    query = FANOUT_QUERY

    samples = []
    for _ in range(SEGMENTS):
        samples.extend(_overhead_segment(scenario, query))
    noop_ratio = _median([s[0] for s in samples])
    traced_ratio = _median([s[1] for s in samples])
    bare_ms = min(s[2] for s in samples) * 1e3
    noop_ms = bare_ms * noop_ratio
    traced_ms = bare_ms * traced_ratio

    artifact_sink(
        "telemetry overhead (scaled scenario)",
        f"people={PEOPLE} segments={SEGMENTS} cycles={CYCLES}\n"
        f"telemetry off     : {bare_ms:8.3f} ms/answer (baseline)\n"
        f"sample_rate=0.0   : {noop_ms:8.3f} ms/answer"
        f"  x{noop_ratio:.3f}  (target <= 1.02)\n"
        f"sample_rate=1.0   : {traced_ms:8.3f} ms/answer"
        f"  x{traced_ratio:.3f}  (target <= 1.15)",
    )
    bench_json_sink(
        JSON_FILE,
        "overhead",
        {
            "people": PEOPLE,
            "segments": SEGMENTS,
            "cycles": CYCLES,
            "query": query,
            "baseline_ms": round(bare_ms, 4),
            "sampled_out_ms": round(noop_ms, 4),
            "traced_ms": round(traced_ms, 4),
            "noop_median_paired_ratio": round(noop_ratio, 4),
            "traced_median_paired_ratio": round(traced_ratio, 4),
        },
    )

    result = benchmark(_mediator(scenario).answer, query)
    assert result
    assert noop_ratio <= 1.02, (
        f"no-op tracer overhead x{noop_ratio:.3f}, expected within noise"
    )
    assert traced_ratio <= 1.15, (
        f"full tracing overhead x{traced_ratio:.3f}, expected <= 1.15x"
    )


def test_parallel_trace_export_is_exact(
    artifact_sink, bench_json_sink, benchmark, tmp_path
):
    """A parallelism=8 JSONL trace is a tree and misses no source call."""
    scenario = build_scaled_scenario(
        FANOUT_PEOPLE, seed=1996, push_mode="needed"
    )
    mediator = _mediator(scenario, parallelism=8, telemetry=True)

    # the registered "med" mediator reports no wrapper counters ({})
    before = {
        name: stats.get("queries_answered", 0)
        for name, stats in scenario.registry.stats_snapshot().items()
    }
    mediator.answer(FANOUT_QUERY)
    shipped = {
        name: stats.get("queries_answered", 0) - before[name]
        for name, stats in scenario.registry.stats_snapshot().items()
    }

    trace_path = tmp_path / "trace.jsonl"
    JsonLinesExporter().export_path(
        str(trace_path),
        tracer=mediator.telemetry.tracer,
        registry=mediator.telemetry.metrics,
    )
    records = [
        json.loads(line)
        for line in trace_path.read_text().splitlines()
        if line
    ]
    spans = [r for r in records if r["record"] == "span"]
    assert spans and any(r["record"] == "metric" for r in records)

    # one query -> one root; every edge resolves inside the trace
    roots = [s for s in spans if s["parent_id"] is None]
    assert len(roots) == 1
    ids = {s["span_id"] for s in spans}
    assert all(
        s["parent_id"] in ids for s in spans if s["parent_id"] is not None
    )
    assert {s["query_id"] for s in spans} == {roots[0]["query_id"]}

    # source-call spans == actual wire traffic, per source, exactly
    observed: dict[str, int] = {}
    for span in spans:
        if span["kind"] == "source-call":
            observed[span["name"]] = observed.get(span["name"], 0) + 1
    for name, count in shipped.items():
        assert observed.get(name, 0) == count, (
            f"{name}: {observed.get(name, 0)} source-call span(s)"
            f" vs {count} shipped"
        )

    artifact_sink(
        "traced parallel fan-out (parallelism=8)",
        f"people={FANOUT_PEOPLE} query={FANOUT_QUERY!r}\n"
        f"spans exported : {len(spans)}\n"
        f"source calls   : "
        + ", ".join(
            f"{name}={count}" for name, count in sorted(shipped.items())
        )
        + "\nsource-call spans match registry counters exactly",
    )
    bench_json_sink(
        JSON_FILE,
        "parallel_trace_export",
        {
            "people": FANOUT_PEOPLE,
            "parallelism": 8,
            "query": FANOUT_QUERY,
            "spans_exported": len(spans),
            "roots": len(roots),
            "source_calls": {k: v for k, v in sorted(shipped.items())},
            "source_call_spans": {
                k: v for k, v in sorted(observed.items())
            },
        },
    )

    fresh = _mediator(scenario, parallelism=8, telemetry=True)
    benchmark(fresh.answer, FANOUT_QUERY)

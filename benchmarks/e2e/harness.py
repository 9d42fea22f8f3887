"""One workload, one process: the untimed set-up, the closed-loop
measured window, and the separate traced run.

Closed loop, one client: the next operation is sent when the previous
one has been answered and checked.  Latency is timed around the
operation alone; answer checking sits between operations, outside the
timed interval, and ``throughput_ops_s`` divides by the timed intervals
only, so a costlier checker does not read as a slower system.

The machines this runs on slow down, in bursts of a fraction of a second
to minutes, by anything from a few percent to a factor of two.  So the
window is cut into :data:`SEGMENTS` equal segments, every metric is
computed per segment, and the reported value is the *best* segment's:
the system as it ran in the quietest tenth of the window.  Interference
only ever adds time, so that is also the least biased reading.
"""

from __future__ import annotations

import gc
import itertools
import math
import statistics
import sys
import traceback
from time import perf_counter, process_time

from repro.msl.compile import CompileCache, evaluate_rule_compiled
from repro.msl.evaluate import evaluate_rule
from repro.oem.oid import OidGenerator

from tracing import OP, STAGES, SpanRecorder, account, install_proxies
from workloads import Workload

WARMUP_OPS = 200
WARMUP_SECONDS = 2.0
#: Segments per window, and the per-segment metrics, each with the
#: function that picks its best segment.
SEGMENTS = 10
SEGMENT_METRICS = {
    "latency_p50_ms": min,
    "latency_p90_ms": min,
    "throughput_ops_s": max,
    "cpu_ms_per_op": min,
}
#: A percentile is reported when at least this many samples lie beyond it.
SAMPLES_BEYOND = 10
#: A full digest check runs on the first, the last and every Nth op.
FULL_CHECK_EVERY = 25
#: Captured source rules replayed through both rule evaluators, at most.
REPLAYED_RULES = 64


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


def summary(values: list[float]) -> dict[str, float]:
    """Sample count and quartiles, for the report."""
    if len(values) < 2:
        return dict(n=len(values), q1=values[0], q2=values[0], q3=values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return dict(n=len(values), q1=q1, q2=q2, q3=q3)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark.

    Read from ``VmHWM``, which starts afresh at exec; ``ru_maxrss``
    does not — it starts from the resident set of whatever process
    launched this one, so under a large launcher it reports the
    launcher.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def set_up(workload: Workload, repeats: int) -> list[float]:
    """Build the scenario ``repeats`` times; keep the last one."""
    seconds = []
    for attempt in range(repeats):
        if attempt:
            workload.close()
            gc.collect()
        started = perf_counter()
        workload.build()
        seconds.append(perf_counter() - started)
    workload.derive_expected()
    return seconds


class _Checker:
    """Counts attempted/failed ops; full-checks a sample of them."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self._last: tuple | None = None

    def record(self, request, objects, error: BaseException | None) -> None:
        index = self.attempted
        self.attempted += 1
        if error is not None:
            if not self.failed:
                traceback.print_exception(error, file=sys.stderr)
            self.failed += 1
            self._last = None
            return
        ok = len(objects) == self.workload.expected_count(request)
        if ok and index % FULL_CHECK_EVERY == 0:
            ok = self.workload.matches(request, objects)
            self._last = None
        else:
            self._last = (request, objects)
        if not ok:
            if not self.failed:
                print(
                    f"{self.workload.name}: wrong answer to op {index}"
                    f" (request {request!r}, {len(objects)} objects)",
                    file=sys.stderr,
                )
            self.failed += 1

    def finish(self) -> None:
        """Full-check the last op if the sampling skipped it."""
        if self._last is not None:
            request, objects = self._last
            if not self.workload.matches(request, objects):
                self.failed += 1
            self._last = None


def _warm_up(workload: Workload) -> None:
    checker = _Checker(workload)
    started = perf_counter()
    while (
        checker.attempted < WARMUP_OPS
        and perf_counter() - started < WARMUP_SECONDS
    ):
        request = workload.request()
        checker.record(request, workload.run(request), None)
    checker.finish()
    if checker.failed:
        raise SystemExit(f"{workload.name}: wrong answers during warm-up")


def _closed_loop(workload: Workload, seconds: float, run, checker: _Checker):
    """Run ops back to back for ``seconds``; (latencies, cpu seconds)."""
    latencies: list[float] = []
    cpu = 0.0
    deadline = perf_counter() + seconds
    while True:
        request = workload.request()
        error = objects = None
        cpu_started = process_time()
        started = perf_counter()
        try:
            objects = run(request)
        except Exception as exc:  # a failed op is counted, the loop goes on
            error = exc
        ended = perf_counter()
        cpu += process_time() - cpu_started
        latencies.append(ended - started)
        checker.record(request, objects, error)
        if ended >= deadline:
            return latencies, cpu


def run_untraced(workload: Workload, seconds: float, warm: bool = True) -> dict:
    """The end-to-end metrics: tracing off, default code path."""
    setup_seconds = set_up(workload, workload.setup_repeats)
    if warm:
        _warm_up(workload)
    checker = _Checker(workload)
    segments: dict[str, list[float]] = {name: [] for name in SEGMENT_METRICS}
    pooled: list[float] = []
    for _ in range(SEGMENTS):
        failed_before = checker.failed
        latencies, cpu = _closed_loop(
            workload, seconds / SEGMENTS, workload.run, checker
        )
        verified = len(latencies) - (checker.failed - failed_before)
        ordered = sorted(latencies)
        segments["latency_p50_ms"].append(statistics.median(ordered) * 1e3)
        segments["latency_p90_ms"].append(percentile(ordered, 0.90) * 1e3)
        segments["throughput_ops_s"].append(verified / sum(latencies))
        segments["cpu_ms_per_op"].append(cpu / len(latencies) * 1e3)
        pooled.extend(value * 1e3 for value in latencies)
    checker.finish()
    pooled.sort()
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        **{name: SEGMENT_METRICS[name](segments[name]) for name in segments},
        "peak_rss_mb": peak_rss_mb(),
        "failed_ratio": checker.failed / checker.attempted,
    }
    if len(pooled) >= 100 * SAMPLES_BEYOND:
        # over the whole window, disturbed segments included: a tail
        # percentile of one segment would have nothing beyond it
        metrics["latency_p99_ms"] = percentile(pooled, 0.99)
    samples = {name: summary(values) for name, values in segments.items()}
    samples["setup_s"] = summary(setup_seconds)
    samples["latency_ms"] = summary(pooled)
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
        "samples": samples,
    }


# -- the traced run ---------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _census(captured) -> tuple[int, float, float]:
    """Re-run the captured source calls' access paths, untimed by the
    op: (candidates examined, compiled us/object, interpretive us/object).
    """
    examined = 0
    replayed = 0
    compiled_seconds = interpreted_seconds = 0.0
    cache = CompileCache(None)
    oidgen = OidGenerator("&census_")
    for position, (wrapper, query) in enumerate(captured):
        if getattr(query, "is_semijoin", False):
            forest, rule = wrapper.semijoin_candidates(query), query.rule
        else:
            forest, rule = wrapper.candidates(query), query
        examined += len(forest)
        if position >= REPLAYED_RULES or not forest:
            continue
        logical = wrapper.name.partition("#")[0]
        forests = {None: forest, wrapper.name: forest, logical: forest}
        cache.rule(rule)  # compile outside the timing, as the wrappers do
        started = perf_counter()
        evaluate_rule_compiled(rule, forests, None, oidgen, False, cache)
        middle = perf_counter()
        evaluate_rule(rule, forests, None, oidgen, check=False)
        interpreted_seconds += perf_counter() - middle
        compiled_seconds += middle - started
        replayed += len(forest)
    per_object = 1e6 / replayed if replayed else 0.0
    return examined, compiled_seconds * per_object, interpreted_seconds * per_object


def run_traced(workload: Workload, seconds: float, warm: bool = True) -> dict:
    """The per-layer metrics, from spans recorded around each layer.

    Every source sits behind a :class:`~tracing.TimedSource` from the
    start, and three kinds of op take turns, so the machine's drift
    hits all three alike: the plain facade op with the recorder off
    (proxies pass through), the facade op under a root span, and the
    staged replay with one span per stage.  Traced over plain is the
    tracing overhead; traced facade minus staged replay, both paying
    for the same proxies, is the facade's own cost.
    """
    setup_seconds = set_up(workload, 1)
    setup_layers = workload.setup_layers()
    mediator = workload.mediator
    recorder = SpanRecorder()
    install_proxies(mediator.sources, recorder)
    if warm:
        _warm_up(workload)
    checker = _Checker(workload)
    plain_walls: list[float] = []
    facade_walls: list[float] = []
    staged: list[tuple] = []  # (op, root span id, wall, counts) per replay

    def dispatched() -> int:
        return mediator.dispatcher.stats()["dispatched"]

    def plain_op(request):
        started = perf_counter()
        objects = workload.run(request)
        plain_walls.append(perf_counter() - started)
        return objects

    def traced(name: str, body):
        recorder.op += 1
        recorder.enabled = True
        with recorder.span(name) as root:
            result = body()
        recorder.enabled = False
        return root, result

    def facade_op(request):
        root, objects = traced("op.facade", lambda: workload.run(request))
        facade_walls.append(root.seconds)
        return objects

    def staged_op(request):
        before = dispatched()
        root, (objects, context, counts) = traced(
            "op.staged", lambda: workload.staged(request, recorder)
        )
        counts.update(
            dispatched=dispatched() - before,
            semijoin_batches=context.semijoin_batches,
            semijoin_probes=context.semijoin_probes,
            answer_objects=len(objects),
        )
        staged.append((recorder.op, root.id, root.seconds, counts))
        return objects

    # one staged op with capture on feeds the candidate census; it runs
    # first and is dropped, so capturing perturbs nothing that is timed
    recorder.captured = []
    request = workload.request()
    checker.record(request, staged_op(request), None)
    captured, recorder.captured = recorder.captured, None
    census_answer = staged.pop()[3]["answer_objects"]

    turns = itertools.cycle((plain_op, facade_op, staged_op))
    _closed_loop(
        workload, seconds, lambda request: next(turns)(request), checker
    )
    checker.finish()
    examined, compiled_us, interpreted_us = _census(captured)

    by_op: dict[int, list] = {}
    for span in recorder.spans:
        by_op.setdefault(span[OP], []).append(span)
    accounts = [account(root, by_op[op]) for op, root, _, _ in staged]

    def timed(key: str, scale: float) -> float:
        return _median([a.get(key, 0.0) for a in accounts]) * scale

    def count(key: str) -> float:
        return _median([float(counts[key]) for *_, counts in staged])

    def total(key: str) -> float:
        return sum(a[key] for a in accounts)

    busy, wait = timed("busy", 1e3), timed("wait", 1e3)
    metrics = {
        "msl.parser.time_us": timed("msl.parser", 1e6),
        "mediator.view_expander.time_us": timed("mediator.view_expander", 1e6),
        "mediator.view_expander.logical_rules": count("logical_rules"),
        "mediator.optimizer.time_us": timed("mediator.optimizer", 1e6),
        "mediator.optimizer.plan_nodes": count("plan_nodes"),
        "mediator.pipeline.fuse_time_us": timed("mediator.pipeline", 1e6),
        "mediator.pipeline.fused_operators": count("fused_operators"),
        # turn by turn, so both ops of a pair saw the same machine
        "mediator.mediator.facade_us": _median(
            [
                facade - replay
                for facade, (_, _, replay, _) in zip(facade_walls, staged)
            ]
        )
        * 1e6,
        "wrappers.calls_per_op": timed("calls", 1),
        "wrappers.time_ms_per_op": timed("wrappers", 1e3),
        "wrappers.relational_wrapper.time_ms_per_op": timed(
            "layer:wrappers.relational_wrapper", 1e3
        ),
        "wrappers.oem_wrapper.time_ms_per_op": timed(
            "layer:wrappers.oem_wrapper", 1e3
        ),
        "wrappers.sqlite_wrapper.time_ms_per_op": timed(
            "layer:wrappers.sqlite_wrapper", 1e3
        ),
        "wrappers.objects_returned_per_op": timed("objects", 1),
        "wrappers.candidates_examined_per_result": examined
        / max(census_answer, 1),
        "wrappers.wait_ms_per_op": wait,
        "wrappers.busy_ms_per_op": busy,
        "exec.dispatcher.source_overlap_ratio": busy / wait if wait else 0.0,
        "exec.dispatcher.dispatched_per_op": count("dispatched"),
        "wrappers.sharding.semijoin_batches_per_op": count("semijoin_batches"),
        "wrappers.sharding.semijoin_probes_per_op": count("semijoin_probes"),
        "mediator.engine.time_ms_per_op": timed("mediator.engine", 1e3),
        "mediator.engine.self_time_ms_per_op": timed("engine_self", 1e3),
        "mediator.fusion.time_ms_per_op": timed("mediator.fusion", 1e3),
        "oem.compare.dedup_time_ms_per_op": timed("oem.compare", 1e3),
        "msl.compile.rule_eval_us_per_object": compiled_us,
        "msl.evaluate.rule_eval_us_per_object": interpreted_us,
        "answer_objects_per_op": count("answer_objects"),
        "trace.overhead_ratio": _median(facade_walls) / _median(plain_walls),
        "trace.residual_ratio": total("residual") / total("wall"),
        **setup_layers,
    }
    # the partition the smoke test checks: what the report attributes
    # to layers, plus the residual, against the traced wall time
    attributed = {stage: total(stage) for stage in STAGES}
    attributed["mediator.engine"] = total("engine_self")
    attributed["wrappers.wait"] = total("wait")
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
        "samples": {
            "setup_s": summary(setup_seconds),
            "plain_ms": summary([v * 1e3 for v in plain_walls]),
            "facade_ms": summary([v * 1e3 for v in facade_walls]),
            "staged_ms": summary([wall * 1e3 for _, _, wall, _ in staged]),
        },
        "accounting": {
            "wall_s": total("wall"),
            "layers_s": attributed,
            "residual_s": total("residual"),
        },
        "spans": recorder.rows(),
    }

"""Experiment P1 — concurrent source fan-out, caching, and dedup.

Three questions the execution layer must answer before ``parallelism``
is worth turning on:

* **speedup** — on a latency-bound fan-out workload (every source call
  really sleeps), how much wall-clock time does spreading independent
  calls over N workers save?  Target: >= 3x at ``parallelism=8``;
* **overhead** — with ``parallelism=1`` (the default) the dispatcher
  must stay out of the way: answer time within noise of the plain
  sequential engine;
* **cache value** — on a repeated-query workload the answer cache
  should serve > 90% of source requests from memory and cut the
  latency-bound answer time accordingly.

Correctness rides along: every parallel run is compared object-for-
object against the sequential answer.  Numbers land in
``benchmarks/BENCH_parallel.json`` (via ``bench_json_sink``) and in
the artifacts file quoted by EXPERIMENTS.md.
"""

import time

from repro.datasets import build_scaled_scenario
from repro.exec import AnswerCache
from repro.mediator import Mediator
from repro.oem import structural_key
from repro.reliability import FaultInjectingSource
from repro.reliability.clock import MonotonicClock

PEOPLE = 24
LATENCY = 0.02  # real seconds slept per source call
FANOUT_QUERY = "S :- S:<cs_person {<rel 'student'>}>@med"
JSON_FILE = "BENCH_parallel.json"


def _canonical(objects):
    return sorted(repr(structural_key(o)) for o in objects)


def _latency_scenario():
    """The scaled staff scenario with every source call really sleeping."""
    scenario = build_scaled_scenario(PEOPLE, seed=1996, push_mode="needed")
    clock = MonotonicClock()
    for name in ("whois", "cs"):
        inner = scenario.registry.resolve(name)
        scenario.registry.deregister(name)
        scenario.registry.register(
            FaultInjectingSource(inner, latency=LATENCY, clock=clock)
        )
    return scenario


def _mediator(scenario, parallelism=1, cache=None):
    return Mediator(
        "med",
        scenario.mediator.specification,
        scenario.registry,
        scenario.externals,
        push_mode="needed",
        register=False,
        parallelism=parallelism,
        cache=cache,
        # the experiment is the dispatcher's fan-out of per-tuple
        # probes; batched, the join is one cs call with nothing to fan
        semijoin=False,
    )


def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_speedup_curve(artifact_sink, bench_json_sink, benchmark):
    """Answer time vs parallelism on the latency-injected fan-out."""
    scenario = _latency_scenario()
    baseline_mediator = _mediator(scenario, parallelism=1)
    expected = _canonical(baseline_mediator.answer(FANOUT_QUERY))
    baseline = _best_of(
        lambda: baseline_mediator.answer(FANOUT_QUERY)
    )

    rows = ["parallelism   s/answer   speedup"]
    curve = []
    speedups = {1: 1.0}
    for parallelism in (1, 2, 4, 8):
        mediator = _mediator(scenario, parallelism=parallelism)
        assert _canonical(mediator.answer(FANOUT_QUERY)) == expected
        seconds = _best_of(lambda: mediator.answer(FANOUT_QUERY))
        speedup = baseline / seconds
        speedups[parallelism] = speedup
        rows.append(
            f"{parallelism:11d}   {seconds:8.4f}   {speedup:6.2f}x"
        )
        curve.append(
            {
                "parallelism": parallelism,
                "seconds_per_answer": round(seconds, 6),
                "speedup": round(speedup, 3),
            }
        )

    artifact_sink(
        "parallel fan-out speedup (real per-call latency)",
        f"people={PEOPLE} latency={LATENCY}s/call"
        f" query={FANOUT_QUERY!r}\n" + "\n".join(rows),
    )
    bench_json_sink(
        JSON_FILE,
        "speedup_curve",
        {
            "people": PEOPLE,
            "latency_per_call_s": LATENCY,
            "query": FANOUT_QUERY,
            "baseline_seconds": round(baseline, 6),
            "levels": curve,
        },
    )

    fast = _mediator(scenario, parallelism=8)
    benchmark(fast.answer, FANOUT_QUERY)
    assert speedups[8] >= 3.0, (
        f"parallelism=8 speedup {speedups[8]:.2f}x, expected >= 3x"
    )


def test_parallelism_one_overhead(artifact_sink, bench_json_sink, benchmark):
    """The default configuration must not tax the sequential engine."""
    rounds = 30
    seed_scenario = build_scaled_scenario(PEOPLE, push_mode="needed")
    seed_scenario.mediator.semijoin = False  # like _mediator: per-tuple
    dispatcher_scenario = build_scaled_scenario(PEOPLE, push_mode="needed")
    dispatcher_mediator = _mediator(dispatcher_scenario, parallelism=1)

    expected = _canonical(seed_scenario.mediator.answer(FANOUT_QUERY))
    assert _canonical(dispatcher_mediator.answer(FANOUT_QUERY)) == expected

    def timed(mediator):
        start = time.perf_counter()
        for _ in range(rounds):
            mediator.answer(FANOUT_QUERY)
        return (time.perf_counter() - start) / rounds

    seed_time = timed(seed_scenario.mediator)
    dispatcher_time = timed(dispatcher_mediator)
    overhead = dispatcher_time / seed_time - 1.0

    artifact_sink(
        "parallelism=1 dispatcher overhead",
        f"people={PEOPLE} rounds={rounds}\n"
        f"seed engine    : {seed_time * 1e3:8.3f} ms/answer\n"
        f"parallelism=1  : {dispatcher_time * 1e3:8.3f} ms/answer\n"
        f"overhead       : {overhead * 100:+.2f}%  (target: noise)",
    )
    bench_json_sink(
        JSON_FILE,
        "parallelism_one_overhead",
        {
            "people": PEOPLE,
            "rounds": rounds,
            "seed_seconds_per_answer": round(seed_time, 6),
            "dispatcher_seconds_per_answer": round(dispatcher_time, 6),
            "overhead_fraction": round(overhead, 4),
        },
    )

    benchmark(dispatcher_mediator.answer, FANOUT_QUERY)
    # generous CI bound; the artifact records the real number
    assert overhead < 0.25, f"parallelism=1 overhead {overhead:.1%}"


def test_cache_hit_rate_on_repeated_queries(
    artifact_sink, bench_json_sink, benchmark
):
    """Repeats of a fan-out query should be served from the cache."""
    repeats = 20
    scenario = _latency_scenario()
    expected = _canonical(
        _mediator(scenario, parallelism=1).answer(FANOUT_QUERY)
    )

    cache = AnswerCache(max_entries=128)
    cached_mediator = _mediator(scenario, parallelism=4, cache=cache)
    uncached_mediator = _mediator(scenario, parallelism=4)

    start = time.perf_counter()
    for _ in range(repeats):
        assert _canonical(cached_mediator.answer(FANOUT_QUERY)) == expected
    cached_time = (time.perf_counter() - start) / repeats

    start = time.perf_counter()
    for _ in range(3):
        uncached_mediator.answer(FANOUT_QUERY)
    uncached_time = (time.perf_counter() - start) / 3

    stats = cache.stats()
    artifact_sink(
        "answer cache on repeated queries (real per-call latency)",
        f"repeats={repeats} people={PEOPLE} latency={LATENCY}s/call\n"
        f"hit rate : {stats['hit_rate']:.3f}"
        f"  ({stats['hits']} hits / {stats['misses']} misses,"
        f" {stats['entries']} entries)\n"
        f"uncached : {uncached_time * 1e3:8.3f} ms/answer\n"
        f"cached   : {cached_time * 1e3:8.3f} ms/answer",
    )
    bench_json_sink(
        JSON_FILE,
        "cache_hit_rate",
        {
            "repeats": repeats,
            "hit_rate": round(stats["hit_rate"], 4),
            "hits": stats["hits"],
            "misses": stats["misses"],
            "entries": stats["entries"],
            "uncached_seconds_per_answer": round(uncached_time, 6),
            "cached_seconds_per_answer": round(cached_time, 6),
        },
    )

    benchmark(cached_mediator.answer, FANOUT_QUERY)
    assert stats["hit_rate"] > 0.9, (
        f"cache hit rate {stats['hit_rate']:.3f}, expected > 0.9"
    )

"""Experiment H1 — hedged requests under a heavy-tailed slow source.

The setup the hedge was built for: every source call normally answers
in ~4ms, but one source (``cs``) stalls at 20x that (80ms) on 10% of
its calls.  One stalled call then sets the whole answer's latency —
the classic fan-out tail.  The questions:

* **tail compression** — with hedging on (hedge delay ~2x the median),
  how much of the p99 does first-result-wins recover?  Target: >= 2x
  (asserted at ``parallelism=1``, where the seeded fault schedule —
  and therefore the measured tail — is deterministic: calls are
  sequential, so the injector's RNG draws happen in a fixed order.
  At higher parallelism worker interleaving makes the draw order, and
  with it the rare double-stall — both attempts of one hedged call
  drawing the 10% stall — nondeterministic, so those levels are
  reported but not asserted);
* **correctness** — hedged answers must be bit-for-bit (structural
  key) equal to unhedged answers, every round;
* **overhead** — what fraction of calls actually hedge?  Should track
  the stall rate, not explode.

Numbers land in ``benchmarks/BENCH_hedging.json`` (via
``bench_json_sink``) and in the artifacts file quoted by
EXPERIMENTS.md.
"""

import time

from repro.datasets import build_scaled_scenario
from repro.mediator import Mediator
from repro.oem import structural_key
from repro.reliability import FaultInjectingSource, HedgePolicy
from repro.reliability.clock import MonotonicClock

PEOPLE = 16
LATENCY = 0.004          # median per-call seconds (really slept)
SLOW_LATENCY = 0.08      # the heavy tail: 20x the median
SLOW_RATE = 0.10         # fraction of cs calls that stall
HEDGE_DELAY = 0.008      # ~2x median: hedge only genuine stragglers
ROUNDS = 14
FANOUT_QUERY = "S :- S:<cs_person {<rel 'student'>}>@med"
JSON_FILE = "BENCH_hedging.json"


def _canonical(objects):
    return sorted(repr(structural_key(o)) for o in objects)


def _percentile(samples, quantile):
    ordered = sorted(samples)
    rank = max(1, -(-int(quantile * 100) * len(ordered) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def _scenario(seed=1996):
    scenario = build_scaled_scenario(PEOPLE, seed=seed, push_mode="needed")
    clock = MonotonicClock()
    for name in ("whois", "cs"):
        inner = scenario.registry.resolve(name)
        scenario.registry.deregister(name)
        scenario.registry.register(
            FaultInjectingSource(
                inner,
                latency=LATENCY,
                slow_rate=SLOW_RATE if name == "cs" else 0.0,
                slow_latency=SLOW_LATENCY,
                seed=seed,
                clock=clock,
            )
        )
    return scenario


def _mediator(scenario, parallelism, hedge):
    kwargs = {}
    if hedge:
        # trigger off the median (x2), not the default p95: with a 10%
        # stall rate the p95 *is* the stall, and a p95-based delay
        # would wait out the very tail it should cut
        kwargs["hedge"] = HedgePolicy(
            delay=HEDGE_DELAY, quantile=0.5, multiplier=2.0
        )
    return Mediator(
        "med",
        scenario.mediator.specification,
        scenario.registry,
        scenario.externals,
        push_mode="needed",
        register=False,
        parallelism=parallelism,
        # the experiment is the fan-out tail: one cs call per tuple, not
        # the default single batched call
        semijoin=False,
        **kwargs,
    )


def _timed_answers(mediator, expected, rounds=ROUNDS):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        results = mediator.answer(FANOUT_QUERY)
        samples.append(time.perf_counter() - start)
        assert _canonical(results) == expected
    return samples


def test_hedging_compresses_the_tail(artifact_sink, bench_json_sink,
                                     benchmark):
    """p50/p99 with and without hedging across parallelism levels."""
    expected = _canonical(
        _mediator(_scenario(), parallelism=1, hedge=False).answer(
            FANOUT_QUERY
        )
    )

    rows = ["parallelism   mode       p50       p99    hedge-rate"]
    levels = []
    ratios = {}
    for parallelism in (1, 4, 8):
        level = {"parallelism": parallelism}
        for hedge in (False, True):
            scenario = _scenario()
            mediator = _mediator(scenario, parallelism, hedge)
            try:
                samples = _timed_answers(mediator, expected)
                p50 = _percentile(samples, 0.50)
                p99 = _percentile(samples, 0.99)
                hedge_rate = 0.0
                if hedge:
                    assert mediator.hedging.drain()
                    stats = mediator.hedging.stats()
                    assert stats["outstanding"] == 0
                    assert (
                        stats["hedge_wins"] + stats["primary_wins"]
                        == stats["hedges_issued"]
                    )
                    hedge_rate = stats["hedges_issued"] / stats["calls"]
                mode = "hedged" if hedge else "unhedged"
                level[mode] = {
                    "p50_s": round(p50, 6),
                    "p99_s": round(p99, 6),
                    "hedge_rate": round(hedge_rate, 4),
                }
                rows.append(
                    f"{parallelism:11d}   {mode:8s}  {p50 * 1e3:7.2f}ms"
                    f"  {p99 * 1e3:7.2f}ms    {hedge_rate:8.3f}"
                )
            finally:
                mediator.dispatcher.shutdown()
        ratios[parallelism] = (
            level["unhedged"]["p99_s"] / level["hedged"]["p99_s"]
        )
        level["p99_ratio"] = round(ratios[parallelism], 3)
        levels.append(level)

    artifact_sink(
        "hedged requests vs the heavy tail",
        f"people={PEOPLE} median={LATENCY}s, cs stalls at"
        f" {SLOW_LATENCY}s ({SLOW_LATENCY / LATENCY:.0f}x) on"
        f" {SLOW_RATE:.0%} of calls, hedge after {HEDGE_DELAY}s\n"
        + "\n".join(rows) + "\n"
        + "\n".join(
            f"p99 ratio at parallelism={p}: {r:.2f}x"
            for p, r in ratios.items()
        ),
    )
    bench_json_sink(
        JSON_FILE,
        "tail_compression",
        {
            "people": PEOPLE,
            "median_latency_s": LATENCY,
            "slow_latency_s": SLOW_LATENCY,
            "slow_rate": SLOW_RATE,
            "slow_source": "cs",
            "hedge_delay_s": HEDGE_DELAY,
            "rounds": ROUNDS,
            "query": FANOUT_QUERY,
            "levels": levels,
        },
    )

    fast = _mediator(_scenario(), parallelism=4, hedge=True)
    try:
        benchmark(fast.answer, FANOUT_QUERY)
    finally:
        fast.dispatcher.shutdown()
    assert ratios[1] >= 2.0, (
        f"hedging cut p99 only {ratios[1]:.2f}x at parallelism=1,"
        " expected >= 2x"
    )

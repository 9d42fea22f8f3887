#!/usr/bin/env python3
"""Chaos harness: seeded randomized fault schedules for the mediator.

Each seed deterministically generates one *schedule* — a scaled staff
scenario whose sources are wrapped in
:class:`~repro.reliability.faults.FaultInjectingSource` with randomly
drawn fault, latency, and death parameters, queried through a randomly
drawn mediator configuration (parallelism, caching, budgets, hedging).
The harness then asserts the invariants the resilience stack promises
*regardless* of the schedule:

* **completion** — a degrade-mode, truncate-budget mediator finishes
  every query; no run hangs past a generous real-time bound;
* **degrade ⊆ fault-free** — a degraded answer is a subset of the
  fault-free answer, never an invention;
* **budgets respected** — ``max_result_objects`` caps the answer size;
* **hedging is invisible in the result** — a hedged mediator's answer
  is bit-for-bit (structural key) equal to the unhedged answer over the
  same data;
* **no leaked hedges** — after a drain, no attempt is outstanding and
  the race accounting balances:
  ``hedge_wins + primary_wins == hedges_issued``;
* **concurrent serving is safe** (kind C) — many threads hammering one
  admission-gated mediator never deadlock, the gate's accounting
  balances exactly (``submitted == completed + shed``), no admitted
  query blows through its deadline budget, every completed answer is a
  subset of the fault-free answer (equal when the schedule injects no
  faults), and the controller drains clean.

Usage::

    PYTHONPATH=src python tools/chaos.py --seeds 25
    PYTHONPATH=src python tools/chaos.py --seeds 5 --quick --verbose
    PYTHONPATH=src python tools/chaos.py --kind concurrent --seeds 25

Exits 0 when every schedule holds every invariant, 1 otherwise.  The
same ``--base-seed`` always replays the same schedules.
"""

from __future__ import annotations

import argparse
import random
import sys
import threading
import time
from pathlib import Path

if __package__ in (None, ""):
    # runnable straight from a checkout: python tools/chaos.py
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.datasets import build_scaled_scenario
from repro.governor.budget import QueryBudget
from repro.mediator import Mediator
from repro.oem import structural_key
from repro.reliability import (
    AdaptiveTimeoutConfig,
    FaultInjectingSource,
    HedgePolicy,
    ManualClock,
    ResilienceConfig,
    RetryPolicy,
)
from repro.reliability.clock import MonotonicClock
from repro.serving import AdmissionConfig, BulkheadRegistry, QueryRejected

QUERY = "S :- S:<cs_person {<rel 'student'>}>@med"

#: A schedule that takes longer than this (real seconds) counts as a
#: hang — fault latencies ride a ManualClock, so real time is pure
#: compute plus (for latency schedules) sub-millisecond thread waits.
HANG_BOUND = 60.0


def canonical(objects):
    return sorted(repr(structural_key(o)) for o in objects)


def build_sources(scenario, rng, clock, **fault_kwargs):
    """Wrap the scenario's sources in seeded fault injectors."""
    injectors = {}
    for name in ("whois", "cs"):
        inner = scenario.registry.resolve(name)
        scenario.registry.deregister(name)
        injector = FaultInjectingSource(
            inner,
            seed=rng.randrange(2**31),
            clock=clock,
            **fault_kwargs,
        )
        injectors[name] = injector
        scenario.registry.register(injector)
    return injectors


def remake_mediator(scenario, **kwargs):
    return Mediator(
        "med",
        scenario.mediator.specification,
        scenario.registry,
        scenario.externals,
        push_mode="needed",
        register=False,
        **kwargs,
    )


class Violations(list):
    def check(self, condition, message):
        if not condition:
            self.append(message)


def run_fault_schedule(seed, quick, verbose):
    """Kind A: transient faults, dead sources, tight budgets — the run
    must complete in degrade+truncate mode with a subset answer."""
    rng = random.Random(seed)
    people = 8 if quick else rng.choice((10, 16, 24))
    parallelism = rng.choice((1, 2, 4, 8))
    use_cache = rng.random() < 0.5

    # the fault-free answer over the same data is the reference
    reference = build_scaled_scenario(people, seed=seed, push_mode="needed")
    fault_free = canonical(reference.mediator.answer(QUERY))

    scenario = build_scaled_scenario(people, seed=seed, push_mode="needed")
    clock = ManualClock()
    fault_kwargs = {
        "fault_rate": rng.choice((0.0, 0.1, 0.3)),
        "empty_rate": rng.choice((0.0, 0.1)),
        "latency": rng.choice((0.0, 0.005, 0.02)),
    }
    if rng.random() < 0.3:
        fault_kwargs["die_after"] = rng.randrange(2, 2 * people + 2)
    build_sources(scenario, rng, clock, **fault_kwargs)

    max_results = rng.choice((None, 2, people))
    budget = QueryBudget(
        deadline=rng.choice((None, 0.5, 5.0)),
        max_result_objects=max_results,
        max_total_rows=rng.choice((None, 50 * people)),
    )
    kwargs = dict(
        on_source_failure="degrade",
        resilience=ResilienceConfig(
            retry=RetryPolicy(
                max_attempts=rng.choice((1, 2, 3)),
                base_delay=0.01,
                jitter_mode=rng.choice(("equal", "full")),
            ),
            breaker_threshold=rng.choice((2, 5)),
            breaker_cooldown=1.0,
            adaptive=(
                AdaptiveTimeoutConfig() if rng.random() < 0.5 else None
            ),
        ),
        # half the schedules run the fused pipeline path, half the
        # node-per-operator reference path — faults, budgets, and
        # degrade warnings must behave identically under both
        fuse=rng.random() < 0.5,
        budget=budget,
        budget_mode="truncate",
        clock=clock,
        parallelism=parallelism,
    )
    if use_cache:
        from repro.exec import AnswerCache

        kwargs["cache"] = AnswerCache(max_entries=64)
    mediator = remake_mediator(scenario, **kwargs)

    violations = Violations()
    started = time.monotonic()
    rounds = 2 if quick else 3
    try:
        for round_index in range(rounds):
            results = mediator.answer(QUERY)
            answer = canonical(results)
            violations.check(
                set(answer) <= set(fault_free),
                f"degraded answer invents objects (round {round_index}):"
                f" {sorted(set(answer) - set(fault_free))[:3]}",
            )
            if max_results is not None:
                violations.check(
                    len(results) <= max_results,
                    f"answer size {len(results)} exceeds"
                    f" max_result_objects={max_results}",
                )
    except Exception as exc:  # completion invariant
        violations.append(
            f"degrade+truncate run raised {type(exc).__name__}: {exc}"
        )
    finally:
        mediator.dispatcher.shutdown()
    elapsed = time.monotonic() - started
    violations.check(
        elapsed < HANG_BOUND, f"schedule took {elapsed:.1f}s (hang?)"
    )
    if verbose:
        print(
            f"  faults: people={people} parallelism={parallelism}"
            f" cache={use_cache} faults={fault_kwargs}"
            f" budget=(deadline={budget.deadline},"
            f" max_results={max_results}) -> {len(violations)} violation(s)"
        )
    return violations


def run_latency_schedule(seed, quick, verbose):
    """Kind B: a heavy-tailed latency distribution, no faults — hedged
    and unhedged answers must be bit-for-bit equal, and the hedge
    accounting must balance once drained."""
    rng = random.Random(seed ^ 0x5A5A5A5A)
    people = 8 if quick else rng.choice((10, 16))
    parallelism = rng.choice((2, 4, 8))

    def make(hedge):
        scenario = build_scaled_scenario(
            people, seed=seed, push_mode="needed"
        )
        # a real clock (sleeps are tiny) so hedge timers actually race
        build_sources(
            scenario,
            random.Random(seed),
            MonotonicClock(),
            latency=0.0005,
            slow_rate=rng.choice((0.05, 0.15, 0.3)),
            slow_latency=rng.choice((0.01, 0.03)),
        )
        kwargs = dict(parallelism=parallelism)
        if hedge:
            kwargs["hedge"] = HedgePolicy(delay=0.0, min_delay=0.0)
        if rng.random() < 0.5:
            from repro.exec import AnswerCache

            kwargs["cache"] = AnswerCache(max_entries=64)
        return remake_mediator(scenario, **kwargs)

    violations = Violations()
    started = time.monotonic()
    unhedged = make(hedge=False)
    hedged = make(hedge=True)
    rounds = 2 if quick else 3
    try:
        expected = canonical(unhedged.answer(QUERY))
        for round_index in range(rounds):
            got = canonical(hedged.answer(QUERY))
            violations.check(
                got == expected,
                f"hedged answer differs from unhedged (round {round_index})",
            )
        coordinator = hedged.hedging
        violations.check(coordinator.drain(), "hedge attempts leaked")
        stats = coordinator.stats()
        violations.check(
            stats["outstanding"] == 0,
            f"outstanding attempts after drain: {stats['outstanding']}",
        )
        violations.check(
            stats["hedge_wins"] + stats["primary_wins"]
            == stats["hedges_issued"],
            f"hedge accounting does not balance: {stats}",
        )
    except Exception as exc:
        violations.append(
            f"latency schedule raised {type(exc).__name__}: {exc}"
        )
    finally:
        unhedged.dispatcher.shutdown()
        hedged.dispatcher.shutdown()
    elapsed = time.monotonic() - started
    violations.check(
        elapsed < HANG_BOUND, f"schedule took {elapsed:.1f}s (hang?)"
    )
    if verbose:
        stats = locals().get("stats", {})
        print(
            f"  latency: people={people} parallelism={parallelism}"
            f" hedges={stats.get('hedges_issued', '?')}"
            f" wins={stats.get('hedge_wins', '?')}"
            f" -> {len(violations)} violation(s)"
        )
    return violations


def run_concurrent_schedule(seed, quick, verbose):
    """Kind C: many threads against one admission-gated mediator.

    The harness submits a fixed batch of queries from 8–16 concurrent
    client threads with random tenants and priorities, then asserts
    the serving invariants: no deadlock (the batch finishes inside the
    hang bound), exact accounting (``submitted == completed + shed``
    from both the clients' and the controller's perspective), no
    admitted query exceeding its end-to-end deadline budget (queue
    wait is charged against it), subset-correct answers, and a fully
    drained controller afterwards.
    """
    rng = random.Random(seed ^ 0x3C3C3C3C)
    people = 8 if quick else rng.choice((10, 16))
    client_threads = rng.choice((8, 12, 16))
    queries_per_client = 2 if quick else 3
    parallelism = rng.choice((1, 2, 4))
    fault_rate = rng.choice((0.0, 0.0, 0.1, 0.3))
    latency = rng.choice((0.0, 0.001, 0.003))
    deadline = 10.0

    reference = build_scaled_scenario(people, seed=seed, push_mode="needed")
    fault_free = canonical(reference.mediator.answer(QUERY))

    scenario = build_scaled_scenario(people, seed=seed, push_mode="needed")
    # a real clock: concurrency is real threads racing, and queue wait
    # must be measured in the same time base the governor deadline uses
    build_sources(
        scenario,
        rng,
        MonotonicClock(),
        fault_rate=fault_rate,
        latency=latency,
    )

    kwargs = dict(
        on_source_failure="degrade",
        budget=QueryBudget(deadline=deadline),
        budget_mode="truncate",
        parallelism=parallelism,
        admission=AdmissionConfig(
            max_concurrent=rng.choice((2, 4)),
            max_queue_depth=rng.choice((8, 16, 64)),
            adaptive=rng.random() < 0.5,
        ),
    )
    if rng.random() < 0.5:
        kwargs["bulkheads"] = BulkheadRegistry(
            max_per_source=rng.choice((2, 4)), max_wait=5.0
        )
    if rng.random() < 0.5:
        from repro.exec import AnswerCache

        kwargs["cache"] = AnswerCache(max_entries=64)
    if rng.random() < 0.5:
        kwargs["resilience"] = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay=0.001)
        )
    mediator = remake_mediator(scenario, **kwargs)

    violations = Violations()
    lock = threading.Lock()
    completed = []  # (canonical answer, end-to-end seconds)
    shed = []  # rejection reasons
    unexpected = []

    def client(index):
        thread_rng = random.Random((seed << 8) | index)
        for _ in range(queries_per_client):
            tenant = f"tenant{thread_rng.randrange(3)}"
            priority = thread_rng.randrange(3)
            started = time.monotonic()
            try:
                results = mediator.answer(
                    QUERY, tenant=tenant, priority=priority
                )
            except QueryRejected as exc:
                with lock:
                    shed.append(exc.reason)
            except Exception as exc:  # no other error is acceptable
                with lock:
                    unexpected.append(
                        f"{type(exc).__name__}: {exc}"
                    )
            else:
                elapsed = time.monotonic() - started
                with lock:
                    completed.append((canonical(results), elapsed))

    started = time.monotonic()
    workers = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(client_threads)
    ]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(HANG_BOUND)
        hung = [w for w in workers if w.is_alive()]
        violations.check(
            not hung,
            f"{len(hung)} client thread(s) still running after"
            f" {HANG_BOUND:.0f}s (deadlock?)",
        )
        if hung:
            return violations  # counters below would block/lie

        submitted = client_threads * queries_per_client
        violations.check(
            not unexpected,
            f"unexpected client errors: {unexpected[:3]}",
        )
        violations.check(
            len(completed) + len(shed) == submitted,
            f"accounting: {len(completed)} completed + {len(shed)} shed"
            f" != {submitted} submitted",
        )
        snapshot = mediator.admission.snapshot()
        violations.check(
            snapshot["submitted"]
            == snapshot["admitted"] + snapshot["shed"],
            f"controller accounting does not balance: {snapshot}",
        )
        violations.check(
            snapshot["admitted"] == snapshot["completed"],
            f"admitted != completed after drain: {snapshot}",
        )
        violations.check(
            snapshot["submitted"] == submitted,
            f"controller saw {snapshot['submitted']} of"
            f" {submitted} submissions",
        )
        violations.check(
            snapshot["inflight"] == 0 and snapshot["queue_depth"] == 0,
            f"controller not drained: {snapshot}",
        )
        # deadline invariant: admitted means "can finish in budget";
        # slack covers scheduler jitter around the governor's clock
        worst = max((elapsed for _, elapsed in completed), default=0.0)
        violations.check(
            worst <= deadline + 1.0,
            f"an admitted query took {worst:.2f}s against a"
            f" {deadline:.0f}s deadline budget",
        )
        for answer, _ in completed:
            violations.check(
                set(answer) <= set(fault_free),
                "a concurrent answer invents objects:"
                f" {sorted(set(answer) - set(fault_free))[:3]}",
            )
            if fault_rate == 0.0:
                violations.check(
                    answer == fault_free,
                    "fault-free concurrent answer differs from the"
                    " sequential reference",
                )
            if not violations:
                continue
            break
    finally:
        mediator.close()
    violations.check(
        mediator.closed and mediator.admission.closed,
        "close() did not propagate to the admission controller",
    )
    elapsed = time.monotonic() - started
    violations.check(
        elapsed < HANG_BOUND, f"schedule took {elapsed:.1f}s (hang?)"
    )
    if verbose:
        print(
            f"  concurrent: people={people} clients={client_threads}"
            f" parallelism={parallelism} faults={fault_rate}"
            f" -> {len(completed)} completed, {len(shed)} shed,"
            f" {len(violations)} violation(s)"
        )
    return violations


KINDS = (
    ("faults", run_fault_schedule),
    ("latency", run_latency_schedule),
    ("concurrent", run_concurrent_schedule),
)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chaos",
        description="seeded randomized fault schedules for the mediator",
    )
    parser.add_argument(
        "--seeds", type=int, default=25, metavar="N",
        help="number of seeded schedules per kind (default: 25)",
    )
    parser.add_argument(
        "--base-seed", type=int, default=1996, metavar="SEED",
        help="first seed; schedules are base..base+N-1 (default: 1996)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller scenarios and fewer rounds per schedule",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="print one line per schedule",
    )
    parser.add_argument(
        "--kind",
        choices=tuple(name for name, _ in KINDS) + ("all",),
        default="all",
        help="run only one schedule kind (default: all)",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    kinds = [
        (name, runner)
        for name, runner in KINDS
        if args.kind in ("all", name)
    ]

    failures = 0
    started = time.monotonic()
    for index in range(args.seeds):
        seed = args.base_seed + index
        for kind, runner in kinds:
            violations = runner(seed, args.quick, args.verbose)
            if violations:
                failures += 1
                print(f"FAIL seed={seed} kind={kind}")
                for violation in violations:
                    print(f"  - {violation}")
            elif args.verbose:
                print(f"ok   seed={seed} kind={kind}")
    elapsed = time.monotonic() - started
    total = args.seeds * len(kinds)
    print(
        f"chaos: {total - failures}/{total} schedule(s) clean"
        f" in {elapsed:.1f}s"
        + (f", {failures} FAILED" if failures else "")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

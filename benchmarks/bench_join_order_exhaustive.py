"""Extension experiment — §3.5 end to end: heuristic vs informed cost.

The paper's ad-hoc heuristic counts conditions; with the three-source
campus scenario, the ``hr`` pattern (dept 'eng', ~50% selective) ties
with the ``badges`` pattern (level 'gold', ~2% selective), so counting
cannot pick the right outer pattern.  The ``exhaustive`` strategy,
informed by sampled value-level selectivities, starts from the gold
badges and bind-joins outward — an order-of-magnitude fewer queries.
"""

import pytest

from repro.datasets import build_campus_scenario

PEOPLE = 300


def informed_exhaustive():
    scenario = build_campus_scenario(PEOPLE, strategy="exhaustive")
    for name in ("hr", "badges", "parking"):
        scenario.mediator.statistics.sample_source(
            scenario.registry.resolve(name)
        )
    return scenario


def test_heuristic_order(benchmark):
    scenario = build_campus_scenario(PEOPLE, strategy="heuristic")
    view = benchmark(scenario.mediator.export)
    assert len(view) >= 1


def test_exhaustive_informed_order(benchmark):
    scenario = informed_exhaustive()
    view = benchmark(scenario.mediator.export)
    assert len(view) >= 1


def test_cost_comparison(artifact_sink, benchmark):
    def series():
        rows = []
        heuristic = build_campus_scenario(PEOPLE, strategy="heuristic")
        heuristic.mediator.export()
        rows.append(
            (
                "heuristic (condition count)",
                heuristic.mediator.last_context.total_queries,
                heuristic.mediator.last_context.total_objects,
            )
        )
        exhaustive = informed_exhaustive()
        exhaustive.mediator.export()
        rows.append(
            (
                "exhaustive + sampled stats",
                exhaustive.mediator.last_context.total_queries,
                exhaustive.mediator.last_context.total_objects,
            )
        )
        return rows

    rows = benchmark.pedantic(series, rounds=1, iterations=1)
    table = "strategy                      queries  objects\n" + "\n".join(
        f"{s:<29} {q:>7} {o:>8}" for s, q, o in rows
    )
    artifact_sink(
        "S3.5 — join order: heuristic vs informed exhaustive"
        " (3-source campus)",
        table,
    )
    # objects, not calls: batched probes make every order the same
    # number of calls, and a bad order still ships more objects
    assert rows[1][2] < rows[0][2] / 3

"""Experiment S1 — pipeline scaling with source size.

Our sweep (the paper reports no numbers): end-to-end mediation cost as
the sources grow, for a selective point query and the full-view export.
The shape to hold: point queries stay near-flat thanks to pushdown and
the whois index, while full materialization grows linearly-plus (every
person crosses the wire and joins).
"""

import time

import pytest

from repro.datasets import build_scaled_scenario

SIZES = [50, 100, 200, 400]


@pytest.mark.parametrize("people", SIZES)
def test_point_query_scaling(people, benchmark):
    scenario = build_scaled_scenario(people, push_mode="needed")
    name = scenario.whois.export()[people // 2].get("name")
    query = f"X :- X:<cs_person {{<name '{name}'>}}>@med"
    result = benchmark(scenario.mediator.answer, query)
    assert len(result) <= 1


@pytest.mark.parametrize("people", SIZES)
def test_export_scaling(people, benchmark):
    scenario = build_scaled_scenario(people, push_mode="needed")
    view = benchmark(scenario.mediator.export)
    assert len(view) >= people * 0.7


def test_scaling_series(artifact_sink, benchmark):
    """The series the harness reports: one row per source size."""
    def series():
        rows = []
        for people in SIZES:
            scenario = build_scaled_scenario(people, push_mode="needed")
            name = scenario.whois.export()[people // 2].get("name")
            query = f"X :- X:<cs_person {{<name '{name}'>}}>@med"

            start = time.perf_counter()
            scenario.mediator.answer(query)
            point = time.perf_counter() - start

            start = time.perf_counter()
            view = scenario.mediator.export()
            full = time.perf_counter() - start
            rows.append((people, point * 1000, full * 1000, len(view)))
        return rows

    rows = benchmark.pedantic(series, rounds=1, iterations=1)

    table = (
        "people  point-query-ms  full-export-ms  view-size\n"
        + "\n".join(
            f"{p:>6}  {q:>14.2f}  {f:>14.2f}  {v:>9}" for p, q, f, v in rows
        )
    )
    artifact_sink("S1 — scaling with source size", table)
    # shape assertions: full export grows much faster than point queries
    first, last = rows[0], rows[-1]
    export_growth = last[2] / max(first[2], 1e-9)
    point_growth = last[1] / max(first[1], 1e-9)
    assert export_growth > point_growth

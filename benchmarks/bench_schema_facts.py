"""Extension experiment — footnote 1: schema facts prune dead rules.

The paper: regular structure "could be exported as additional facts
about this source".  When the relational wrapper exports its catalog as
facts, the optimizer prunes logical rules that require structure the
source can never have — here, the τ-style rule pushing a whois-only
field (``office``) toward ``cs``, which otherwise triggers one
parameterized query *per binding*.
"""

import pytest

from repro.datasets import build_scaled_scenario

QUERY = "S :- S:<cs_person {<office 'Gates 4'>}>@med"
PEOPLE = 200


def build(prune: bool):
    scenario = build_scaled_scenario(PEOPLE, push_mode="needed")
    scenario.mediator.optimizer.prune_with_facts = prune
    # count the paper's one-query-per-binding wire form; batched, a dead
    # rule costs one call however many bindings it would have probed
    scenario.mediator.semijoin = False
    return scenario


def test_with_fact_pruning(benchmark):
    scenario = build(True)
    result = benchmark(scenario.mediator.answer, QUERY)
    assert result


def test_without_fact_pruning(benchmark):
    scenario = build(False)
    result = benchmark(scenario.mediator.answer, QUERY)
    assert result


def test_pruning_saves_queries(artifact_sink, benchmark):
    def series():
        rows = []
        for prune in (True, False):
            scenario = build(prune)
            answers = scenario.mediator.answer(QUERY)
            context = scenario.mediator.last_context
            rows.append(
                (
                    "facts-pruned" if prune else "no-pruning",
                    len(answers),
                    scenario.mediator.optimizer.rules_pruned,
                    context.total_queries,
                    context.total_objects,
                )
            )
        return rows

    rows = benchmark.pedantic(series, rounds=1, iterations=1)
    table = (
        "mode          answers  rules-pruned  queries  objects\n"
        + "\n".join(
            f"{m:<13} {a:>7} {p:>13} {q:>8} {o:>8}"
            for m, a, p, q, o in rows
        )
    )
    artifact_sink("Footnote 1 — schema facts prune dead rules", table)
    by_mode = {m: (q, o) for m, a, p, q, o in rows}
    assert rows[0][1] == rows[1][1]  # same answers
    assert by_mode["facts-pruned"][0] < by_mode["no-pruning"][0] / 5

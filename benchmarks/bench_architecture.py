"""Experiment F1.1 — Figure 1.1: the layered TSIMMIS architecture.

Mediators are Sources, so views stack: application → mediator →
mediator → wrappers.  This benchmark measures the per-layer cost of
stacking (each layer re-expands, re-plans, and re-ships queries) and
the dedup ablation (footnote 9: the authors' engine lacked duplicate
elimination; the answer tail's is switched off here).
"""

import pytest

from repro.datasets import build_scaled_scenario
from repro.mediator import Mediator, fuse_objects
from repro.mediator import mediator as mediator_module

PEOPLE = 100


@pytest.fixture(scope="module")
def stacked():
    scenario = build_scaled_scenario(PEOPLE, push_mode="needed")
    Mediator(
        "summary",
        "<staff {<who N> <status R>}> :- <cs_person {<name N> <rel R>}>@med",
        scenario.registry,
    )
    Mediator(
        "top",
        "<entry {<n N2>}> :- <staff {<who N2>}>@summary",
        scenario.registry,
    )
    return scenario


def query_name(scenario):
    return scenario.whois.export()[PEOPLE // 2].get("name")


def test_one_layer(stacked, benchmark):
    name = query_name(stacked)
    result = benchmark(
        stacked.mediator.answer,
        f"X :- X:<cs_person {{<name '{name}'>}}>@med",
    )
    assert len(result) <= 1


def test_two_layers(stacked, benchmark):
    name = query_name(stacked)
    summary = stacked.registry.resolve("summary")
    result = benchmark(
        summary.answer, f"X :- X:<staff {{<who '{name}'>}}>@summary"
    )
    assert len(result) <= 1


def test_three_layers(stacked, benchmark):
    name = query_name(stacked)
    top = stacked.registry.resolve("top")
    result = benchmark(top.answer, f"X :- X:<entry {{<n '{name}'>}}>@top")
    assert len(result) <= 1


def test_layer_overhead_artifact(stacked, artifact_sink, benchmark):
    import time

    name = query_name(stacked)
    queries = [
        ("1 layer (med)", "med", f"X :- X:<cs_person {{<name '{name}'>}}>@med"),
        ("2 layers (summary)", "summary", f"X :- X:<staff {{<who '{name}'>}}>@summary"),
        ("3 layers (top)", "top", f"X :- X:<entry {{<n '{name}'>}}>@top"),
    ]
    def series():
        rows = []
        for label, source, query in queries:
            mediator = stacked.registry.resolve(source)
            start = time.perf_counter()
            for _ in range(5):
                mediator.answer(query)
            rows.append((label, (time.perf_counter() - start) / 5 * 1000))
        return rows

    rows = benchmark.pedantic(series, rounds=1, iterations=1)
    table = "\n".join(f"{label:<22} {ms:8.2f} ms" for label, ms in rows)
    artifact_sink("F1.1 — cost of stacking mediators (point query)", table)
    assert rows[-1][1] >= rows[0][1] * 0.5  # sanity: numbers are real


class TestDedupAblation:
    """Footnote 9: the answer tail's duplicate elimination on/off."""

    QUERY = "X :- X:<cs_person {<rel 'student'>}>@med"

    @staticmethod
    def without_dedup(monkeypatch):
        # MSL answers are duplicate-free by definition, so nothing in
        # the mediator switches this off: its answer tail is replaced by
        # one that fuses semantic oids but drops no duplicate
        monkeypatch.setattr(mediator_module, "finish", fuse_objects)

    def test_with_dedup(self, benchmark):
        scenario = build_scaled_scenario(PEOPLE, push_mode="complete")
        result = benchmark(scenario.mediator.answer, self.QUERY)
        keys = [str(o) for o in result]
        assert len(keys) == len(set(keys))

    def test_without_dedup(self, benchmark, artifact_sink, monkeypatch):
        with_dedup = build_scaled_scenario(
            PEOPLE, push_mode="complete"
        ).mediator.answer(self.QUERY)
        scenario = build_scaled_scenario(PEOPLE, push_mode="complete")
        self.without_dedup(monkeypatch)
        result = benchmark(scenario.mediator.answer, self.QUERY)
        artifact_sink(
            "Footnote 9 — duplicate elimination ablation",
            f"results with dedup: {len(with_dedup)}, without:"
            f" {len(result)} (the constructors' row dedup of footnote 3"
            f" runs either way)",
        )
        assert len(result) >= len(with_dedup)

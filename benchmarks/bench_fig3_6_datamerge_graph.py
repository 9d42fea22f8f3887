"""Experiment F3.6 — Figure 3.6: physical datamerge graph execution.

Regenerates the figure's walkthrough: the graph for logical rule Q3,
every node's flowing table (Qw's bindings, decomp output,
parameterized queries Qcs1/Qcs2, constructor output), and
measures graph execution node by node.
"""

import pytest

from repro.datasets import YEAR3_QUERY, build_scenario
from repro.mediator import ParameterizedQueryNode


@pytest.fixture(scope="module")
def traced_scenario():
    return build_scenario(push_mode="needed", trace=True)


def test_figure_3_6_artifact(traced_scenario, artifact_sink, benchmark):
    med = traced_scenario.mediator

    def run():
        return med.answer(YEAR3_QUERY)

    result = benchmark(run)
    assert len(result) == 1
    artifact_sink(
        "Figure 3.6 — physical datamerge graph (for the year-3 query)",
        med.explain(YEAR3_QUERY),
    )
    artifact_sink(
        "Figure 3.6 — node-by-node tables of the last execution",
        med.engine.render_trace(),
    )


def test_parameterized_queries_match_qcs(traced_scenario, artifact_sink, benchmark):
    """The concrete queries emitted to cs are the paper's Qcs1/Qcs2."""
    med = traced_scenario.mediator
    benchmark.pedantic(med.answer, args=(YEAR3_QUERY,), rounds=1, iterations=1)
    emitted = []
    for entry in med.last_context.trace:
        if isinstance(entry.node, ParameterizedQueryNode):
            parent_table = None
            # reconstruct the concrete queries from the node's input rows
            for previous in med.last_context.trace:
                if previous.node is entry.node.inputs[0]:
                    parent_table = previous.table
            assert parent_table is not None
            for row in parent_table.rows:
                emitted.append(
                    str(entry.node.instantiate(parent_table.row_dict(row)))
                )
    artifact_sink(
        "Section 3.1 — concrete parameterized queries sent to cs",
        "\n".join(emitted),
    )
    assert any("<student {" in q for q in emitted)
    assert any("'Naive'" in q for q in emitted)


def test_graph_execution_overhead(traced_scenario, benchmark):
    """Planning + execution for the two-rule program (no answer cache)."""
    med = traced_scenario.mediator
    program = med.expander.expand(
        __import__("repro.msl", fromlist=["parse_query"]).parse_query(
            YEAR3_QUERY
        )
    )

    def plan_and_execute():
        plan = med.optimizer.plan_program(program)
        from repro.mediator import DatamergeEngine

        return DatamergeEngine().execute_to_objects(plan, med._context())

    objects = benchmark(plan_and_execute)
    assert len(objects) == 1

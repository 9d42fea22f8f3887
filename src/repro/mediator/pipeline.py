"""Whole-plan *operator* fusion: straight-line datamerge segments
collapsed into single pipeline nodes.

Compiling patterns (:mod:`repro.msl.compile`, the one production
matcher) leaves the plan's shape alone: every arc of the datamerge
graph still materializes a full governed :class:`BindingTable`, and
the engine pays per-node dispatch, span, and admission overhead
between every pair of operators.  This module fuses maximal
straight-line chains of row-at-a-time operators —

    filter -> external-predicate -> parameterized-query probe ->
    constructor

— into one :class:`FusedPipelineNode` whose ``execute`` drives raw row
tuples from the source answer to the chain's output without building
the intermediate tables.  The fusibility policy is explicit, in the
style of ngraph's greedy dataflow fusion (SNIPPETS.md Snippet 1):

* only the four operator types above are fusible;
* **fan-out is a barrier** — a producer with more than one consumer
  ends its chain (each consumer sees the one materialized output);
* **joins and unions are barriers** — they need whole
  materialized inputs (and, for joins, the columnar key arrays of
  :mod:`repro.mediator.tables`);
* **dispatcher stage boundaries are barriers** — leaf ``QueryNode``\\ s
  are fanned out across worker threads by the engine's stage loop, so
  a chain never swallows one.

Equivalence contract (the PR-4 standard): a fused plan's output is
bit-for-bit equal to the unfused plan's — same rows in the same order,
same oid-generator call sequence, same warnings, and the same budget
truncation points.  That holds by construction: there is one body per
operator (``RowOperatorNode.run_rows`` in :mod:`repro.mediator.plan`)
and one per-node bookkeeping function (``run_node`` in
:mod:`repro.mediator.engine`).  An unfused node's ``execute`` is its
body run as a chain of one; a fused node runs its constituents' bodies
back to back, constituent-at-a-time (not row-at-a-time across
constituents), and differs only in where the intermediate rows land —
a bare governed row sink instead of a table, admitted in the same
order against the same budgets.  ``fuse=False`` and trace mode select
only whether :func:`fuse_plan` runs, never different operator code.

Naming note: this is **operator** fusion, a physical-plan
optimization.  It is unrelated to :mod:`repro.mediator.fusion`, which
implements the paper's semantic-oid **object** fusion (merging result
objects that share a semantic oid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.mediator.engine import run_node
from repro.mediator.plan import (
    ConstructorNode,
    ExternalPredNode,
    FilterNode,
    ParameterizedQueryNode,
    PhysicalPlan,
    PlanNode,
    sink_out,
    table_out,
)
from repro.mediator.tables import BindingTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mediator.engine import ExecutionContext

__all__ = [
    "FUSIBLE_TYPES",
    "FusedPipelineNode",
    "FusionDecision",
    "describe_operators",
    "fuse_plan",
    "plan_operators",
]

#: The straight-line operator types a chain may contain.  Everything
#: else — joins, unions, and source query leaves — is a barrier.
FUSIBLE_TYPES = (
    FilterNode,
    ExternalPredNode,
    ParameterizedQueryNode,
    ConstructorNode,
)


@dataclass(frozen=True)
class FusionDecision:
    """One per-chain decision of the fusion pass, for ``explain()``."""

    fused: bool
    nodes: tuple[str, ...]
    reason: str
    #: the operators ``nodes`` describes
    members: tuple[PlanNode, ...] = field(
        default=(), compare=False, repr=False
    )

    def render(self, params=None) -> str:
        mark = "+" if self.fused else "-"
        nodes = self.nodes
        if params:
            nodes = tuple(node.describe(params) for node in self.members)
        return f"{mark} {self.reason}: {' => '.join(nodes)}"


class FusedPipelineNode(PlanNode):
    """A maximal fusible chain executed as one plan node.

    ``fusion_width`` exposes the constituent count so
    :meth:`PhysicalPlan.stage_starts` numbers the fused plan's stages
    identically to the unfused plan's — deadline slicing and stage
    spans cannot tell the difference.
    """

    def __init__(self, nodes: Sequence[PlanNode]) -> None:
        super().__init__(nodes[0].inputs)
        self.nodes: tuple[PlanNode, ...] = tuple(nodes)

    @property
    def fusion_width(self) -> int:  # type: ignore[override]
        return len(self.nodes)

    def describe(self, params=None) -> str:
        inner = " => ".join(node.describe(params) for node in self.nodes)
        return f"pipeline [{inner}]"

    def execute(
        self, inputs: list[BindingTable], context: "ExecutionContext"
    ) -> BindingTable:
        """Run the constituents' own bodies back to back.

        Each goes through the engine's :func:`run_node`, so budget
        violations name the constituent and it reports the rows, time
        and q-error a node-at-a-time run would; only the last one's
        output is a table.
        """
        (out,) = inputs
        slicer = context.slicer
        base = context.stage_base
        last = len(self.nodes) - 1
        for offset, node in enumerate(self.nodes):
            if slicer is not None and offset:
                # the deadline slicer advances one stage per constituent
                slicer.enter_stage(base + offset)
            out = run_node(
                node,
                context,
                len(out),
                node.run_rows,
                (out, context, table_out if offset == last else sink_out),
                kind="pipeline-stage",
            )
        return out


# -- the fusion pass -------------------------------------------------------


def _keep_reason(node: PlanNode, consumers: dict[int, int]) -> str:
    child = node.inputs[0]
    if not isinstance(child, FUSIBLE_TYPES):
        return (
            f"kept single operator: upstream {type(child).__name__}"
            " is a fusion barrier"
        )
    fan_out = consumers.get(id(child), 0)
    if fan_out > 1:
        return (
            "kept single operator: upstream operator fans out to"
            f" {fan_out} consumers"
        )
    return "kept single operator"  # pragma: no cover - defensive


def fuse_plan(
    plan: PhysicalPlan,
) -> tuple[PhysicalPlan, list[FusionDecision]]:
    """Greedily fuse maximal straight-line chains of ``plan``.

    Walks the plan bottom-up; a fusible node extends the chain ending
    at its single input when that input is the chain's tail and has no
    other consumers, otherwise it starts a new chain.  Chains of two
    or more operators become :class:`FusedPipelineNode`\\ s; the graph
    is rewired around them and a new :class:`PhysicalPlan` is
    returned together with the per-chain :class:`FusionDecision` list
    (surfaced by ``Mediator.explain``).  Plans with nothing to fuse
    are returned unchanged.
    """
    nodes = plan.nodes()
    consumers: dict[int, int] = {}
    for node in nodes:
        for child in node.inputs:
            consumers[id(child)] = consumers.get(id(child), 0) + 1
    chains: list[list[PlanNode]] = []
    chain_of: dict[int, list[PlanNode]] = {}
    for node in nodes:
        if not isinstance(node, FUSIBLE_TYPES):
            continue
        child = node.inputs[0]
        chain = chain_of.get(id(child))
        if (
            chain is not None
            and chain[-1] is child
            and consumers.get(id(child), 0) == 1
        ):
            chain.append(node)
        else:
            chain = [node]
            chains.append(chain)
        chain_of[id(node)] = chain
    replacement: dict[int, PlanNode] = {}
    decisions: list[FusionDecision] = []
    fused_nodes: list[FusedPipelineNode] = []
    for chain in chains:
        if len(chain) >= 2:
            fused = FusedPipelineNode(chain)
            fused_nodes.append(fused)
            for member in chain:
                replacement[id(member)] = fused
            decisions.append(
                FusionDecision(
                    fused=True,
                    nodes=tuple(member.describe() for member in chain),
                    reason=f"fused {len(chain)}-operator chain",
                    members=tuple(chain),
                )
            )
        else:
            decisions.append(
                FusionDecision(
                    fused=False,
                    nodes=(chain[0].describe(),),
                    reason=_keep_reason(chain[0], consumers),
                    members=tuple(chain),
                )
            )
    if not fused_nodes:
        return plan, decisions
    interior = {
        id(member)
        for chain in chains
        if len(chain) >= 2
        for member in chain
    }
    survivors = [node for node in nodes if id(node) not in interior]
    for node in survivors + list(fused_nodes):
        node.inputs = tuple(
            replacement.get(id(child), child) for child in node.inputs
        )
    root = replacement.get(id(plan.root), plan.root)
    return PhysicalPlan(root), decisions


# -- a fused plan, operator by operator ------------------------------------


def plan_operators(plan: PhysicalPlan) -> list[PlanNode]:
    """Every operator of ``plan`` in bottom-up order, the constituents
    of its pipelines in place of the pipeline nodes."""
    return [
        operator
        for node in plan.nodes()
        for operator in getattr(node, "nodes", (node,))
    ]


def describe_operators(plan: PhysicalPlan, params=None) -> str:
    """:meth:`PhysicalPlan.describe` of the plan ``plan`` was fused
    from: one numbered line per operator, each chain written out."""
    last: dict[int, int] = {}  # plan node -> number of its last operator
    lines: list[str] = []
    for node in plan.nodes():
        refs = [last[id(child)] for child in node.inputs]
        for operator in getattr(node, "nodes", (node,)):
            number = len(lines) + 1
            suffix = (
                f"  <- [{', '.join(map(str, refs))}]" if refs else ""
            )
            lines.append(f"[{number}] {operator.describe(params)}{suffix}")
            refs = [number]
        last[id(node)] = number
    return "\n".join(lines)

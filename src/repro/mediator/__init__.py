"""MedMaker's Mediator Specification Interpreter (MSI) — the paper's
primary contribution: view expansion, cost-based optimization, and the
datamerge engine, wrapped in the Mediator facade."""

from repro.mediator.engine import DatamergeEngine, ExecutionContext
from repro.mediator.events import TraceEntry
from repro.mediator.fusion import fuse_objects, has_semantic_oids
from repro.mediator.logical import LogicalDatamergeProgram, LogicalRule
from repro.mediator.mediator import Mediator, MediatorError
from repro.mediator.optimizer import (
    CostBasedOptimizer,
    PlanningError,
    STRATEGIES,
)
from repro.mediator.pipeline import (
    FusedPipelineNode,
    FusionDecision,
    fuse_plan,
)
from repro.mediator.plan import (
    ConstructorNode,
    ExternalPredNode,
    FilterNode,
    JoinNode,
    ParameterizedQueryNode,
    PhysicalPlan,
    PlanNode,
    QueryNode,
    RESULT_COLUMN,
    UnionNode,
)
from repro.mediator.statistics import SourceStatistics
from repro.mediator.tables import BindingTable, TableError
from repro.mediator.unify import Unifier, apply_mapping_to_pattern, unify_with_head
from repro.mediator.view_expander import ExpansionError, ViewExpander

__all__ = [
    "BindingTable",
    "ConstructorNode",
    "CostBasedOptimizer",
    "DatamergeEngine",
    "ExecutionContext",
    "ExpansionError",
    "ExternalPredNode",
    "FilterNode",
    "FusedPipelineNode",
    "FusionDecision",
    "JoinNode",
    "LogicalDatamergeProgram",
    "LogicalRule",
    "Mediator",
    "MediatorError",
    "ParameterizedQueryNode",
    "PhysicalPlan",
    "PlanNode",
    "PlanningError",
    "QueryNode",
    "RESULT_COLUMN",
    "STRATEGIES",
    "SourceStatistics",
    "TableError",
    "TraceEntry",
    "Unifier",
    "UnionNode",
    "ViewExpander",
    "apply_mapping_to_pattern",
    "fuse_objects",
    "fuse_plan",
    "has_semantic_oids",
    "unify_with_head",
]
